//! A minimal `--flag value` argument parser (no external dependencies).

use std::collections::BTreeMap;
use std::fmt;

/// A parsed command line: a subcommand, an optional action (second
/// positional, e.g. `dbcast flight dump`), plus `--key value` options
/// and bare `--switch` flags.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Args {
    command: Option<String>,
    action: Option<String>,
    options: BTreeMap<String, String>,
    switches: Vec<String>,
}

/// Errors from argument parsing and lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgsError {
    /// A `--key` appeared at the end without a value.
    MissingValue(String),
    /// A required option was not supplied.
    Required(String),
    /// An option failed to parse into its target type.
    Invalid {
        /// The option name.
        key: String,
        /// The unparseable raw value.
        value: String,
    },
    /// A positional argument appeared where none is accepted.
    UnexpectedPositional(String),
}

impl fmt::Display for ArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgsError::MissingValue(k) => write!(f, "option --{k} is missing its value"),
            ArgsError::Required(k) => write!(f, "required option --{k} was not provided"),
            ArgsError::Invalid { key, value } => {
                write!(f, "option --{key} has invalid value {value:?}")
            }
            ArgsError::UnexpectedPositional(v) => {
                write!(f, "unexpected positional argument {v:?}")
            }
        }
    }
}

impl std::error::Error for ArgsError {}

/// Option keys that act as bare switches (no value).
const SWITCHES: &[&str] = &["json", "quick", "help", "trace", "simulate", "once"];

impl Args {
    /// Parses an iterator of raw arguments (without the program name).
    ///
    /// # Errors
    ///
    /// [`ArgsError::MissingValue`] when a valued `--key` is last;
    /// [`ArgsError::UnexpectedPositional`] for stray positionals after
    /// the subcommand.
    pub fn parse<I, S>(raw: I) -> Result<Self, ArgsError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut args = Args::default();
        let mut it = raw.into_iter().map(Into::into).peekable();
        while let Some(tok) = it.next() {
            if let Some(key) = tok.strip_prefix("--") {
                if SWITCHES.contains(&key) {
                    args.switches.push(key.to_string());
                } else {
                    let value =
                        it.next().ok_or_else(|| ArgsError::MissingValue(key.into()))?;
                    args.options.insert(key.to_string(), value);
                }
            } else if args.command.is_none() {
                args.command = Some(tok);
            } else if args.action.is_none() {
                args.action = Some(tok);
            } else {
                return Err(ArgsError::UnexpectedPositional(tok));
            }
        }
        Ok(args)
    }

    /// The subcommand, if any.
    pub fn command(&self) -> Option<&str> {
        self.command.as_deref()
    }

    /// The action (second positional, e.g. `dump` in
    /// `dbcast flight dump`), if any.
    pub fn action(&self) -> Option<&str> {
        self.action.as_deref()
    }

    /// Whether a bare switch (e.g. `--json`) was given.
    pub fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// An optional option, parsed.
    ///
    /// # Errors
    ///
    /// [`ArgsError::Invalid`] when present but unparseable.
    pub fn opt<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, ArgsError> {
        match self.options.get(key) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| ArgsError::Invalid { key: key.to_string(), value: v.clone() }),
        }
    }

    /// A required option, parsed.
    ///
    /// # Errors
    ///
    /// [`ArgsError::Required`] when absent, [`ArgsError::Invalid`] when
    /// unparseable.
    #[cfg_attr(not(test), allow(dead_code))] // part of the parser's API surface
    pub fn require<T: std::str::FromStr>(&self, key: &str) -> Result<T, ArgsError> {
        self.opt(key)?.ok_or_else(|| ArgsError::Required(key.to_string()))
    }

    /// An optional option with a default.
    ///
    /// # Errors
    ///
    /// [`ArgsError::Invalid`] when present but unparseable.
    pub fn opt_or<T: std::str::FromStr>(
        &self,
        key: &str,
        default: T,
    ) -> Result<T, ArgsError> {
        Ok(self.opt(key)?.unwrap_or(default))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_command_options_and_switches() {
        let args =
            Args::parse(["allocate", "--channels", "5", "--algo", "drp-cds", "--json"])
                .unwrap();
        assert_eq!(args.command(), Some("allocate"));
        assert_eq!(args.require::<usize>("channels").unwrap(), 5);
        assert_eq!(args.require::<String>("algo").unwrap(), "drp-cds");
        assert!(args.switch("json"));
        assert!(!args.switch("quick"));
    }

    #[test]
    fn missing_value_is_reported() {
        assert_eq!(
            Args::parse(["gen", "--items"]),
            Err(ArgsError::MissingValue("items".into()))
        );
    }

    #[test]
    fn second_positional_is_the_action() {
        let args = Args::parse(["flight", "dump", "--input", "pm.json"]).unwrap();
        assert_eq!(args.command(), Some("flight"));
        assert_eq!(args.action(), Some("dump"));
        assert_eq!(args.require::<String>("input").unwrap(), "pm.json");
        assert_eq!(Args::parse(["gen"]).unwrap().action(), None);
    }

    #[test]
    fn unexpected_positional_is_reported() {
        assert!(matches!(
            Args::parse(["gen", "act", "stray"]),
            Err(ArgsError::UnexpectedPositional(_))
        ));
    }

    #[test]
    fn required_and_invalid() {
        let args = Args::parse(["gen", "--items", "abc"]).unwrap();
        assert!(matches!(args.require::<usize>("items"), Err(ArgsError::Invalid { .. })));
        assert!(matches!(args.require::<usize>("channels"), Err(ArgsError::Required(_))));
        assert_eq!(args.opt_or::<usize>("channels", 6).unwrap(), 6);
    }

    #[test]
    fn empty_args_are_fine() {
        let args = Args::parse(Vec::<String>::new()).unwrap();
        assert_eq!(args.command(), None);
    }
}
