//! The one envelope every telemetry document travels in.
//!
//! Every schema-versioned JSON document the workspace writes is
//! rendered by [`render`] and read back by [`decode`]: the metrics
//! snapshot (`--metrics-out`, `dbcast stats`), postmortem dumps, the
//! fleet run report (`dbcast fleet --out`/`--json`) and the `/flight`,
//! `/status`, `/exemplars` and `/fleet` endpoints. `dbcast flight check`
//! validates any of them by its `kind`:
//!
//! ```text
//! { "schema": <u32>, "kind": "<Document::KIND>", "body": { … } }
//! ```
//!
//! A body type derives its fields (with `#[serde(deny_unknown_fields)]`,
//! so unknown and duplicated keys are rejected by the derive) and
//! implements [`Document`]: its kind, its schema version and the
//! semantic invariants that the field types cannot express. Decoding is
//! strict in that order: well-formed JSON and fields ([`DocError::Parse`]),
//! then the kind and schema the caller asked for, then
//! [`Document::check`].

use std::fmt;

use serde::{Deserialize, Serialize};

/// The wire wrapper around every document body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct Envelope {
    /// The body's schema version ([`Document::SCHEMA`]).
    pub schema: u32,
    /// Which document the body is ([`Document::KIND`]).
    pub kind: String,
    /// The document itself.
    pub body: serde_json::Value,
}

/// A schema-versioned telemetry document body.
pub trait Document: Serialize + Deserialize {
    /// The envelope `kind`, e.g. `"flight"`.
    const KIND: &'static str;
    /// The body schema version; bump on incompatible changes.
    const SCHEMA: u32;

    /// The invariants a well-formed body must satisfy beyond its field
    /// types; the message names the offending element.
    ///
    /// # Errors
    ///
    /// A description of the first violated invariant.
    fn check(&self) -> Result<(), String> {
        Ok(())
    }
}

/// Why a document failed to decode.
#[derive(Debug, Clone, PartialEq)]
pub enum DocError {
    /// Not JSON, or the envelope or body does not match its fields
    /// (missing, unknown or duplicated keys, wrong types).
    Parse(String),
    /// The envelope carries a schema version the body type does not
    /// support.
    Schema {
        /// The document kind.
        kind: &'static str,
        /// The supported version.
        expected: u32,
        /// The version found.
        found: u32,
    },
    /// The envelope holds a different kind of document.
    Kind {
        /// The kind asked for.
        expected: &'static str,
        /// The kind found.
        found: String,
    },
    /// The body parsed but violates one of its invariants.
    Check {
        /// The document kind.
        kind: &'static str,
        /// The violated invariant.
        reason: String,
    },
}

impl fmt::Display for DocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DocError::Parse(e) => write!(f, "malformed document: {e}"),
            DocError::Schema { kind, expected, found } => {
                write!(f, "{kind} document has schema {found}, expected {expected}")
            }
            DocError::Kind { expected, found } => {
                write!(f, "expected a {expected} document, found {found:?}")
            }
            DocError::Check { kind, reason } => {
                write!(f, "invalid {kind} document: {reason}")
            }
        }
    }
}

impl std::error::Error for DocError {}

/// Renders `body` in its envelope as pretty-printed JSON (one key per
/// line, `"key": value`), newline-terminated.
pub fn render<D: Document>(body: &D) -> String {
    let envelope =
        Envelope { schema: D::SCHEMA, kind: D::KIND.to_string(), body: body.to_value() };
    let mut out = serde_json::to_string_pretty(&envelope).expect("a value tree renders");
    out.push('\n');
    out
}

impl Envelope {
    /// Parses the envelope of any document, leaving the body undecoded
    /// (for callers that dispatch on [`Envelope::kind`]).
    ///
    /// # Errors
    ///
    /// [`DocError::Parse`] when the text is not a well-formed envelope.
    pub fn parse(text: &str) -> Result<Envelope, DocError> {
        let envelope: Envelope =
            serde_json::from_str(text).map_err(|e| DocError::Parse(e.to_string()))?;
        if envelope.body.is_null() {
            return Err(DocError::Parse("the envelope has no body".to_string()));
        }
        Ok(envelope)
    }

    /// Decodes the body as `D`, checking kind, schema and invariants.
    ///
    /// # Errors
    ///
    /// [`DocError::Kind`], [`DocError::Schema`], [`DocError::Parse`] (a
    /// body that does not match `D`'s fields) or [`DocError::Check`].
    pub fn open<D: Document>(&self) -> Result<D, DocError> {
        if self.kind != D::KIND {
            return Err(DocError::Kind { expected: D::KIND, found: self.kind.clone() });
        }
        if self.schema != D::SCHEMA {
            return Err(DocError::Schema {
                kind: D::KIND,
                expected: D::SCHEMA,
                found: self.schema,
            });
        }
        let body = D::from_value(&self.body)
            .map_err(|e| DocError::Parse(format!("{} body: {e}", D::KIND)))?;
        body.check().map_err(|reason| DocError::Check { kind: D::KIND, reason })?;
        Ok(body)
    }
}

/// Parses a document of type `D` from its rendered text.
///
/// # Errors
///
/// See [`Envelope::parse`] and [`Envelope::open`].
pub fn decode<D: Document>(text: &str) -> Result<D, DocError> {
    Envelope::parse(text)?.open()
}
