//! Postmortem dumps: when something goes wrong — a panic anywhere in
//! the process, or an explicitly triggered incident — the last events
//! in the flight ring plus a full metrics snapshot are written to a
//! timestamped JSON file, so the record of what led up to the failure
//! survives the process.
//!
//! Dumping is armed by [`set_dir`] (the CLI's `--postmortem-dir`);
//! with no directory configured every trigger is a no-op, which is
//! what lets the recorder itself stay always-on.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{SystemTime, UNIX_EPOCH};

use dbcast_obs::doc::{self, Document};
use dbcast_obs::snapshot::Snapshot;
use serde::{Deserialize, Serialize};

use crate::{recorder, FlightDoc};

/// A postmortem dump: why it was written, when, the flight ring and
/// the full obs metrics snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct Postmortem {
    /// The trigger (`panic: …` or the incident's reason).
    pub reason: String,
    /// Wall-clock time of the dump, ms since the Unix epoch.
    pub unix_ms: u64,
    /// The flight ring at dump time.
    pub flight: FlightDoc,
    /// The obs registry snapshot, checked as the `metrics` document is.
    pub metrics: Snapshot,
}

impl Postmortem {
    /// Captures the global recorder and registry for `reason`.
    pub fn capture(reason: &str) -> Postmortem {
        Postmortem {
            reason: reason.to_string(),
            unix_ms: unix_ms(),
            flight: recorder().doc(),
            metrics: dbcast_obs::registry().snapshot(),
        }
    }
}

impl Document for Postmortem {
    const KIND: &'static str = "postmortem";
    const SCHEMA: u32 = 2;

    fn check(&self) -> Result<(), String> {
        self.metrics.check().map_err(|e| format!("metrics: {e}"))?;
        self.flight.check()
    }
}

fn unix_ms() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_millis() as u64).unwrap_or(0)
}

fn dir_cell() -> &'static Mutex<Option<PathBuf>> {
    static DIR: OnceLock<Mutex<Option<PathBuf>>> = OnceLock::new();
    DIR.get_or_init(|| Mutex::new(None))
}

/// Arms postmortem dumping: triggers (incidents and the panic hook)
/// write into `dir`. Pass `None` to disarm.
pub fn set_dir(dir: Option<PathBuf>) {
    *dir_cell().lock().expect("postmortem dir lock poisoned") = dir;
}

/// The currently armed postmortem directory, if any.
pub fn dir() -> Option<PathBuf> {
    dir_cell().lock().expect("postmortem dir lock poisoned").clone()
}

/// Writes the postmortem for `reason` into `dir`, returning the file
/// path (`postmortem-<unix_ms>-<counter>-<slug>.json`; the counter
/// disambiguates dumps within one millisecond).
///
/// # Errors
///
/// Propagates filesystem failures.
pub fn dump_to(dir: &Path, reason: &str) -> io::Result<PathBuf> {
    static DUMP_SEQ: AtomicU64 = AtomicU64::new(0);
    std::fs::create_dir_all(dir)?;
    let dump = Postmortem::capture(reason);
    let n = DUMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let slug: String = reason
        .chars()
        .take(32)
        .map(|c| if c.is_ascii_alphanumeric() { c.to_ascii_lowercase() } else { '-' })
        .collect();
    let path = dir.join(format!("postmortem-{}-{n}-{slug}.json", dump.unix_ms));
    std::fs::write(&path, doc::render(&dump))?;
    Ok(path)
}

/// Triggers an incident dump if a directory is armed; returns the
/// written path, `None` when disarmed or on I/O failure (an incident
/// dump must never take the serving process down with it).
pub fn incident(reason: &str) -> Option<PathBuf> {
    let dir = dir()?;
    dump_to(&dir, reason).ok()
}

/// Installs a panic hook that writes a postmortem dump (when a
/// directory is armed) before delegating to the previously installed
/// hook. Idempotent: the hook chains at most once per process.
pub fn install_panic_hook() {
    static INSTALLED: OnceLock<()> = OnceLock::new();
    INSTALLED.get_or_init(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let message = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| info.payload().downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "panic".to_string());
            if let Some(dir) = dir() {
                if let Ok(path) = dump_to(&dir, &format!("panic: {message}")) {
                    eprintln!("flight: postmortem written to {}", path.display());
                }
            }
            previous(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, FlightEvent};

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dbcast_flight_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn dump_writes_schema_reason_and_events() {
        let dir = temp_dir("dump");
        recorder().record(
            FlightEvent::new(EventKind::DriftScore, 3, 1, 0.5).value(0.33).extra(1),
        );
        let path = dump_to(&dir, "unit-test incident").unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        let dump: Postmortem = doc::decode(&body).expect("dump decodes");
        assert_eq!(dump.reason, "unit-test incident");
        assert!(dump.flight.events.iter().any(|e| e.kind == EventKind::DriftScore));
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        assert!(name.starts_with("postmortem-") && name.ends_with(".json"), "{name}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn incident_is_noop_when_disarmed() {
        // Serialize against other tests that arm the global directory.
        let dir = temp_dir("incident");
        set_dir(None);
        assert!(incident("nothing armed").is_none());
        set_dir(Some(dir.clone()));
        let path = incident("armed now").expect("dump written");
        assert!(path.exists());
        set_dir(None);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
