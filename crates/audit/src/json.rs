//! The `/exemplars` wire format: a schema-versioned JSON document
//! rendered by a self-contained writer and re-parsed by a strict
//! validator — the same posture `/metrics` (OpenMetrics parser) and
//! `/series` (scope validator) take, so a malformed export fails in
//! `dbcast flight check-exemplars` rather than in an operator's
//! console.
//!
//! Schema v1:
//!
//! ```text
//! { "schema": 1, "capacity": C, "recorded": R,
//!   "sampled": S, "tail": T, "straddled": X, "generation": G,
//!   "residuals": [ { "channel", "requests", "observed_mean",
//!                    "predicted_mean", "residual" }, … ],
//!   "history":   [ { "generation", "channels": [same shape] }, … ],
//!   "records":   [ { "request_id", "item", "arrival_tick",
//!                    "satisfied_tick", "generation", "channel",
//!                    "queue_position", "arrival", "wait", "predicted",
//!                    "straddle_penalty", "residual",
//!                    "seeded", "tail", "straddled" }, … ] }
//! ```
//!
//! The validator is the schema's executable definition: it checks the
//! version, record ordering, flag consistency, and — the audit layer's
//! core contract — that every record's wait decomposition
//! `predicted + residual + straddle_penalty` sums back to the observed
//! wait within 1e-9.

use std::fmt;

use dbcast_obs::snapshot::json_f64;

use crate::residual::{ChannelResidual, GenerationResiduals};
use crate::ring::{TraceRecord, FLAG_SEEDED, FLAG_STRADDLED, FLAG_TAIL};
use crate::AuditSnapshot;

/// The current `/exemplars` schema version.
pub const SCHEMA_VERSION: u64 = 1;

/// Decomposition components must reassemble the observed wait within
/// this absolute-relative tolerance.
pub const DECOMPOSITION_TOLERANCE: f64 = 1e-9;

/// Why an `/exemplars` payload failed validation.
#[derive(Debug, Clone, PartialEq)]
pub enum AuditJsonError {
    /// The text is not well-formed JSON.
    Parse(String),
    /// The JSON does not satisfy schema v1; the string names the
    /// offending element.
    Schema(String),
}

impl fmt::Display for AuditJsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditJsonError::Parse(e) => write!(f, "/exemplars payload is not JSON: {e}"),
            AuditJsonError::Schema(e) => {
                write!(f, "/exemplars payload violates schema: {e}")
            }
        }
    }
}

impl std::error::Error for AuditJsonError {}

fn push_channels(out: &mut String, channels: &[ChannelResidual]) {
    out.push('[');
    for (i, c) in channels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"channel\": {}, \"requests\": {}, \"observed_mean\": {}, \
             \"predicted_mean\": {}, \"residual\": {}}}",
            c.channel,
            c.requests,
            json_f64(c.observed_mean),
            json_f64(c.predicted_mean),
            json_f64(c.residual)
        ));
    }
    out.push(']');
}

/// Renders a tracer snapshot to the schema-v1 wire form.
pub fn render(snap: &AuditSnapshot) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str(&format!(
        "{{\"schema\": {}, \"capacity\": {}, \"recorded\": {}, \"sampled\": {}, \
         \"tail\": {}, \"straddled\": {}, \"generation\": {},\n\"residuals\": ",
        SCHEMA_VERSION,
        snap.capacity,
        snap.recorded,
        snap.sampled,
        snap.tail,
        snap.straddled,
        snap.residuals.generation
    ));
    push_channels(&mut out, &snap.residuals.channels);
    out.push_str(",\n\"history\": [");
    for (i, h) in snap.history.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n {{\"generation\": {}, \"channels\": ", h.generation));
        push_channels(&mut out, &h.channels);
        out.push('}');
    }
    out.push_str("],\n\"records\": [");
    for (i, r) in snap.records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n {{\"request_id\": {}, \"item\": {}, \"arrival_tick\": {}, \
             \"satisfied_tick\": {}, \"generation\": {}, \"channel\": {}, \
             \"queue_position\": {}, \"arrival\": {}, \"wait\": {}, \
             \"predicted\": {}, \"straddle_penalty\": {}, \"residual\": {}, \
             \"seeded\": {}, \"tail\": {}, \"straddled\": {}}}",
            r.request_id,
            r.item,
            r.arrival_tick,
            r.satisfied_tick,
            r.generation,
            r.channel,
            r.queue_position,
            json_f64(r.arrival),
            json_f64(r.wait),
            json_f64(r.predicted),
            json_f64(r.straddle_penalty),
            json_f64(r.residual()),
            r.seeded(),
            r.tail(),
            r.straddled()
        ));
    }
    out.push_str("]}\n");
    out
}

fn schema_err<T>(msg: impl Into<String>) -> Result<T, AuditJsonError> {
    Err(AuditJsonError::Schema(msg.into()))
}

fn req_u64(
    parent: &serde_json::Value,
    field: &str,
    what: &str,
) -> Result<u64, AuditJsonError> {
    parent
        .get(field)
        .and_then(|v| v.as_u64())
        .ok_or_else(|| AuditJsonError::Schema(format!("{what}.{field} is not a u64")))
}

fn req_finite(
    parent: &serde_json::Value,
    field: &str,
    what: &str,
) -> Result<f64, AuditJsonError> {
    match parent.get(field).and_then(|v| v.as_f64()) {
        Some(x) if x.is_finite() => Ok(x),
        _ => schema_err(format!("{what}.{field} is not a finite number")),
    }
}

fn req_bool(
    parent: &serde_json::Value,
    field: &str,
    what: &str,
) -> Result<bool, AuditJsonError> {
    parent
        .get(field)
        .and_then(|v| v.as_bool())
        .ok_or_else(|| AuditJsonError::Schema(format!("{what}.{field} is not a bool")))
}

fn parse_channels(
    v: &serde_json::Value,
    what: &str,
) -> Result<Vec<ChannelResidual>, AuditJsonError> {
    let seq = v
        .as_seq()
        .ok_or_else(|| AuditJsonError::Schema(format!("{what} is not a sequence")))?;
    let mut out = Vec::with_capacity(seq.len());
    for (i, entry) in seq.iter().enumerate() {
        let what = format!("{what}[{i}]");
        let channel = req_u64(entry, "channel", &what)? as usize;
        if channel != i {
            return schema_err(format!("{what} is channel {channel}, expected {i}"));
        }
        let requests = req_u64(entry, "requests", &what)?;
        let observed_mean = req_finite(entry, "observed_mean", &what)?;
        let predicted_mean = req_finite(entry, "predicted_mean", &what)?;
        let residual = req_finite(entry, "residual", &what)?;
        let tol = DECOMPOSITION_TOLERANCE * observed_mean.abs().max(1.0);
        if (residual - (observed_mean - predicted_mean)).abs() > tol {
            return schema_err(format!(
                "{what} residual {residual} != observed {observed_mean} - \
                 predicted {predicted_mean}"
            ));
        }
        if requests == 0 && (observed_mean != 0.0 || predicted_mean != 0.0) {
            return schema_err(format!("{what} has means but zero requests"));
        }
        out.push(ChannelResidual {
            channel,
            requests,
            observed_mean,
            predicted_mean,
            residual,
        });
    }
    Ok(out)
}

/// Parses and strictly validates an `/exemplars` payload.
///
/// # Errors
///
/// [`AuditJsonError::Parse`] for malformed JSON; [`AuditJsonError::Schema`]
/// when any schema-v1 invariant fails (wrong version, out-of-order
/// records, a record in neither sampling stage, a straddle flag
/// without a penalty or vice versa, a decomposition that does not sum
/// back to the observed wait, residual tables whose arithmetic is
/// inconsistent, …).
pub fn validate(text: &str) -> Result<AuditSnapshot, AuditJsonError> {
    let root: serde_json::Value =
        serde_json::from_str(text).map_err(|e| AuditJsonError::Parse(e.to_string()))?;
    let schema = req_u64(&root, "schema", "document")?;
    if schema != SCHEMA_VERSION {
        return schema_err(format!("unsupported schema version {schema}"));
    }
    let capacity = req_u64(&root, "capacity", "document")? as usize;
    if !capacity.is_power_of_two() {
        return schema_err(format!("capacity {capacity} is not a power of two"));
    }
    let recorded = req_u64(&root, "recorded", "document")?;
    let sampled = req_u64(&root, "sampled", "document")?;
    let tail = req_u64(&root, "tail", "document")?;
    let straddled = req_u64(&root, "straddled", "document")?;
    let generation = req_u64(&root, "generation", "document")?;

    let residuals = GenerationResiduals {
        generation,
        channels: parse_channels(
            root.get("residuals").unwrap_or(&serde_json::Value::Null),
            "residuals",
        )?,
    };

    let history_val = root
        .get("history")
        .and_then(|v| v.as_seq())
        .ok_or(AuditJsonError::Schema("missing history array".into()))?;
    let mut history = Vec::with_capacity(history_val.len());
    let mut prev_gen: Option<u64> = None;
    for (i, entry) in history_val.iter().enumerate() {
        let what = format!("history[{i}]");
        let generation = req_u64(entry, "generation", &what)?;
        if prev_gen.is_some_and(|p| p >= generation) {
            return schema_err(format!("{what} generations not strictly increasing"));
        }
        prev_gen = Some(generation);
        let channels = parse_channels(
            entry.get("channels").unwrap_or(&serde_json::Value::Null),
            &format!("{what}.channels"),
        )?;
        history.push(GenerationResiduals { generation, channels });
    }

    let records_val = root
        .get("records")
        .and_then(|v| v.as_seq())
        .ok_or(AuditJsonError::Schema("missing records array".into()))?;
    if records_val.len() > capacity {
        return schema_err(format!(
            "{} records exceed the declared capacity {capacity}",
            records_val.len()
        ));
    }
    let mut records = Vec::with_capacity(records_val.len());
    let mut prev_id: Option<u64> = None;
    for (i, entry) in records_val.iter().enumerate() {
        let what = format!("records[{i}]");
        let request_id = req_u64(entry, "request_id", &what)?;
        if prev_id.is_some_and(|p| p >= request_id) {
            return schema_err(format!("{what} request_ids not strictly increasing"));
        }
        prev_id = Some(request_id);
        let wait = req_finite(entry, "wait", &what)?;
        let predicted = req_finite(entry, "predicted", &what)?;
        let straddle_penalty = req_finite(entry, "straddle_penalty", &what)?;
        let residual = req_finite(entry, "residual", &what)?;
        if wait < 0.0 || predicted < 0.0 || straddle_penalty < 0.0 {
            return schema_err(format!("{what} has a negative wait component"));
        }
        let tol = DECOMPOSITION_TOLERANCE * wait.abs().max(1.0);
        if (predicted + residual + straddle_penalty - wait).abs() > tol {
            return schema_err(format!(
                "{what} decomposition {predicted} + {residual} + {straddle_penalty} \
                 does not sum to wait {wait}"
            ));
        }
        let seeded = req_bool(entry, "seeded", &what)?;
        let tail = req_bool(entry, "tail", &what)?;
        let straddled_flag = req_bool(entry, "straddled", &what)?;
        if !seeded && !tail {
            return schema_err(format!("{what} was caught by neither sampling stage"));
        }
        if straddled_flag != (straddle_penalty > 0.0) {
            return schema_err(format!(
                "{what} straddled={straddled_flag} but penalty={straddle_penalty}"
            ));
        }
        let flags = if seeded { FLAG_SEEDED } else { 0 }
            | if tail { FLAG_TAIL } else { 0 }
            | if straddled_flag { FLAG_STRADDLED } else { 0 };
        records.push(TraceRecord {
            request_id,
            item: req_u64(entry, "item", &what)?,
            arrival_tick: req_u64(entry, "arrival_tick", &what)?,
            satisfied_tick: req_u64(entry, "satisfied_tick", &what)?,
            generation: req_u64(entry, "generation", &what)?,
            channel: req_u64(entry, "channel", &what)?,
            queue_position: req_u64(entry, "queue_position", &what)?,
            arrival: req_finite(entry, "arrival", &what)?,
            wait,
            predicted,
            straddle_penalty,
            flags,
        });
    }

    Ok(AuditSnapshot {
        capacity,
        recorded,
        sampled,
        tail,
        straddled,
        residuals,
        history,
        records,
    })
}
