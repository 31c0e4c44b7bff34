//! `dbcast flight` — inspect telemetry artifacts:
//!
//! * `dbcast flight dump --input <file|dir>` — summarize a postmortem
//!   dump (the latest one when given a directory),
//! * `dbcast flight check --input <file|http://host:port/path>` — the
//!   one validator for every telemetry document: JSON input is decoded
//!   from its `dbcast_obs::doc` envelope and checked by the type its
//!   `kind` names (`metrics`, `flight`, `postmortem`, `status`,
//!   `exemplars`, `fleet`, `fleet-run`; `--max-gap G` also bounds every
//!   `fleet` generation's observed-vs-Eq. 2 gap); anything else must be
//!   an OpenMetrics scrape (`--min-exemplars N` requires N exemplar
//!   annotations),
//! * `dbcast flight catalog` — print the metrics catalogue as the
//!   markdown committed at `docs/METRICS.md`.

use std::path::{Path, PathBuf};

use dbcast_audit::AuditSnapshot;
use dbcast_flight::{FlightDoc, Postmortem, StatusDoc};
use dbcast_net::FleetReport;
use dbcast_obs::doc::{self, Document, Envelope};
use dbcast_obs::snapshot::Snapshot;
use dbcast_serve::FleetDoc;

use crate::args::Args;
use crate::commands::CliError;

/// Dispatches the `flight` subcommand by action.
///
/// # Errors
///
/// Unknown actions, unreadable inputs and documents or scrapes that
/// fail validation all fail the command.
pub fn run_flight(args: &Args, out: &mut impl std::io::Write) -> Result<(), CliError> {
    match args.action() {
        Some("dump") => run_dump(args, out),
        Some("check") => run_check(args, out),
        Some("catalog") => {
            write!(out, "{}", dbcast_obs::catalog::markdown())?;
            Ok(())
        }
        other => Err(CliError::InvalidOption(format!(
            "flight action {:?}; expected dump, check or catalog",
            other.unwrap_or("<none>")
        ))),
    }
}

/// Resolves `--input`: a postmortem file directly, or the
/// lexicographically last `postmortem-*.json` in a directory (names
/// embed a millisecond timestamp and a monotone counter, so last
/// sorts latest).
fn resolve_postmortem(input: &str) -> Result<PathBuf, CliError> {
    let path = Path::new(input);
    if path.is_file() {
        return Ok(path.to_path_buf());
    }
    if path.is_dir() {
        let mut dumps: Vec<PathBuf> = std::fs::read_dir(path)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("postmortem-") && n.ends_with(".json"))
            })
            .collect();
        dumps.sort();
        return dumps.pop().ok_or_else(|| {
            CliError::InvalidOption(format!("no postmortem-*.json files in {input:?}"))
        });
    }
    Err(CliError::InvalidOption(format!("--input {input:?} does not exist")))
}

fn run_dump(args: &Args, out: &mut impl std::io::Write) -> Result<(), CliError> {
    let input = args.require::<String>("input")?;
    let last = args.opt_or("last", 16usize)?;
    let path = resolve_postmortem(&input)?;
    let dump: Postmortem = doc::decode(&std::fs::read_to_string(&path)?)
        .map_err(|e| CliError::InvalidOption(format!("{}: {e}", path.display())))?;
    let flight = &dump.flight;
    writeln!(out, "postmortem: {}", path.display())?;
    writeln!(out, "schema version {}, unix_ms {}", Postmortem::SCHEMA, dump.unix_ms)?;
    writeln!(out, "reason: {}", dump.reason)?;
    writeln!(
        out,
        "ring: capacity {}, recorded {}, dumped {}",
        flight.capacity,
        flight.recorded,
        flight.events.len()
    )?;
    let shown = flight.events.len().min(last);
    writeln!(out, "events: {} (showing last {shown})", flight.events.len())?;
    for e in &flight.events[flight.events.len() - shown..] {
        writeln!(
            out,
            "  #{:<8} tick {:<6} gen {:<3} t={:<10.3} {:<16} value {:<12} extra {}",
            e.seq,
            e.tick,
            e.generation,
            e.vtime,
            e.kind.name(),
            e.value,
            e.extra,
        )?;
    }
    writeln!(out, "metrics snapshot: {}", metrics_summary(&dump.metrics))?;
    Ok(())
}

fn metrics_summary(m: &Snapshot) -> String {
    let (c, g, h) = (m.counters.len(), m.gauges.len(), m.histograms.len());
    format!("{c} counter(s), {g} gauge(s), {h} histogram(s)")
}

fn run_check(args: &Args, out: &mut impl std::io::Write) -> Result<(), CliError> {
    let input = args.require::<String>("input")?;
    let body = super::read_input(&input)?;
    let invalid =
        |e: &dyn std::fmt::Display| CliError::InvalidOption(format!("{input}: {e}"));
    if !body.trim_start().starts_with('{') {
        let families = dbcast_obs::openmetrics::parse(&body).map_err(|e| invalid(&e))?;
        let samples = families.iter().flat_map(|f| &f.samples);
        let exemplars = samples.clone().filter(|s| s.exemplar.is_some()).count();
        writeln!(
            out,
            "{input}: valid OpenMetrics — {} famil{}, {} sample(s), {exemplars} exemplar(s)",
            families.len(),
            if families.len() == 1 { "y" } else { "ies" },
            samples.count(),
        )?;
        let min = args.opt_or("min-exemplars", 0usize)?;
        if exemplars < min {
            return Err(invalid(&format!(
                "{exemplars} exemplar(s) parsed, --min-exemplars {min} required"
            )));
        }
        return Ok(());
    }
    let envelope = Envelope::parse(&body).map_err(|e| invalid(&e))?;
    let summary = match envelope.kind.as_str() {
        Snapshot::KIND => metrics_summary(&envelope.open().map_err(|e| invalid(&e))?),
        FleetReport::KIND => {
            let d: FleetReport = envelope.open().map_err(|e| invalid(&e))?;
            let (clients, t) = (d.clients.len(), d.totals);
            format!(
                "{clients} client(s), {} request(s), {} completed",
                t.requests, t.completed
            )
        }
        FlightDoc::KIND => {
            let d: FlightDoc = envelope.open().map_err(|e| invalid(&e))?;
            format!(
                "capacity {}, recorded {}, {} event(s)",
                d.capacity,
                d.recorded,
                d.events.len()
            )
        }
        Postmortem::KIND => {
            let d: Postmortem = envelope.open().map_err(|e| invalid(&e))?;
            format!("reason {:?}, {} event(s)", d.reason, d.flight.events.len())
        }
        StatusDoc::KIND => {
            let d: StatusDoc = envelope.open().map_err(|e| invalid(&e))?;
            format!(
                "command {}, {} item(s), {} request(s)",
                d.command, d.items, d.trace_requests
            )
        }
        AuditSnapshot::KIND => {
            let d: AuditSnapshot = envelope.open().map_err(|e| invalid(&e))?;
            format!(
                "{} record(s), {} channel(s), {} frozen generation(s)",
                d.records.len(),
                d.residuals.channels.len(),
                d.history.len()
            )
        }
        FleetDoc::KIND => {
            let d: FleetDoc = envelope.open().map_err(|e| invalid(&e))?;
            if let Some(max_gap) = args.opt::<f64>("max-gap")? {
                if let Some(g) =
                    d.generations.iter().find(|g| g.samples > 0 && g.gap > max_gap)
                {
                    return Err(invalid(&format!(
                        "generation {} observed-vs-Eq.2 gap {:.4} exceeds --max-gap {max_gap}",
                        g.generation, g.gap
                    )));
                }
            }
            format!(
                "published generation {}, {} client(s) ({} straggling), {} digest(s), \
                 {} generation(s)",
                d.published,
                d.clients,
                d.stragglers,
                d.digests,
                d.generations.len()
            )
        }
        other => return Err(invalid(&format!("unknown document kind {other:?}"))),
    };
    writeln!(
        out,
        "{input}: valid {} document (schema {}) — {summary}",
        envelope.kind, envelope.schema
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dbcast_flight_cmd_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn flight(args: &[&str]) -> Result<String, CliError> {
        let args =
            Args::parse(std::iter::once("flight").chain(args.iter().copied())).unwrap();
        let mut out = Vec::new();
        run_flight(&args, &mut out).map(|()| String::from_utf8(out).unwrap())
    }

    fn check_file(
        dir: &Path,
        name: &str,
        body: &str,
        extra: &[&str],
    ) -> Result<String, CliError> {
        let path = dir.join(name);
        std::fs::write(&path, body).unwrap();
        let mut args = vec!["check", "--input", path.to_str().unwrap()];
        args.extend_from_slice(extra);
        flight(&args)
    }

    #[test]
    fn catalog_action_prints_markdown() {
        let text = flight(&["catalog"]).unwrap();
        assert!(text.contains("# Metrics catalogue"));
        assert!(text.contains("`serve.slo.burn_rate`"));
    }

    #[test]
    fn unknown_action_is_an_error() {
        assert!(matches!(flight(&["bogus"]), Err(CliError::InvalidOption(_))));
    }

    #[test]
    fn check_dispatches_on_kind_and_bounds_the_fleet_gap() {
        let dir = temp_dir("check_fleet");
        let aggregator = dbcast_serve::FleetAggregator::new();
        aggregator.set_published(2);
        aggregator.ingest(&dbcast_serve::FleetDigest::ack(0, 0, 2));
        aggregator.ingest(&dbcast_serve::FleetDigest::ack(1, 0, 1));
        let fleet = doc::render(&aggregator.doc());
        let text = check_file(&dir, "fleet.json", &fleet, &["--max-gap", "0.25"]).unwrap();
        assert!(text.contains("valid fleet document"), "{text}");
        assert!(text.contains("2 client(s) (1 straggling)"), "{text}");

        for bad in ["{\"schema\": 99}", &fleet.replace("\"fleet\"", "\"fleat\"")] {
            let err = check_file(&dir, "bad.json", bad, &[]);
            assert!(matches!(err, Err(CliError::InvalidOption(_))), "{bad} accepted");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn check_counts_openmetrics_exemplars() {
        let dir = temp_dir("check_metrics");
        let scrape = "# TYPE serve_ticks counter\n\
                      serve_ticks_total 5 # {request_id=\"7\",channel=\"1\"} 5\n\
                      # EOF\n";
        let text = check_file(&dir, "s.txt", scrape, &["--min-exemplars", "1"]).unwrap();
        assert!(text.contains("valid OpenMetrics"), "{text}");
        assert!(text.contains("1 exemplar(s)"), "{text}");
        let more = check_file(&dir, "s.txt", scrape, &["--min-exemplars", "2"]);
        assert!(matches!(more, Err(CliError::InvalidOption(_))));
        let torn = check_file(&dir, "t.txt", "serve_ticks_total 5\n", &[]);
        assert!(torn.is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn check_reads_a_live_url() {
        let tracer =
            dbcast_audit::AuditTracer::new(dbcast_audit::AuditConfig::default(), 2);
        let server = dbcast_flight::ExpositionServer::bind_with_routes(
            "127.0.0.1:0",
            Box::new(|| "{}".to_string()),
            vec![dbcast_flight::Route::json("/exemplars", move || {
                doc::render(&tracer.snapshot())
            })],
        )
        .unwrap();
        let base = format!("http://{}", server.addr());
        let text = flight(&["check", "--input", &format!("{base}/exemplars")]).unwrap();
        assert!(text.contains("valid exemplars document"), "{text}");
        let text = flight(&["check", "--input", &format!("{base}/flight")]).unwrap();
        assert!(text.contains("valid flight document"), "{text}");
        let text = flight(&["check", "--input", &format!("{base}/metrics")]).unwrap();
        assert!(text.contains("valid OpenMetrics"), "{text}");
        let missing = flight(&["check", "--input", &format!("{base}/nope")]);
        assert!(matches!(missing, Err(CliError::Scrape(_))));
    }

    fn postmortem(reason: &str, events: &[dbcast_flight::EventKind]) -> String {
        let ring = dbcast_flight::FlightRing::new(64);
        for &kind in events {
            ring.record(dbcast_flight::FlightEvent::new(kind, 1, 0, 0.5));
        }
        let metrics = Snapshot {
            counters: vec![("serve.ticks".into(), 1)],
            gauges: vec![],
            histograms: vec![],
        };
        doc::render(&Postmortem {
            reason: reason.into(),
            unix_ms: 0,
            flight: ring.doc(),
            metrics,
        })
    }

    #[test]
    fn dump_summarizes_the_latest_postmortem_in_a_directory() {
        use dbcast_flight::EventKind;
        let dir = temp_dir("dump");
        // Two dumps; the lexicographically larger name is the later one.
        std::fs::write(dir.join("postmortem-1000-0-old.json"), postmortem("old", &[]))
            .unwrap();
        let new = postmortem("panic: injected", &[EventKind::Tick, EventKind::Fault]);
        let text = check_file(&dir, "postmortem-2000-1-new.json", &new, &[]).unwrap();
        assert!(text.contains("valid postmortem document"), "{text}");
        let text = flight(&["dump", "--input", dir.to_str().unwrap()]).unwrap();
        assert!(text.contains("panic: injected"), "{text}");
        assert!(text.contains("fault"), "{text}");
        assert!(text.contains("1 counter(s)"), "{text}");
        assert!(!text.contains("old"), "picked the stale dump:\n{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
