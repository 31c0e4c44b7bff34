//! `dbcast top` — the live operator console: scrapes a serving
//! process's `/series` endpoint (see `dbcast serve --listen`),
//! decodes the document and renders sparklines/tables for req/s,
//! drift L1, SLO burn rate, swap history, windowed wait quantiles and
//! the per-channel Eq. 2 `W_i` table.
//!
//! `--once` renders a single plain (no ANSI) frame and exits — the
//! form CI and non-TTY pipelines consume. Without it the console
//! clears and redraws every `--interval-ms` until `--frames` is
//! reached (or forever).

use std::time::Duration;

use crate::args::Args;
use crate::commands::CliError;

/// Runs the console against `--addr HOST:PORT`.
///
/// # Errors
///
/// Connection failures, non-200 responses and `/series` documents
/// that fail strict decoding all fail the command.
pub fn run_top(args: &Args, out: &mut impl std::io::Write) -> Result<(), CliError> {
    let addr = args.require::<String>("addr")?;
    let once = args.switch("once");
    let interval = Duration::from_millis(args.opt_or("interval-ms", 1000u64)?);
    let frames = args.opt::<u64>("frames")?;
    let width = args.opt_or("width", 40usize)?;
    let opts = dbcast_scope::TopOptions { color: !once, width };

    let mut rendered = 0u64;
    loop {
        let body = super::http_get(&addr, "/series")?;
        let doc = dbcast_obs::doc::decode(&body)
            .map_err(|e| CliError::Scrape(format!("/series from {addr}: {e}")))?;
        let frame = dbcast_scope::render_top(&doc, &opts);
        if once {
            write!(out, "{frame}")?;
            return Ok(());
        }
        write!(out, "{}{frame}", dbcast_scope::console::clear_screen())?;
        out.flush()?;
        rendered += 1;
        if frames.is_some_and(|f| rendered >= f) {
            return Ok(());
        }
        std::thread::sleep(interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn once_renders_one_validated_frame() {
        let doc = {
            let store = dbcast_scope::SeriesStore::default();
            let snap = dbcast_obs::snapshot::Snapshot {
                counters: vec![
                    ("serve.requests".to_string(), 120),
                    ("serve.ticks".to_string(), 4),
                ],
                gauges: vec![("serve.drift_distance".to_string(), 0.07)],
                histograms: Vec::new(),
            };
            store.append_snapshot(&snap, 0);
            let snap = dbcast_obs::snapshot::Snapshot {
                counters: vec![
                    ("serve.requests".to_string(), 250),
                    ("serve.ticks".to_string(), 9),
                ],
                gauges: vec![("serve.drift_distance".to_string(), 0.21)],
                histograms: Vec::new(),
            };
            store.append_snapshot(&snap, 500);
            dbcast_obs::doc::render(&store.export())
        };
        let server = dbcast_flight::ExpositionServer::bind_with_routes(
            "127.0.0.1:0",
            Box::new(|| "{}".to_string()),
            vec![dbcast_flight::Route::json("/series", move || doc.clone())],
        )
        .unwrap();
        let args =
            Args::parse(["top", "--addr", &server.addr().to_string(), "--once"]).unwrap();
        let mut out = Vec::new();
        run_top(&args, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("dbcast top — tick 9"), "{text}");
        assert!(text.contains("req/s"), "{text}");
        assert!(text.contains("drift L1"), "{text}");
        assert!(!text.contains('\x1b'), "--once must be ANSI-free:\n{text}");
    }

    #[test]
    fn scrape_failures_are_reported() {
        // A status endpoint is not a /series document.
        let server = dbcast_flight::ExpositionServer::bind(
            "127.0.0.1:0",
            Box::new(|| "{}".to_string()),
        )
        .unwrap();
        let args =
            Args::parse(["top", "--addr", &server.addr().to_string(), "--once"]).unwrap();
        let mut out = Vec::new();
        assert!(matches!(run_top(&args, &mut out), Err(CliError::Scrape(_))));
    }
}
