//! `dbcast` — command-line front end to the diverse data broadcasting
//! workspace.
//!
//! ```text
//! dbcast generate  --items 120 --theta 0.8 --phi 2 --seed 0 --out db.json
//! dbcast allocate  --db db.json --channels 6 --algo drp-cds
//! dbcast evaluate  --db db.json --channels 6
//! dbcast simulate  --db db.json --channels 6 --requests 10000 --rate 10
//! dbcast paper pinned
//! ```

use dbcast_cli::args::Args;
use dbcast_cli::commands::{self, CliError};

const USAGE: &str = "\
dbcast — diverse data broadcasting channel allocation (ICDCS 2005 reproduction)

USAGE:
    dbcast <COMMAND> [OPTIONS]

COMMANDS:
    generate        Generate a workload database (JSON)
    allocate        Allocate a database onto K channels with one algorithm
    evaluate        Compare all algorithms on one workload
    simulate        Simulate clients against the broadcast program, one
                    pass over a Poisson request trace
    serve           Online serving: estimate the workload live, detect
                    drift, re-allocate and hot-swap the program
    fleet           Simulated client fleet over the framed TCP broadcast
                    transport: measure per-request access and tuning
                    time against the Eq. 2 expectations
    paper           Regenerate the paper's tables and figures into results/
                    and print them (NAME... | all | pinned)
    sweep           Run one of the paper's parameter sweeps with overrides
    index           (1, m) air-indexing report (access/tuning/energy)
    stats           Run one allocation under telemetry, print the metrics
                    document
    conformance     Fuzz every allocator against the invariant suite
    flight          Inspect telemetry artifacts (dump | check | catalog)
    top             Live operator console over a serving process's /metrics
                    endpoint (sparklines for req/s, drift, SLO burn, Eq. 2
                    per-channel waits)
    trace           Inspect a serving process's per-request audit trace
                    (dump | slowest | residuals | explain) from /exemplars
                    or a saved scrape

COMMON OPTIONS:
    --db PATH         Load a workload from JSON (otherwise one is generated)
    --items N         Items to generate            [default: 120]
    --theta X         Zipf skewness                [default: 0.8]
    --phi X           Diversity parameter          [default: 2.0]
    --seed S          RNG seed                     [default: 0]
    --channels K      Broadcast channels           [default: 6]
    --bandwidth B     Size units per second        [default: 10]
    --algo NAME       flat|vfk|greedy|drp|drp-cds|dp|gopt [default: drp-cds]
    --metrics-out P   Write the metrics document (JSON) to P after the command
    --trace-out P     Write a Chrome trace (chrome://tracing / Perfetto) of
                      the command's span tree to P
    --log-level L     error|warn|info|debug|trace  [default: warn]

COMMAND-SPECIFIC:
    generate:  --out PATH     write JSON here instead of stdout
    allocate:  --json         emit the allocation as JSON
    simulate:  --requests R   number of requests   [default: 10000]
               --rate L       arrivals per second  [default: 10]
    serve:     --replay PATH  replay a saved request trace (JSON)
               --poisson L    synthetic arrivals per second   [default: 10]
               --requests R   synthetic stream length         [default: 10000]
               --shift-at F   inject a Zipf shift after fraction F of the
                              stream (with --shift-theta X, --shift-rotation N)
               --drift-threshold E   repair when the Eq. 3 gap (serving
                              cost / certified lower bound) exceeds
                              (1+E) × its floor           [default: 0.15]
               --min-observations M  requests since a swap before the
                              gap floor opens             [default: 200]
               --repair MODE  full | budgeted                 [default: full]
               --budget N     CDS moves per budgeted repair   [default: 32]
               --decay A      EWMA decay per virtual second   [default: 0.98]
               --ticks T      stop after T ticks
               --save-trace P archive the synthesized stream for --replay
               --json         emit the full serve report as JSON
               --listen ADDR  serve live /metrics, /flight and /status over
                              HTTP while the run is in progress
               --slo TOL      track the Eq. 2 expected wait with relative
                              tolerance TOL               [default: 0.15]
               --postmortem-dir P   arm panic/incident postmortem dumps
                              (flight events + metrics) into directory P
               --pace-ms N    sleep N wall-clock ms per tick (lets an
                              external scraper watch a replay live)
               --inject-panic-at-tick T   panic at tick T (postmortem test)
               --watch SPECS  `;`-separated watchdog rules, e.g.
                              \"serve.slo.burn_rate > 1 for 2s;
                              stall(serve.swaps) while serve.drift_distance
                              > 0.15 for 40 ticks\"; any firing exits non-zero
               --slo-multiplier X  a request is slow above X × its own
                              Eq. 2 prediction (the audit tail stage and
                              the SLO burn rate; values < 1 force
                              breaches — CI drills; implies --slo)
                                                            [default: 2]
               --audit-shift S  seeded audit sampling keeps 1-in-2^S
                              requests (0 = all)            [default: 6]
               --inject-slow-channel I  scale the wait of channel I's
                              requests by --inject-slow-factor X
                              (residual-attribution drills) [default: 1.0]
               --listen-bcast ADDR  stream the live cyclic program as
                              framed TCP broadcast (data + directory
                              frames, hot swaps included) for `dbcast
                              fleet --connect` clients
               --bcast-index SIZE   also air (1,m) index frames of SIZE
                              (with --bcast-header H    [default: 0.05])
               --bcast-pace-ms N    wall ms per broadcast window; 0 =
                              full speed                  [default: 10]
    fleet:     --connect H:P  measure a live `serve --listen-bcast`
                              stream (otherwise an in-process loopback
                              stream is built from the common workload
                              options with --swap-at W / --swap-channels
                              K / --fleet-index SIZE / --windows N)
               --clients N    concurrent clients           [default: 8]
               --requests R   requests per client        [default: 100]
               --rate L       arrivals per virtual second  [default: 1]
               --cache C      none|lru|pix                 [default: none]
               --cache-budget Z  cache size budget         [default: 0]
               --pattern P    single|frequent              [default: single]
               --patterns N   frequent-pattern pool size   [default: 8]
               --max-size M   max items per frequent set   [default: 4]
               --out PATH     write the fleet-run document to PATH
                              (validate it with `flight check`)
               --json         print the fleet-run document to stdout
               --once         single measurement pass (the default; CI
                              symmetry with `dbcast top --once`)
    paper:     NAME...        tables | fig2_channels | fig3_items |
                              fig4_diversity | fig5_skewness |
                              fig6_exec_channels | fig7_exec_items |
                              sim_validation | indexing | ablations;
                              or all, or pinned (the seeded reports CI
                              diffs against the committed results/)
               --quick        3 seeds instead of 20 (instead of 10 for
                              indexing and ablations)
    sweep:     --axis A       k | n | phi | theta  [default: k]
               --seeds S      average over S seeds
               --quick        3 seeds instead of 20
    stats:     --simulate     also drive the simulator for engine metrics
    conformance: --cases C    seeded fuzzing cases     [default: 500]
               --max-n N      largest generated N      [default: 40]
               --max-k K      largest generated K      [default: 8]
               --sim-stride S simulator check every S-th case (0 = off)
               --corpus DIR   replay a regression corpus directory first
    flight:    dump          summarize a postmortem JSON (--input FILE|DIR,
                             --last N events            [default: 16])
               check         validate any telemetry document or an
                             OpenMetrics scrape (--input FILE or
                             http://H:P/PATH); JSON dispatches on its
                             envelope kind (metrics, flight, postmortem,
                             status, exemplars, fleet, fleet-run) and any
                             violated invariant exits non-zero; --max-gap
                             G bounds a fleet document's Eq. 2 gaps,
                             --min-exemplars N requires N scrape exemplars
               catalog       print the metrics catalogue (docs/METRICS.md)
    trace:     dump | slowest | residuals | explain
               --input FILE  a saved /exemplars document, or
               --addr H:P    scrape /exemplars from a live serve --listen
               --last N      records shown by dump [16] / slowest [10]
               --request ID  the request to explain (wait = Eq. 2
                             prediction + scheduling residual + swap
                             straddle penalty)
    top:       --addr H:P    the serve process's --listen address (required)
               --once        scrape twice, render one plain frame and exit
                             (CI / non-TTY)
               --interval-ms N  scrape interval, > 0        [default: 1000]
               --frames N    stop after N live frames (default: forever)
               --width N     scrapes kept and sparkline width [default: 40]

Telemetry recording is off until a flag that needs it turns it on:
--metrics-out, --trace-out, and serve's --listen, --listen-uplink,
--postmortem-dir and --watch (`stats` always records).
";

fn run() -> Result<(), CliError> {
    let args = Args::parse(std::env::args().skip(1))?;
    let mut stdout = std::io::stdout().lock();
    if args.switch("help") {
        print!("{USAGE}");
        return Ok(());
    }

    if let Some(level) = args.opt::<String>("log-level")? {
        let parsed = dbcast_obs::log::Level::parse(&level).ok_or_else(|| {
            CliError::InvalidOption(format!(
                "--log-level {level:?}; expected error|warn|info|debug|trace"
            ))
        })?;
        dbcast_obs::log::set_level(parsed);
    }

    let metrics_out = args.opt::<String>("metrics-out")?;
    if metrics_out.is_some() {
        dbcast_obs::set_enabled(true);
    }

    let trace_out = args.opt::<String>("trace-out")?;
    if trace_out.is_some() {
        dbcast_obs::set_enabled(true);
        dbcast_obs::tree::set_profiling(true);
    }

    match args.command() {
        Some("generate") => commands::run_generate(&args, &mut stdout),
        Some("allocate") => commands::run_allocate(&args, &mut stdout),
        Some("evaluate") => commands::run_evaluate(&args, &mut stdout),
        Some("simulate") => commands::run_simulate(&args, &mut stdout),
        Some("serve") => commands::run_serve(&args, &mut stdout),
        Some("fleet") => commands::run_fleet_cmd(&args, &mut stdout),
        Some("paper") => commands::run_paper(&args, &mut stdout),
        Some("sweep") => commands::run_sweep_cmd(&args, &mut stdout),
        Some("index") => commands::run_index(&args, &mut stdout),
        Some("stats") => commands::run_stats(&args, &mut stdout),
        Some("conformance") => commands::run_conformance(&args, &mut stdout),
        Some("flight") => commands::run_flight(&args, &mut stdout),
        Some("top") => commands::run_top(&args, &mut stdout),
        Some("trace") => commands::run_trace(&args, &mut stdout),
        _ => {
            print!("{USAGE}");
            Ok(())
        }
    }?;

    if let Some(path) = metrics_out {
        dbcast_obs::snapshot::write_global(std::path::Path::new(&path))?;
    }
    if let Some(path) = trace_out {
        let spans = dbcast_obs::tree::take_spans();
        dbcast_obs::tree::write_chrome_trace(std::path::Path::new(&path), &spans)?;
    }
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
