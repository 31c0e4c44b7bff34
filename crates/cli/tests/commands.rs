//! Integration tests driving every CLI command through the library
//! surface (no process spawning).

use dbcast_baselines::AlgoSpec;
use dbcast_bench::Report;
use dbcast_cli::args::Args;
use dbcast_cli::commands;

fn run<F>(f: F) -> String
where
    F: FnOnce(&mut Vec<u8>) -> Result<(), commands::CliError>,
{
    let mut out = Vec::new();
    f(&mut out).expect("command succeeds");
    String::from_utf8(out).expect("valid utf-8 output")
}

#[test]
fn generate_to_stdout_emits_json() {
    let args = Args::parse(["generate", "--items", "10", "--seed", "3"]).unwrap();
    let out = run(|w| commands::run_generate(&args, w));
    assert!(out.contains("\"items\""));
    assert!(out.matches("frequency").count() == 10);
}

#[test]
fn generate_allocate_roundtrip_through_file() {
    let dir = std::env::temp_dir().join("dbcast-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("wl.json");
    let path_str = path.to_str().unwrap().to_string();

    let gen_args = Args::parse(["generate", "--items", "20", "--out", &path_str]).unwrap();
    let msg = run(|w| commands::run_generate(&gen_args, w));
    assert!(msg.contains("wrote 20 items"));

    let alloc_args =
        Args::parse(["allocate", "--db", &path_str, "--channels", "4"]).unwrap();
    let out = run(|w| commands::run_allocate(&alloc_args, w));
    assert!(out.contains("algorithm: DRP-CDS"));
    assert!(out.contains("channel 3:"));
    assert!(out.contains("total cost"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn allocate_json_emits_parseable_allocation() {
    let args =
        Args::parse(["allocate", "--items", "12", "--channels", "3", "--json"]).unwrap();
    let out = run(|w| commands::run_allocate(&args, w));
    let alloc: serde_json::Value = serde_json::from_str(&out).expect("valid json");
    assert!(alloc.get("assignment").is_some());
}

#[test]
fn evaluate_lists_all_algorithms() {
    let args = Args::parse(["evaluate", "--items", "15", "--channels", "3"]).unwrap();
    let out = run(|w| commands::run_evaluate(&args, w));
    for name in ["FLAT", "VF^K", "GREEDY", "DRP", "DRP-CDS", "DP(br-contiguous)", "GOPT"] {
        assert!(out.contains(name), "missing {name} in:\n{out}");
    }
    let args = Args::parse(["allocate", "--items", "5", "--algo", "nope"]).unwrap();
    let err = commands::run_allocate(&args, &mut Vec::new()).unwrap_err();
    assert!(
        matches!(&err, commands::CliError::UnknownAlgorithm(name) if name == "nope"),
        "{err}"
    );
}

#[test]
fn every_registered_allocator_is_named_once() {
    let specs = AlgoSpec::registry();
    let mut cli_names: Vec<&str> = specs.iter().map(AlgoSpec::cli_name).collect();
    for spec in &specs {
        assert_eq!(AlgoSpec::from_cli_name(spec.cli_name()).as_ref(), Some(spec));
        assert_eq!(spec.name(), spec.build(0).name());
    }
    // The usage line lists exactly the registry, in registry order.
    let help = std::process::Command::new(env!("CARGO_BIN_EXE_dbcast"))
        .arg("--help")
        .output()
        .expect("dbcast binary runs");
    let help = String::from_utf8(help.stdout).expect("valid utf-8 usage");
    let line =
        help.lines().find(|l| l.trim_start().starts_with("--algo ")).expect("--algo");
    let listed: Vec<&str> =
        line.split_whitespace().nth(2).expect("names").split('|').collect();
    assert_eq!(listed, cli_names, "{line}");
    cli_names.sort_unstable();
    cli_names.dedup();
    assert_eq!(cli_names.len(), specs.len(), "CLI names are not unique");
}

#[test]
fn simulate_reports_percentiles_and_loads() {
    let args =
        Args::parse(["simulate", "--items", "15", "--channels", "3", "--requests", "500"])
            .unwrap();
    let out = run(|w| commands::run_simulate(&args, w));
    // Pinned at seed 0: the report must not move by a printed digit.
    assert_eq!(
        out,
        "algorithm: DRP-CDS
requests completed: 500
analytical W_b: 4.7744 s
empirical mean: 4.8453 s
empirical p50/p95/p99: 3.7832 / 17.5153 / 25.3124 s
probe mean: 3.1745 s, download mean: 1.6708 s
channel 0: 354 requests, mean wait 3.3199 s
channel 1: 97 requests, mean wait 4.4895 s
channel 2: 49 requests, mean wait 16.5697 s
"
    );
}

#[test]
fn stats_simulate_records_the_simulator_metrics() {
    let args = Args::parse([
        "stats",
        "--items",
        "20",
        "--channels",
        "3",
        "--simulate",
        "--requests",
        "400",
    ])
    .unwrap();
    let out = run(|w| commands::run_stats(&args, w));
    let snapshot: dbcast_obs::snapshot::Snapshot =
        dbcast_obs::doc::decode(&out).expect("a valid metrics document");
    // Other tests in this binary share the registry, so counts are
    // lower bounds.
    let requests = snapshot.counter("sim.engine.requests").expect("requests counted");
    assert!(requests >= 400, "sim.engine.requests = {requests}");
    assert!(snapshot.histogram("sim.engine.run").is_some_and(|h| h.count >= 1));
    // The simulator records these five metrics and no other.
    let mut sim: Vec<&str> = (snapshot.counters.iter().map(|(n, _)| n))
        .chain(snapshot.gauges.iter().map(|(n, _)| n))
        .chain(snapshot.histograms.iter().map(|(n, _)| n))
        .filter_map(|n| n.strip_prefix("sim.engine."))
        .collect();
    sim.sort_unstable();
    assert_eq!(sim, ["mean_download", "mean_probe", "mean_waiting", "requests", "run"]);
}

#[test]
fn every_paper_report_is_listed_in_order() {
    let help = std::process::Command::new(env!("CARGO_BIN_EXE_dbcast"))
        .arg("--help")
        .output()
        .expect("dbcast binary runs");
    let help = String::from_utf8(help.stdout).expect("valid utf-8 usage");
    // The `paper:` entry lists the names `|`-separated up to a `;`.
    let start = help.find("    paper:     NAME...").expect("paper usage");
    let (names, _) = help[start..].split_once(';').expect("names end with ';'");
    let listed: Vec<&str> = names
        .trim_start_matches("    paper:     NAME...")
        .split('|')
        .map(str::trim)
        .collect();
    let registry: Vec<&str> = Report::ALL.iter().map(|r| r.name()).collect();
    assert_eq!(listed, registry, "{names}");
}

#[test]
fn paper_rejects_unknown_or_missing_report_names() {
    for argv in [vec!["paper"], vec!["paper", "tables", "fig9"]] {
        let args = Args::parse(argv.clone()).unwrap();
        let err = commands::run_paper(&args, &mut Vec::new()).unwrap_err();
        assert!(matches!(err, commands::CliError::InvalidOption(_)), "{argv:?}: {err}");
        assert!(err.to_string().contains("fig2_channels"), "{err}");
    }
}

#[test]
fn sweep_quick_produces_table() {
    let args =
        Args::parse(["sweep", "--axis", "k", "--quick", "--items", "25", "--seeds", "1"])
            .unwrap();
    let out = run(|w| commands::run_sweep_cmd(&args, w));
    assert!(out.contains("DRP-CDS"));
    assert!(out.lines().filter(|l| l.starts_with('|')).count() >= 9);
}

#[test]
fn index_reports_battery_stretch() {
    let args = Args::parse(["index", "--items", "20", "--channels", "3"]).unwrap();
    let out = run(|w| commands::run_index(&args, w));
    assert!(out.contains("expected tuning time"));
    assert!(out.contains("battery"));
}

#[test]
fn index_rejects_inverted_radio_powers() {
    let args = Args::parse([
        "index",
        "--items",
        "10",
        "--channels",
        "2",
        "--active-mw",
        "1",
        "--doze-mw",
        "5",
    ])
    .unwrap();
    let mut out = Vec::new();
    let err = commands::run_index(&args, &mut out).unwrap_err();
    assert!(err.to_string().contains("invalid option"));
}

#[test]
fn unknown_algorithm_is_a_clean_error() {
    let args = Args::parse(["allocate", "--items", "5", "--algo", "nope"]).unwrap();
    let mut out = Vec::new();
    let err = commands::run_allocate(&args, &mut out).unwrap_err();
    assert!(err.to_string().contains("unknown algorithm"));
}

#[test]
fn serve_rejects_a_positional_action() {
    // An unknown `--key` takes the next token as its value, so a stray
    // bare flag swallows `--seed` and leaves `11` as an action.
    let args = Args::parse(["serve", "--items", "10", "--stray", "--seed", "11"]).unwrap();
    let mut out = Vec::new();
    let err = commands::run_serve(&args, &mut out).unwrap_err();
    assert!(err.to_string().contains("unexpected positional argument \"11\""), "{err}");
}

#[test]
fn allocate_trace_out_writes_a_chrome_trace() {
    let dir = std::env::temp_dir().join("dbcast-cli-trace-test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("trace.json");
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_dbcast"))
        .args([
            "allocate",
            "--items",
            "30",
            "--channels",
            "4",
            "--trace-out",
            trace.to_str().unwrap(),
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("dbcast binary runs");
    assert!(status.success());
    let body = std::fs::read_to_string(&trace).expect("trace file written");
    let parsed: serde_json::Value = serde_json::from_str(&body).expect("valid json");
    let events = parsed.get("traceEvents").and_then(|v| v.as_seq()).expect("traceEvents");
    // --trace-out turns recording on, so the DRP run span (and its
    // split scans) must appear as complete events.
    assert!(
        events
            .iter()
            .any(|e| { e.get("name").and_then(|n| n.as_str()) == Some("alloc.drp.run") }),
        "missing alloc.drp.run in:\n{body}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
