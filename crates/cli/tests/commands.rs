//! Integration tests driving every CLI command through the library
//! surface (no process spawning).

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
    for name in ["FLAT", "VF^K", "GREEDY", "DRP", "DRP-CDS", "GOPT"] {
        assert!(out.contains(name), "missing {name} in:\n{out}");
    }
}

#[test]
fn simulate_reports_percentiles_and_loads() {
    let args =
        Args::parse(["simulate", "--items", "15", "--channels", "3", "--requests", "500"])
            .unwrap();
    let out = run(|w| commands::run_simulate(&args, w));
    assert!(out.contains("requests completed: 500"));
    assert!(out.contains("p50/p95/p99"));
    assert!(out.contains("channel 2:"));
}

#[test]
fn paper_example_prints_published_costs() {
    let args = Args::parse(["paper-example", "--trace"]).unwrap();
    let out = run(|w| commands::run_paper_example(&args, w));
    assert!(out.contains("22.29"));
    assert!(out.contains("CDS step 1: move d10 from group 4 to group 2"));
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
fn replicate_reports_accepted_replicas() {
    let args =
        Args::parse(["replicate", "--items", "30", "--channels", "3", "--algo", "flat"])
            .unwrap();
    let out = run(|w| commands::run_replicate(&args, w));
    assert!(out.contains("estimated W_b"));
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
