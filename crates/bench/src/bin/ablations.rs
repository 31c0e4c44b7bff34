//! Runs every ablation study and writes `results/ablations.md`.
//!
//! Usage: `cargo run --release -p dbcast-bench --bin ablations [--quick]`

use dbcast_bench::ablations::{
    ablate_cds_threshold, ablate_gopt_budget, ablate_split_priority,
};
use dbcast_bench::render_markdown;

fn main() -> std::io::Result<()> {
    let quick = std::env::args().any(|a| a == "--quick");
    let seeds: Vec<u64> = if quick { (0..3).collect() } else { (0..10).collect() };

    let mut md = String::new();
    eprintln!("[1/3] DRP split priority");
    md.push_str(&render_markdown(&ablate_split_priority(&seeds)));
    eprintln!("[2/3] CDS threshold");
    md.push_str(&render_markdown(&ablate_cds_threshold(&seeds)));
    eprintln!("[3/3] GOPT budget");
    md.push_str(&render_markdown(&ablate_gopt_budget(&seeds)));

    std::fs::create_dir_all("results")?;
    std::fs::write("results/ablations.md", &md)?;
    print!("{md}");
    Ok(())
}
