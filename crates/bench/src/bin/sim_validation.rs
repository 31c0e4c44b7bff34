//! Validates the analytical waiting-time model (Eq. 2) against the
//! one-pass trace simulator.
//!
//! Usage: `cargo run --release -p dbcast-bench --bin sim_validation [--quick]`

use dbcast_bench::{run_sim_validation, ExperimentConfig};

fn main() -> std::io::Result<()> {
    let quick = std::env::args().any(|a| a == "--quick");
    let config =
        if quick { ExperimentConfig::quick() } else { ExperimentConfig::default() };
    let md = run_sim_validation(&config, std::path::Path::new("results"))?;
    print!("{md}");
    Ok(())
}
