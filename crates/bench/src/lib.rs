//! Experiment harness regenerating every table and figure of the
//! ICDCS 2005 diverse-broadcast paper.
//!
//! Each figure is a *parameter sweep*: one axis parameter varies while
//! the others stay at the paper's defaults, every (point, seed) cell
//! generates a fresh Zipf/diversity workload, and every algorithm of
//! the line-up (from the registry, [`dbcast_baselines::AlgoSpec`])
//! allocates it. Aggregated average waiting times (Figures 2–5) or
//! execution times (Figures 6–7) are printed as aligned tables and
//! written to `results/` as Markdown + CSV.
//!
//! Binaries (run with `--release`):
//!
//! | binary | reproduces |
//! |---|---|
//! | `fig2_channels` | Figure 2 — K vs `W_b` |
//! | `fig3_items` | Figure 3 — N vs `W_b` |
//! | `fig4_diversity` | Figure 4 — Φ vs `W_b` |
//! | `fig5_skewness` | Figure 5 — θ vs `W_b` |
//! | `fig6_exec_channels` | Figure 6 — K vs execution time |
//! | `fig7_exec_items` | Figure 7 — N vs execution time |
//! | `tables` | Tables 2–4 — the worked example traces |
//! | `sim_validation` | analytical Eq. 2 vs the trace simulator |
//! | `run_all` | everything above |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
mod config;
mod report;
mod runner;
mod sweep;
mod timing;

pub use config::{ExperimentConfig, SweepAxis};
pub use report::{render_csv, render_markdown, write_reports, ReportTable};
pub use runner::{
    run_fig2, run_fig3, run_fig4, run_fig5, run_fig6, run_fig7, run_sim_validation,
    run_tables,
};
pub use sweep::{run_sweep, AlgoPoint, SweepPoint, SweepResult};
pub use timing::{
    run_timing_sweep, run_timing_sweep_with, AlgoTiming, TimingPoint, TimingResult,
};
