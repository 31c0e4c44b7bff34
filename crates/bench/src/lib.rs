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
//! [`Report`] names every table and figure once: `dbcast paper
//! NAME...|all|pinned [--quick]` (`crates/cli`) runs them into
//! `results/`. Run it with `--release`:
//!
//! | report | reproduces |
//! |---|---|
//! | `tables` | Tables 2–4 — the worked example traces |
//! | `fig2_channels` | Figure 2 — K vs `W_b` |
//! | `fig3_items` | Figure 3 — N vs `W_b` |
//! | `fig4_diversity` | Figure 4 — Φ vs `W_b` |
//! | `fig5_skewness` | Figure 5 — θ vs `W_b` |
//! | `fig6_exec_channels` | Figure 6 — K vs execution time |
//! | `fig7_exec_items` | Figure 7 — N vs execution time |
//! | `sim_validation` | analytical Eq. 2 vs the trace simulator |
//! | `indexing` | (1, m) air indexing: access, tuning, energy vs m |
//! | `ablations` | DRP split rule, CDS threshold, GOPT budget |
//!
//! CI regenerates the [`Report::pinned`] ones and fails on any byte
//! of difference from the committed files.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ablations;
mod config;
mod report;
mod runner;
mod sweep;
mod timing;

pub use config::{ExperimentConfig, SweepAxis};
pub use report::{render_csv, render_markdown, ReportTable};
pub use runner::Report;
pub use sweep::{run_sweep, AlgoPoint, SweepPoint, SweepResult};
pub use timing::{run_timing_sweep, AlgoTiming, TimingPoint, TimingResult};
