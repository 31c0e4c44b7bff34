//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! 1. **DRP split priority** — the paper's pseudocode (max-cost) vs the
//!    rule its worked example implies (max-gain).
//! 2. **CDS improvement threshold** — sensitivity of final cost and
//!    move count to the strict-improvement cutoff.
//! 3. **GOPT budget** — quality/time tradeoff across population and
//!    generation budgets.

use std::time::Instant;

use dbcast_alloc::{Cds, Drp, DrpCds, SplitPriority};
use dbcast_baselines::{Gopt, GoptConfig};
use dbcast_model::{ChannelAllocator, Database};
use dbcast_workload::{SizeDistribution, WorkloadBuilder};

use crate::report::ReportTable;

fn workloads(seeds: &[u64], n: usize) -> Vec<Database> {
    seeds
        .iter()
        .map(|&s| {
            WorkloadBuilder::new(n)
                .skewness(0.8)
                .sizes(SizeDistribution::Diversity { phi_max: 2.0 })
                .seed(s)
                .build()
                .expect("valid parameters")
        })
        .collect()
}

/// Ablation 1: DRP split priority (max-gain default vs pseudocode
/// max-cost), with and without CDS.
pub fn ablate_split_priority(seeds: &[u64]) -> ReportTable {
    let dbs = workloads(seeds, 120);
    let mut rows = Vec::new();
    for k in [4usize, 5, 6, 7, 8, 9, 10] {
        let mut gain = 0.0;
        let mut cost_rule = 0.0;
        let mut gain_cds = 0.0;
        let mut cost_cds = 0.0;
        for db in &dbs {
            let g = Drp::new().allocate(db, k).unwrap();
            let c = Drp::new().with_priority(SplitPriority::Cost).allocate(db, k).unwrap();
            gain += g.total_cost();
            cost_rule += c.total_cost();
            gain_cds += Cds::new().refine(db, g).unwrap().final_cost();
            cost_cds += Cds::new().refine(db, c).unwrap().final_cost();
        }
        let d = dbs.len() as f64;
        rows.push(vec![
            k.to_string(),
            format!("{:.3}", gain / d),
            format!("{:.3}", cost_rule / d),
            format!("{:.3}", gain_cds / d),
            format!("{:.3}", cost_cds / d),
        ]);
    }
    ReportTable {
        title: "Ablation: DRP split priority (mean cost, N = 120)".to_string(),
        header: vec![
            "K".into(),
            "gain rule".into(),
            "max-cost rule".into(),
            "gain + CDS".into(),
            "max-cost + CDS".into(),
        ],
        rows,
    }
}

/// Ablation 2: CDS strict-improvement threshold.
pub fn ablate_cds_threshold(seeds: &[u64]) -> ReportTable {
    let dbs = workloads(seeds, 120);
    let mut rows = Vec::new();
    for threshold in [0.0, 1e-9, 1e-4, 1e-2, 1e-1, 1.0] {
        let mut cost = 0.0;
        let mut moves = 0usize;
        for db in &dbs {
            let rough = Drp::new().allocate(db, 6).unwrap();
            let out = Cds::new().min_reduction(threshold).refine(db, rough).unwrap();
            cost += out.final_cost();
            moves += out.steps.len();
        }
        rows.push(vec![
            format!("{threshold:.0e}"),
            format!("{:.3}", cost / dbs.len() as f64),
            format!("{:.1}", moves as f64 / dbs.len() as f64),
        ]);
    }
    ReportTable {
        title: "Ablation: CDS improvement threshold (N = 120, K = 6)".to_string(),
        header: vec!["threshold".into(), "mean cost".into(), "mean moves".into()],
        rows,
    }
}

/// Ablation 3: GOPT budget (population × generations) vs quality and
/// wall-clock, relative to DRP-CDS.
pub fn ablate_gopt_budget(seeds: &[u64]) -> ReportTable {
    let dbs = workloads(seeds, 120);
    let drpcds_cost: f64 = dbs
        .iter()
        .map(|db| DrpCds::new().allocate(db, 6).unwrap().total_cost())
        .sum::<f64>()
        / dbs.len() as f64;
    let mut rows = vec![vec![
        "DRP-CDS".into(),
        format!("{drpcds_cost:.3}"),
        "1.000".into(),
        "-".into(),
    ]];
    for (pop, gens) in [(20usize, 50usize), (50, 150), (100, 300), (100, 600)] {
        let mut cost = 0.0;
        let mut millis = 0.0;
        for (i, db) in dbs.iter().enumerate() {
            let gopt = Gopt::new(GoptConfig {
                population: pop,
                max_generations: gens,
                stagnation_limit: gens,
                seed: i as u64,
                ..GoptConfig::default()
            });
            let start = Instant::now();
            cost += gopt.allocate(db, 6).unwrap().total_cost();
            millis += start.elapsed().as_secs_f64() * 1e3;
        }
        let d = dbs.len() as f64;
        rows.push(vec![
            format!("GOPT {pop}x{gens}"),
            format!("{:.3}", cost / d),
            format!("{:.3}", (cost / d) / drpcds_cost),
            format!("{:.1}", millis / d),
        ]);
    }
    ReportTable {
        title: "Ablation: GOPT budget vs quality (N = 120, K = 6)".to_string(),
        header: vec![
            "config".into(),
            "mean cost".into(),
            "vs DRP-CDS".into(),
            "mean ms".into(),
        ],
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_priority_table_shape() {
        let t = ablate_split_priority(&[0, 1]);
        assert_eq!(t.rows.len(), 7);
        assert_eq!(t.header.len(), 5);
    }

    #[test]
    fn cds_threshold_moves_decrease_with_threshold() {
        let t = ablate_cds_threshold(&[0, 1]);
        let moves: Vec<f64> = t.rows.iter().map(|r| r[2].parse().unwrap()).collect();
        assert!(moves.first().unwrap() >= moves.last().unwrap());
    }
}
