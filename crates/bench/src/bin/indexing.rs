//! Extension experiment: (1, m) air indexing over allocated programs —
//! access/tuning/energy versus the index copy count m, per allocation
//! algorithm.
//!
//! Usage: `cargo run --release -p dbcast-bench --bin indexing [--quick]`

use dbcast_baselines::AlgoSpec;
use dbcast_bench::{render_markdown, ReportTable};
use dbcast_index::{EnergyModel, IndexParams, IndexedProgram};
use dbcast_model::BroadcastProgram;
use dbcast_workload::{SizeDistribution, WorkloadBuilder};

fn main() -> std::io::Result<()> {
    let quick = std::env::args().any(|a| a == "--quick");
    let seeds: u64 = if quick { 3 } else { 10 };
    let radio = EnergyModel::typical();
    let params = IndexParams { index_size: 1.0, header_size: 0.1 };
    let k = 5;

    let mut table = ReportTable {
        title: "Indexing: access / tuning / energy vs index copies m (N = 100, K = 5)"
            .to_string(),
        header: vec![
            "allocator".into(),
            "m".into(),
            "access (s)".into(),
            "tuning (s)".into(),
            "energy (mJ)".into(),
            "battery x".into(),
        ],
        rows: Vec::new(),
    };

    for spec in [AlgoSpec::DrpCds, AlgoSpec::Flat] {
        let algo = spec.build(0);
        for m_choice in ["1", "4", "m*", "32"] {
            let mut access = 0.0;
            let mut tuning = 0.0;
            let mut energy = 0.0;
            let mut unindexed_energy = 0.0;
            for seed in 0..seeds {
                let db = WorkloadBuilder::new(100)
                    .skewness(0.8)
                    .sizes(SizeDistribution::Diversity { phi_max: 2.0 })
                    .seed(seed)
                    .build()
                    .expect("valid parameters");
                let alloc = algo.allocate(&db, k).expect("feasible");
                let program = BroadcastProgram::new(&db, &alloc, 10.0).expect("valid");
                let indexed = match m_choice {
                    "m*" => IndexedProgram::with_optimal_segments(&program, params),
                    fixed => {
                        let m: usize = fixed.parse().expect("numeric m");
                        IndexedProgram::new(&program, &vec![m; k], params)
                    }
                }
                .expect("valid indexing");
                let metrics = indexed.expected_metrics(&db).expect("items covered");
                access += metrics.access;
                tuning += metrics.tuning;
                energy += metrics.energy(&radio);
                unindexed_energy += metrics.energy_unindexed(&radio);
            }
            let d = seeds as f64;
            table.rows.push(vec![
                algo.name().to_string(),
                m_choice.to_string(),
                format!("{:.3}", access / d),
                format!("{:.3}", tuning / d),
                format!("{:.1}", energy / d),
                format!("{:.1}", unindexed_energy / energy),
            ]);
        }
    }

    let md = render_markdown(&table);
    std::fs::create_dir_all("results")?;
    std::fs::write("results/indexing.md", &md)?;
    print!("{md}");
    Ok(())
}
