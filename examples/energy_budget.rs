//! Battery life on air: (1, m) indexing turns waiting time from a
//! battery problem into a latency-only problem. This example indexes a
//! DRP-CDS program and sweeps the index copy count m, showing the
//! access/tuning/energy tradeoff and the sqrt rule-of-thumb optimum.
//!
//! Run with: `cargo run --release --example energy_budget`

use dbcast::alloc::DrpCds;
use dbcast::index::{EnergyModel, IndexParams, IndexedProgram};
use dbcast::model::{BroadcastProgram, ChannelAllocator};
use dbcast::workload::{SizeDistribution, WorkloadBuilder};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let db = WorkloadBuilder::new(100)
        .skewness(0.8)
        .sizes(SizeDistribution::Diversity { phi_max: 2.0 })
        .seed(21)
        .build()?;
    let alloc = DrpCds::new().allocate(&db, 5)?;
    let program = BroadcastProgram::new(&db, &alloc, 10.0)?;
    let radio = EnergyModel::typical();
    let params = IndexParams { index_size: 1.0, header_size: 0.1 }; // one size unit per copy
    let k = program.channels().len();

    println!(
        "(1, m) indexing over a DRP-CDS program (N = 100, K = 5, index = {} unit)\n",
        params.index_size
    );
    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>14}",
        "m", "access (s)", "tuning (s)", "energy (mJ)", "battery ratio"
    );

    // Per-channel sqrt(Z/I) optimum.
    let best = IndexedProgram::with_optimal_segments(&program, params)?;
    let opt: Vec<usize> = best.channels().iter().flatten().map(|c| c.segments()).collect();
    let fixed = |m: usize| IndexedProgram::new(&program, &vec![m; k], params);
    let rows = vec![
        ("1".to_string(), fixed(1)?),
        ("4".into(), fixed(4)?),
        (format!("m*={opt:?}"), best.clone()),
        ("16".into(), fixed(16)?),
        ("64".into(), fixed(64)?),
    ];

    let mut baseline_energy = None;
    for (label, indexed) in rows {
        let m = indexed.expected_metrics(&db)?;
        let energy = m.energy(&radio);
        let unindexed_energy = m.energy_unindexed(&radio);
        baseline_energy.get_or_insert(unindexed_energy);
        println!(
            "{label:>8} {:>12.3} {:>12.3} {:>12.1} {:>13.1}x",
            m.access,
            m.tuning,
            energy,
            unindexed_energy / energy
        );
    }

    let m = best.expected_metrics(&db)?;
    println!(
        "\nwithout any index the radio listens for the full wait: \
         {:.3}s active per request ({:.1} mJ).",
        m.unindexed_access,
        m.energy_unindexed(&radio)
    );
    println!(
        "at m* the client is active only {:.3}s per request — {:.0}x battery \
         stretch for {:.0}% extra latency.",
        m.tuning,
        m.energy_unindexed(&radio) / m.energy(&radio),
        100.0 * m.access_overhead()
    );
    Ok(())
}
