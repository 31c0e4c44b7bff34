//! Validates the paper's analytical waiting-time model (Eq. 1–2)
//! against the trace simulator, end to end: server schedules,
//! Poisson clients, per-request probe + download measurement.
//!
//! Run with: `cargo run --release --example simulator_validation`

use dbcast::alloc::DrpCds;
use dbcast::model::{BroadcastProgram, ChannelAllocator};
use dbcast::sim::{validate_against_model, Simulation};
use dbcast::workload::{SizeDistribution, TraceBuilder, WorkloadBuilder};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("analytical Eq. 2 vs discrete-event simulation\n");
    println!(
        "{:>4} {:>6} {:>5} {:>14} {:>14} {:>10}",
        "N", "K", "Phi", "analytical (s)", "empirical (s)", "rel. err"
    );

    for (n, k, phi) in [(60, 4, 1.0), (120, 6, 2.0), (180, 8, 3.0)] {
        let db = WorkloadBuilder::new(n)
            .skewness(0.8)
            .sizes(SizeDistribution::Diversity { phi_max: phi })
            .seed(11)
            .build()?;
        let alloc = DrpCds::new().allocate(&db, k)?;
        let trace = TraceBuilder::new(&db).requests(40_000).seed(13).build()?;
        let report = validate_against_model(&db, &alloc, &trace, 10.0)?;
        println!(
            "{:>4} {:>6} {:>5.1} {:>14.4} {:>14.4} {:>9.2}%",
            n,
            k,
            phi,
            report.analytical,
            report.empirical,
            100.0 * report.relative_error()
        );
    }

    // Beyond the mean: the analytical model says nothing about tails;
    // the simulator does.
    let db = WorkloadBuilder::new(120)
        .sizes(SizeDistribution::Diversity { phi_max: 2.0 })
        .seed(11)
        .build()?;
    let alloc = DrpCds::new().allocate(&db, 6)?;
    let program = BroadcastProgram::new(&db, &alloc, 10.0)?;
    let trace = TraceBuilder::new(&db).requests(40_000).seed(17).build()?;
    let report = Simulation::new(&program, &trace).run()?;
    println!(
        "\ntail behaviour at N = 120, K = 6: p50 = {:.2}s, p95 = {:.2}s, p99 = {:.2}s, max = {:.2}s",
        report.waiting().percentile(50.0).unwrap(),
        report.waiting().percentile(95.0).unwrap(),
        report.waiting().percentile(99.0).unwrap(),
        report.waiting().max().unwrap()
    );
    let busiest = report
        .channel_loads()
        .iter()
        .enumerate()
        .max_by_key(|(_, l)| l.requests)
        .expect("channels exist");
    println!(
        "busiest channel: {} with {} of {} requests",
        busiest.0,
        busiest.1.requests,
        report.completed()
    );
    Ok(())
}
