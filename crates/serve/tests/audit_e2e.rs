//! Acceptance tests for the per-request audit tracer wired through the
//! serving loop:
//!
//! * a request admitted under generation `g` but satisfied after the
//!   swap to `g+1` is stamped with a swap-straddle penalty, and is
//!   accounted exactly once — to its admitting generation,
//! * every sampled record's decomposition
//!   `wait = predicted + residual + straddle_penalty` reassembles to
//!   the observed wait within 1e-9,
//! * the same seed yields a bit-identical sampled trace set and
//!   residual tables across replays,
//! * each generation's stats row is its residual-ledger row, so the
//!   per-generation waits reconcile with the run-wide summary, and a
//!   reused runtime accounts each run afresh,
//! * the seqlock ring's straddle marking is exact and single-shot
//!   (property-tested against a brute-force model).

use dbcast_audit::{
    AuditConfig, AuditTracer, ExemplarRecord, TraceRecord, TraceRing, FLAG_SEEDED,
};
use dbcast_serve::{
    shifted_trace, shifted_workload, DriftDetector, EstimatorConfig, RepairMode,
    ServeConfig, ServeRuntime, WorkerMode,
};
use dbcast_workload::WorkloadBuilder;
use proptest::prelude::*;

const CHANNELS: usize = 5;
const SEED: u64 = 41;

fn scenario() -> (dbcast_model::Database, dbcast_workload::RequestTrace) {
    let pre = WorkloadBuilder::new(60).skewness(0.8).seed(SEED).build().unwrap();
    let post = shifted_workload(&pre, 1.2, 30).unwrap();
    let trace = shifted_trace(&pre, &post, 3_000, 9_000, 50.0, SEED).unwrap();
    (pre, trace)
}

fn config(sample_shift: u32) -> ServeConfig {
    ServeConfig {
        channels: CHANNELS,
        bandwidth: 10.0,
        estimator: EstimatorConfig {
            decay: 0.98,
            seed: SEED,
            ..EstimatorConfig::default()
        },
        detector: DriftDetector::default(),
        repair: RepairMode::Full,
        worker: WorkerMode::Deterministic,
        max_ticks: None,
        slo: None,
        pace_ms: 0,
        inject_panic_at_tick: None,
        audit: AuditConfig { sample_shift, seed: SEED, ..AuditConfig::default() },
        inject_slow_channel: None,
        inject_slow_factor: 1.0,
    }
}

/// The decomposition tolerance of the acceptance criteria: the three
/// components must reassemble the observed wait to ±1e-9 (scaled).
fn assert_reassembles(r: &ExemplarRecord) {
    let sum = r.predicted + r.residual + r.straddle_penalty;
    let error = (sum - r.wait).abs();
    assert!(
        error <= 1e-9 * r.wait.abs().max(1.0),
        "decomposition of request {} does not reassemble: predicted {} + residual {} \
         + straddle {} = {} vs observed {} (error {error:e})",
        r.request_id,
        r.predicted,
        r.residual,
        r.straddle_penalty,
        sum,
        r.wait
    );
}

#[test]
fn swap_straddling_requests_are_stamped_and_never_double_counted() {
    let (pre, trace) = scenario();
    // Shift 0: record every request, so swap boundaries always find
    // live in-flight records to stamp.
    let runtime = ServeRuntime::new(&pre, config(0)).unwrap();
    let report = runtime.run(&trace).unwrap();

    assert!(report.swaps >= 1, "scenario must hot-swap: {report:?}");
    assert!(
        report.audit.straddled >= 1,
        "no request straddled any of {} swap(s)",
        report.swaps
    );

    // Exactly-once accounting: the per-generation request counts
    // partition the served total — a straddler lives in its admitting
    // generation's window only.
    assert_eq!(
        report.generations.iter().map(|g| g.requests()).sum::<u64>(),
        report.requests
    );

    // Swap boundaries, in install order (generation 0 has no boundary).
    let boundaries: Vec<f64> =
        report.generations.iter().skip(1).map(|g| g.installed_at).collect();
    let snap = runtime.audit().snapshot();
    assert!(!snap.records.is_empty());
    for r in &snap.records {
        assert_reassembles(r);
        if r.straddled {
            assert!(r.straddle_penalty > 0.0);
            assert!(r.straddle_penalty <= r.wait + 1e-9);
            // The stamped penalty is `completion − boundary` for a
            // boundary the service genuinely crossed.
            let crossed = boundaries.iter().any(|&b| {
                r.arrival < b && (r.completion() - b - r.straddle_penalty).abs() < 1e-9
            });
            assert!(
                crossed,
                "straddled record {} (arrival {}, completion {}, penalty {}) matches \
                 no boundary in {boundaries:?}",
                r.request_id,
                r.arrival,
                r.completion(),
                r.straddle_penalty
            );
        } else {
            assert_eq!(r.straddle_penalty, 0.0);
        }
    }

    // The residual ledger rolled once per swap: one frozen table per
    // finished generation, each counting its own requests once, and
    // each the very row the report carries for that generation.
    assert_eq!(snap.history.len() as u64, report.swaps);
    let rows: Vec<_> =
        snap.history.iter().chain(std::iter::once(&snap.residuals)).collect();
    assert_eq!(rows.len(), report.generations.len());
    for (stats, row) in report.generations.iter().zip(&rows) {
        assert_eq!(stats.generation, row.generation);
        assert_eq!(stats.residuals, row.channels);
    }
    let frozen: u64 = rows.iter().flat_map(|g| &g.channels).map(|c| c.requests).sum();
    assert_eq!(frozen, report.requests, "residual ledger double- or under-counted");

    // The two wait accumulators left — the ledger rows and the run-wide
    // summary — agree on the total wait.
    let per_generation: f64 =
        report.generations.iter().map(|g| g.requests() as f64 * g.mean_wait()).sum();
    let run_wide = report.waiting.mean() * report.waiting.count() as f64;
    assert!(
        (per_generation - run_wide).abs() <= 1e-9 * run_wide.abs(),
        "generation rows total {per_generation} s of waiting, the run {run_wide} s"
    );
}

#[test]
fn a_reused_runtime_accounts_each_run_afresh() {
    let (pre, trace) = scenario();
    let config = ServeConfig {
        // L1 distance never exceeds 2: drift is unreachable.
        detector: DriftDetector { threshold: 10.0, min_observations: u64::MAX },
        ..config(4)
    };
    let runtime = ServeRuntime::new(&pre, config).unwrap();
    let first = runtime.run(&trace).unwrap();
    let second = runtime.run(&trace).unwrap();
    assert_eq!(first.swaps, 0);
    assert_eq!(first.final_generation().requests(), trace.len() as u64);
    // PartialEq on f64 fields: bit-identical rows, not merely close.
    assert_eq!(first.generations, second.generations);
}

#[test]
fn same_seed_replays_a_bit_identical_trace_set_and_residuals() {
    let (pre, trace) = scenario();
    let mut snaps = (0..2).map(|_| {
        let runtime = ServeRuntime::new(&pre, config(4)).unwrap();
        runtime.run(&trace).unwrap();
        runtime.audit().snapshot()
    });
    let (first, second) = (snaps.next().unwrap(), snaps.next().unwrap());
    // PartialEq on f64 fields: bit-identical, not merely close.
    assert_eq!(first.records, second.records);
    assert_eq!(first.residuals, second.residuals);
    assert_eq!(first.history, second.history);
    assert_eq!(
        (first.sampled, first.tail, first.straddled, first.recorded),
        (second.sampled, second.tail, second.straddled, second.recorded)
    );
}

#[test]
fn a_request_satisfied_after_the_swap_gets_the_penalty_once() {
    let tracer = AuditTracer::new(AuditConfig::default(), 2);
    // Admitted under generation 0 at t=1.0, satisfied at t=3.0; the
    // swap to generation 1 lands at t=2.0 — mid-service.
    tracer.observe_wait(0, 2.0, 1.5);
    tracer.record(&TraceRecord {
        request_id: 0,
        item: 4,
        arrival_tick: 1,
        satisfied_tick: 3,
        generation: 0,
        channel: 0,
        queue_position: 2,
        arrival: 1.0,
        wait: 2.0,
        predicted: 1.5,
        straddle_penalty: 0.0,
        flags: FLAG_SEEDED,
    });
    assert_eq!(tracer.on_swap(2.0, 1), 1);

    let snap = tracer.snapshot();
    let r = &snap.records[0];
    assert!(r.straddled);
    assert!((r.straddle_penalty - 1.0).abs() < 1e-12, "penalty = completion − boundary");
    assert_reassembles(r);

    // The wait observation stays in generation 0's frozen window; the
    // new generation starts clean — no double count.
    assert_eq!(snap.history.len(), 1);
    assert_eq!(snap.history[0].generation, 0);
    assert_eq!(snap.history[0].channels[0].requests, 1);
    assert_eq!(snap.residuals.generation, 1);
    assert!(snap.residuals.channels.iter().all(|c| c.requests == 0));

    // A second swap must not re-stamp the already-marked record.
    assert_eq!(tracer.on_swap(2.5, 2), 0);
    let again = tracer.snapshot();
    assert_eq!(again.records[0].straddle_penalty, r.straddle_penalty);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Ring-level straddle marking agrees with a brute-force model:
    /// exactly the records with `arrival < boundary < completion` are
    /// marked, their penalty is `completion − boundary`, and a later
    /// boundary never re-marks an already-straddled record.
    #[test]
    fn straddle_marking_is_exact_and_single_shot(
        lifetimes in prop::collection::vec((0.0f64..10.0, 0.01f64..5.0), 1..40),
        boundary in 0.5f64..12.0,
        advance in 0.1f64..5.0,
    ) {
        let ring = TraceRing::new(64);
        for (i, &(arrival, wait)) in lifetimes.iter().enumerate() {
            ring.record(&TraceRecord {
                request_id: i as u64,
                item: i as u64,
                arrival_tick: 0,
                satisfied_tick: 0,
                generation: 0,
                channel: 0,
                queue_position: 0,
                arrival,
                wait,
                predicted: wait * 0.5,
                straddle_penalty: 0.0,
                flags: FLAG_SEEDED,
            });
        }
        let straddles = |b: f64| {
            lifetimes
                .iter()
                .filter(|&&(a, w)| a < b && b < a + w)
                .count() as u64
        };
        let marked = ring.mark_straddles(boundary);
        prop_assert_eq!(marked, straddles(boundary));

        for r in ring.snapshot() {
            let (a, w) = lifetimes[r.request_id as usize];
            if a < boundary && boundary < a + w {
                prop_assert!(r.straddled());
                prop_assert!((r.straddle_penalty - (a + w - boundary)).abs() < 1e-12);
            } else {
                prop_assert!(!r.straddled());
                prop_assert_eq!(r.straddle_penalty, 0.0);
            }
        }

        // A later boundary marks only records not already stamped.
        let later = boundary + advance;
        let marked_later = ring.mark_straddles(later);
        let expected_later = lifetimes
            .iter()
            .filter(|&&(a, w)| {
                let first = a < boundary && boundary < a + w;
                !first && a < later && later < a + w
            })
            .count() as u64;
        prop_assert_eq!(marked_later, expected_later);
    }
}
