//! The invariant suite: everything the harness checks about one
//! instance.
//!
//! Checks are layered by the strength of the available oracle:
//!
//! 1. **Exact** — on small instances every allocator's cost is bounded
//!    below by [`ExactBnB`]'s global optimum.
//! 2. **Metamorphic** — properties that need no oracle: permutation
//!    invariance, frequency/size scale equivariance, monotone
//!    non-increasing cost in `K`, CDS monotonicity and local
//!    optimality, analytical-vs-simulated waiting-time agreement.
//! 3. **Differential/structural** — every allocator's output is a
//!    valid `K`-way partition whose incremental cost bookkeeping
//!    matches the from-scratch Eq. 3 reference, and repeated runs are
//!    bit-identical.
//!
//! Each failed check becomes a [`Violation`] carrying the offending
//! [`Instance`], so it can be shrunk and filed into the corpus.

use std::panic::{catch_unwind, AssertUnwindSafe};

use dbcast_alloc::{Cds, CdsOutcome, Drp, ReferenceCds};
use dbcast_baselines::ExactBnB;
use dbcast_model::{
    allocation_cost, AllocError, Allocation, BroadcastProgram, ChannelAllocator, ChannelId,
    Database, ItemId, Move,
};
use dbcast_sim::Simulation;
use dbcast_workload::{Request, RequestTrace, TraceBuilder};
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::instance::Instance;
use crate::registry::Subject;

/// Relative tolerance for cost comparisons that should agree up to
/// floating-point associativity noise.
const REL_TOL: f64 = 1e-9;

/// Absolute slack admitted on "no improving CDS move remains" — CDS
/// itself stops below a `1e-9` reduction, so anything above this bound
/// is a genuine missed move, not noise.
const CDS_SLACK: f64 = 1e-6;

/// One failed invariant check.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Violation {
    /// Kebab-case invariant name (e.g. `"oracle-lower-bound"`).
    pub invariant: String,
    /// The offending algorithm, when the check targets one.
    pub algorithm: Option<String>,
    /// Human-readable failure description with the observed values.
    pub detail: String,
    /// The (possibly shrunk) instance that exhibits the failure.
    pub instance: Instance,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] {} on {}: {}",
            self.invariant,
            self.algorithm.as_deref().unwrap_or("-"),
            self.instance.summary(),
            self.detail
        )
    }
}

/// Tunable knobs of the invariant suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckConfig {
    /// Route instances with `N ≤ oracle_max_items` and
    /// `K ≤ oracle_max_channels` through the [`ExactBnB`] oracle;
    /// larger ones get invariant-only checking.
    pub oracle_max_items: usize,
    /// See [`CheckConfig::oracle_max_items`].
    pub oracle_max_channels: usize,
    /// Run the discrete-event-simulator agreement check (it costs a
    /// few milliseconds per instance, so the harness strides it).
    pub check_sim: bool,
    /// Requests per simulator agreement run.
    pub sim_requests: usize,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            oracle_max_items: 10,
            oracle_max_channels: 4,
            check_sim: false,
            sim_requests: 4000,
        }
    }
}

/// Checks every invariant of `instance` against `subjects` and returns
/// the violations (empty = conformant).
///
/// Deterministic: internal randomness (permutations, CDS starting
/// points, simulation traces) is derived from the instance's own
/// `(seed, case)` pair.
pub fn check_instance(
    instance: &Instance,
    subjects: &[Subject],
    cfg: &CheckConfig,
) -> Vec<Violation> {
    let refs: Vec<&Subject> = subjects.iter().collect();
    check_instance_refs(instance, &refs, cfg)
}

/// [`check_instance`] over borrowed subjects — lets the harness filter
/// its registry (stride-gating GOPT) without cloning allocators.
pub fn check_instance_refs(
    instance: &Instance,
    subjects: &[&Subject],
    cfg: &CheckConfig,
) -> Vec<Violation> {
    let mut v = Vec::new();
    let db = match instance.database() {
        Ok(db) => db,
        Err(e) => {
            // Corpus files are user input; a non-buildable instance is
            // itself a (corpus) violation rather than a crash.
            v.push(Violation {
                invariant: "instance-buildable".into(),
                algorithm: None,
                detail: format!("model rejected the instance: {e}"),
                instance: instance.clone(),
            });
            return v;
        }
    };
    let mut rng = ChaCha8Rng::seed_from_u64(instance.seed ^ instance.case.rotate_left(32));

    // Per-subject structural + metamorphic checks; remember produced
    // costs for the oracle comparison.
    let mut produced: Vec<(String, f64)> = Vec::new();
    for subject in subjects {
        if let Some(alloc) = run_subject(instance, &db, subject, &mut v) {
            produced.push((subject.name().to_string(), alloc.total_cost()));
            check_determinism(instance, &db, subject, &alloc, &mut v);
            check_frequency_scale_invariance(instance, &db, subject, &alloc, &mut v);
            check_size_scale_equivariance(instance, subject, &alloc, &mut v);
            if subject.permutation_invariant {
                check_permutation_invariance(
                    instance, &db, subject, &alloc, &mut rng, &mut v,
                );
            }
            if subject.k_monotone {
                check_k_monotonicity(instance, &db, subject, &alloc, &mut v);
            }
        }
    }

    check_cds(instance, &db, &mut rng, &mut v);
    check_cds_differential(instance, &db, &mut v);
    check_wait_kernel(instance, &db, &mut v);
    check_oracle(instance, &db, &produced, cfg, &mut v);
    if cfg.check_sim {
        check_sim_agreement(instance, &db, cfg, &mut rng, &mut v);
    }
    v
}

/// Runs one subject, converting panics and contract breaches into
/// violations. Returns the allocation when one was legitimately
/// produced.
fn run_subject(
    instance: &Instance,
    db: &Database,
    subject: &Subject,
    v: &mut Vec<Violation>,
) -> Option<Allocation> {
    let k = instance.channels;
    let n = db.len();
    let outcome = catch_unwind(AssertUnwindSafe(|| subject.allocator.allocate(db, k)));
    let mut fail = |invariant: &str, detail: String| {
        v.push(Violation {
            invariant: invariant.into(),
            algorithm: Some(subject.name().to_string()),
            detail,
            instance: instance.clone(),
        });
    };
    match outcome {
        Err(panic) => {
            fail(
                "no-panic",
                format!("allocate(N = {n}, K = {k}) panicked: {}", panic_msg(&*panic)),
            );
            None
        }
        Ok(Err(e)) => {
            if k > n
                && subject.requires_k_le_n
                && matches!(e, AllocError::Infeasible { .. })
            {
                None // the typed rejection its contract promises
            } else {
                fail(
                    "feasibility-contract",
                    format!("allocate(N = {n}, K = {k}) unexpectedly failed: {e}"),
                );
                None
            }
        }
        Ok(Ok(alloc)) => {
            if k > n && subject.requires_k_le_n {
                fail(
                    "feasibility-contract",
                    format!("claims K ≤ N is required yet accepted N = {n}, K = {k}"),
                );
            }
            if alloc.channels() != k || alloc.items() != n {
                fail(
                    "valid-partition",
                    format!(
                        "returned {} channels / {} items, expected exactly {k} / {n}",
                        alloc.channels(),
                        alloc.items()
                    ),
                );
                return None;
            }
            if let Err(e) = alloc.validate(db) {
                fail("valid-partition", format!("allocation failed validation: {e}"));
                return None;
            }
            let reference = allocation_cost(db, k, alloc.assignment())
                .expect("validated assignment must cost");
            let cost = alloc.total_cost();
            if !cost.is_finite() || relative_gap(cost, reference) > REL_TOL {
                fail(
                    "cost-consistency",
                    format!("incremental cost {cost} != Eq. 3 reference {reference}"),
                );
            }
            // Sandwich bounds: Σ f·z ≤ Σ F_i·Z_i ≤ (Σ f)(Σ z).
            let stats = db.stats();
            let lo = stats.weighted_size;
            let hi = stats.total_frequency * stats.total_size;
            if cost < lo - absolute_slack(lo) || cost > hi + absolute_slack(hi) {
                fail(
                    "cost-consistency",
                    format!("cost {cost} outside the feasible band [{lo}, {hi}]"),
                );
            }
            Some(alloc)
        }
    }
}

/// Two runs over the same inputs must agree bit-for-bit — randomized
/// subjects carry their seed in their configuration.
fn check_determinism(
    instance: &Instance,
    db: &Database,
    subject: &Subject,
    first: &Allocation,
    v: &mut Vec<Violation>,
) {
    match subject.allocator.allocate(db, instance.channels) {
        Ok(second) if second.assignment() == first.assignment() => {}
        Ok(second) => v.push(Violation {
            invariant: "determinism".into(),
            algorithm: Some(subject.name().to_string()),
            detail: format!(
                "two identical runs disagree: {:?} vs {:?}",
                first.assignment(),
                second.assignment()
            ),
            instance: instance.clone(),
        }),
        Err(e) => v.push(Violation {
            invariant: "determinism".into(),
            algorithm: Some(subject.name().to_string()),
            detail: format!("second identical run failed: {e}"),
            instance: instance.clone(),
        }),
    }
}

/// Scaling every raw frequency by a power of two is erased by
/// normalization, so the rebuilt database is bit-identical and the
/// allocator must reproduce the exact same assignment.
fn check_frequency_scale_invariance(
    instance: &Instance,
    db: &Database,
    subject: &Subject,
    base: &Allocation,
    v: &mut Vec<Violation>,
) {
    let scaled = instance.scaled_frequencies(4.0);
    let scaled_db = match scaled.database() {
        Ok(d) => d,
        // ×4 can overflow only absurd corpus values; skip silently.
        Err(_) => return,
    };
    if &scaled_db != db {
        // Normalization did not erase the scaling (non-power-of-two
        // artifacts); the metamorphic relation does not apply.
        return;
    }
    match subject.allocator.allocate(&scaled_db, instance.channels) {
        Ok(alloc) if alloc.assignment() == base.assignment() => {}
        Ok(alloc) => v.push(Violation {
            invariant: "frequency-scale-invariance".into(),
            algorithm: Some(subject.name().to_string()),
            detail: format!(
                "raw frequencies ×4 changed the assignment: {:?} vs {:?}",
                base.assignment(),
                alloc.assignment()
            ),
            instance: instance.clone(),
        }),
        Err(e) => v.push(Violation {
            invariant: "frequency-scale-invariance".into(),
            algorithm: Some(subject.name().to_string()),
            detail: format!("raw frequencies ×4 made the instance fail: {e}"),
            instance: instance.clone(),
        }),
    }
}

/// Scaling every size by a power of two scales every channel aggregate
/// and therefore the cost by exactly that factor.
fn check_size_scale_equivariance(
    instance: &Instance,
    subject: &Subject,
    base: &Allocation,
    v: &mut Vec<Violation>,
) {
    let base_cost = base.total_cost();
    // Threshold-bearing refiners (CDS's 1e-9 minimum improvement)
    // legitimately diverge when the cost scale approaches the
    // threshold, so the relation is only claimed above it.
    if base_cost < 1e-5 {
        return;
    }
    let scaled = instance.scaled_sizes(2.0);
    let scaled_db = match scaled.database() {
        Ok(d) => d,
        Err(_) => return,
    };
    match subject.allocator.allocate(&scaled_db, instance.channels) {
        Ok(alloc) => {
            let got = alloc.total_cost();
            let want = 2.0 * base_cost;
            if relative_gap(got, want) > 1e-7 {
                v.push(Violation {
                    invariant: "size-scale-equivariance".into(),
                    algorithm: Some(subject.name().to_string()),
                    detail: format!("sizes ×2 produced cost {got}, expected {want}"),
                    instance: instance.clone(),
                });
            }
        }
        Err(e) => v.push(Violation {
            invariant: "size-scale-equivariance".into(),
            algorithm: Some(subject.name().to_string()),
            detail: format!("sizes ×2 made the instance fail: {e}"),
            instance: instance.clone(),
        }),
    }
}

/// Relabeling items must not change the achieved cost — for subjects
/// that claim it, and only on instances whose sort keys are free of
/// cross-item ties (ties make the achieved grouping legitimately
/// depend on id order).
fn check_permutation_invariance(
    instance: &Instance,
    db: &Database,
    subject: &Subject,
    base: &Allocation,
    rng: &mut ChaCha8Rng,
    v: &mut Vec<Violation>,
) {
    if has_ambiguous_ties(db) {
        return;
    }
    let n = instance.len();
    if n < 2 {
        return;
    }
    // Deterministic Fisher–Yates shuffle.
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        perm.swap(i, rng.gen_range(0..=i));
    }
    let permuted = instance.permuted(&perm);
    let permuted_db = match permuted.database() {
        Ok(d) => d,
        Err(_) => return,
    };
    match subject.allocator.allocate(&permuted_db, instance.channels) {
        Ok(alloc) => {
            let got = alloc.total_cost();
            let want = base.total_cost();
            if relative_gap(got, want) > REL_TOL {
                v.push(Violation {
                    invariant: "permutation-invariance".into(),
                    algorithm: Some(subject.name().to_string()),
                    detail: format!(
                        "relabeling items changed the cost: {got} vs {want} (perm {perm:?})"
                    ),
                    instance: instance.clone(),
                });
            }
        }
        Err(e) => v.push(Violation {
            invariant: "permutation-invariance".into(),
            algorithm: Some(subject.name().to_string()),
            detail: format!("relabeled instance failed: {e}"),
            instance: instance.clone(),
        }),
    }
}

/// More channels never hurt: `cost(K+1) ≤ cost(K)` for subjects that
/// claim monotonicity.
fn check_k_monotonicity(
    instance: &Instance,
    db: &Database,
    subject: &Subject,
    base: &Allocation,
    v: &mut Vec<Violation>,
) {
    let next_k = instance.channels + 1;
    if subject.requires_k_le_n && next_k > db.len() {
        return;
    }
    match subject.allocator.allocate(db, next_k) {
        Ok(alloc) => {
            let upper = base.total_cost();
            let got = alloc.total_cost();
            if got > upper + absolute_slack(upper) {
                v.push(Violation {
                    invariant: "k-monotonicity".into(),
                    algorithm: Some(subject.name().to_string()),
                    detail: format!(
                        "cost rose with channels: K = {} gives {upper}, K = {next_k} gives {got}",
                        instance.channels
                    ),
                    instance: instance.clone(),
                });
            }
        }
        Err(e) => v.push(Violation {
            invariant: "k-monotonicity".into(),
            algorithm: Some(subject.name().to_string()),
            detail: format!("allocation at K = {next_k} failed: {e}"),
            instance: instance.clone(),
        }),
    }
}

/// CDS contract, checked from a random starting allocation: it never
/// worsens its input, its per-step accounting matches the realized
/// cost drops, and a converged result is a genuine local optimum.
fn check_cds(
    instance: &Instance,
    db: &Database,
    rng: &mut ChaCha8Rng,
    v: &mut Vec<Violation>,
) {
    let k = instance.channels;
    let start: Vec<usize> = (0..db.len()).map(|_| rng.gen_range(0..k)).collect();
    let rough = Allocation::from_assignment(db, k, start)
        .expect("random assignment over K channels is structurally valid");
    let initial = rough.total_cost();
    let mut fail = |invariant: &str, detail: String| {
        v.push(Violation {
            invariant: invariant.into(),
            algorithm: Some("CDS".to_string()),
            detail,
            instance: instance.clone(),
        });
    };
    let out = match Cds::new().refine(db, rough) {
        Ok(out) => out,
        Err(e) => {
            fail("cds-never-worsens", format!("refine failed on a valid input: {e}"));
            return;
        }
    };
    let final_cost = out.final_cost();
    if final_cost > initial + absolute_slack(initial) {
        fail(
            "cds-never-worsens",
            format!("refinement worsened the input: {initial} -> {final_cost}"),
        );
    }
    let mut prev = out.initial_cost;
    for (i, step) in out.steps.iter().enumerate() {
        let realized = prev - step.cost_after;
        if step.cost_after >= prev || (realized - step.reduction).abs() > CDS_SLACK {
            fail(
                "cds-step-accounting",
                format!(
                    "step {i} claimed Δc = {} but realized {realized} ({} -> {})",
                    step.reduction, prev, step.cost_after
                ),
            );
            break;
        }
        prev = step.cost_after;
    }
    if !out.converged {
        fail(
            "cds-local-optimum",
            format!("CDS hit its iteration cap after {} steps", out.steps.len()),
        );
        return;
    }
    // A converged refinement admits no further strictly improving move.
    let alloc = &out.allocation;
    for (item, &p) in alloc.assignment().iter().enumerate() {
        for q in 0..k {
            if q == p {
                continue;
            }
            let mv = Move {
                item: ItemId::new(item),
                from: ChannelId::new(p),
                to: ChannelId::new(q),
            };
            let delta = alloc
                .move_reduction(mv)
                .expect("scan only proposes structurally valid moves");
            if delta > CDS_SLACK {
                fail(
                    "cds-local-optimum",
                    format!(
                        "converged result still improvable: moving item {item} \
                         {p} -> {q} gains {delta}"
                    ),
                );
                return;
            }
        }
    }
}

/// Differential battery: the production incremental CDS engine must
/// reproduce the paper-literal [`ReferenceCds`] scan **bit-for-bit** —
/// the same step sequence (moves, reduction bits, post-move cost bits),
/// the same convergence flag and the same final allocation — from both
/// a random starting allocation and the DRP rough allocation. Any
/// divergence is a [`Violation`] like every other invariant, so ddmin
/// shrinking produces a minimal diverging instance for the corpus.
fn check_cds_differential(instance: &Instance, db: &Database, v: &mut Vec<Violation>) {
    let k = instance.channels;
    // Own deterministic stream: adding this check must not perturb the
    // rng draws the pre-existing checks (and the corpus entries pinned
    // against them) consume.
    let mut rng = ChaCha8Rng::seed_from_u64(
        instance.seed.rotate_left(17) ^ instance.case ^ 0xC05_D1FF,
    );
    let random: Vec<usize> = (0..db.len()).map(|_| rng.gen_range(0..k)).collect();
    let mut starts: Vec<(&str, Allocation)> = vec![(
        "random start",
        Allocation::from_assignment(db, k, random)
            .expect("random assignment over K channels is structurally valid"),
    )];
    if k <= db.len() {
        if let Ok(rough) = Drp::new().allocate(db, k) {
            starts.push(("drp start", rough));
        }
    }
    for (label, start) in starts {
        let reference = ReferenceCds::new().refine(db, start.clone());
        let fast = Cds::new().refine(db, start);
        match (reference, fast) {
            (Ok(oracle), Ok(incremental)) => {
                if let Some(detail) = first_cds_divergence(&oracle, &incremental) {
                    v.push(Violation {
                        invariant: "cds-differential".into(),
                        algorithm: Some("CDS".to_string()),
                        detail: format!("{label}: {detail}"),
                        instance: instance.clone(),
                    });
                }
            }
            (reference, fast) => v.push(Violation {
                invariant: "cds-differential".into(),
                algorithm: Some("CDS".to_string()),
                detail: format!(
                    "{label}: refine failability diverged: reference {:?} vs incremental {:?}",
                    reference.map(|o| o.steps.len()),
                    fast.map(|o| o.steps.len()),
                ),
                instance: instance.clone(),
            }),
        }
    }
}

/// Wait-kernel agreement: the program's placement-table kernel
/// (`best_start`, `response_time`) must equal a brute-force scan of
/// every channel's slots **bit for bit**, on a random partition and on
/// a replicated program with in-channel duplicates, at random arrivals,
/// exact slot starts and exact cycle multiples; and the discrete-event
/// simulator's per-request waits must match `response_time` to 1e-9
/// (relative to the wait, absolute below one second).
fn check_wait_kernel(instance: &Instance, db: &Database, v: &mut Vec<Violation>) {
    const BANDWIDTH: f64 = 10.0;
    let k = instance.channels.max(1);
    // Own deterministic stream, like `cds-differential`.
    let mut rng = ChaCha8Rng::seed_from_u64(
        instance.seed.rotate_left(29) ^ instance.case ^ 0x3A17_CE11,
    );
    let mut fail = |detail: String| {
        v.push(Violation {
            invariant: "wait-kernel".into(),
            algorithm: None,
            detail,
            instance: instance.clone(),
        })
    };
    let home: Vec<usize> = (0..db.len()).map(|_| rng.gen_range(0..k)).collect();
    let mut groups: Vec<Vec<ItemId>> = vec![Vec::new(); k];
    for (item, &c) in home.iter().enumerate() {
        groups[c].push(ItemId::new(item));
        // Replicas on other channels, and repeats within one channel.
        if rng.gen_bool(0.3) {
            groups[rng.gen_range(0..k)].push(ItemId::new(item));
        }
    }
    let programs = [
        Allocation::from_assignment(db, k, home)
            .and_then(|alloc| BroadcastProgram::new(db, &alloc, BANDWIDTH)),
        BroadcastProgram::from_overlapping_groups(db, &groups, BANDWIDTH),
    ];
    for (label, program) in ["partition", "replicated"].into_iter().zip(programs) {
        let program = match program {
            Ok(p) => p,
            Err(e) => {
                fail(format!("{label}: program failed to build: {e}"));
                continue;
            }
        };
        let longest = program.channels().iter().map(|c| c.cycle_size()).fold(0.0, f64::max);
        // Exact slot starts and cycle multiples, then random instants.
        let mut arrivals: Vec<f64> = Vec::new();
        for c in program.channels() {
            for cycles in 0..3 {
                let base = f64::from(cycles) * c.cycle_size() / BANDWIDTH;
                arrivals.push(base);
                arrivals.extend(c.slots().iter().map(|s| base + s.offset / BANDWIDTH));
            }
        }
        arrivals.extend((0..16).map(|_| rng.gen::<f64>() * 3.0 * longest / BANDWIDTH));
        let bits = |x: Option<(ChannelId, f64, f64)>| {
            x.map(|(c, t, z)| (c, t.to_bits(), z.to_bits()))
        };
        let mut requests = Vec::new();
        for item in (0..db.len()).map(ItemId::new) {
            for &now in &arrivals {
                let kernel = program.best_start(item, now);
                let oracle = brute_force_best_start(&program, item, now);
                if bits(kernel) != bits(oracle) {
                    fail(format!(
                        "{label}: best_start({item}, {now}) = {kernel:?}, scan gives {oracle:?}"
                    ));
                    return;
                }
                let want = oracle.map(|(_, t, z)| (t - now + z / BANDWIDTH).to_bits());
                if program.response_time(item, now).map(f64::to_bits) != want {
                    fail(format!(
                        "{label}: response_time({item}, {now}) differs from the scan"
                    ));
                    return;
                }
            }
            let now = arrivals[requests.len() % arrivals.len()];
            requests.push(Request { time: now, item });
        }
        let trace = RequestTrace::from_requests(requests);
        let report = match Simulation::new(&program, &trace).run() {
            Ok(r) => r,
            Err(e) => {
                fail(format!("{label}: simulation failed: {e}"));
                continue;
            }
        };
        for r in report.records() {
            let expected = program.response_time(r.item, r.arrival);
            let gap = expected.map(|w| (w - r.waiting_time()).abs());
            if !gap.is_some_and(|g| g <= 1e-9 * r.waiting_time().abs().max(1.0)) {
                fail(format!(
                    "{label}: simulated wait {} for {} at {} vs response_time {expected:?}",
                    r.waiting_time(),
                    r.item,
                    r.arrival
                ));
                return;
            }
        }
    }
}

/// The paper-literal Eq. 1 oracle: scan every channel for the item's
/// first slot, compute its next start with the textbook formula and
/// keep the earliest (the first, i.e. lowest channel, on ties).
fn brute_force_best_start(
    program: &BroadcastProgram,
    item: ItemId,
    now: f64,
) -> Option<(ChannelId, f64, f64)> {
    let b = program.bandwidth();
    program
        .channels()
        .iter()
        .filter_map(|c| {
            let slot = c.slots().iter().find(|s| s.item == item)?;
            let cycle_time = c.cycle_size() / b;
            let offset_time = slot.offset / b;
            let k = ((now - offset_time) / cycle_time).ceil().max(0.0);
            let mut t = offset_time + k * cycle_time;
            if t < now {
                t += cycle_time;
            }
            Some((c.channel(), t, slot.size))
        })
        .min_by(|a, b| a.1.total_cmp(&b.1))
}

/// The first point where two CDS outcomes stop being bit-identical, or
/// `None` when they agree completely.
fn first_cds_divergence(oracle: &CdsOutcome, fast: &CdsOutcome) -> Option<String> {
    for (i, (a, b)) in oracle.steps.iter().zip(&fast.steps).enumerate() {
        if a.mv != b.mv {
            return Some(format!("step {i} move diverged: {:?} vs {:?}", a.mv, b.mv));
        }
        if a.reduction.to_bits() != b.reduction.to_bits() {
            return Some(format!(
                "step {i} reduction bits diverged: {} vs {}",
                a.reduction, b.reduction
            ));
        }
        if a.cost_after.to_bits() != b.cost_after.to_bits() {
            return Some(format!(
                "step {i} cost bits diverged: {} vs {}",
                a.cost_after, b.cost_after
            ));
        }
    }
    if oracle.steps.len() != fast.steps.len() {
        return Some(format!(
            "step counts diverged: reference took {} steps, incremental {}",
            oracle.steps.len(),
            fast.steps.len()
        ));
    }
    if oracle.converged != fast.converged {
        return Some(format!(
            "convergence diverged: reference {} vs incremental {}",
            oracle.converged, fast.converged
        ));
    }
    if oracle.allocation.assignment() != fast.allocation.assignment() {
        return Some("final assignments diverged despite identical steps".to_string());
    }
    if oracle.allocation.total_cost().to_bits() != fast.allocation.total_cost().to_bits() {
        return Some(format!(
            "final cost bits diverged: {} vs {}",
            oracle.allocation.total_cost(),
            fast.allocation.total_cost()
        ));
    }
    None
}

/// On oracle-sized instances, no allocator may beat the exact optimum,
/// and the exact solver itself must produce a valid partition.
fn check_oracle(
    instance: &Instance,
    db: &Database,
    produced: &[(String, f64)],
    cfg: &CheckConfig,
    v: &mut Vec<Violation>,
) {
    if db.len() > cfg.oracle_max_items || instance.channels > cfg.oracle_max_channels {
        return; // routed to invariant-only checking
    }
    let exact = ExactBnB::new().with_max_items(cfg.oracle_max_items);
    let optimum = match exact.allocate(db, instance.channels) {
        Ok(alloc) => {
            if let Err(e) = alloc.validate(db) {
                v.push(Violation {
                    invariant: "valid-partition".into(),
                    algorithm: Some("EXACT".to_string()),
                    detail: format!("oracle allocation failed validation: {e}"),
                    instance: instance.clone(),
                });
                return;
            }
            alloc.total_cost()
        }
        Err(AllocError::TooLarge { items, limit }) => {
            v.push(Violation {
                invariant: "oracle-routing".into(),
                algorithm: Some("EXACT".to_string()),
                detail: format!(
                    "oracle rejected an in-budget instance: {items} items vs limit {limit}"
                ),
                instance: instance.clone(),
            });
            return;
        }
        Err(e) => {
            v.push(Violation {
                invariant: "oracle-routing".into(),
                algorithm: Some("EXACT".to_string()),
                detail: format!("oracle failed: {e}"),
                instance: instance.clone(),
            });
            return;
        }
    };
    for (name, cost) in produced {
        if *cost < optimum - absolute_slack(optimum) {
            v.push(Violation {
                invariant: "oracle-lower-bound".into(),
                algorithm: Some(name.clone()),
                detail: format!("beat the exact optimum: {cost} < {optimum}"),
                instance: instance.clone(),
            });
        }
    }
}

/// Eq. 1/Eq. 2 agreement: the analytical waiting time must match the
/// discrete-event simulator within statistical tolerance.
fn check_sim_agreement(
    instance: &Instance,
    db: &Database,
    cfg: &CheckConfig,
    rng: &mut ChaCha8Rng,
    v: &mut Vec<Violation>,
) {
    let k = instance.channels;
    // Use the strongest available allocation; fall back to round-robin
    // when DRP's K ≤ N precondition does not hold.
    let alloc = if k <= db.len() {
        match Drp::new().allocate(db, k) {
            Ok(a) => a,
            Err(_) => return,
        }
    } else {
        let assignment = (0..db.len()).map(|i| i % k).collect();
        Allocation::from_assignment(db, k, assignment)
            .expect("round-robin assignment is structurally valid")
    };
    let trace =
        match TraceBuilder::new(db).requests(cfg.sim_requests).seed(rng.next_u64()).build()
        {
            Ok(t) => t,
            Err(e) => {
                v.push(Violation {
                    invariant: "sim-model-agreement".into(),
                    algorithm: None,
                    detail: format!("trace generation failed: {e}"),
                    instance: instance.clone(),
                });
                return;
            }
        };
    match dbcast_sim::validate_against_model(db, &alloc, &trace, 10.0) {
        Ok(report) => {
            // 8× the 95% CI half-width or 8% relative — loose enough
            // for seeded sampling noise, tight enough to catch a model
            // or engine regression.
            if !(report.agrees_within(8.0) || report.relative_error() < 0.08) {
                v.push(Violation {
                    invariant: "sim-model-agreement".into(),
                    algorithm: None,
                    detail: format!(
                        "analytical W_b = {} vs empirical {} (ci95 {}, {} requests)",
                        report.analytical, report.empirical, report.ci95, report.requests
                    ),
                    instance: instance.clone(),
                });
            }
        }
        Err(e) => v.push(Violation {
            invariant: "sim-model-agreement".into(),
            algorithm: None,
            detail: format!("validation pipeline failed: {e}"),
            instance: instance.clone(),
        }),
    }
}

/// Whether two non-identical items share a benefit-ratio or frequency
/// sort key (within `1e-6` relative) — on such instances id-order
/// tie-breaking legitimately leaks into the result, so permutation
/// invariance is not claimed.
fn has_ambiguous_ties(db: &Database) -> bool {
    let items = db.items();
    for (i, a) in items.iter().enumerate() {
        for b in &items[i + 1..] {
            let identical = a.frequency() == b.frequency() && a.size() == b.size();
            if identical {
                continue;
            }
            let ratio_tie =
                relative_gap(a.frequency() / a.size(), b.frequency() / b.size()) < 1e-6;
            let freq_tie = relative_gap(a.frequency(), b.frequency()) < 1e-6;
            if ratio_tie || freq_tie {
                return true;
            }
        }
    }
    false
}

fn relative_gap(a: f64, b: f64) -> f64 {
    let scale = a.abs().max(b.abs()).max(1e-300);
    (a - b).abs() / scale
}

/// `REL_TOL` scaled to the magnitude of the quantities compared (with
/// an absolute floor for near-zero costs).
fn absolute_slack(magnitude: f64) -> f64 {
    REL_TOL * magnitude.abs().max(1.0)
}

fn panic_msg(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::ItemFeatures;
    use crate::registry::core_subjects;

    fn diverse_instance() -> Instance {
        Instance::manual(
            vec![
                ItemFeatures { frequency: 0.55, size: 1.0 },
                ItemFeatures { frequency: 0.25, size: 8.0 },
                ItemFeatures { frequency: 0.12, size: 2.0 },
                ItemFeatures { frequency: 0.08, size: 16.0 },
            ],
            2,
        )
    }

    #[test]
    fn clean_instance_has_no_violations() {
        let v =
            check_instance(&diverse_instance(), &core_subjects(), &CheckConfig::default());
        assert!(v.is_empty(), "unexpected violations: {v:?}");
    }

    #[test]
    fn a_cost_inflating_allocator_is_caught_by_the_oracle() {
        /// Deliberately puts everything on channel 0 and lies that the
        /// result used all channels — caught by the oracle (cost above
        /// optimum is fine) but must NOT trip the lower bound.
        struct AllOnOne;
        impl ChannelAllocator for AllOnOne {
            fn name(&self) -> &str {
                "ALL-ON-ONE"
            }
            fn allocate(
                &self,
                db: &Database,
                channels: usize,
            ) -> Result<Allocation, AllocError> {
                Ok(Allocation::from_assignment(db, channels, vec![0; db.len()])?)
            }
        }
        let subjects = vec![Subject {
            allocator: Box::new(AllOnOne),
            requires_k_le_n: false,
            permutation_invariant: true,
            k_monotone: false,
            stride: 1,
        }];
        let v = check_instance(&diverse_instance(), &subjects, &CheckConfig::default());
        // Pessimal but honest: no violation.
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn an_impossibly_good_cost_trips_the_oracle_bound() {
        /// Reports a fabricated sub-optimal... actually *super*-optimal
        /// cost by lying through a modified database? We cannot fake
        /// `total_cost` (it is derived), so fake the other side: claim
        /// `requires_k_le_n` yet accept K > N.
        struct Liar;
        impl ChannelAllocator for Liar {
            fn name(&self) -> &str {
                "LIAR"
            }
            fn allocate(
                &self,
                db: &Database,
                channels: usize,
            ) -> Result<Allocation, AllocError> {
                let assignment = (0..db.len()).map(|i| i % channels).collect();
                Ok(Allocation::from_assignment(db, channels, assignment)?)
            }
        }
        let subjects = vec![Subject {
            allocator: Box::new(Liar),
            requires_k_le_n: true, // lie: it happily accepts K > N
            permutation_invariant: false,
            k_monotone: false,
            stride: 1,
        }];
        let mut inst = diverse_instance();
        inst.channels = 6; // K > N = 4
        let v = check_instance(&inst, &subjects, &CheckConfig::default());
        assert!(
            v.iter().any(|x| x.invariant == "feasibility-contract"),
            "expected a feasibility-contract violation, got {v:?}"
        );
    }

    #[test]
    fn a_panicking_allocator_is_reported_not_propagated() {
        struct Panics;
        impl ChannelAllocator for Panics {
            fn name(&self) -> &str {
                "PANICS"
            }
            fn allocate(
                &self,
                _db: &Database,
                _channels: usize,
            ) -> Result<Allocation, AllocError> {
                panic!("boom");
            }
        }
        let subjects = vec![Subject {
            allocator: Box::new(Panics),
            requires_k_le_n: false,
            permutation_invariant: false,
            k_monotone: false,
            stride: 1,
        }];
        let v = check_instance(&diverse_instance(), &subjects, &CheckConfig::default());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "no-panic");
        assert!(v[0].detail.contains("boom"), "detail was: {}", v[0].detail);
    }

    #[test]
    fn a_nondeterministic_allocator_is_caught() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        struct Flaky(AtomicUsize);
        impl ChannelAllocator for Flaky {
            fn name(&self) -> &str {
                "FLAKY"
            }
            fn allocate(
                &self,
                db: &Database,
                channels: usize,
            ) -> Result<Allocation, AllocError> {
                let run = self.0.fetch_add(1, Ordering::Relaxed);
                let assignment = (0..db.len()).map(|i| (i + run) % channels).collect();
                Ok(Allocation::from_assignment(db, channels, assignment)?)
            }
        }
        let subjects = vec![Subject {
            allocator: Box::new(Flaky(AtomicUsize::new(0))),
            requires_k_le_n: false,
            permutation_invariant: false,
            k_monotone: false,
            stride: 1,
        }];
        let v = check_instance(&diverse_instance(), &subjects, &CheckConfig::default());
        assert!(v.iter().any(|x| x.invariant == "determinism"), "{v:?}");
    }

    #[test]
    fn tie_guard_detects_shared_sort_keys() {
        // Same frequency, different size: ambiguous for VF^K ordering.
        let db = Instance::manual(
            vec![
                ItemFeatures { frequency: 0.5, size: 1.0 },
                ItemFeatures { frequency: 0.5, size: 2.0 },
            ],
            1,
        )
        .database()
        .unwrap();
        assert!(has_ambiguous_ties(&db));
        // Identical items are not ambiguous.
        let dup = Instance::manual(
            vec![
                ItemFeatures { frequency: 0.5, size: 2.0 },
                ItemFeatures { frequency: 0.5, size: 2.0 },
            ],
            1,
        )
        .database()
        .unwrap();
        assert!(!has_ambiguous_ties(&dup));
        assert!(!has_ambiguous_ties(&diverse_instance().database().unwrap()));
    }

    #[test]
    fn sim_agreement_runs_clean_on_a_simple_instance() {
        let cfg = CheckConfig { check_sim: true, sim_requests: 2000, ..Default::default() };
        let v = check_instance(&diverse_instance(), &[], &cfg);
        assert!(v.is_empty(), "{v:?}");
    }
}
