//! Eq. 2–anchored SLO tracking.
//!
//! Every program generation carries an *analytical* service-level
//! objective: the expected waiting time `W_b` of Eq. 2 computed from
//! the frequency profile the generation was optimized for,
//!
//! ```text
//!   W_b = cost / (2b) + (Σ_j f_j z_j) / b        (probe + download)
//! ```
//!
//! The tracker holds no counts of its own. At each tick boundary it
//! reads the serving generation's [`GenerationTotals`] from the audit
//! tracer (the residual ledger's request and wait sums, plus the tail
//! stage's slow count) and judges them two ways:
//!
//! * **slow requests** — a request is *slow* when the audit tail stage
//!   flags it (`AuditTracer::tail_slow`: `wait > tail_multiplier ×
//!   W_b`); the fraction of slow requests against the allowed `budget`
//!   is the error-budget **burn rate** (1.0 = budget exactly spent).
//!   Crossing 1.0 latches a breach.
//! * **in aggregate** — once warmed up, an observed mean outside the
//!   relative `tolerance` band around `W_b` means the analytical model
//!   no longer describes live traffic (the workload moved in a way
//!   that may not register as L1 drift, e.g. mass concentrating on the
//!   slowest channel). With `trigger` set this dispatches one
//!   re-allocation per generation — the SLO path into the same repair
//!   machinery the drift detector feeds.

use dbcast_audit::GenerationTotals;
use dbcast_model::{average_waiting_time, Allocation, Database, ModelError};
use serde::{Deserialize, Serialize};

/// Configuration of the per-generation SLO tracker.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SloConfig {
    /// Relative tolerance on the observed mean wait vs the Eq. 2
    /// prediction before the generation counts as out of band.
    pub tolerance: f64,
    /// Allowed fraction of slow requests (the error budget).
    pub budget: f64,
    /// Dispatch a re-allocation when the mean leaves the tolerance
    /// band (at most once per generation).
    pub trigger: bool,
    /// Requests a generation must serve before breaches or triggers
    /// can fire — the aggregate is meaningless over a handful of
    /// arrivals.
    pub min_requests: u64,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig { tolerance: 0.15, budget: 0.05, trigger: false, min_requests: 200 }
    }
}

/// Eq. 2 expected wait `W_b` for `assignment` over `db` — the SLO
/// target a generation is held to.
///
/// # Errors
///
/// Propagates [`ModelError`] for an invalid assignment or bandwidth.
pub fn expected_wait(
    db: &Database,
    channels: usize,
    assignment: Vec<usize>,
    bandwidth: f64,
) -> Result<f64, ModelError> {
    let alloc = Allocation::from_assignment(db, channels, assignment)?;
    Ok(average_waiting_time(db, &alloc, bandwidth)?.total())
}

/// What one evaluation found.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloVerdict {
    /// Burn rate of the generation so far.
    pub burn_rate: f64,
    /// The burn rate crossed 1.0 (latched: reported at most once per
    /// generation).
    pub breached: bool,
    /// The tracker wants a re-allocation dispatched (latched: at most
    /// once per generation, only with [`SloConfig::trigger`]).
    pub trigger: bool,
}

/// Per-generation SLO verdict against a fixed Eq. 2 target.
#[derive(Debug, Clone)]
pub struct SloTracker {
    config: SloConfig,
    target: f64,
    breach_latched: bool,
    trigger_latched: bool,
}

impl SloTracker {
    /// Starts judging a generation whose Eq. 2 expected wait is
    /// `target` seconds.
    pub fn new(config: SloConfig, target: f64) -> Self {
        SloTracker { config, target, breach_latched: false, trigger_latched: false }
    }

    /// Judges the generation's running `totals` and reports what
    /// changed.
    pub fn evaluate(&mut self, totals: GenerationTotals) -> SloVerdict {
        let burn_rate = self.burn_rate(totals);
        let warmed = totals.requests >= self.config.min_requests;
        let breached = warmed && burn_rate > 1.0 && !self.breach_latched;
        self.breach_latched |= breached;
        let trigger = self.config.trigger
            && warmed
            && !self.trigger_latched
            && !self.within_tolerance(totals);
        self.trigger_latched |= trigger;
        SloVerdict { burn_rate, breached, trigger }
    }

    /// `(slow fraction) / budget`; 1.0 means the error budget is
    /// exactly spent.
    pub fn burn_rate(&self, totals: GenerationTotals) -> f64 {
        if totals.requests == 0 || self.config.budget <= 0.0 {
            0.0
        } else {
            (totals.slow as f64 / totals.requests as f64) / self.config.budget
        }
    }

    /// Whether the observed mean sits inside the relative tolerance
    /// band around the Eq. 2 target (vacuously true before the first
    /// request).
    pub fn within_tolerance(&self, totals: GenerationTotals) -> bool {
        totals.requests == 0
            || (totals.mean_wait() - self.target).abs()
                <= self.config.tolerance * self.target.abs()
    }

    /// The per-generation report on the generation's final `totals`.
    pub fn report(&self, totals: GenerationTotals) -> SloReport {
        SloReport {
            target_wait: self.target,
            slow: totals.slow,
            burn_rate: self.burn_rate(totals),
            within_tolerance: self.within_tolerance(totals),
        }
    }
}

/// Per-generation SLO outcome, embedded in the serve report (the
/// generation's request count and mean wait sit beside it, on its
/// residual-ledger row).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloReport {
    /// Eq. 2 expected wait `W_b` the generation was held to (seconds).
    pub target_wait: f64,
    /// Requests the audit tail stage caught as slow.
    pub slow: u64,
    /// Final error-budget burn rate.
    pub burn_rate: f64,
    /// Whether the observed mean ended inside the tolerance band.
    pub within_tolerance: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbcast_model::ItemSpec;

    fn config() -> SloConfig {
        SloConfig { tolerance: 0.1, budget: 0.1, trigger: true, min_requests: 10 }
    }

    /// A generation held to `W_b` = 1 whose totals grow the way the
    /// audit tracer counts them: every wait into the ledger sums, and a
    /// wait above the default tail multiplier (2 × W_b) as slow.
    struct Window {
        tracker: SloTracker,
        totals: GenerationTotals,
    }

    impl Window {
        fn new(config: SloConfig) -> Self {
            Window {
                tracker: SloTracker::new(config, 1.0),
                totals: GenerationTotals::default(),
            }
        }

        /// Serves one request, then evaluates as at a tick boundary.
        fn serve(&mut self, wait: f64) -> SloVerdict {
            self.totals.requests += 1;
            self.totals.wait_sum += wait;
            self.totals.slow += u64::from(wait > 2.0);
            self.tracker.evaluate(self.totals)
        }

        fn report(&self) -> SloReport {
            self.tracker.report(self.totals)
        }
    }

    #[test]
    fn expected_wait_matches_hand_computation() {
        // Two equal items on one channel, cycle 8, bandwidth 10:
        // probe 8/20 = 0.4, download 4/10 = 0.4.
        let db = Database::try_from_specs(vec![
            ItemSpec::new(0.5, 4.0),
            ItemSpec::new(0.5, 4.0),
        ])
        .unwrap();
        let w = expected_wait(&db, 1, vec![0, 0], 10.0).unwrap();
        assert!((w - 0.8).abs() < 1e-12);
    }

    #[test]
    fn on_target_traffic_stays_quiet() {
        let mut w = Window::new(config());
        for _ in 0..100 {
            let v = w.serve(1.0);
            assert!(!v.breached && !v.trigger);
        }
        let r = w.report();
        assert!(r.within_tolerance);
        assert_eq!(r.slow, 0);
        assert_eq!(r.burn_rate, 0.0);
    }

    #[test]
    fn burn_rate_breaches_once() {
        let mut w = Window::new(config());
        // 50% slow against a 10% budget: burn rate 5.0, one latched
        // breach after warm-up.
        let mut breaches = 0;
        for i in 0..100 {
            let wait = if i % 2 == 0 { 3.0 } else { 0.5 };
            if w.serve(wait).breached {
                breaches += 1;
            }
        }
        assert_eq!(breaches, 1);
        let r = w.report();
        assert!((r.burn_rate - 5.0).abs() < 1e-9);
        assert_eq!(r.slow, 50);
    }

    #[test]
    fn warmup_suppresses_breach_and_trigger() {
        let mut w = Window::new(config());
        for _ in 0..9 {
            let v = w.serve(10.0);
            assert!(!v.breached && !v.trigger, "fired before min_requests");
        }
        let v = w.serve(10.0);
        assert!(v.breached && v.trigger, "10th request warms the tracker up");
    }

    #[test]
    fn trigger_fires_once_per_generation() {
        let mut w = Window::new(config());
        let mut triggers = 0;
        for _ in 0..100 {
            if w.serve(1.5).trigger {
                triggers += 1;
            }
        }
        assert_eq!(triggers, 1);
        assert!(!w.report().within_tolerance);
    }

    #[test]
    fn trigger_disabled_never_fires() {
        let mut w = Window::new(SloConfig { trigger: false, ..config() });
        for _ in 0..100 {
            assert!(!w.serve(10.0).trigger);
        }
    }

    #[test]
    fn slow_mean_leaves_tolerance_in_both_directions() {
        let mut fast = Window::new(config());
        let mut slow = Window::new(config());
        for _ in 0..20 {
            fast.serve(0.5);
            slow.serve(1.5);
        }
        assert!(!fast.report().within_tolerance);
        assert!(!slow.report().within_tolerance);
    }
}
