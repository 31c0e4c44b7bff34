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
//!   flags it (`AuditTracer::tail_slow`: its wait exceeds
//!   `tail_multiplier ×` its own Eq. 2 prediction `Z_c/(2b) + z/b`, a
//!   wait the model does not explain); the fraction of slow requests
//!   against the allowed [`BUDGET`] is the error-budget **burn rate**
//!   (1.0 = budget exactly spent). Crossing 1.0 latches a breach.
//! * **in aggregate** — an observed mean outside the relative
//!   `tolerance` band around `W_b` means the analytical model no
//!   longer describes live traffic. The verdict is reported per
//!   generation; only the drift rule's Eq. 3 gap dispatches repairs.

use dbcast_audit::GenerationTotals;
use serde::{Deserialize, Serialize};

/// Allowed fraction of slow requests (the error budget).
const BUDGET: f64 = 0.05;

/// Requests a generation must serve before a breach can fire — the
/// burn rate is meaningless over a handful of arrivals.
const MIN_REQUESTS: u64 = 200;

/// Configuration of the per-generation SLO tracker.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SloConfig {
    /// Relative tolerance on the observed mean wait vs the Eq. 2
    /// prediction before the generation counts as out of band.
    pub tolerance: f64,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig { tolerance: 0.15 }
    }
}

/// What one evaluation found.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloVerdict {
    /// Burn rate of the generation so far.
    pub burn_rate: f64,
    /// The burn rate crossed 1.0 (latched: reported at most once per
    /// generation).
    pub breached: bool,
}

/// Per-generation SLO verdict against a fixed Eq. 2 target.
#[derive(Debug, Clone)]
pub struct SloTracker {
    config: SloConfig,
    target: f64,
    breach_latched: bool,
}

impl SloTracker {
    /// Starts judging a generation whose Eq. 2 expected wait is
    /// `target` seconds.
    pub fn new(config: SloConfig, target: f64) -> Self {
        SloTracker { config, target, breach_latched: false }
    }

    /// Judges the generation's running `totals` and reports what
    /// changed.
    pub fn evaluate(&mut self, totals: GenerationTotals) -> SloVerdict {
        let burn_rate = self.burn_rate(totals);
        let breached =
            totals.requests >= MIN_REQUESTS && burn_rate > 1.0 && !self.breach_latched;
        self.breach_latched |= breached;
        SloVerdict { burn_rate, breached }
    }

    /// `(slow fraction) / BUDGET`; 1.0 means the error budget is
    /// exactly spent.
    pub fn burn_rate(&self, totals: GenerationTotals) -> f64 {
        if totals.requests == 0 {
            0.0
        } else {
            (totals.slow as f64 / totals.requests as f64) / BUDGET
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

    fn config() -> SloConfig {
        SloConfig { tolerance: 0.1 }
    }

    /// A generation held to `W_b` = 1 whose totals grow the way the
    /// audit tracer counts them: every wait into the ledger sums, and a
    /// wait above the default tail multiplier (2 × a prediction of 1)
    /// as slow.
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
    fn on_target_traffic_stays_quiet() {
        let mut w = Window::new(config());
        for _ in 0..2 * MIN_REQUESTS {
            assert!(!w.serve(1.0).breached);
        }
        let r = w.report();
        assert!(r.within_tolerance);
        assert_eq!(r.slow, 0);
        assert_eq!(r.burn_rate, 0.0);
    }

    #[test]
    fn burn_rate_breaches_once() {
        let mut w = Window::new(config());
        // 50% slow against the 5% budget: burn rate 10.0, one latched
        // breach after warm-up.
        let mut breaches = 0;
        for i in 0..2 * MIN_REQUESTS {
            let wait = if i % 2 == 0 { 3.0 } else { 0.5 };
            if w.serve(wait).breached {
                breaches += 1;
            }
        }
        assert_eq!(breaches, 1);
        let r = w.report();
        assert!((r.burn_rate - 0.5 / BUDGET).abs() < 1e-9);
        assert_eq!(r.slow, MIN_REQUESTS);
    }

    #[test]
    fn warmup_suppresses_breach() {
        let mut w = Window::new(config());
        for _ in 1..MIN_REQUESTS {
            assert!(!w.serve(10.0).breached, "fired before MIN_REQUESTS");
        }
        assert!(w.serve(10.0).breached, "the last warm-up request arms the breach");
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
