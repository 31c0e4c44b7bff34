//! End-to-end validation of the analytical model (Eq. 1–2) against the
//! one-pass trace simulator.

use dbcast_model::{
    average_waiting_time, Allocation, BroadcastProgram, Database, ModelError,
};
use dbcast_workload::RequestTrace;
use serde::{Deserialize, Serialize};

use crate::engine::{SimError, Simulation};

/// Outcome of one analytical-vs-empirical comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ValidationReport {
    /// Analytical expected waiting time `W_b` (Eq. 2).
    pub analytical: f64,
    /// Empirical mean waiting time over the simulated requests.
    pub empirical: f64,
    /// Half-width of the empirical 95% confidence interval.
    pub ci95: f64,
    /// Number of simulated requests.
    pub requests: usize,
}

impl ValidationReport {
    /// Absolute difference between analytical and empirical means.
    pub fn absolute_error(&self) -> f64 {
        (self.analytical - self.empirical).abs()
    }

    /// Relative error against the analytical value.
    pub fn relative_error(&self) -> f64 {
        self.absolute_error() / self.analytical
    }

    /// Whether the analytical value lies within the empirical 95% CI
    /// widened by `slack` (use a small slack, e.g. 3–4× CI, to keep
    /// seeded tests robust).
    pub fn agrees_within(&self, slack: f64) -> bool {
        self.absolute_error() <= self.ci95 * slack
    }
}

/// Errors from validation (model or simulation layer).
#[derive(Debug)]
#[non_exhaustive]
pub enum ValidationError {
    /// The analytical model rejected the inputs.
    Model(ModelError),
    /// The simulation failed.
    Sim(SimError),
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationError::Model(e) => write!(f, "validation model error: {e}"),
            ValidationError::Sim(e) => write!(f, "validation simulation error: {e}"),
        }
    }
}

impl std::error::Error for ValidationError {}

impl From<ModelError> for ValidationError {
    fn from(e: ModelError) -> Self {
        ValidationError::Model(e)
    }
}

impl From<SimError> for ValidationError {
    fn from(e: SimError) -> Self {
        ValidationError::Sim(e)
    }
}

/// Simulates `trace` against the program induced by `alloc` and compares
/// the empirical mean waiting time with the analytical `W_b`.
///
/// # Errors
///
/// Model errors for invalid bandwidth/allocation; simulation errors when
/// the trace requests unbroadcast items.
///
/// # Example
///
/// ```
/// use dbcast_alloc::DrpCds;
/// use dbcast_model::ChannelAllocator;
/// use dbcast_sim::validate_against_model;
/// use dbcast_workload::{TraceBuilder, WorkloadBuilder};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let db = WorkloadBuilder::new(30).seed(7).build()?;
/// let alloc = DrpCds::new().allocate(&db, 3)?;
/// let trace = TraceBuilder::new(&db).requests(20_000).seed(8).build()?;
/// let report = validate_against_model(&db, &alloc, &trace, 10.0)?;
/// assert!(report.relative_error() < 0.05);
/// # Ok(())
/// # }
/// ```
pub fn validate_against_model(
    db: &Database,
    alloc: &Allocation,
    trace: &RequestTrace,
    bandwidth: f64,
) -> Result<ValidationReport, ValidationError> {
    let analytical = average_waiting_time(db, alloc, bandwidth)?.total();
    let program = BroadcastProgram::new(db, alloc, bandwidth)?;
    let report = Simulation::new(&program, trace).run()?;
    Ok(ValidationReport {
        analytical,
        empirical: report.waiting().mean(),
        ci95: report.waiting().ci95_halfwidth().unwrap_or(f64::INFINITY),
        requests: report.completed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbcast_alloc::DrpCds;
    use dbcast_model::ChannelAllocator;
    use dbcast_workload::{TraceBuilder, WorkloadBuilder};

    #[test]
    fn analytical_matches_empirical_on_flat_allocation() {
        let db = WorkloadBuilder::new(25).seed(1).build().unwrap();
        let alloc = dbcast_model::Allocation::from_assignment(
            &db,
            2,
            (0..25).map(|i| i % 2).collect(),
        )
        .unwrap();
        let trace = TraceBuilder::new(&db).requests(50_000).seed(2).build().unwrap();
        let report = validate_against_model(&db, &alloc, &trace, 10.0).unwrap();
        assert!(
            report.relative_error() < 0.03,
            "relative error {} too large (analytical {}, empirical {})",
            report.relative_error(),
            report.analytical,
            report.empirical
        );
    }

    #[test]
    fn analytical_matches_empirical_on_drpcds() {
        let db = WorkloadBuilder::new(40).seed(3).build().unwrap();
        let alloc = DrpCds::new().allocate(&db, 4).unwrap();
        let trace = TraceBuilder::new(&db).requests(50_000).seed(4).build().unwrap();
        let report = validate_against_model(&db, &alloc, &trace, 10.0).unwrap();
        assert!(report.relative_error() < 0.03, "{report:?}");
        assert!(report.agrees_within(5.0), "{report:?}");
    }

    #[test]
    fn better_allocation_yields_lower_empirical_waiting() {
        let db = WorkloadBuilder::new(50).seed(5).build().unwrap();
        let flat = dbcast_model::Allocation::from_assignment(
            &db,
            5,
            (0..50).map(|i| i % 5).collect(),
        )
        .unwrap();
        let smart = DrpCds::new().allocate(&db, 5).unwrap();
        let trace = TraceBuilder::new(&db).requests(30_000).seed(6).build().unwrap();
        let w_flat = validate_against_model(&db, &flat, &trace, 10.0).unwrap();
        let w_smart = validate_against_model(&db, &smart, &trace, 10.0).unwrap();
        assert!(w_smart.empirical < w_flat.empirical);
    }

    #[test]
    fn bad_bandwidth_is_reported() {
        let db = WorkloadBuilder::new(5).build().unwrap();
        let alloc = dbcast_model::Allocation::from_assignment(&db, 1, vec![0; 5]).unwrap();
        let trace = TraceBuilder::new(&db).requests(10).build().unwrap();
        assert!(matches!(
            validate_against_model(&db, &alloc, &trace, 0.0),
            Err(ValidationError::Model(_))
        ));
    }
}
