//! **DRP-CDS** — the paper's two-step allocation scheme: DRP provides
//! the rough allocation, CDS refines it to a local optimum.

use dbcast_model::{AllocError, Allocation, ChannelAllocator, Database};

use crate::cds::{Cds, CdsOutcome};
use crate::drp::{Drp, DrpOutcome};

/// The combined outcome of a traced DRP-CDS run.
#[derive(Debug, Clone, PartialEq)]
pub struct DrpCdsOutcome {
    /// The DRP phase (rough allocation + Table 3-style trace).
    pub drp: DrpOutcome,
    /// The CDS phase (refined allocation + Table 4-style trace).
    pub cds: CdsOutcome,
}

impl DrpCdsOutcome {
    /// The final, refined allocation.
    pub fn allocation(&self) -> &Allocation {
        &self.cds.allocation
    }
}

/// The two-step DRP-CDS allocator (paper §3).
///
/// # Example
///
/// ```
/// use dbcast_alloc::DrpCds;
/// use dbcast_model::ChannelAllocator;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let db = dbcast_workload::paper::table2_profile();
/// let outcome = DrpCds::default().allocate_traced(&db, 5)?;
/// // CDS never worsens DRP's result.
/// assert!(outcome.cds.final_cost() <= outcome.drp.allocation.total_cost() + 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DrpCds {
    drp: Drp,
    cds: Cds,
}

impl DrpCds {
    /// Creates the allocator with default CDS settings.
    pub fn new() -> Self {
        DrpCds::default()
    }

    /// Replaces the CDS configuration (threshold / iteration cap).
    pub fn with_cds(mut self, cds: Cds) -> Self {
        self.cds = cds;
        self
    }

    /// Runs both phases and returns the full trace.
    ///
    /// # Errors
    ///
    /// Propagates DRP errors ([`AllocError::Infeasible`] for `K > N`,
    /// [`AllocError::Model`] for `K == 0`); the CDS phase cannot fail on
    /// a DRP result.
    pub fn allocate_traced(
        &self,
        db: &Database,
        channels: usize,
    ) -> Result<DrpCdsOutcome, AllocError> {
        let drp = {
            let _phase = dbcast_obs::span!("alloc.pipeline.drp");
            self.drp.allocate_traced(db, channels)?
        };
        let cds = {
            let _phase = dbcast_obs::span!("alloc.pipeline.cds");
            self.cds.refine(db, drp.allocation.clone())?
        };
        dbcast_obs::counter!("alloc.pipeline.runs").inc();
        Ok(DrpCdsOutcome { drp, cds })
    }
}

impl ChannelAllocator for DrpCds {
    fn name(&self) -> &str {
        "DRP-CDS"
    }

    fn allocate(&self, db: &Database, channels: usize) -> Result<Allocation, AllocError> {
        Ok(self.allocate_traced(db, channels)?.cds.allocation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbcast_workload::WorkloadBuilder;

    #[test]
    fn never_worse_than_drp_alone() {
        for seed in 0..10 {
            let db = WorkloadBuilder::new(80).seed(seed).build().unwrap();
            let drp_cost = Drp::new().allocate(&db, 6).unwrap().total_cost();
            let combined = DrpCds::new().allocate(&db, 6).unwrap().total_cost();
            assert!(combined <= drp_cost + 1e-9, "seed {seed}");
        }
    }

    #[test]
    fn propagates_infeasible() {
        let db = WorkloadBuilder::new(3).build().unwrap();
        assert!(matches!(
            DrpCds::new().allocate(&db, 4),
            Err(AllocError::Infeasible { .. })
        ));
    }

    #[test]
    fn trace_contains_both_phases() {
        let db = dbcast_workload::paper::table2_profile();
        let out = DrpCds::new().allocate_traced(&db, 5).unwrap();
        assert_eq!(out.drp.iterations().len(), 5);
        assert!(out.cds.converged);
        assert_eq!(out.allocation(), &out.cds.allocation);
    }

    #[test]
    fn custom_cds_configuration_is_used() {
        let db = WorkloadBuilder::new(60).seed(2).build().unwrap();
        let frozen = DrpCds::new().with_cds(Cds::new().max_iterations(0));
        let out = frozen.allocate_traced(&db, 5).unwrap();
        assert!(out.cds.steps.is_empty());
        assert_eq!(out.drp.allocation, out.cds.allocation);
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(DrpCds::new().name(), "DRP-CDS");
        assert_eq!(Drp::new().name(), "DRP");
    }
}
