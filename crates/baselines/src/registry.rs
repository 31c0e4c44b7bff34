//! The allocator registry: the one place that names, builds and lists
//! the workspace's allocators. The CLI's `--algo`, the paper's
//! line-ups and the conformance subjects all read it, and the
//! conformance crate declares each spec's contract in an exhaustive
//! `match`, so registering an allocator is one variant here plus the
//! contract that `match` then demands. [`ExactBnB`](crate::ExactBnB)
//! stays outside: it is the oracle, not a subject.

use dbcast_alloc::{Drp, DrpCds};
use dbcast_model::ChannelAllocator;

use crate::{ContiguousDp, Flat, Gopt, GoptConfig, Greedy, Vfk};

/// One registered allocation algorithm.
///
/// Specs are plain values rather than trait objects, so a line-up can
/// be copied to worker threads and each cell builds its own allocator.
#[derive(Debug, Clone, PartialEq)]
pub enum AlgoSpec {
    /// Round-robin flat program.
    Flat,
    /// Conventional-environment baseline VF^K.
    Vfk,
    /// Benefit-ratio greedy insertion.
    Greedy,
    /// DRP without refinement.
    Drp,
    /// The paper's DRP-CDS scheme.
    DrpCds,
    /// Optimal benefit-ratio-contiguous partition (DP).
    ContiguousDp,
    /// Genetic global-optimum proxy.
    Gopt(GoptConfig),
}

impl AlgoSpec {
    /// Every registered allocator, in registry order: FLAT, VF^K,
    /// GREEDY, DRP, DRP-CDS, DP, GOPT (with its default budget).
    pub fn registry() -> Vec<AlgoSpec> {
        vec![
            AlgoSpec::Flat,
            AlgoSpec::Vfk,
            AlgoSpec::Greedy,
            AlgoSpec::Drp,
            AlgoSpec::DrpCds,
            AlgoSpec::ContiguousDp,
            AlgoSpec::Gopt(GoptConfig::default()),
        ]
    }

    /// The paper's Figure 2–5 line-up: FLAT, VF^K, DRP, DRP-CDS, GOPT.
    pub fn paper_lineup() -> Vec<AlgoSpec> {
        let extensions =
            |s: &AlgoSpec| matches!(s, AlgoSpec::Greedy | AlgoSpec::ContiguousDp);
        AlgoSpec::registry().into_iter().filter(|s| !extensions(s)).collect()
    }

    /// The complexity line-up of Figures 6–7: DRP-CDS vs GOPT.
    pub fn timing_lineup() -> Vec<AlgoSpec> {
        vec![AlgoSpec::DrpCds, AlgoSpec::Gopt(GoptConfig::default())]
    }

    /// The `--algo` name.
    pub fn cli_name(&self) -> &'static str {
        match self {
            AlgoSpec::Flat => "flat",
            AlgoSpec::Vfk => "vfk",
            AlgoSpec::Greedy => "greedy",
            AlgoSpec::Drp => "drp",
            AlgoSpec::DrpCds => "drp-cds",
            AlgoSpec::ContiguousDp => "dp",
            AlgoSpec::Gopt(_) => "gopt",
        }
    }

    /// The registered spec whose [`cli_name`](AlgoSpec::cli_name) is
    /// `name`, if any.
    pub fn from_cli_name(name: &str) -> Option<AlgoSpec> {
        AlgoSpec::registry().into_iter().find(|spec| spec.cli_name() == name)
    }

    /// The report name: the built allocator's own
    /// [`ChannelAllocator::name`].
    pub fn name(&self) -> String {
        self.build(0).name().to_owned()
    }

    /// Builds the allocator. `seed` re-seeds the randomized ones (GOPT),
    /// so every workload cell can explore an independent GA trajectory,
    /// as the paper's per-point averaging implies.
    pub fn build(&self, seed: u64) -> Box<dyn ChannelAllocator> {
        match self {
            AlgoSpec::Flat => Box::new(Flat::new()),
            AlgoSpec::Vfk => Box::new(Vfk::new()),
            AlgoSpec::Greedy => Box::new(Greedy::new()),
            AlgoSpec::Drp => Box::new(Drp::new()),
            AlgoSpec::DrpCds => Box::new(DrpCds::new()),
            AlgoSpec::ContiguousDp => Box::new(ContiguousDp::new()),
            AlgoSpec::Gopt(cfg) => Box::new(Gopt::new(GoptConfig { seed, ..*cfg })),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbcast_workload::WorkloadBuilder;

    #[test]
    fn lineups_have_expected_names() {
        let names =
            |specs: &[AlgoSpec]| specs.iter().map(AlgoSpec::name).collect::<Vec<_>>();
        assert_eq!(
            names(&AlgoSpec::registry()),
            ["FLAT", "VF^K", "GREEDY", "DRP", "DRP-CDS", "DP(br-contiguous)", "GOPT"]
        );
        assert_eq!(
            names(&AlgoSpec::paper_lineup()),
            ["FLAT", "VF^K", "DRP", "DRP-CDS", "GOPT"]
        );
        assert_eq!(names(&AlgoSpec::timing_lineup()), ["DRP-CDS", "GOPT"]);
    }

    #[test]
    fn every_spec_allocates() {
        let db = WorkloadBuilder::new(12).seed(1).build().unwrap();
        let quick =
            GoptConfig { population: 20, max_generations: 30, ..GoptConfig::default() };
        for spec in AlgoSpec::registry() {
            let spec = match spec {
                AlgoSpec::Gopt(_) => AlgoSpec::Gopt(quick),
                other => other,
            };
            let alloc = spec.build(7).allocate(&db, 3).unwrap();
            assert_eq!(alloc.channels(), 3);
            alloc.validate(&db).unwrap();
        }
    }

    #[test]
    fn gopt_seed_is_threaded_through() {
        let db = WorkloadBuilder::new(15).seed(2).build().unwrap();
        let cfg = GoptConfig {
            population: 20,
            max_generations: 20,
            polish: false,
            ..GoptConfig::default()
        };
        let spec = AlgoSpec::Gopt(cfg);
        let a = spec.build(1).allocate(&db, 3).unwrap();
        let b = spec.build(1).allocate(&db, 3).unwrap();
        assert_eq!(a, b); // same seed, same result
    }
}
