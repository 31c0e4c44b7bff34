//! This crate's allocators (DRP, DRP+CDS, and the CDS refinement
//! contract) under the shared conformance harness.

use dbcast_baselines::AlgoSpec;
use dbcast_conformance::{subjects_where, Harness, HarnessConfig, Subject};

fn subjects() -> Vec<Subject> {
    subjects_where(0, |spec| matches!(spec, AlgoSpec::Drp | AlgoSpec::DrpCds))
}

#[test]
fn drp_and_drp_cds_conform() {
    // The harness also runs the CDS refinement invariants (never
    // worsens, step accounting, genuine local optimum) on every case.
    let report = Harness::with_subjects(
        HarnessConfig { seed: 0xA110C, cases: 120, sim_stride: 0, ..Default::default() },
        subjects(),
    )
    .run();
    assert!(report.is_clean(), "{}", report.render());
    assert!(report.oracle_cases > 0, "no case exercised the exact oracle");
}

#[test]
fn corpus_replays_clean_for_this_crate() {
    let corpus =
        dbcast_conformance::load_corpus(&dbcast_conformance::corpus::default_dir())
            .expect("corpus directory must parse");
    let harness = Harness::with_subjects(
        HarnessConfig { shrink: false, ..Default::default() },
        subjects(),
    );
    let (regressions, _) = harness.replay(&corpus);
    assert!(regressions.is_empty(), "{regressions:?}");
}
