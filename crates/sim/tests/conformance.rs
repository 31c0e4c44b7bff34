//! Analytical-vs-simulated agreement (Eq. 1/Eq. 2) driven through the
//! shared conformance generator: every strided case builds a broadcast
//! program and checks the trace simulator against the model.

use dbcast_conformance::{Harness, HarnessConfig};

#[test]
fn simulator_agrees_with_the_model_on_generated_workloads() {
    // Empty subject registry: this run exercises only the cross-cutting
    // checks — CDS refinement from random starts and, on every second
    // case, the simulator agreement invariant.
    let report = Harness::with_subjects(
        HarnessConfig {
            seed: 0x51AB,
            cases: 30,
            max_items: 25,
            sim_stride: 2,
            ..Default::default()
        },
        Vec::new(),
    )
    .run();
    assert!(report.is_clean(), "{}", report.render());
    assert!(report.sim_cases >= 15, "stride 2 over 30 cases must sim-check 15");
}
