//! dbcast-conformance — differential verification and deterministic
//! fuzzing for every channel allocator in the workspace.
//!
//! The crate answers one question continuously: *do all allocators
//! still honor their contracts?* It does so with a layered oracle
//! hierarchy:
//!
//! * **Exact** — on small instances ([`HarnessConfig::oracle_max_items`]
//!   items or fewer) every allocator's cost is checked against
//!   [`dbcast_baselines::ExactBnB`]'s global optimum.
//! * **Metamorphic** — properties that hold at any size: item
//!   relabeling cannot change the cost, scaling all sizes by a power of
//!   two scales the cost by exactly that factor, scaling raw
//!   frequencies is erased by normalization, adding a channel never
//!   hurts, CDS never worsens its input and genuinely converges, and
//!   the Eq. 2 analytical waiting time matches the trace
//!   simulator.
//! * **Differential/structural** — outputs are valid `K`-way
//!   partitions, incremental cost bookkeeping matches the from-scratch
//!   Eq. 3 reference, reruns are bit-identical, and `K > N` is either
//!   honored or rejected with the typed error each algorithm promises.
//!
//! Cases come from a *stateless* seeded generator — any case is
//! regenerable from `(seed, case)` alone — mixing the paper's §4.1
//! Zipf × log-uniform workload model with degenerate shapes (`N < K`,
//! uniform frequencies, dominant items, floor-sized items, duplicate
//! items, single-item databases). Failures are shrunk to minimal
//! reproducers and filed as JSON entries in `crates/conformance/corpus/`,
//! which CI replays forever after.
//!
//! # Example
//!
//! ```
//! use dbcast_conformance::{Harness, HarnessConfig};
//!
//! let report = Harness::new(HarnessConfig {
//!     seed: 42,
//!     cases: 25,
//!     sim_stride: 0, // skip the expensive simulator check in docs
//!     ..Default::default()
//! })
//! .run();
//! assert!(report.is_clean(), "{}", report.render());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod generator;
pub mod harness;
pub mod instance;
pub mod invariants;
pub mod registry;
pub mod shrink;

pub use corpus::{
    load_dir as load_corpus, save as save_corpus_entry, CorpusEntry, NamedEntry,
};
pub use generator::{GeneratorConfig, InstanceGenerator, SHAPES};
pub use harness::{ConformanceReport, Harness, HarnessConfig};
pub use instance::{Instance, ItemFeatures};
pub use invariants::{check_instance, CheckConfig, Violation};
pub use registry::{standard_subjects, subjects_where, Subject};
pub use shrink::{shrink, ShrinkConfig};
