//! The PITEX query engine — the paper's primary contribution assembled.
//!
//! A PITEX query `(u, k)` finds the size-`k` tag set maximizing `u`'s
//! expected influence spread (Def. 1). The engine combines:
//!
//! * the **enumeration framework** of §4 (evaluate every feasible size-`k`
//!   tag set with a `(1−ε)/(1+ε)`-accurate estimator — Theorem 2);
//! * **best-effort exploration** of §5.2 / Appx. C (Algo. 5): a max-heap
//!   search over partial tag sets, pruning every completion of a partial
//!   set whose Lemma-8 upper-bound spread cannot beat the incumbent;
//! * pluggable spread-estimation **backends**: the online samplers
//!   (MC / RR / LAZY), the index-based estimators (INDEXEST / INDEXEST+ /
//!   DELAYMAT), the exact evaluator, and the **TIM** tree-based baseline
//!   ([`tim`]) the evaluation compares against.
//!
//! ```
//! use pitex_core::{PitexConfig, PitexEngine};
//! use pitex_model::TicModel;
//!
//! let model = TicModel::paper_example();
//! let mut engine = PitexEngine::with_lazy(&model, PitexConfig::default());
//! let result = engine.query(0, 2); // user u1, two tags
//! assert_eq!(result.tags.tags(), &[2, 3]); // the paper's W* = {w3, w4}
//! ```

pub mod backends;
pub mod batch;
pub mod engine;
mod frontier;
pub mod hardness;
pub mod plan;
pub mod query;
pub mod registry;
pub mod tim;

pub use backends::{BackendKind, EngineBackend};
pub use batch::{query_batch, query_batch_shared};
pub use engine::{EngineHandle, ExplorationStrategy, MissingIndexError, PitexConfig, PitexEngine};
pub use plan::{PlanDecision, PlanInput, Planner, RejectReason, RejectedPlan};
pub use query::{PitexResult, QueryStats};
pub use tim::TimEstimator;

/// A total order for finite `f64` keys in heaps.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct OrdF64(pub f64);

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}
