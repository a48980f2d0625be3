//! The RR-Graph index of PITEX (§6).
//!
//! Online sampling re-generates sample instances for every user and tag set.
//! The index moves that work offline: it samples θ **reverse reachable
//! sample graphs** (RR-Graphs, Def. 2) for uniformly random targets, storing
//! with every edge the random mark `c(e) ∈ [0, p(e))` that decided its
//! existence. At query time, tag-aware reachability (Def. 3) — "is there a
//! path from `u` to the target using only edges with `p(e|W) ≥ c(e)`?" —
//! replays the same randomness under any tag set, so one offline sample
//! serves every query:
//!
//! * [`rrgraph`] — the RR-Graph structure and its reverse-sampling
//!   generator;
//! * [`segment`] — the shared fixed-size pieces an index stores its graphs
//!   and its membership table in;
//! * [`build`] — parallel index construction ([`RrIndex`]) with the Eq. 7
//!   theoretical budget and practical per-vertex budgets, and the splice
//!   incremental repair rewrites an index through;
//! * [`estimate`] — `EstimateInfluence+` (Algo. 3): the plain index-based
//!   estimator (the paper's INDEXEST);
//! * [`prune`] — edge-cut filtering with inverted lists (§6.2, INDEXEST+),
//!   on the compiled per-user view all three index estimators traverse;
//! * [`delay`] — delay materialization (§6.3, Algo. 4, DELAYMAT): store one
//!   counter per user, recover the RR-Graphs at query time;
//! * [`serial`] — index persistence (Table 3 reports sizes).

pub mod build;
pub mod delay;
pub mod estimate;
pub mod prune;
pub mod rrgraph;
pub mod segment;
pub mod serial;

pub use build::{sample_rr_graph_at, IndexBudget, RrIndex};
pub use delay::{DelayMatEstimator, DelayMatIndex};
pub use estimate::IndexEstimator;
pub use prune::{CutPolicy, IndexPlusEstimator};
pub use rrgraph::{RrGraph, RrGraphRef};
