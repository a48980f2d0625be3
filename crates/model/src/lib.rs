//! Topic-aware influence (TIC) model for PITEX.
//!
//! This crate implements everything §3.1 of the paper calls the model layer:
//!
//! * [`TagTopicMatrix`] — the sparse tag–topic probabilities `p(w|z)` plus
//!   the topic prior `p(z)`;
//! * [`EdgeTopics`] — per-edge sparse topic-wise influence probabilities
//!   `p(e|z)` and the per-edge maximum `p(e) = max_z p(e|z)` used by the
//!   RR-Graph index (Def. 2);
//! * [`SparseRows`] — the one validated, append-only row arena both tables
//!   store their rows in;
//! * [`EdgeColumns`] — the rows of a list of edges transposed by topic,
//!   what the bulk [`EdgeProbs::fill`] kernels read;
//! * [`TopicPosterior`] — `p(z|W)` for a tag set `W`, and through it the
//!   edge influence probability `p(e|W)` of Eq. 1;
//! * [`EdgeProbs`] — the lazy, memoised edge-probability view every spread
//!   estimator consumes (a PITEX query touches only a small fraction of the
//!   edges for most candidate tag sets, so probabilities are computed on
//!   first access and cached per tag set);
//! * [`bound`] — the Lemma 8 upper bound `p⁺(e|W)` for partial tag sets that
//!   powers best-effort exploration (§5.2);
//! * [`combi`] — tag-set enumeration and the combinatorial quantities
//!   (`ln C(n,k)`, `φ_K`) appearing in the sample-size formulas (Eq. 2, 7);
//! * [`learn`] — a propagation-log synthesizer and a small EM learner
//!   standing in for the TIC learning pipeline of Barbieri et al.\[2\];
//! * [`genmodel`] — random model generators used by the synthetic datasets.

pub mod bound;
pub mod columns;
pub mod combi;
pub mod edge_topics;
pub mod genmodel;
pub mod ids;
pub mod learn;
pub mod posterior;
pub mod rows;
pub mod serial;
pub mod tag_topic;
pub mod tic;

pub use bound::BoundOracle;
pub use columns::EdgeColumns;
pub use edge_topics::EdgeTopics;
pub use ids::{TagId, TagSet, TopicId};
pub use posterior::{
    EdgeProbCache, EdgeProbs, FixedEdgeProbs, MaxEdgeProbs, PosteriorEdgeProbs, TopicPosterior,
};
pub use rows::{RowError, SparseRows};
pub use tag_topic::TagTopicMatrix;
pub use tic::TicModel;
