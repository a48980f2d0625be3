//! # PITEX — Personalized Social Influential Tags Exploration
//!
//! A complete Rust implementation of the SIGMOD 2017 paper *"Discovering
//! Your Selling Points: Personalized Social Influential Tags Exploration"*
//! (Li, Fan, Zhang, Tan). Given a topic-aware influence model over a social
//! network, a PITEX query `(u, k)` returns the `k` tags that maximize user
//! `u`'s expected influence spread.
//!
//! ```
//! use pitex::prelude::*;
//!
//! // The paper's running example (Fig. 2): 7 users, 4 tags, 3 topics.
//! let model = TicModel::paper_example();
//! let mut engine = PitexEngine::with_lazy(&model, PitexConfig::default());
//! let result = engine.query(0, 2);
//! assert_eq!(result.tags.tags(), &[2, 3]); // W* = {w3, w4}, as in the paper
//! ```
//!
//! The workspace is organized bottom-up (see `DESIGN.md`):
//!
//! | crate | contents |
//! |---|---|
//! | [`graph`] | CSR digraph substrate, generators, traversal, I/O |
//! | [`model`] | TIC model: `p(w|z)`, `p(e|z)`, posteriors, Lemma-8 bounds, log learning |
//! | [`sampling`] | MC / RR / lazy-propagation samplers, exact evaluator, stopping rules |
//! | [`index`] | RR-Graph index, edge-cut pruning, delay materialization |
//! | [`core`] | the query engine: enumeration, best-effort exploration, TIM baseline |
//! | [`live`] | online updates: update log + overlay, incremental index repair, epoch snapshots |
//! | [`serve`] | the concurrent query server: TCP line protocol, worker pool, result cache |
//! | [`cluster`] | sharded serving: user-hash shard map, scatter-gather router, epoch-coordinated cluster reloads |
//! | [`datasets`] | synthetic evaluation datasets, workloads, case study |
//! | [`mod@bench`] | the §7 experiment runner behind `pitex repro` |

pub use pitex_bench as bench;
pub use pitex_cluster as cluster;
pub use pitex_core as core;
pub use pitex_datasets as datasets;
pub use pitex_graph as graph;
pub use pitex_index as index;
pub use pitex_live as live;
pub use pitex_model as model;
pub use pitex_sampling as sampling;
pub use pitex_serve as serve;
pub use pitex_support as support;

/// The types most applications need.
pub mod prelude {
    pub use pitex_cluster::{Router, RouterOptions, ShardMap};
    pub use pitex_core::{
        BackendKind, EngineBackend, EngineHandle, ExplorationStrategy, PitexConfig, PitexEngine,
        PitexResult, PlanDecision, Planner, QueryStats, RejectReason, TimEstimator,
    };
    pub use pitex_datasets::{CaseStudy, CaseStudyConfig, DatasetProfile, UserGroup, UserGroups};
    pub use pitex_graph::{DiGraph, EdgeId, GraphBuilder, NodeId};
    pub use pitex_index::{DelayMatIndex, IndexBudget, RrIndex};
    pub use pitex_live::{ModelOverlay, RepairOptions, SnapshotStore, UpdateOp};
    pub use pitex_model::{
        EdgeProbs, EdgeTopics, TagId, TagSet, TagTopicMatrix, TicModel, TopicId,
    };
    pub use pitex_sampling::{
        Estimate, ExactEstimator, LazySampler, McSampler, RrSampler, SampleBudget, SamplingParams,
        SpreadEstimator,
    };
}
