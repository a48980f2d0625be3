//! What the two in-process query workloads share: the pass loop around
//! `PitexEngine::query`, and the ledger rows read off its spans and counts.

use crate::fixtures::{config, K};
use crate::harness::{Answer, PassRun};
use crate::instrument::{traced_engine, EstimatorCounts};
use crate::trace::{self, LedgerRow};
use pitex_core::{EngineBackend, PitexEngine, QueryStats};
use pitex_index::RrIndex;
use pitex_model::{combi, TicModel};
use std::cell::RefCell;
use std::rc::Rc;

/// `QueryStats` summed over ops (the engine's own counters; exact at a
/// fixed seed).
#[derive(Clone, Copy, Debug, Default)]
pub struct QueryTotals {
    pub evaluated: u64,
    pub infeasible: u64,
    pub bounds: u64,
    pub pruned: u64,
    pub samples: u64,
    pub edges: u64,
}

impl QueryTotals {
    pub fn add(&mut self, stats: &QueryStats) {
        self.evaluated += stats.tag_sets_evaluated;
        self.infeasible += stats.tag_sets_infeasible;
        self.bounds += stats.bounds_computed;
        self.pruned += stats.partials_pruned;
        self.samples += stats.samples_used;
        self.edges += stats.edges_visited;
    }
}

/// What a traced pass leaves behind for the ledger.
#[derive(Default)]
pub struct TracedCounts {
    pub estimator: Rc<RefCell<EstimatorCounts>>,
    pub queries: QueryTotals,
}

/// One pass of `(user, k)` queries on a fresh engine. A traced pass uses
/// the instrumented estimator and refills `traced`.
pub fn run_queries(
    model: &TicModel,
    backend: EngineBackend,
    index: Option<&RrIndex>,
    ops: &[(u32, usize)],
    run: &mut PassRun<'_>,
    traced: &mut TracedCounts,
) {
    let mut engine = if run.traced() {
        *traced = TracedCounts::default();
        traced_engine(model, backend, index, config(), Rc::clone(&traced.estimator))
    } else {
        PitexEngine::with_backend(model, backend, index, None, config())
            .expect("the workload provides the artifacts its backend needs")
    };
    let keep_stats = run.traced();
    for &(user, k) in ops {
        run.op(|| {
            let result = {
                let _query = trace::enter("core.query");
                engine.query(user, k)
            };
            if keep_stats {
                traced.queries.add(&result.stats);
            }
            Ok(Answer::new(result.tags.tags(), result.spread))
        });
    }
}

/// Which crate's estimator did the estimating.
#[derive(Clone, Copy)]
pub enum EstimatorLayer {
    Sampling,
    Index,
}

/// The exploration and estimator rows of an engine workload's ledger.
/// `op time ≈ core.explore_self + estimates_per_op × µs per estimate`.
pub fn ledger_rows(
    layer: EstimatorLayer,
    rows: &[LedgerRow],
    traced: &TracedCounts,
    num_tags: usize,
    ops: usize,
    per_op_us: f64,
) -> Vec<(&'static str, f64)> {
    let estimator: &EstimatorCounts = &traced.estimator.borrow();
    let queries = &traced.queries;
    let n = ops as f64;
    let op_s = trace::total_seconds(rows, "op");
    let self_share = trace::self_seconds(rows, "core.query") / op_s;
    let busy_share = trace::total_seconds(rows, "estimate") / op_s;
    let candidates = combi::choose(num_tags as u64, K as u64) * n;
    let mut out = vec![
        ("model.edge_prob_lookups_per_op", estimator.lookups_scaled() / n),
        (
            "model.edge_prob_distinct_share",
            estimator.distinct as f64 / (estimator.lookups as f64).max(1.0),
        ),
        ("core.explore_self_us_per_op", self_share * per_op_us),
        ("core.self_share", self_share),
        ("core.tag_sets_evaluated_per_op", queries.evaluated as f64 / n),
        ("core.tag_sets_infeasible_per_op", queries.infeasible as f64 / n),
        ("core.bounds_per_op", queries.bounds as f64 / n),
        ("core.partials_pruned_per_op", queries.pruned as f64 / n),
        ("core.prune_share", 1.0 - (queries.evaluated + queries.infeasible) as f64 / candidates),
    ];
    out.extend(match layer {
        EstimatorLayer::Sampling => vec![
            ("sampling.samples_per_op", queries.samples as f64 / n),
            ("sampling.edges_per_op", queries.edges as f64 / n),
            ("sampling.estimates_per_op", estimator.estimates as f64 / n),
            ("sampling.busy_share", busy_share),
        ],
        EstimatorLayer::Index => vec![
            ("index.edges_per_op", queries.edges as f64 / n),
            ("index.estimates_per_op", estimator.estimates as f64 / n),
            ("index.busy_share", busy_share),
        ],
    });
    out
}
