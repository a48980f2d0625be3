//! `live_repair` — the index layer used the other way round: one edge
//! retune folded into a fresh snapshot, the RR-Graph index repaired
//! incrementally, and the first INDEXEST+ query on the repaired index.
//!
//! One op, always from the same base snapshot of `D2`:
//! `ModelOverlay::apply(SetEdgeTopics)` → `compact()` →
//! `repair_rr_index(.., threads 1, dirty_threshold 0.25)` →
//! `query(src, 3)`. `live` (overlay, repair) and the *write* side of
//! `index` (clone/splice, `sample_rr_graph_at`) work; `serve` and
//! `cluster` idle. An arena re-layout that speeds `index_plus` but slows
//! splice-repair must show here. Single-threaded and in-process.

use super::engine::{self, EstimatorLayer, TracedCounts};
use crate::fixtures::{self, config, Sizes, K};
use crate::harness::{Answer, PassRun, Phases, Workload};
use crate::instrument::traced_engine;
use crate::trace::{self, LedgerRow};
use pitex_core::{EngineBackend, PitexEngine};
use pitex_index::serial::rr_index_to_bytes;
use pitex_index::RrIndex;
use pitex_live::{repair_rr_index, ModelOverlay, RepairOptions, RepairReport, UpdateOp};
use pitex_model::TicModel;
use rand::seq::SliceRandom;
use rand::Rng;
use std::rc::Rc;
use std::sync::Arc;

pub struct LiveRepair;

pub const REPAIR: RepairOptions = RepairOptions { threads: 1, dirty_threshold: 0.25 };

pub struct State {
    pub base: Arc<TicModel>,
    pub index: RrIndex,
    ops: Vec<UpdateOp>,
    traced: TracedCounts,
    /// Repair reports of the last pass, one per op.
    pub reports: Vec<RepairReport>,
}

/// Retunes edge `(src, dst)`: its strongest topic moves to 0.9 (or to 0.1
/// if it already was above 0.5), so `p(e) = max_z p(e|z)` changes and
/// every RR-Graph containing `dst` is dirty.
pub fn retune(model: &TicModel, src: u32, dst: u32) -> UpdateOp {
    let edge = model.graph().find_edge(src, dst).expect("the edge was drawn from the graph");
    let (topic, old) =
        model.edge_topics().row(edge).max_by(|a, b| a.1.total_cmp(&b.1)).unwrap_or((0, 0.0));
    let new = if old < 0.5 { 0.9 } else { 0.1 };
    UpdateOp::SetEdgeTopics { src, dst, topics: vec![(topic, new)] }
}

/// Applies `op` to the base snapshot and repairs the index: the first
/// three steps of an op, each under its own span.
pub fn apply_and_repair(
    base: &Arc<TicModel>,
    index: &RrIndex,
    op: &UpdateOp,
) -> Result<(TicModel, RrIndex, RepairReport), String> {
    let mut overlay = ModelOverlay::new(Arc::clone(base));
    {
        let _span = trace::enter("overlay.apply");
        overlay.apply(op.clone()).map_err(|e| format!("{op:?}: {e}"))?;
    }
    let new_model = {
        let _span = trace::enter("compact");
        overlay.compact()
    };
    let (repaired, report) = {
        let _span = trace::enter("repair");
        repair_rr_index(index, base, &new_model, &REPAIR)
    };
    Ok((new_model, repaired, report))
}

/// The first op of the list: what the check and the probes replay.
pub fn probe_op(state: &State) -> UpdateOp {
    state.ops[0].clone()
}

fn src_of(op: &UpdateOp) -> u32 {
    match op {
        UpdateOp::SetEdgeTopics { src, .. } => *src,
        other => unreachable!("live_repair only retunes edges, got {other:?}"),
    }
}

impl Workload for LiveRepair {
    const NAME: &'static str = "live_repair";
    type Input = ();
    type State = State;

    fn input(_sizes: &Sizes) {}

    fn setup(_input: &(), sizes: &Sizes, seed: u64, phases: &mut Phases) -> State {
        let model = phases.time("datasets.generate", || fixtures::d2_profile(sizes).generate());
        let index = phases.time("index.build", || fixtures::build_index(&model));
        // Update edges leave a fixed panel of light-tier users — the op's
        // own query then costs a millisecond, not the seconds a hub's
        // would — and the seed picks which of a user's out-edges is retuned.
        let ranked = fixtures::users_by_cost(&model, &index);
        let (_, _, light) = fixtures::tiers(&ranked);
        let mut rng = fixtures::workload_rng(seed, 3);
        let sources = fixtures::panel(light, sizes.live_ops);
        let mut ops: Vec<UpdateOp> = sources
            .into_iter()
            .map(|src| {
                let targets = model.graph().out_neighbors(src);
                retune(&model, src, targets[rng.gen_range(0..targets.len())])
            })
            .collect();
        ops.shuffle(&mut rng);
        State {
            base: Arc::new(model),
            index,
            ops,
            traced: TracedCounts::default(),
            reports: Vec::new(),
        }
    }

    fn run_pass(state: &mut State, run: &mut PassRun<'_>) {
        let State { base, index, ops, traced, reports } = state;
        let is_traced = run.traced();
        if is_traced {
            *traced = TracedCounts::default();
        }
        reports.clear();
        for op in ops.iter() {
            // The repaired snapshot outlives the op's closure, so freeing
            // it (25 ms for 160k graphs) is not part of the op.
            let mut snapshot = None;
            run.op(|| {
                let (new_model, repaired, report) = apply_and_repair(base, index, op)?;
                let result = {
                    let _span = trace::enter("first_query");
                    let mut engine = if is_traced {
                        traced_engine(
                            &new_model,
                            EngineBackend::IndexEstPlus,
                            Some(&repaired),
                            config(),
                            Rc::clone(&traced.estimator),
                        )
                    } else {
                        PitexEngine::with_index_plus(&new_model, &repaired, config())
                    };
                    let _query = trace::enter("core.query");
                    engine.query(src_of(op), K)
                };
                if is_traced {
                    traced.queries.add(&result.stats);
                }
                let answer = Answer::new(result.tags.tags(), result.spread);
                reports.push(report);
                snapshot = Some((new_model, repaired));
                Ok(answer)
            });
            drop(snapshot);
        }
    }

    /// On the first op, the repaired index must be byte-identical to an
    /// index built from scratch on the mutated model.
    fn check(state: &mut State) -> Result<(), String> {
        let op = &probe_op(state);
        let (new_model, repaired, report) = apply_and_repair(&state.base, &state.index, op)?;
        let rebuilt = fixtures::build_index(&new_model);
        if rr_index_to_bytes(&repaired) != rr_index_to_bytes(&rebuilt) {
            return Err(format!("repair != rebuild for {op:?} ({report:?})"));
        }
        Ok(())
    }

    fn ledger(
        state: &State,
        rows: &[LedgerRow],
        _probes: &[LedgerRow],
        ops: usize,
        per_op_us: f64,
    ) -> Vec<(&'static str, f64)> {
        engine::ledger_rows(
            EstimatorLayer::Index,
            rows,
            &state.traced,
            state.base.num_tags(),
            ops,
            per_op_us,
        )
    }
}
