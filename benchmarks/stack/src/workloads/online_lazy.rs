//! `online_lazy` — §5's online sampler on a *learned* model, no index.
//!
//! One op is `PitexEngine::with_lazy(..).query(u, 3)` in-process. The only
//! workload a sampler or posterior optimisation can move without the index
//! diluting it: `sampling` (LAZY), `model` (posterior, `EdgeProbs` memo)
//! and `core` exploration do all the work; `index`, `serve`, `cluster` idle.

use super::engine::{self, EstimatorLayer, TracedCounts};
use crate::fixtures::{self, Sizes, INDEX_SEED, K};
use crate::harness::{PassRun, Phases, Workload};
use crate::trace::LedgerRow;
use pitex_core::EngineBackend;
use pitex_index::{IndexBudget, RrIndex};
use pitex_model::learn::ActionLog;
use pitex_model::TicModel;
use rand::seq::SliceRandom;

pub struct OnlineLazy;

pub struct State {
    pub model: TicModel,
    /// The dearest user of the op list (the estimator probes query it).
    pub dearest: u32,
    ops: Vec<(u32, usize)>,
    traced: TracedCounts,
}

/// Where the op list lies among the users ordered by cost (1.3k users, of
/// whom the dearest ~300 make the sampler work at all): the dearest 2 %
/// are left out (0.1–1 s per LAZY query on the learned model, half a
/// pass), the heavy panel spans the next 11 % (7–30 ms), the other ops come
/// from the 27 % after that (0.5–7 ms), and the rest — users whose every tag set is
/// infeasible or whose spread is 1, a 5 µs query — is left out too.
const SKIP_SHARE: f64 = 0.02;
const PANEL_SHARE: f64 = 0.11;
const SEEDED_SHARE: f64 = 0.27;
/// RR-Graphs per vertex of the index that only ranks the users.
const RANKING_BUDGET: IndexBudget = IndexBudget::PerVertex(64.0);

impl Workload for OnlineLazy {
    const NAME: &'static str = "online_lazy";
    type Input = (TicModel, ActionLog);
    type State = State;

    fn input(sizes: &Sizes) -> Self::Input {
        fixtures::d0_log(sizes)
    }

    fn setup(input: &Self::Input, sizes: &Sizes, seed: u64, phases: &mut Phases) -> State {
        let (truth, log) = input;
        let model = phases.time("model.learn", || fixtures::learn_d0(truth, log));
        // The query path is index-free; this RR-Graph index (60 ms) only
        // ranks users by cost, so the op list is the same mix at every seed.
        let ranked = phases.time("choose_users", || {
            let ranking = RrIndex::build_with_threads(&model, RANKING_BUDGET, INDEX_SEED, 1);
            fixtures::users_by_cost(&model, &ranking)
        });
        let share = |s: f64| (ranked.len() as f64 * s) as usize;
        let (skip, panel_end) = (share(SKIP_SHARE), share(SKIP_SHARE + PANEL_SHARE));
        let seeded_end = share(SKIP_SHARE + PANEL_SHARE + SEEDED_SHARE);
        // 16 % heavy panel (so p95 lies inside it) / 84 % from the region
        // below it.
        let mut rng = fixtures::workload_rng(seed, 1);
        let mut users = fixtures::panel(&ranked[skip..panel_end], sizes.lazy_heavy);
        let dearest = users[0];
        users.extend(fixtures::panel_and_picks(
            &ranked[panel_end..seeded_end],
            sizes.lazy_rest,
            &mut rng,
        ));
        users.shuffle(&mut rng);
        let ops = users.into_iter().map(|u| (u, K)).collect();
        State { model, dearest, ops, traced: TracedCounts::default() }
    }

    fn run_pass(state: &mut State, run: &mut PassRun<'_>) {
        let State { model, ops, traced, .. } = state;
        engine::run_queries(model, EngineBackend::Lazy, None, ops, run, traced);
    }

    fn check(_state: &mut State) -> Result<(), String> {
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
            EstimatorLayer::Sampling,
            rows,
            &state.traced,
            state.model.num_tags(),
            ops,
            per_op_us,
        )
    }
}
