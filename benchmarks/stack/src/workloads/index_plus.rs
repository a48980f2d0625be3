//! `index_plus` — the paper's headline path: INDEXEST+ over the RR-Graph
//! index (§6), ROADMAP item 2's target.
//!
//! One op is `PitexEngine::with_index_plus(..).query(u, 3)` in-process on
//! `D1`. `index` (`EstimateInfluence+`, cut pruning), `core` and `model`
//! work; `sampling` and `serve` idle. Set-up generates `D1` and builds its
//! index on one thread, so `setup_s` and `peak_rss_mb` are the paper's
//! Table 3 and work moved into the build shows.

use super::engine::{self, EstimatorLayer, TracedCounts};
use crate::fixtures::{self, Sizes, K};
use crate::harness::{PassRun, Phases, Workload};
use crate::trace::LedgerRow;
use pitex_core::EngineBackend;
use pitex_index::RrIndex;
use pitex_model::TicModel;
use rand::seq::SliceRandom;

pub struct IndexPlus;

pub struct State {
    pub model: TicModel,
    pub index: RrIndex,
    /// The dearest user of the op list (the estimator probes query it).
    pub dearest: u32,
    ops: Vec<(u32, usize)>,
    traced: TracedCounts,
}

/// The dearest quarter of the heavy tier is left out of the panel: it
/// holds the hubs whose one query takes 0.5–5 s.
const SKIP_SHARE: f64 = 0.25;

impl Workload for IndexPlus {
    const NAME: &'static str = "index_plus";
    type Input = ();
    type State = State;

    fn input(_sizes: &Sizes) {}

    fn setup(_input: &(), sizes: &Sizes, seed: u64, phases: &mut Phases) -> State {
        let model = phases.time("datasets.generate", || fixtures::d1_profile(sizes).generate());
        let index = phases.time("index.build", || fixtures::build_index(&model));
        let ranked = fixtures::users_by_cost(&model, &index);
        let (heavy, mid, light) = fixtures::tiers(&ranked);
        // 6 % heavy (the panel, so p95 lies inside it) / 30 % mid / 64 % light.
        let skip = (heavy.len() as f64 * SKIP_SHARE) as usize;
        let mut rng = fixtures::workload_rng(seed, 2);
        let mut users = fixtures::panel(&heavy[skip..], sizes.plus_heavy);
        let dearest = users[0];
        users.extend(fixtures::panel_and_picks(mid, sizes.plus_mid, &mut rng));
        users.extend(fixtures::panel_and_picks(light, sizes.plus_light, &mut rng));
        users.shuffle(&mut rng);
        let ops = users.into_iter().map(|u| (u, K)).collect();
        State { model, index, dearest, ops, traced: TracedCounts::default() }
    }

    fn run_pass(state: &mut State, run: &mut PassRun<'_>) {
        let State { model, index, ops, traced, .. } = state;
        engine::run_queries(model, EngineBackend::IndexEstPlus, Some(index), ops, run, traced);
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
            EstimatorLayer::Index,
            rows,
            &state.traced,
            state.model.num_tags(),
            ops,
            per_op_us,
        )
    }
}
