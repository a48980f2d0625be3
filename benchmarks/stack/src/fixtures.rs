//! What the workloads are made of: the frozen sizes, the three datasets,
//! the engine configuration, and the seeded choice of query users.
//!
//! `--seed` reaches the program only through [`workload_rng`] — [`pick_users`],
//! the shuffle of each op list and the update-edge draw of `live_repair`: datasets, models, indexes and
//! engine seeds are pinned, so a seed changes *which* users are asked, not
//! what the system is.

use pitex_core::{ExplorationStrategy, PitexConfig};
use pitex_datasets::DatasetProfile;
use pitex_index::{IndexBudget, RrIndex};
use pitex_model::learn::{learn, synthesize_log, ActionLog, LearnConfig};
use pitex_model::TicModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Tags per query unless a workload states otherwise.
pub const K: usize = 3;
/// Seed of every index build (the index is a pure function of
/// `(model, budget, seed)`; repair reads both back off the artifact).
pub const INDEX_SEED: u64 = 42;
pub const INDEX_BUDGET: IndexBudget = IndexBudget::PerVertex(8.0);

/// The paper's defaults (ε = 0.7, δ = 1000, best-effort exploration) at a
/// pinned engine seed.
pub fn config() -> PitexConfig {
    PitexConfig { epsilon: 0.7, delta: 1000.0, seed: 42, strategy: ExplorationStrategy::BestEffort }
}

/// Every size the benchmark freezes. They change only in a `benchmark` PR:
/// a different `N` is a different metric.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// `D0` = `lastfm_like().scaled(d0_scale)`.
    pub d0_scale: f64,
    /// Cascades in the synthesized action log `model::learn` is timed on.
    pub cascades: usize,
    /// `D1` = `twitter_like().scaled(d1_scale).with_tags(50)`.
    pub d1_scale: f64,
    /// `D2`, the same profile smaller, for `live_repair`.
    pub d2_scale: f64,
    /// `online_lazy`: users of the heavy panel, and `(panel, seeded)` users
    /// of the region below it.
    pub lazy_heavy: usize,
    pub lazy_rest: (usize, usize),
    /// `index_plus`: users of the heavy-tier panel, and `(panel, seeded)`
    /// users of the mid and the light tier.
    pub plus_heavy: usize,
    pub plus_mid: (usize, usize),
    pub plus_light: (usize, usize),
    /// `live_repair`: update edges per pass.
    pub live_ops: usize,
    /// `serve_hit`: hot users and round trips per pass.
    pub hit_users: usize,
    pub hit_ops: usize,
    /// `routed_miss`: cheapest users kept and round trips per pass.
    pub miss_users: usize,
    pub miss_ops: usize,
    /// Iterations of one micro-probe loop are scaled by this.
    pub probe_scale: f64,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        d0_scale: 1.0,
        cascades: 40_000,
        d1_scale: 0.01,
        d2_scale: 0.0005,
        lazy_heavy: 24,
        lazy_rest: (160, 16),
        plus_heavy: 18,
        plus_mid: (72, 18),
        plus_light: (160, 32),
        live_ops: 200,
        hit_users: 256,
        hit_ops: 200_000,
        miss_users: 128,
        miss_ops: 40_000,
        probe_scale: 1.0,
    };

    /// `--quick`: the same code paths at toy sizes, for a smoke run.
    pub const QUICK: Sizes = Sizes {
        d0_scale: 0.25,
        cascades: 3_000,
        d1_scale: 0.001,
        d2_scale: 0.0002,
        lazy_heavy: 4,
        lazy_rest: (20, 16),
        plus_heavy: 3,
        plus_mid: (8, 4),
        plus_light: (17, 8),
        live_ops: 24,
        hit_users: 32,
        hit_ops: 4_000,
        miss_users: 16,
        miss_ops: 2_000,
        probe_scale: 0.05,
    };
}

pub fn d0_profile(sizes: &Sizes) -> DatasetProfile {
    DatasetProfile::lastfm_like().scaled(sizes.d0_scale)
}

pub fn d1_profile(sizes: &Sizes) -> DatasetProfile {
    DatasetProfile::twitter_like().scaled(sizes.d1_scale).with_tags(50)
}

pub fn d2_profile(sizes: &Sizes) -> DatasetProfile {
    DatasetProfile::twitter_like().scaled(sizes.d2_scale).with_tags(50)
}

pub fn build_index(model: &TicModel) -> RrIndex {
    RrIndex::build_with_threads(model, INDEX_BUDGET, INDEX_SEED, 1)
}

/// The ground-truth `D0` model and the action log played on it: the
/// untimed input of `online_lazy`.
pub fn d0_log(sizes: &Sizes) -> (TicModel, ActionLog) {
    let truth = d0_profile(sizes).generate();
    let log = synthesize_log(&truth, sizes.cascades, K, &mut StdRng::seed_from_u64(7));
    (truth, log)
}

/// Fits the TIC parameters `online_lazy` queries. Not the learner's
/// defaults: with its default smoothing (0.05) every (edge, topic) pair no
/// cascade tried gets probability 0.5, the learned graph percolates
/// (spread ≈ |V|) and a single LAZY query runs for minutes; with its
/// default 4 topics every tag carries every topic, nothing is infeasible,
/// nothing prunes, and a low-group query evaluates all C(50,3) sets (58 s).
/// Ten topics, a 0.3 sparsity cut and 1e-4 smoothing give a model in the
/// truth's regime (spreads 1–7, 10⁰–10³ estimates per query).
pub fn learn_d0(truth: &TicModel, log: &ActionLog) -> TicModel {
    let cfg = LearnConfig {
        num_topics: 10,
        iterations: 15,
        smoothing: 1e-4,
        sparsify_threshold: 0.3,
        ..LearnConfig::default()
    };
    let fit = learn(truth.graph(), log, truth.num_tags(), &cfg);
    TicModel::new(truth.graph().clone(), fit.tag_topic, fit.edge_topics)
}

/// Every user with at least one out-edge (§7.1 filters the others),
/// ordered by what a query for them costs, dearest first: by the number of
/// RR-Graphs of `index` that contain the user, ties by id. That count is
/// the user's influence under `p_max` as the index sampled it, and it is
/// what the index estimators iterate over: on `D1` the logarithm of an
/// INDEXEST+ query's time correlates 0.96 with it inside the paper's high
/// and mid groups and 0.83 inside the low group, where the groups' own
/// key, out-degree, manages 0.38 / 0.47 / 0.64 — a low-group user can cost
/// 600 ms and a high-group one 10 ms.
pub fn users_by_cost(model: &TicModel, index: &RrIndex) -> Vec<u32> {
    let graph = model.graph();
    let mut users: Vec<u32> = graph.nodes().filter(|&u| graph.out_degree(u) > 0).collect();
    users.sort_by_key(|&u| (std::cmp::Reverse(index.membership_count(u)), u));
    users
}

/// §7.1's split — top 1 %, next 9 %, the rest — applied to
/// [`users_by_cost`]'s order instead of out-degree, so that each tier is
/// homogeneous in cost: `(heavy, mid, light)`.
pub fn tiers(ranked: &[u32]) -> (&[u32], &[u32], &[u32]) {
    let heavy_end = ranked.len().div_ceil(100).min(ranked.len());
    let mid_end = ranked.len().div_ceil(10).max(heavy_end);
    (&ranked[..heavy_end], &ranked[heavy_end..mid_end], &ranked[mid_end..])
}

/// The fixed panel: the members at the centres of `count` equal strata of
/// `pool` (a slice of [`users_by_cost`]). It does not depend on the seed: one
/// query of a heavy user costs 10⁻²–10⁰·⁵ s (README, "Why a panel"), so any
/// random draw of a dozen of them moves a pass by tens of percent and the
/// benchmark could not tell a regression from a draw.
pub fn panel(pool: &[u32], count: usize) -> Vec<u32> {
    assert!(!pool.is_empty(), "panel drawn from an empty pool");
    (0..count).map(|i| pool[((2 * i + 1) * pool.len()) / (2 * count)]).collect()
}

/// The seeded sample: one member of each of `count` equal strata of
/// `members` (a slice of [`users_by_cost`]), chosen by `rng`. Stratifying by cost
/// rank keeps the mix of cheap and dear users the same from seed to seed.
pub fn pick_users(members: &[u32], count: usize, rng: &mut StdRng) -> Vec<u32> {
    assert!(!members.is_empty(), "users drawn from an empty group");
    (0..count)
        .map(|i| {
            let lo = i * members.len() / count;
            let hi = ((i + 1) * members.len() / count).max(lo + 1).min(members.len());
            members[rng.gen_range(lo..hi)]
        })
        .collect()
}

/// A tier's share of an op list: `fixed` panel users plus `seeded` drawn
/// ones. Most of a list is panel, so that its median and its tail sit among
/// ops that are the same at every seed; the seed still changes a sixth of
/// the users (and the order of all of them).
pub fn panel_and_picks(
    pool: &[u32],
    (fixed, seeded): (usize, usize),
    rng: &mut StdRng,
) -> Vec<u32> {
    let mut users = panel(pool, fixed);
    users.extend(pick_users(pool, seeded, rng));
    users
}

/// The workload RNG: the run's `--seed` mixed with a per-workload salt, so
/// two workloads never share a stream.
pub fn workload_rng(seed: u64, salt: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panel_is_the_strata_centres_and_ignores_the_seed() {
        let members: Vec<u32> = (100..200).collect();
        assert_eq!(panel(&members, 4), vec![112, 137, 162, 187]);
        assert_eq!(panel(&members[50..], 2), vec![162, 187]);
        assert_eq!(panel(&members[99..], 3), vec![199, 199, 199]);
    }

    #[test]
    fn tiers_split_one_nine_ninety() {
        let ranked: Vec<u32> = (0..1_000).collect();
        let (heavy, mid, light) = tiers(&ranked);
        assert_eq!((heavy.len(), mid.len(), light.len()), (10, 90, 900));
        assert_eq!((heavy[0], mid[0], light[0]), (0, 10, 100));
        let (heavy, mid, light) = tiers(&ranked[..5]);
        assert_eq!((heavy.len(), mid.len(), light.len()), (1, 0, 4));
    }

    #[test]
    fn picks_are_one_per_stratum_and_seeded() {
        let members: Vec<u32> = (0..1_000).collect();
        let a = pick_users(&members, 10, &mut workload_rng(1, 1));
        let b = pick_users(&members, 10, &mut workload_rng(1, 1));
        let c = pick_users(&members, 10, &mut workload_rng(2, 1));
        assert_eq!(a, b, "the same seed gives the same users");
        assert_ne!(a, c);
        for (i, &u) in a.iter().enumerate() {
            assert!((i as u32 * 100..(i as u32 + 1) * 100).contains(&u), "stratum {i}: {u}");
        }
        // More picks than members: strata collapse to single members.
        assert_eq!(pick_users(&[7, 8], 4, &mut workload_rng(1, 1)).len(), 4);
    }
}
