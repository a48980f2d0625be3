//! Shared experiment harness for the PITEX evaluation (§7).
//!
//! [`repro`] reproduces every table and figure of the paper through
//! `pitex repro`; the gated `bench_*`/`micro_*` targets under `benches/`
//! share its [`banner`]. Two settings scale a run, the CLI's
//! `--scale` and `--queries` ([`BenchEnv`]); the index budget and the
//! master seed are the constants [`INDEX_PER_VERTEX`] and [`SEED`].

pub mod repro;

use pitex_core::{EngineBackend, ExplorationStrategy, PitexConfig, PitexEngine, PitexResult};
use pitex_datasets::{DatasetProfile, UserGroup, UserGroups};
use pitex_index::{DelayMatIndex, IndexBudget, RrIndex};
use pitex_model::TicModel;
use pitex_support::{OnlineStats, Timer};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// RR-Graphs per vertex for index construction: Eq. 7's θ is impractical
/// (see DESIGN.md), so the index size is this fixed budget.
pub const INDEX_PER_VERTEX: f64 = 8.0;

/// The master seed every experiment derives its randomness from.
pub const SEED: u64 = 42;

/// The seven methods of the §7 comparison, in the paper's plotting order.
pub const SECTION7: [EngineBackend; 7] = [
    EngineBackend::Rr,
    EngineBackend::Mc,
    EngineBackend::Lazy,
    EngineBackend::Tim,
    EngineBackend::IndexEst,
    EngineBackend::IndexEstPlus,
    EngineBackend::DelayMat,
];

/// The methods compared after Fig. 7/8 ("we only compare Lazy with the
/// other offline solutions in the remaining part of this section").
pub const OFFLINE_PLUS_LAZY: [EngineBackend; 4] = [
    EngineBackend::Lazy,
    EngineBackend::IndexEst,
    EngineBackend::IndexEstPlus,
    EngineBackend::DelayMat,
];

/// The online sampling methods (Figs. 6 and 13).
pub const ONLINE: [EngineBackend; 3] = [EngineBackend::Rr, EngineBackend::Mc, EngineBackend::Lazy];

/// How large a run is: `scale` multiplies the per-dataset scales, and
/// `queries` is the number of query users per configuration.
#[derive(Clone, Copy, Debug)]
pub struct BenchEnv {
    pub scale: f64,
    pub queries: usize,
}

impl Default for BenchEnv {
    /// Scale 1 (the bench-default profiles) and 3 queries per cell (the
    /// paper averages 100).
    fn default() -> Self {
        Self { scale: 1.0, queries: 3 }
    }
}

impl BenchEnv {
    /// The four profiles at bench-default scales. The paper-relative scale
    /// factors (1, 0.05, 0.002, 0.002) keep each figure in laptop-minutes;
    /// `scale` multiplies them. Tag vocabularies of the two big
    /// stand-ins shrink so `C(|Ω|, 3)` stays tractable for the *online*
    /// methods the figures include (documented in EXPERIMENTS.md).
    pub fn profiles(&self) -> Vec<DatasetProfile> {
        let clamp = |f: f64| f.clamp(1e-6, 1.0);
        vec![
            DatasetProfile::lastfm_like().scaled(clamp(1.0 * self.scale)),
            DatasetProfile::diggs_like().scaled(clamp(0.05 * self.scale)),
            DatasetProfile::dblp_like().scaled(clamp(0.002 * self.scale)).with_tags(50),
            DatasetProfile::twitter_like().scaled(clamp(0.002 * self.scale)).with_tags(80),
        ]
    }

    /// A smaller profile set for the online-sampling-heavy figures.
    pub fn small_profiles(&self) -> Vec<DatasetProfile> {
        let clamp = |f: f64| f.clamp(1e-6, 1.0);
        vec![
            DatasetProfile::lastfm_like().scaled(clamp(0.5 * self.scale)),
            DatasetProfile::diggs_like().scaled(clamp(0.03 * self.scale)),
            DatasetProfile::dblp_like().scaled(clamp(0.0015 * self.scale)).with_tags(40),
            DatasetProfile::twitter_like().scaled(clamp(0.001 * self.scale)).with_tags(50),
        ]
    }

    pub fn index_budget(&self) -> IndexBudget {
        IndexBudget::PerVertex(INDEX_PER_VERTEX)
    }
}

/// A generated dataset plus its query-user buckets.
pub struct PreparedDataset {
    pub profile: DatasetProfile,
    pub model: TicModel,
    pub groups: UserGroups,
}

/// Generates a profile and buckets its users.
pub fn prepare(profile: DatasetProfile) -> PreparedDataset {
    let model = profile.generate();
    let groups = UserGroups::from_graph(model.graph());
    PreparedDataset { profile, model, groups }
}

/// The two index artifacts with their construction times (Table 3).
pub struct Indexes {
    pub rr: RrIndex,
    pub rr_build_secs: f64,
    pub delay: DelayMatIndex,
    pub delay_build_secs: f64,
}

/// Builds both index flavours.
pub fn build_indexes(model: &TicModel, budget: IndexBudget, seed: u64) -> Indexes {
    let t = Timer::start();
    let rr = RrIndex::build(model, budget, seed);
    let rr_build_secs = t.seconds();
    let t = Timer::start();
    let delay = DelayMatIndex::build(model, budget, seed);
    let delay_build_secs = t.seconds();
    Indexes { rr, rr_build_secs, delay, delay_build_secs }
}

/// Averaged outcome of a query batch.
#[derive(Clone, Copy, Debug)]
pub struct BatchOutcome {
    pub time: OnlineStats,
    pub spread: OnlineStats,
    pub edges_visited: OnlineStats,
}

/// Runs `k`-tag PITEX queries for every user in `users` and averages.
pub fn run_batch(
    method: EngineBackend,
    model: &TicModel,
    indexes: Option<&Indexes>,
    users: &[u32],
    k: usize,
    config: PitexConfig,
) -> BatchOutcome {
    let rr = indexes.map(|i| &i.rr);
    let delay = indexes.map(|i| &i.delay);
    let mut engine = PitexEngine::with_backend(model, method, rr, delay, config)
        .unwrap_or_else(|e| panic!("{e}"));
    let mut time = OnlineStats::new();
    let mut spread = OnlineStats::new();
    let mut edges = OnlineStats::new();
    for &u in users {
        let timer = Timer::start();
        let result: PitexResult = engine.query(u, k);
        time.push(timer.seconds());
        spread.push(result.spread);
        edges.push(result.stats.edges_visited as f64);
    }
    BatchOutcome { time, spread, edges_visited: edges }
}

/// Draws the default mid-group query users for a dataset.
pub fn default_queries(data: &PreparedDataset, env: &BenchEnv, group: UserGroup) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(SEED ^ 0xBEEF);
    data.groups.sample(group, env.queries, &mut rng)
}

/// The paper's default engine configuration (ε = 0.7, δ = 1000,
/// best-effort exploration — §7.3 notes all reported approaches use it).
pub fn default_config(seed: u64) -> PitexConfig {
    PitexConfig { epsilon: 0.7, delta: 1000.0, seed, strategy: ExplorationStrategy::BestEffort }
}

/// Prints a figure banner.
pub fn banner(title: &str, detail: &str) {
    println!();
    println!("================================================================");
    println!("{title}");
    println!("{detail}");
    println!("================================================================");
}

/// One measured cell of a "per user group" figure (Figs. 7, 8, 13).
pub struct GroupFigureRow {
    pub dataset: &'static str,
    pub group: UserGroup,
    pub method: EngineBackend,
    pub outcome: BatchOutcome,
}

/// Runs `methods` over every profile × user group; one query batch each.
/// Indexes are built once per dataset when any method needs them.
pub fn group_figure(
    env: &BenchEnv,
    methods: &[EngineBackend],
    profiles: Vec<DatasetProfile>,
    k: usize,
) -> Vec<GroupFigureRow> {
    let mut rows = Vec::new();
    let needs_index = methods.iter().any(|m| m.needs_rr_index() || m.needs_delay_index());
    for profile in profiles {
        let name = profile.name;
        eprintln!("[prepare] {name} ({} nodes)", profile.num_nodes);
        let data = prepare(profile);
        let indexes = needs_index.then(|| build_indexes(&data.model, env.index_budget(), SEED));
        for group in UserGroup::ALL {
            let users = default_queries(&data, env, group);
            for &method in methods {
                let outcome = run_batch(
                    method,
                    &data.model,
                    indexes.as_ref(),
                    &users,
                    k,
                    default_config(SEED),
                );
                eprintln!(
                    "[done] {name}/{}/{}: {:.4}s avg",
                    group.label(),
                    method.label(),
                    outcome.time.mean()
                );
                rows.push(GroupFigureRow { dataset: name, group, method, outcome });
            }
        }
    }
    rows
}

/// One measured cell of a parameter sweep (Figs. 9–12, 14).
pub struct SweepRow {
    pub dataset: &'static str,
    pub value: f64,
    pub method: EngineBackend,
    pub outcome: BatchOutcome,
}

/// Sweeps a query-time parameter (ε, δ or k) over the mid user group.
/// `apply` mutates the engine config (or chooses k) per value.
pub fn param_sweep(
    env: &BenchEnv,
    methods: &[EngineBackend],
    profiles: Vec<DatasetProfile>,
    values: &[f64],
    mut apply: impl FnMut(&mut PitexConfig, &mut usize, f64),
) -> Vec<SweepRow> {
    let mut rows = Vec::new();
    let needs_index = methods.iter().any(|m| m.needs_rr_index() || m.needs_delay_index());
    for profile in profiles {
        let name = profile.name;
        eprintln!("[prepare] {name} ({} nodes)", profile.num_nodes);
        let data = prepare(profile);
        let indexes = needs_index.then(|| build_indexes(&data.model, env.index_budget(), SEED));
        let users = default_queries(&data, env, UserGroup::Mid);
        for &value in values {
            for &method in methods {
                let mut config = default_config(SEED);
                let mut k = 3usize;
                apply(&mut config, &mut k, value);
                let outcome = run_batch(method, &data.model, indexes.as_ref(), &users, k, config);
                eprintln!(
                    "[done] {name}/{value}/{}: {:.4}s avg",
                    method.label(),
                    outcome.time.mean()
                );
                rows.push(SweepRow { dataset: name, value, method, outcome });
            }
        }
    }
    rows
}

/// Prints a table's `--- title ---` line and its header row: `first`
/// padded to `width`, then one column per method.
pub fn print_header(title: &str, first: &str, width: usize, methods: &[EngineBackend]) {
    println!();
    println!("--- {title} ---");
    print!("{first:<width$}");
    for m in methods {
        print!(" {:>12}", m.label());
    }
    println!();
}

/// Prints a group-figure table with one metric column per method.
pub fn print_group_table(
    rows: &[GroupFigureRow],
    methods: &[EngineBackend],
    metric: impl Fn(&BatchOutcome) -> f64,
    metric_name: &str,
) {
    let mut datasets: Vec<&'static str> = rows.iter().map(|r| r.dataset).collect();
    datasets.dedup();
    for dataset in datasets {
        print_header(&format!("{dataset}: {metric_name}"), "group", 8, methods);
        for group in UserGroup::ALL {
            print!("{:<8}", group.label());
            for &m in methods {
                let cell = rows
                    .iter()
                    .find(|r| r.dataset == dataset && r.group == group && r.method == m)
                    .map(|r| metric(&r.outcome))
                    .unwrap_or(f64::NAN);
                print!(" {:>12.6}", cell);
            }
            println!();
        }
    }
}

/// Prints a sweep table with one metric column per method.
pub fn print_sweep_table(
    rows: &[SweepRow],
    methods: &[EngineBackend],
    param_name: &str,
    metric: impl Fn(&BatchOutcome) -> f64,
    metric_name: &str,
) {
    let mut datasets: Vec<&'static str> = rows.iter().map(|r| r.dataset).collect();
    datasets.dedup();
    for dataset in datasets {
        print_header(&format!("{dataset}: {metric_name} vs {param_name}"), param_name, 10, methods);
        let mut values: Vec<f64> =
            rows.iter().filter(|r| r.dataset == dataset).map(|r| r.value).collect();
        values.dedup();
        for value in values {
            print!("{:<10}", value);
            for &m in methods {
                let cell = rows
                    .iter()
                    .find(|r| r.dataset == dataset && r.value == value && r.method == m)
                    .map(|r| metric(&r.outcome))
                    .unwrap_or(f64::NAN);
                print!(" {:>12.6}", cell);
            }
            println!();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_defaults_are_sane() {
        let env = BenchEnv { scale: 1.0, queries: 5 };
        let profiles = env.profiles();
        assert_eq!(profiles.len(), 4);
        assert_eq!(profiles[0].num_nodes, 1_300);
        assert!(profiles[2].num_nodes <= 5_000);
    }

    #[test]
    fn batch_runs_all_methods_on_a_tiny_dataset() {
        let env = BenchEnv { scale: 1.0, queries: 2 };
        let data = prepare(DatasetProfile::lastfm_like().scaled(0.1));
        let indexes = build_indexes(&data.model, env.index_budget(), SEED);
        let users = default_queries(&data, &env, UserGroup::Mid);
        for method in SECTION7 {
            let out =
                run_batch(method, &data.model, Some(&indexes), &users, 2, default_config(SEED));
            assert_eq!(out.time.count(), 2, "{}", method.label());
            assert!(out.spread.mean() >= 0.0);
        }
    }
}
