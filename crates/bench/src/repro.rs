//! `pitex repro`: every table and figure of the paper's evaluation (§7)
//! from one table of experiments.
//!
//! Each row of [`EXPERIMENTS`] names the artifacts one experiment prints.
//! An experiment runs at most once per invocation, however many of its
//! artifacts are asked for: Figs. 7, 8 and 13 read one query batch, and
//! Figs. 9 and 10 one ε sweep.

use crate::{
    banner, build_indexes, default_config, default_queries, group_figure, param_sweep, prepare,
    print_group_table, print_header, print_sweep_table, run_batch, BenchEnv, SweepRow,
    OFFLINE_PLUS_LAZY, ONLINE, SECTION7, SEED,
};
use pitex_core::{BackendKind, EngineBackend, PitexEngine};
use pitex_datasets::{CaseStudy, CaseStudyConfig, DatasetProfile, DatasetStats, UserGroup};
use pitex_graph::gen;
use pitex_index::prune::{CutFilter, CutPolicy};
use pitex_index::{serial, RrIndex};
use pitex_model::{FixedEdgeProbs, PosteriorEdgeProbs, TagSet};
use pitex_sampling::{LazySampler, SamplingParams, SpreadEstimator};
use pitex_support::{EpochVisited, OnlineStats, Timer};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One experiment: the artifacts it prints, and the function that runs
/// it once and prints the requested subset of them.
pub struct Experiment {
    pub artifacts: &'static [&'static str],
    run: fn(&BenchEnv, &[&str]),
}

/// Every experiment of §7, in the order `pitex repro` runs them.
pub const EXPERIMENTS: [Experiment; 12] = [
    Experiment { artifacts: &["table2"], run: |env, _| datasets(env) },
    Experiment { artifacts: &["table3"], run: |env, _| print_index_sizes(env) },
    Experiment { artifacts: &["fig6"], run: |env, _| convergence(env) },
    Experiment { artifacts: &["fig7", "fig8", "fig13"], run: group },
    Experiment { artifacts: &["fig9", "fig10"], run: epsilon },
    Experiment { artifacts: &["fig11"], run: |env, _| k_sweep(env) },
    Experiment { artifacts: &["fig12"], run: |env, _| scalability(env) },
    Experiment { artifacts: &["fig14"], run: |env, _| delta(env) },
    Experiment { artifacts: &["table4"], run: |_, _| case_study() },
    Experiment { artifacts: &["ablation-cut-policy"], run: |env, _| cut_policy(env) },
    Experiment { artifacts: &["ablation-lazy-sparsity"], run: |_, _| print_lazy_sparsity() },
    Experiment { artifacts: &["ablation-stopping-rule"], run: |env, _| print_stopping_rule(env) },
];

/// Every artifact name, in run order.
pub fn artifacts() -> impl Iterator<Item = &'static str> {
    EXPERIMENTS.iter().flat_map(|e| e.artifacts.iter().copied())
}

/// Runs every experiment that feeds an artifact in `only` (all of them
/// when `only` is empty), each once. Refuses an unknown name up front.
pub fn run(env: &BenchEnv, only: &[&str]) -> Result<(), String> {
    if let Some(bad) = only.iter().find(|name| !artifacts().any(|a| a == **name)) {
        let valid: Vec<_> = artifacts().collect();
        return Err(format!("unknown artifact {bad:?} (valid: {})", valid.join(", ")));
    }
    for experiment in &EXPERIMENTS {
        let wanted: Vec<&str> = (experiment.artifacts.iter().copied())
            .filter(|a| only.is_empty() || only.contains(a))
            .collect();
        if !wanted.is_empty() {
            (experiment.run)(env, &wanted);
        }
    }
    Ok(())
}

/// Table 2 — Statistics of Datasets: the paper's original sizes, then the
/// synthetic stand-ins generated at bench scale.
fn datasets(env: &BenchEnv) {
    banner(
        "Table 2: Statistics of Datasets",
        "paper-reported sizes, then the generated synthetic stand-ins",
    );
    println!();
    println!("paper originals:");
    println!("{}", DatasetStats::header());
    for p in DatasetProfile::all() {
        println!(
            "{:<10} {:>10} {:>12} {:>8.1} {:>5} {:>5} {:>9.2}",
            p.name,
            p.num_nodes,
            p.num_edges,
            p.num_edges as f64 / p.num_nodes as f64,
            p.num_topics,
            p.num_tags,
            p.density
        );
    }
    println!();
    println!("generated stand-ins (bench scale):");
    println!("{}", DatasetStats::header());
    for profile in env.profiles() {
        let name = profile.name;
        let model = profile.generate();
        println!("{}", DatasetStats::compute(name, &model));
    }
}

/// One dataset's row of Table 3.
pub struct IndexSizes {
    pub dataset: &'static str,
    pub model_bytes: u64,
    pub rr_heap_bytes: u64,
    pub rr_artifact_bytes: u64,
    pub rr_build_secs: f64,
    pub delay_artifact_bytes: u64,
    pub delay_build_secs: f64,
}

/// Table 3 — Index Sizes & Construction Time: builds the RR-Graphs index
/// and the DelayMat counter index for every profile.
pub fn index_sizes(env: &BenchEnv, profiles: Vec<DatasetProfile>) -> Vec<IndexSizes> {
    let mut rows = Vec::new();
    for profile in profiles {
        let model = profile.generate();
        let idx = build_indexes(&model, env.index_budget(), SEED);
        rows.push(IndexSizes {
            dataset: profile.name,
            model_bytes: model.heap_bytes(),
            rr_heap_bytes: idx.rr.heap_bytes(),
            rr_artifact_bytes: serial::rr_index_to_bytes(&idx.rr).len() as u64,
            rr_build_secs: idx.rr_build_secs,
            delay_artifact_bytes: serial::delay_index_to_bytes(&idx.delay).len() as u64,
            delay_build_secs: idx.delay_build_secs,
        });
    }
    rows
}

/// The paper's headline — RR-Graphs dwarf the raw data while DelayMat is
/// a few bytes per user — must reproduce at any scale.
fn print_index_sizes(env: &BenchEnv) {
    banner(
        "Table 3: Index Sizes (MB) & Construction Time (s)",
        &format!("budget: {} RR-Graphs per vertex", crate::INDEX_PER_VERTEX),
    );
    println!();
    println!(
        "{:<10} {:>10} | {:>12} {:>12} {:>8} | {:>12} {:>8}",
        "dataset", "data(MB)", "rr-mem(MB)", "rr-disk(MB)", "rr(s)", "delay(MB)", "delay(s)"
    );
    for r in index_sizes(env, env.profiles()) {
        println!(
            "{:<10} {:>10.2} | {:>12.2} {:>12.2} {:>8.2} | {:>12.4} {:>8.2}",
            r.dataset,
            r.model_bytes as f64 / 1e6,
            r.rr_heap_bytes as f64 / 1e6,
            r.rr_artifact_bytes as f64 / 1e6,
            r.rr_build_secs,
            r.delay_artifact_bytes as f64 / 1e6,
            r.delay_build_secs
        );
    }
    println!();
    println!("expected shape (paper): rr-size >> data size; delay-size << data size;");
    println!("delay build time is the same sampling pass without materialization.");
}

/// Fig. 6 — Empirical convergence of sampling-based influence estimation.
///
/// For each dataset: take the user with the largest out-degree and their
/// most influential single tag, then estimate the spread with MC, RR and
/// LAZY at fixed sample counts θ_W ∈ {10³, 10⁴, 10⁵, 10⁶}. The paper's
/// observation: MC and LAZY converge at smaller θ_W than RR (Bernoulli
/// estimates are the worst case of the Chernoff–Hoeffding bound).
fn convergence(env: &BenchEnv) {
    banner(
        "Fig. 6: estimate vs sample count θ_W for MC / RR / LAZY",
        "top out-degree user, their most influential single tag",
    );
    let thetas: [u64; 4] = [1_000, 10_000, 100_000, 1_000_000];
    for profile in env.small_profiles() {
        let name = profile.name;
        let data = prepare(profile);
        let model = &data.model;
        let user = model.graph().nodes_by_out_degree_desc()[0];

        // Most influential single tag, judged by a quick LAZY pass.
        let probe_params =
            SamplingParams::enumeration(0.7, 1000.0, model.num_tags(), 1).with_seed(SEED);
        let mut prober = BackendKind::Lazy.make(model);
        let mut cache = model.new_prob_cache();
        let mut best_tag = 0u32;
        let mut best_spread = f64::NEG_INFINITY;
        for tag in 0..model.num_tags() as u32 {
            let posterior = model.posterior(&TagSet::from([tag]));
            if posterior.is_empty() {
                continue;
            }
            let mut probs = PosteriorEdgeProbs::new(model.edge_topics(), &posterior, &mut cache);
            let est = prober.estimate(model.graph(), user, &mut probs, &probe_params);
            if est.spread > best_spread {
                best_spread = est.spread;
                best_tag = tag;
            }
        }

        println!();
        println!(
            "--- {name}: user {user} (out-degree {}), tag w{best_tag} ---",
            model.graph().out_degree(user)
        );
        println!("{:<10} {:>12} {:>12} {:>12}", "theta", "MC", "RR", "LAZY");
        let posterior = model.posterior(&TagSet::from([best_tag]));
        for theta in thetas {
            print!("{:<10}", theta);
            for kind in [BackendKind::Mc, BackendKind::Rr, BackendKind::Lazy] {
                let mut est = kind.make(model);
                let params = probe_params.with_fixed_budget(theta);
                let mut probs =
                    PosteriorEdgeProbs::new(model.edge_topics(), &posterior, &mut cache);
                let e = est.estimate(model.graph(), user, &mut probs, &params);
                print!(" {:>12.4}", e.spread);
            }
            println!();
        }
    }
}

/// Figs. 7, 8 and 13 — one query batch per dataset × user group, k = 3.
///
/// Fig. 7 (time): LAZY beats MC/RR; index methods beat online sampling by
/// orders of magnitude; INDEXEST+ beats INDEXEST; DELAYMAT sits between
/// them; TIM is fast but returns inferior spread. Fig. 8 (spread): every
/// guaranteed method lands in the same (1−ε)/(1+ε) band; TIM
/// under-performs (its tree model has no guarantee). Fig. 13 (Appx. D,
/// edges visited by the online samplers, §4's complexity measure): RR and
/// MC trade places with graph shape (Lemmas 4–5), and LAZY visits fewer
/// edges than MC in every cell; RR can visit fewer than LAZY (it does on
/// twitter-like, see EXPERIMENTS.md).
fn group(env: &BenchEnv, wanted: &[&str]) {
    let methods: &[EngineBackend] = if wanted == ["fig13"] { &ONLINE } else { &SECTION7 };
    let rows = group_figure(env, methods, env.small_profiles(), 3);
    let detail = format!("{} queries per cell (--queries); ε = 0.7, δ = 1000, k = 3", env.queries);
    if wanted.contains(&"fig7") {
        banner("Fig. 7: average query time (s) by user group", &detail);
        print_group_table(&rows, &SECTION7, |o| o.time.mean(), "time (s)");
    }
    if wanted.contains(&"fig8") {
        banner("Fig. 8: average influence spread of the returned tag set, by user group", &detail);
        print_group_table(&rows, &SECTION7, |o| o.spread.mean(), "influence spread");
    }
    if wanted.contains(&"fig13") {
        banner("Fig. 13: average edges visited per query, by user group", &detail);
        print_group_table(&rows, &ONLINE, |o| o.edges_visited.mean(), "edges visited");
    }
}

/// The ε values of Figs. 9 and 10.
pub const EPSILONS: [f64; 4] = [0.3, 0.5, 0.7, 0.9];

/// The δ values of Fig. 14.
pub const DELTAS: [f64; 4] = [10.0, 100.0, 1_000.0, 10_000.0];

/// Sweeps ε over [`EPSILONS`] (mid group, δ = 1000, k = 3).
pub fn epsilon_sweep(
    env: &BenchEnv,
    methods: &[EngineBackend],
    profiles: Vec<DatasetProfile>,
) -> Vec<SweepRow> {
    param_sweep(env, methods, profiles, &EPSILONS, |config, _k, eps| config.epsilon = eps)
}

/// Sweeps δ over [`DELTAS`] (mid group, ε = 0.7, k = 3).
pub fn delta_sweep(
    env: &BenchEnv,
    methods: &[EngineBackend],
    profiles: Vec<DatasetProfile>,
) -> Vec<SweepRow> {
    param_sweep(env, methods, profiles, &DELTAS, |config, _k, delta| config.delta = delta)
}

/// Figs. 9 and 10 — LAZY vs the index methods as ε varies. Smaller ε ⇒
/// more samples ⇒ slower everywhere; the index methods' ordering is
/// unchanged. Spreads are not monotone in ε (EXPERIMENTS.md).
fn epsilon(env: &BenchEnv, wanted: &[&str]) {
    let rows = epsilon_sweep(env, &OFFLINE_PLUS_LAZY, env.profiles());
    if wanted.contains(&"fig9") {
        banner("Fig. 9: average query time (s) vs ε", "mid user group; δ = 1000, k = 3");
        print_sweep_table(&rows, &OFFLINE_PLUS_LAZY, "epsilon", |o| o.time.mean(), "time (s)");
    }
    if wanted.contains(&"fig10") {
        banner("Fig. 10: average influence spread vs ε", "mid user group; δ = 1000, k = 3");
        print_sweep_table(
            &rows,
            &OFFLINE_PLUS_LAZY,
            "epsilon",
            |o| o.spread.mean(),
            "influence spread",
        );
    }
}

/// Fig. 11 — Efficiency when varying the tag count k ∈ 1..5.
///
/// Despite C(|Ω|, k) growing exponentially, query time must not explode:
/// low tag–topic densities make most tag sets infeasible and best-effort
/// pruning discards them wholesale (§7.3). INDEXEST+'s advantage grows
/// with k (more sets ⇒ more filtering opportunities).
fn k_sweep(env: &BenchEnv) {
    banner("Fig. 11: average query time (s) vs k", "mid user group; ε = 0.7, δ = 1000");
    let rows = param_sweep(
        env,
        &OFFLINE_PLUS_LAZY,
        env.profiles(),
        &[1.0, 2.0, 3.0, 4.0, 5.0],
        |_config, k, value| *k = value as usize,
    );
    print_sweep_table(&rows, &OFFLINE_PLUS_LAZY, "k", |o| o.time.mean(), "time (s)");
}

/// Fig. 12 — Scalability on the twitter-like dataset.
///
/// (a) varying the tag vocabulary |Ω| ∈ {50..250}: more candidate tag sets
///     ⇒ slower queries, with INDEXEST scaling best;
/// (b) varying the topic count |Z| ∈ {10..50}: each tag concentrates on a
///     few topics, so density = const/|Z| *falls* as |Z| grows, feasible
///     combinations thin out, and queries get *faster* — the paper's
///     counter-intuitive finding.
fn scalability(env: &BenchEnv) {
    banner(
        "Fig. 12: scalability on twitter-like (mid group, k = 3)",
        "(a) vary |Ω| at |Z| = 50   (b) vary |Z| at |Ω| = 120",
    );
    let base = DatasetProfile::twitter_like().scaled((0.002 * env.scale).clamp(1e-6, 1.0));
    let methods = OFFLINE_PLUS_LAZY;
    let row = |label: usize, profile: DatasetProfile| {
        let data = prepare(profile);
        let indexes = build_indexes(&data.model, env.index_budget(), SEED);
        let users = default_queries(&data, env, UserGroup::Mid);
        print!("{:<8}", label);
        for method in methods {
            let out =
                run_batch(method, &data.model, Some(&indexes), &users, 3, default_config(SEED));
            print!(" {:>12.6}", out.time.mean());
        }
        println!();
    };
    print_header("(a) time (s) vs |Ω|", "|Omega|", 8, &methods);
    for num_tags in [50usize, 100, 150, 200, 250] {
        row(num_tags, base.clone().with_tags(num_tags));
    }
    print_header("(b) time (s) vs |Z| (per-tag topic count held at ~4)", "|Z|", 8, &methods);
    for num_topics in [10usize, 20, 30, 40, 50] {
        // Hold the per-tag topic count fixed: density = 4/|Z| falls with |Z|.
        let mut profile = base.clone().with_tags(120).with_topics(num_topics);
        profile.density = (4.0 / num_topics as f64).min(1.0);
        row(num_topics, profile);
    }
}

/// Fig. 14 (Appx. D) — Efficiency when varying δ ∈ {10, 10², 10³, 10⁴}.
///
/// Sample counts grow with ln δ (Eq. 2), so runtime grows slowly — not
/// exponentially — in δ.
fn delta(env: &BenchEnv) {
    banner("Fig. 14: average query time (s) vs δ", "mid user group; ε = 0.7, k = 3");
    let rows = delta_sweep(env, &OFFLINE_PLUS_LAZY, env.profiles());
    print_sweep_table(&rows, &OFFLINE_PLUS_LAZY, "delta", |o| o.time.mean(), "time (s)");
}

/// Table 4 — An example case study of PITEX queries (dblp).
///
/// The paper runs k = 5 queries for eight researchers and reports
/// human-annotated accuracy (average 0.78). Here the ground truth is
/// planted: each hub's true selling points are the themed tags of its
/// community, and accuracy is the overlap of the returned tag set with them.
fn case_study() {
    banner(
        "Table 4: case study — planted selling points, k = 5",
        "8 community hubs on a dblp-like topical graph; LAZY backend",
    );
    let cs = CaseStudy::generate(&CaseStudyConfig { seed: SEED, ..CaseStudyConfig::default() });
    let mut engine = PitexEngine::with_lazy(&cs.model, default_config(SEED));
    println!();
    println!("{:<22} {:<55} {:>8}", "researcher", "inferential tags", "accuracy");
    let mut total = 0.0f64;
    for r in &cs.researchers {
        let result = engine.query(r.user, 5);
        let tags: Vec<&str> = result.tags.iter().map(|t| cs.tag_name(t)).collect();
        let accuracy = cs.accuracy(r, &result.tags);
        total += accuracy;
        println!("{:<22} {:<55} {:>8.2}", r.name, tags.join(", "), accuracy);
    }
    let avg = total / cs.researchers.len() as f64;
    println!();
    println!("average accuracy: {avg:.2}  (paper's annotator average: 0.78)");
}

/// Ablation — Example 7's edge-cut selection heuristic (§6.2).
///
/// INDEXEST+ chooses, per RR-Graph, between the query user's out-cut and
/// the target's in-cut by comparing prune probabilities. This ablation pins
/// down what that choice buys: candidate counts and filter time under
/// (a) always user-out, (b) always target-in, (c) best-of-two.
fn cut_policy(env: &BenchEnv) {
    banner(
        "Ablation: edge-cut selection policy (Example 7)",
        "candidates surviving the filter (lower is better) and filter time",
    );
    let data = prepare(DatasetProfile::lastfm_like().scaled(env.scale.min(1.0)));
    let model = &data.model;
    let index = RrIndex::build(model, env.index_budget(), SEED);
    let mut rng = StdRng::seed_from_u64(SEED);
    let users = data.groups.sample(UserGroup::Mid, env.queries.max(3), &mut rng);
    // Representative *feasible* tag sets: grow pairs/triples that keep a
    // non-empty posterior (most random triples are infeasible at density
    // 0.16, which is the pruning story, not the filtering story).
    let mut tag_sets: Vec<TagSet> = Vec::new();
    let mut seedling = 0u32;
    while tag_sets.len() < 10 && seedling < model.num_tags() as u32 {
        let mut set = TagSet::from([seedling]);
        for candidate in 0..model.num_tags() as u32 {
            if set.len() >= 3 {
                break;
            }
            let trial = set.with(candidate);
            if trial.len() > set.len() && !model.posterior(&trial).is_empty() {
                set = trial;
            }
        }
        if !model.posterior(&set).is_empty() {
            tag_sets.push(set);
        }
        seedling += 5;
    }

    println!();
    println!(
        "{:<10} {:>14} {:>14} {:>14} {:>12}",
        "policy", "avg members", "avg candidates", "survive %", "filter(ms)"
    );
    for policy in [CutPolicy::UserOut, CutPolicy::TargetIn, CutPolicy::Best] {
        let mut members_total = 0u64;
        let mut candidates_total = 0u64;
        let mut cache = model.new_prob_cache();
        let mut marks = EpochVisited::new(0);
        let mut out = Vec::new();
        let timer = Timer::start();
        for &user in &users {
            let member: Vec<_> =
                index.graphs_containing(user).iter().map(|&g| index.graph(g as usize)).collect();
            let filter = CutFilter::build_with_policy(
                user,
                member.iter().copied(),
                model.edge_topics(),
                policy,
            );
            for tags in &tag_sets {
                let posterior = model.posterior(tags);
                let mut probs =
                    PosteriorEdgeProbs::new(model.edge_topics(), &posterior, &mut cache);
                filter.candidates(&mut probs, &mut marks, &mut out);
                members_total += member.len() as u64;
                candidates_total += out.len() as u64;
            }
        }
        let secs = timer.seconds();
        let cells = (users.len() * tag_sets.len()) as f64;
        println!(
            "{:<10} {:>14.1} {:>14.1} {:>13.1}% {:>12.3}",
            format!("{policy:?}"),
            members_total as f64 / cells,
            candidates_total as f64 / cells,
            100.0 * candidates_total as f64 / members_total.max(1) as f64,
            secs * 1e3 / cells
        );
    }
    println!();
    println!("expected shape: Example 7 expects Best ≤ min(UserOut, TargetIn) in surviving");
    println!("candidates under p(e|W) ~ U[0, p(e)]; an expectation, not a per-run guarantee.");
}

/// Leaves of the Fig. 3(a) star in the lazy-sparsity ablation.
pub const STAR_LEAVES: usize = 500;

/// The edge probabilities the lazy-sparsity ablation sweeps.
pub const STAR_PROBS: [f64; 5] = [0.5, 0.1, 0.02, 0.004, 1.0 / STAR_LEAVES as f64];

/// Ablation — where lazy propagation wins (§5.1's sparsity argument).
///
/// The lazy sampler's advantage over MC is proportional to how rarely edges
/// fire: on sparse influence graphs (low p(e|W)) MC wastes probes on edges
/// that never activate. Sweeps [`STAR_PROBS`] on the Fig. 3(a) star and
/// returns edge probes per sample instance for MC, RR and LAZY, one row
/// per probability.
pub fn lazy_sparsity() -> Vec<[f64; 3]> {
    let g = gen::star_low_impact(STAR_LEAVES);
    let params =
        SamplingParams::enumeration(0.7, 1000.0, 10, 2).with_seed(SEED).with_fixed_budget(2_000);
    let per_instance = |p: f64, kind: BackendKind| {
        let mut est = kind.make_for_nodes(g.num_nodes());
        let mut probs = FixedEdgeProbs::uniform(g.num_edges(), p);
        let e = est.estimate(&g, 0, &mut probs, &params);
        e.edges_visited as f64 / e.samples_used.max(1) as f64
    };
    (STAR_PROBS.iter())
        .map(|&p| [BackendKind::Mc, BackendKind::Rr, BackendKind::Lazy].map(|k| per_instance(p, k)))
        .collect()
}

fn print_lazy_sparsity() {
    banner(
        "Ablation: edge probes per instance vs edge probability (Fig. 3a star)",
        &format!("n = {STAR_LEAVES} leaves; 2000 instances per cell"),
    );
    println!();
    println!("{:<10} {:>12} {:>12} {:>12}", "p(e)", "MC", "RR", "LAZY");
    for (p, [mc, rr, lazy]) in STAR_PROBS.iter().zip(lazy_sparsity()) {
        println!("{:<10.4} {:>12.2} {:>12.2} {:>12.2}", p, mc, rr, lazy);
    }
    println!();
    println!("expected shape: MC stays at ~n probes/instance; LAZY falls towards n·p;");
    println!("RR is trivially cheap on this star (leaves have one in-edge) — its own pathology is the Fig. 3b celebrity graph, unit-tested in pitex-sampling::rr.");
}

/// One stopping mode's averages per estimation.
pub struct StoppingRow {
    pub mode: &'static str,
    pub time_ms: OnlineStats,
    pub samples: OnlineStats,
    pub spread: OnlineStats,
    pub edges: OnlineStats,
}

/// Ablation — the martingale stopping rule (§5.1, line 17 of Algo. 2).
///
/// Compares one LAZY spread *estimation* under (a) the adaptive
/// accumulated-spread stopping rule and (b) the fixed worst-case sample
/// count `⌈Λ·|R_W(u)|⌉` (the Eq. 2 size at `E[I] = 1`), on each mid-group
/// query's winning tag set (k = 3). Early stopping should cut samples by
/// roughly the factor `E[I(u|W)]` at equal answer quality — the rule stops
/// once the accumulated spread certifies the estimate.
pub fn stopping_rule(env: &BenchEnv, profile: DatasetProfile) -> [StoppingRow; 2] {
    let data = prepare(profile);
    let mut rng = StdRng::seed_from_u64(SEED);
    let users = data.groups.sample(UserGroup::Mid, env.queries.max(3), &mut rng);

    // Winning tag sets, one per user (found once, outside the timing).
    let mut engine = PitexEngine::with_lazy(&data.model, default_config(SEED));
    let targets: Vec<(u32, TagSet)> = users.iter().map(|&u| (u, engine.query(u, 3).tags)).collect();
    let base_params = engine.sampling_params(3);

    [("adaptive", true), ("fixed", false)].map(|(mode, adaptive)| {
        let mut sampler = LazySampler::new(data.model.graph().num_nodes());
        let mut cache = data.model.new_prob_cache();
        let mut row = StoppingRow {
            mode,
            time_ms: OnlineStats::new(),
            samples: OnlineStats::new(),
            spread: OnlineStats::new(),
            edges: OnlineStats::new(),
        };
        for (user, tags) in &targets {
            let posterior = data.model.posterior(tags);
            let mut probs =
                PosteriorEdgeProbs::new(data.model.edge_topics(), &posterior, &mut cache);
            // Worst-case budget: reachable-set size is what Eq. 2 needs; a
            // cheap pre-pass supplies it for the fixed mode.
            let params = if adaptive {
                base_params
            } else {
                let reach = pitex_graph::bfs_reachable(data.model.graph(), *user, |e| {
                    pitex_model::EdgeProbs::positive(&mut probs, e)
                });
                base_params.with_fixed_budget(base_params.max_iterations(reach.len()))
            };
            let mut probs =
                PosteriorEdgeProbs::new(data.model.edge_topics(), &posterior, &mut cache);
            let timer = Timer::start();
            let est = sampler.estimate(data.model.graph(), *user, &mut probs, &params);
            row.time_ms.push(timer.seconds() * 1e3);
            row.samples.push(est.samples_used as f64);
            row.spread.push(est.spread);
            row.edges.push(est.edges_visited as f64);
        }
        row
    })
}

fn print_stopping_rule(env: &BenchEnv) {
    banner(
        "Ablation: adaptive stopping vs fixed worst-case sampling (LAZY)",
        "per-estimation comparison on each query's winning tag set; k = 3",
    );
    let profile = DatasetProfile::lastfm_like().scaled((0.5 * env.scale).min(1.0));
    println!();
    println!(
        "{:<12} {:>12} {:>16} {:>12} {:>14}",
        "mode", "time(ms)", "samples/estim.", "spread", "edges/estim."
    );
    for r in stopping_rule(env, profile) {
        println!(
            "{:<12} {:>12.3} {:>16.0} {:>12.3} {:>14.0}",
            r.mode,
            r.time_ms.mean(),
            r.samples.mean(),
            r.spread.mean(),
            r.edges.mean()
        );
    }
    println!();
    println!("expected shape: identical spreads; adaptive divides samples by");
    println!("≈ E[I(u|W)] (the stopping rule certifies early on influential users).");
}
