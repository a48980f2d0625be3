//! Ablation — Example 7's edge-cut selection heuristic (§6.2).
//!
//! INDEXEST+ chooses, per RR-Graph, between the query user's out-cut and
//! the target's in-cut by comparing prune probabilities. This ablation pins
//! down what that choice buys: candidate counts and filter time under
//! (a) always user-out, (b) always target-in, (c) best-of-two.

use pitex_bench::{banner, prepare, BenchEnv};
use pitex_datasets::{DatasetProfile, UserGroup};
use pitex_index::prune::{CutFilter, CutPolicy};
use pitex_index::RrIndex;
use pitex_model::{PosteriorEdgeProbs, TagSet};
use pitex_support::{EpochVisited, Timer};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let env = BenchEnv::from_env();
    banner(
        "Ablation: edge-cut selection policy (Example 7)",
        "candidates surviving the filter (lower is better) and filter time",
    );

    let data = prepare(DatasetProfile::lastfm_like().scaled(env.scale.min(1.0)));
    let model = &data.model;
    let index = RrIndex::build(model, env.index_budget(), env.seed);
    let mut rng = StdRng::seed_from_u64(env.seed);
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
    println!("expected shape: Best ≤ min(UserOut, TargetIn) in surviving candidates.");
}
