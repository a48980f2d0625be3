//! The compiled per-user view against the uncompiled definition, on
//! generated datasets: INDEXEST, INDEXEST+ and DELAYMAT must return what
//! `RrGraphRef::reaches_target` over the member graphs returns — the same
//! spread bit for bit and the same number of edge probes — for full tag
//! sets (posterior view) and partial ones (Lemma 8 bound view) alike.

use pitex::index::prune::CutFilter;
use pitex::index::rrgraph::ReachScratch;
use pitex::index::{DelayMatEstimator, IndexEstimator, IndexPlusEstimator, RrGraph, RrGraphRef};
use pitex::model::bound::{BoundOracle, BoundedPosterior, UpperBoundEdgeProbs};
use pitex::model::{EdgeProbCache, PosteriorEdgeProbs, TopicPosterior};
use pitex::prelude::*;
use pitex::support::EpochVisited;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

const K: usize = 3;

/// The per-topic weights of one tag set: a concrete one or a partial one.
enum Weights {
    Full(TopicPosterior),
    Partial(BoundedPosterior),
}

impl Weights {
    /// Runs `f` on a fresh edge-probability view of the weights.
    fn with<R>(
        &self,
        model: &TicModel,
        cache: &mut EdgeProbCache,
        f: impl FnOnce(&mut dyn EdgeProbs) -> R,
    ) -> R {
        match self {
            Weights::Full(p) => f(&mut PosteriorEdgeProbs::new(model.edge_topics(), p, cache)),
            Weights::Partial(b) => f(&mut UpperBoundEdgeProbs::new(model.edge_topics(), b, cache)),
        }
    }
}

/// Feasible size-`K` sets and partial sets of every smaller size.
fn tag_set_cases(model: &TicModel, rng: &mut StdRng) -> Vec<Weights> {
    let oracle = BoundOracle::new(model.tag_topic());
    let tags: Vec<TagId> = model.tags().collect();
    let mut cases = Vec::new();
    let mut full = 0;
    for _ in 0..2_000 {
        let posterior =
            model.posterior(&TagSet::new(tags.choose_multiple(rng, K).copied().collect()));
        if !posterior.is_empty() {
            cases.push(Weights::Full(posterior));
            full += 1;
            if full == 4 {
                break;
            }
        }
    }
    assert!(full > 0, "no feasible {K}-set found");
    for size in 0..K {
        for _ in 0..2 {
            let partial = TagSet::new(tags.choose_multiple(rng, size).copied().collect());
            cases.push(Weights::Partial(oracle.bounded_posterior(&partial, K)));
        }
    }
    cases
}

/// The heaviest user by membership plus random members of some graph.
fn users(index: &RrIndex, rng: &mut StdRng) -> Vec<NodeId> {
    let n = index.num_nodes() as u32;
    let heaviest = (0..n).max_by_key(|&u| index.membership_count(u)).unwrap();
    let mut users = vec![heaviest];
    while users.len() < 8 {
        let u = rng.gen_range(0..n);
        if index.membership_count(u) > 0 {
            users.push(u);
        }
    }
    users
}

/// Hit positions and edge probes of `reaches_target` over `positions`.
fn traverse(
    user: NodeId,
    graphs: &[RrGraphRef],
    positions: impl Iterator<Item = u32>,
    probs: &mut dyn EdgeProbs,
) -> (Vec<u32>, u64) {
    let mut scratch = ReachScratch::new();
    let mut edges_visited = 0u64;
    let mut hits = Vec::new();
    for pos in positions {
        if graphs[pos as usize].reaches_target(user, probs, &mut scratch, &mut edges_visited) {
            hits.push(pos);
        }
    }
    (hits, edges_visited)
}

/// Filter-and-verify through the public pieces: the filter's candidates,
/// each traversed by `reaches_target`.
fn filtered_traverse(
    user: NodeId,
    graphs: &[RrGraphRef],
    model: &TicModel,
    probs: &mut dyn EdgeProbs,
) -> (Vec<u32>, u64) {
    let filter = CutFilter::build(user, graphs.iter().copied(), model.edge_topics());
    let mut candidates = Vec::new();
    filter.candidates(probs, &mut EpochVisited::new(0), &mut candidates);
    candidates.sort_unstable();
    traverse(user, graphs, candidates.into_iter(), probs)
}

fn params(model: &TicModel) -> SamplingParams {
    SamplingParams::best_effort(0.7, 1000.0, model.num_tags(), K)
}

fn check_dataset(profile: DatasetProfile, seed: u64) {
    let model = profile.generate();
    let budget = IndexBudget::PerVertex(4.0);
    let index = RrIndex::build_with_threads(&model, budget, seed, 2);
    let delay_index = DelayMatIndex::build_with_threads(&model, budget, seed, 2);
    let mut rng = StdRng::seed_from_u64(seed);
    let cases = tag_set_cases(&model, &mut rng);
    let mut cache = model.new_prob_cache();
    let params = params(&model);
    let (graph, n, theta) = (model.graph(), index.num_nodes() as f64, index.theta() as f64);

    // One estimator of each kind for the whole run: every user switch
    // recompiles its view into the buffers of the last.
    let mut plain = IndexEstimator::new(&index);
    let mut plus = IndexPlusEstimator::new(&index, model.edge_topics());
    let mut delay = DelayMatEstimator::new(&delay_index, model.edge_topics(), seed);
    let mut probes_saved = 0u64;

    for user in users(&index, &mut rng) {
        let members: Vec<RrGraphRef> =
            index.graphs_containing(user).iter().map(|&g| index.graph(g as usize)).collect();
        let recovered = delay.recovered_for(graph, user).to_vec();
        let recovered: Vec<RrGraphRef> = recovered.iter().map(RrGraph::as_ref).collect();
        let weights = delay.recovered_weights().to_vec();
        let total_weight: f64 = weights.iter().map(|&w| w as f64).sum();

        for case in &cases {
            // INDEXEST: every member graph is traversed.
            let all = 0..members.len() as u32;
            let (hits, probes) =
                case.with(&model, &mut cache, |p| traverse(user, &members, all, p));
            let spread = hits.len() as f64 / theta * n;
            let est = case.with(&model, &mut cache, |p| plain.estimate(graph, user, p, &params));
            assert_eq!(est.spread.to_bits(), spread.to_bits(), "INDEXEST user {user}");
            assert_eq!(est.edges_visited, probes, "INDEXEST user {user}");
            assert_eq!(est.samples_used, members.len() as u64);

            // INDEXEST+: only the filter's candidates are.
            let (kept_hits, kept_probes) =
                case.with(&model, &mut cache, |p| filtered_traverse(user, &members, &model, p));
            assert_eq!(kept_hits, hits, "filtering changed the hits of user {user}");
            let est = case.with(&model, &mut cache, |p| plus.estimate(graph, user, p, &params));
            assert_eq!(est.spread.to_bits(), spread.to_bits(), "INDEXEST+ user {user}");
            assert_eq!(est.edges_visited, kept_probes, "INDEXEST+ user {user}");
            probes_saved += probes - kept_probes;

            // DELAYMAT: the same over the recovered graphs, hits weighted.
            let (hits, probes) =
                case.with(&model, &mut cache, |p| filtered_traverse(user, &recovered, &model, p));
            let hit_weight: f64 = hits.iter().map(|&pos| weights[pos as usize] as f64).sum();
            let spread = if total_weight > 0.0 {
                n * (recovered.len() as f64 / delay_index.theta() as f64)
                    * (hit_weight / total_weight)
            } else {
                0.0
            };
            let est = case.with(&model, &mut cache, |p| delay.estimate(graph, user, p, &params));
            assert_eq!(est.spread.to_bits(), spread.to_bits(), "DELAYMAT user {user}");
            assert_eq!(est.edges_visited, probes, "DELAYMAT user {user}");
        }
    }
    assert!(probes_saved > 0, "the filter pruned nothing anywhere");
    let (verified, pruned) = plus.prune_counts();
    assert!(verified > 0 && pruned > 0, "verified {verified}, pruned {pruned}");
}

#[test]
fn estimators_equal_the_definition_on_lastfm_like() {
    check_dataset(DatasetProfile::lastfm_like(), 11);
}

#[test]
fn estimators_equal_the_definition_on_twitter_like() {
    check_dataset(DatasetProfile::twitter_like().scaled(0.001), 12);
}

#[test]
fn switching_users_back_and_forth_equals_fresh_estimators() {
    let model = DatasetProfile::lastfm_like().scaled(0.3).generate();
    let budget = IndexBudget::PerVertex(4.0);
    let index = RrIndex::build_with_threads(&model, budget, 5, 2);
    let delay_index = DelayMatIndex::build_with_threads(&model, budget, 5, 2);
    let mut rng = StdRng::seed_from_u64(5);
    let cases = tag_set_cases(&model, &mut rng);
    let users = users(&index, &mut rng);
    let (a, b) = (users[0], users[1]);
    let mut cache = model.new_prob_cache();
    let params = params(&model);
    let et = model.edge_topics();

    type Make<'a> = Box<dyn Fn() -> Box<dyn SpreadEstimator + 'a> + 'a>;
    let kinds: [Make; 3] = [
        Box::new(|| Box::new(IndexEstimator::new(&index))),
        Box::new(|| Box::new(IndexPlusEstimator::new(&index, et))),
        Box::new(|| Box::new(DelayMatEstimator::new(&delay_index, et, 9))),
    ];
    for make in &kinds {
        let mut reused = make();
        for user in [a, b, a] {
            let mut fresh = make();
            for case in &cases {
                let kept = case
                    .with(&model, &mut cache, |p| reused.estimate(model.graph(), user, p, &params));
                let new = case
                    .with(&model, &mut cache, |p| fresh.estimate(model.graph(), user, p, &params));
                assert_eq!(kept.spread.to_bits(), new.spread.to_bits(), "{}", reused.name());
                assert_eq!(kept, new, "{} user {user}", reused.name());
            }
        }
    }
}

#[test]
fn a_view_is_no_larger_than_the_graphs_it_compiles() {
    // The view holds only what the user can reach in each graph, but adds
    // the inverted lists and the local edge table: on a user with a
    // handful of one-edge graphs that overhead can exceed the (tiny)
    // graphs, so the bound is asserted from a handful of graphs up.
    const MIN_GRAPHS: usize = 8;
    let mut checked = 0;
    for profile in [DatasetProfile::lastfm_like(), DatasetProfile::twitter_like().scaled(0.001)] {
        let model = profile.generate();
        let index = RrIndex::build_with_threads(&model, IndexBudget::PerVertex(4.0), 3, 2);
        for user in 0..index.num_nodes() as u32 {
            let members: Vec<RrGraphRef> =
                index.graphs_containing(user).iter().map(|&g| index.graph(g as usize)).collect();
            if members.len() < MIN_GRAPHS {
                continue;
            }
            let filter = CutFilter::build(user, members.iter().copied(), model.edge_topics());
            let graphs: u64 = members.iter().map(|g| g.heap_bytes()).sum();
            assert!(
                filter.heap_bytes() <= graphs,
                "user {user} ({} graphs): view {} B > graphs {graphs} B",
                members.len(),
                filter.heap_bytes()
            );
            checked += 1;
        }
    }
    assert!(checked > 100, "only {checked} users had {MIN_GRAPHS} graphs");
}
