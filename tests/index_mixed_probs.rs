//! The index estimators under adversarial edge probabilities: INDEXEST,
//! INDEXEST+ and DELAYMAT against `RrGraphRef::reaches_target` over the
//! member (or recovered) graphs, with §6.2's filter written out from its
//! definition rather than through `CutFilter`. Every probability is exactly
//! 0, exactly 1, subnormal, an `f32`-rounded uniform value, `1 − 2⁻²⁴`, or a
//! mark `c(e)` of the edge itself — a `p ≥ c` tie. The estimators must
//! return the reference's spread bit for bit and its probe count, whether
//! `fill` lists only the slots it wrote or every slot, in any order.

use pitex::index::rrgraph::ReachScratch;
use pitex::index::{DelayMatEstimator, IndexEstimator, IndexPlusEstimator, RrGraph, RrGraphRef};
use pitex::model::genmodel::mixed_prob;
use pitex::model::{EdgeColumns, FixedEdgeProbs};
use pitex::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fixed probabilities whose `fill` lists every slot, zeros included, in
/// descending order: a legal superset of the slots it wrote, so the
/// estimators see "touched but zero" slots and a scan order unlike the
/// default's.
struct ListsEverySlot<'a>(&'a mut FixedEdgeProbs);

impl EdgeProbs for ListsEverySlot<'_> {
    fn prob(&mut self, e: EdgeId) -> f64 {
        self.0.prob(e)
    }

    fn fill(&mut self, cols: &EdgeColumns, out: &mut [f32], touched: &mut Vec<u32>) {
        for (slot, &e) in cols.edges().iter().enumerate().rev() {
            out[slot] = self.0.prob(e) as f32;
            touched.push(slot as u32);
        }
    }
}

/// Example 7's prune probability `Π_e min(1, c(e)/p(e))` of one cut.
fn prune_prob(et: &EdgeTopics, cut: &[(EdgeId, f32)]) -> f64 {
    cut.iter()
        .map(|&(e, c)| {
            let p = et.p_max(e) as f64;
            if p > 0.0 {
                (c as f64 / p).min(1.0)
            } else {
                1.0
            }
        })
        .product()
}

/// §6.2 from its definition: the positions whose target is the user, plus
/// those whose chosen cut (Example 7's rule) holds an edge with
/// `0 < p(e|W)` and `c(e) ≤ p(e|W)`, compared as `f32`.
fn candidates(
    user: NodeId,
    graphs: &[RrGraphRef],
    et: &EdgeTopics,
    probs: &FixedEdgeProbs,
) -> Vec<u32> {
    let mut out = Vec::new();
    for (pos, rr) in graphs.iter().enumerate() {
        if rr.target() == user {
            out.push(pos as u32);
            continue;
        }
        let Some(user_local) = rr.local_id(user) else { continue };
        let cut1: Vec<_> = rr.out_edges_local(user_local).map(|e| (e.edge_id, e.c)).collect();
        let mut reach = vec![user_local];
        let mut head = 0;
        while head < reach.len() {
            for e in rr.out_edges_local(reach[head]) {
                if !reach.contains(&e.dst_local) {
                    reach.push(e.dst_local);
                }
            }
            head += 1;
        }
        let cut2: Vec<_> = reach
            .iter()
            .flat_map(|&v| rr.out_edges_local(v))
            .filter(|e| e.dst_local == 0)
            .map(|e| (e.edge_id, e.c))
            .collect();
        let cut = if cut2.is_empty() || prune_prob(et, &cut1) >= prune_prob(et, &cut2) {
            cut1
        } else {
            cut2
        };
        let live = |&(e, c): &(EdgeId, f32)| {
            let p = probs.as_slice()[e as usize] as f32;
            p > 0.0 && c <= p
        };
        if cut.iter().any(live) {
            out.push(pos as u32);
        }
    }
    out
}

/// Hit positions and edge probes of `reaches_target` over `positions`.
fn traverse(
    user: NodeId,
    graphs: &[RrGraphRef],
    positions: impl Iterator<Item = u32>,
    probs: &mut FixedEdgeProbs,
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

/// One mixed draw per edge; a quarter of the edges that carry a mark in
/// `graphs` get one of their marks instead (every mark is an `f32`, so the
/// tie survives the estimators' `f32` view of `p`).
fn mixed_probs(num_edges: usize, graphs: &[RrGraphRef], rng: &mut StdRng) -> FixedEdgeProbs {
    let mut probs: Vec<f64> = (0..num_edges).map(|_| mixed_prob(rng)).collect();
    for rr in graphs {
        for (_, e) in rr.edges() {
            if rng.gen_range(0..4u32) == 0 {
                probs[e.edge_id as usize] = e.c as f64;
            }
        }
    }
    FixedEdgeProbs::new(probs)
}

/// The heaviest user by membership plus random members of some graph.
fn users(index: &RrIndex, rng: &mut StdRng) -> Vec<NodeId> {
    let n = index.num_nodes() as u32;
    let mut users = vec![(0..n).max_by_key(|&u| index.membership_count(u)).unwrap()];
    while users.len() < 6 {
        let u = rng.gen_range(0..n);
        if index.membership_count(u) > 0 {
            users.push(u);
        }
    }
    users
}

fn check_dataset(profile: DatasetProfile, seed: u64) {
    let model = profile.generate();
    let (graph, et) = (model.graph(), model.edge_topics());
    let budget = IndexBudget::PerVertex(4.0);
    let index = RrIndex::build_with_threads(&model, budget, seed, 2);
    let delay_index = DelayMatIndex::build_with_threads(&model, budget, seed, 2);
    let params = SamplingParams::best_effort(0.7, 1000.0, model.num_tags(), 3);
    let (n, theta) = (index.num_nodes() as f64, index.theta() as f64);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut plain = IndexEstimator::new(&index);
    let mut plus = IndexPlusEstimator::new(&index, et);
    let mut delay = DelayMatEstimator::new(&delay_index, et, seed);
    let (mut ties, mut pruned) = (0usize, 0u64);

    for user in users(&index, &mut rng) {
        let members: Vec<RrGraphRef> =
            index.graphs_containing(user).iter().map(|&g| index.graph(g as usize)).collect();
        let recovered = delay.recovered_for(graph, user).to_vec();
        let recovered: Vec<RrGraphRef> = recovered.iter().map(RrGraph::as_ref).collect();
        let weights = delay.recovered_weights().to_vec();
        let total_weight: f64 = weights.iter().map(|&w| w as f64).sum();
        let marked: Vec<RrGraphRef> = members.iter().chain(&recovered).copied().collect();

        for _ in 0..6 {
            let mut probs = mixed_probs(graph.num_edges(), &marked, &mut rng);
            ties += marked
                .iter()
                .flat_map(|rr| rr.edges())
                .filter(|(_, e)| probs.as_slice()[e.edge_id as usize] == e.c as f64)
                .count();

            let (hits, probes) = traverse(user, &members, 0..members.len() as u32, &mut probs);
            let spread = hits.len() as f64 / theta * n;
            let kept = candidates(user, &members, et, &probs);
            let (kept_hits, kept_probes) = traverse(user, &members, kept.into_iter(), &mut probs);
            assert_eq!(kept_hits, hits, "the filter dropped a hit of user {user}");
            pruned += probes - kept_probes;

            let (delay_hits, delay_probes) = {
                let kept = candidates(user, &recovered, et, &probs);
                traverse(user, &recovered, kept.into_iter(), &mut probs)
            };
            let hit_weight: f64 = delay_hits.iter().map(|&pos| weights[pos as usize] as f64).sum();
            let delay_spread = if total_weight > 0.0 {
                n * (recovered.len() as f64 / delay_index.theta() as f64)
                    * (hit_weight / total_weight)
            } else {
                0.0
            };

            for listing in ["the written slots", "every slot"] {
                let mut estimate = |estimator: &mut dyn SpreadEstimator| {
                    if listing == "every slot" {
                        estimator.estimate(graph, user, &mut ListsEverySlot(&mut probs), &params)
                    } else {
                        estimator.estimate(graph, user, &mut probs, &params)
                    }
                };
                let what = |name: &str| format!("{name} user {user}, fill listing {listing}");
                let est = estimate(&mut plain);
                assert_eq!(est.spread.to_bits(), spread.to_bits(), "{}", what("INDEXEST"));
                assert_eq!(est.edges_visited, probes, "{}", what("INDEXEST"));
                let est = estimate(&mut plus);
                assert_eq!(est.spread.to_bits(), spread.to_bits(), "{}", what("INDEXEST+"));
                assert_eq!(est.edges_visited, kept_probes, "{}", what("INDEXEST+"));
                let est = estimate(&mut delay);
                assert_eq!(est.spread.to_bits(), delay_spread.to_bits(), "{}", what("DELAYMAT"));
                assert_eq!(est.edges_visited, delay_probes, "{}", what("DELAYMAT"));
            }
        }
    }
    assert!(ties > 0, "no p = c tie was drawn: the test lost its teeth");
    assert!(pruned > 0, "the filter pruned nothing anywhere");
}

#[test]
fn index_estimators_equal_the_definition_under_mixed_probabilities_lastfm_like() {
    check_dataset(DatasetProfile::lastfm_like(), 21);
}

#[test]
fn index_estimators_equal_the_definition_under_mixed_probabilities_twitter_like() {
    check_dataset(DatasetProfile::twitter_like().scaled(0.001), 22);
}
