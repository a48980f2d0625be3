//! The reference LAZY: Algo. 2 as first written, one `BinaryHeap` of
//! `(fire_at, edge)` per vertex, kept verbatim (minus an unread diagnostic
//! counter) for the tests below, which hold [`LazySampler`]'s compiled view
//! and timer table to it bit for bit.

use crate::bounds::{SampleBudget, SamplingParams};
use crate::estimator::{reachable_positive, Estimate, SpreadEstimator};
use crate::geometric::geometric;
use pitex_graph::traverse::BfsScratch;
use pitex_graph::{DiGraph, NodeId};
use pitex_model::EdgeProbs;
use pitex_support::EpochVisited;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

type FireHeap = BinaryHeap<Reverse<(u64, u32)>>;

/// Algo. 2 with one `(fire_at, edge)` min-heap per vertex.
#[derive(Debug)]
pub(crate) struct HeapLazySampler {
    /// Which call epoch each vertex's lazy state belongs to.
    init_stamp: Vec<u32>,
    call_epoch: u32,
    /// `c_v`: total activations of `v` in the current call.
    counters: Vec<u64>,
    /// Per-vertex fire heaps, pooled across calls (capacity is retained).
    heaps: Vec<FireHeap>,
    visited: EpochVisited,
    frontier: Vec<NodeId>,
    reach_scratch: BfsScratch,
    reach_buf: Vec<NodeId>,
}

impl HeapLazySampler {
    pub(crate) fn new(num_nodes: usize) -> Self {
        Self {
            init_stamp: vec![0; num_nodes],
            call_epoch: 0,
            counters: vec![0; num_nodes],
            heaps: (0..num_nodes).map(|_| FireHeap::new()).collect(),
            visited: EpochVisited::new(num_nodes),
            frontier: Vec::new(),
            reach_scratch: BfsScratch::new(num_nodes),
            reach_buf: Vec::new(),
        }
    }

    fn grow(&mut self, num_nodes: usize) {
        if num_nodes > self.heaps.len() {
            self.init_stamp.resize(num_nodes, 0);
            self.counters.resize(num_nodes, 0);
            self.heaps.resize_with(num_nodes, FireHeap::new);
            self.visited.grow(num_nodes);
        }
    }
}

impl SpreadEstimator for HeapLazySampler {
    fn estimate(
        &mut self,
        graph: &DiGraph,
        user: NodeId,
        probs: &mut dyn EdgeProbs,
        params: &SamplingParams,
    ) -> Estimate {
        reachable_positive(graph, user, probs, &mut self.reach_scratch, &mut self.reach_buf);
        let reachable = self.reach_buf.len();
        if reachable <= 1 {
            return Estimate::isolated();
        }
        self.grow(graph.num_nodes());
        // New call: lazily invalidate all per-vertex state.
        if self.call_epoch == u32::MAX {
            self.init_stamp.fill(0);
            self.call_epoch = 0;
        }
        self.call_epoch += 1;

        let mut rng =
            StdRng::seed_from_u64(params.seed ^ (user as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93));
        let threshold = params.stop_threshold(reachable);
        let max_iters = params.max_iterations(reachable);

        let mut accumulated = 0u64;
        let mut edges_visited = 0u64;
        let mut iterations = 0u64;

        while iterations < max_iters {
            // One sample instance.
            self.visited.reset();
            self.frontier.clear();
            self.visited.insert(user);
            self.frontier.push(user);
            let mut activated = 1u64;

            while let Some(v) = self.frontier.pop() {
                let vi = v as usize;
                // First activation in this call: reset and arm timers.
                if self.init_stamp[vi] != self.call_epoch {
                    self.init_stamp[vi] = self.call_epoch;
                    self.counters[vi] = 0;
                    self.heaps[vi].clear();
                    for (e, _) in graph.out_edges(v) {
                        let p = probs.prob(e);
                        if p > 0.0 {
                            let x = geometric(p, &mut rng);
                            if x != crate::geometric::NEVER {
                                self.heaps[vi].push(Reverse((x, e)));
                            }
                        }
                    }
                }
                self.counters[vi] += 1;
                let c = self.counters[vi];
                // Fire every timer that has come due at activation `c`.
                while let Some(&Reverse((fire_at, e))) = self.heaps[vi].peek() {
                    if fire_at > c {
                        break;
                    }
                    self.heaps[vi].pop();
                    edges_visited += 1;
                    // Re-arm: next fire X' activations from now (Lemma 6's
                    // memorylessness keeps instances i.i.d.).
                    let p = probs.prob(e);
                    let x = geometric(p, &mut rng);
                    self.heaps[vi].push(Reverse((c.saturating_add(x), e)));
                    let t = graph.edge_target(e);
                    if self.visited.insert(t) {
                        self.frontier.push(t);
                        activated += 1;
                    }
                }
            }

            accumulated += activated;
            iterations += 1;
            if matches!(params.budget, SampleBudget::Adaptive) && accumulated as f64 >= threshold {
                break;
            }
        }

        Estimate {
            spread: accumulated as f64 / iterations as f64,
            samples_used: iterations,
            edges_visited,
            reachable,
        }
    }

    fn name(&self) -> &'static str {
        "LAZY"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lazy::LazySampler;
    use pitex_graph::gen;
    use pitex_model::FixedEdgeProbs;
    use proptest::prelude::*;
    use rand::Rng;

    /// Runs both samplers and asserts every `Estimate` field equal, the
    /// spread by bit pattern.
    fn agree(
        new: &mut LazySampler,
        old: &mut HeapLazySampler,
        graph: &DiGraph,
        user: NodeId,
        probs: &mut FixedEdgeProbs,
        params: &SamplingParams,
    ) -> Estimate {
        let a = new.estimate(graph, user, probs, params);
        let b = old.estimate(graph, user, probs, params);
        assert_eq!(a.spread.to_bits(), b.spread.to_bits(), "spread {} vs {}", a.spread, b.spread);
        assert_eq!(a.samples_used, b.samples_used, "samples_used");
        assert_eq!(a.edges_visited, b.edges_visited, "edges_visited");
        assert_eq!(a.reachable, b.reachable, "reachable");
        a
    }

    fn agree_fresh(
        graph: &DiGraph,
        user: NodeId,
        probs: &mut FixedEdgeProbs,
        params: &SamplingParams,
    ) -> Estimate {
        let n = graph.num_nodes();
        agree(&mut LazySampler::new(n), &mut HeapLazySampler::new(n), graph, user, probs, params)
    }

    fn params(budget: Option<u64>, seed: u64) -> SamplingParams {
        let adaptive = SamplingParams::enumeration(0.7, 1000.0, 10, 2).with_seed(seed);
        budget.map_or(adaptive, |n| adaptive.with_fixed_budget(n))
    }

    /// Dead, certain, below-`f64`-resolution, `f32`-rounded (what the memo
    /// tables hand out), rare and plain probabilities.
    fn mixed_probs(num_edges: usize, rng: &mut StdRng) -> FixedEdgeProbs {
        let draw = |rng: &mut StdRng| match rng.gen_range(0..8u32) {
            0 => 0.0,
            1 => 1.0,
            2 => 1e-17,
            3 => rng.gen_range(0.0..1.0f32) as f64,
            4 => rng.gen_range(0.0..0.02f64),
            _ => rng.gen_range(0.0..1.0f64),
        };
        FixedEdgeProbs::new((0..num_edges).map(|_| draw(rng)).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn equals_the_heap_sampler_on_random_graphs(
            graph_seed in 0u64..u64::MAX,
            n in 2usize..40,
            density in 0.02f64..0.45,
            acyclic in 0u8..2,
            budget in 0u64..1500,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = StdRng::seed_from_u64(graph_seed);
            let graph = if acyclic == 1 {
                gen::random_dag(n, density, &mut rng)
            } else {
                gen::erdos_renyi(n, (density * (n * (n - 1)) as f64) as usize, &mut rng)
            };
            let mut probs = mixed_probs(graph.num_edges(), &mut rng);
            // Budget 0 of the range stands for the adaptive stopping rule.
            let params = params((budget > 0).then_some(budget), seed);
            for user in 0..n.min(6) as NodeId {
                agree_fresh(&graph, user, &mut probs, &params);
            }
        }

    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// One timer block, several, more than one block of blocks, and
        /// ranges that end inside a block on every level — under a
        /// probability mix and under the hub's `p = 1/n`, with the hub as
        /// the root (Fig. 3a) and one hop behind it (a fan of Fig. 3b's
        /// celebrity asks).
        #[test]
        fn equals_the_heap_sampler_on_hubs(
            which in 0usize..4,
            mixed in 0u8..2,
            behind in 0u8..2,
            budget in 0u64..1500,
            seed in 0u64..u64::MAX,
        ) {
            let n = [20, 100, 1500, 5000][which];
            let (graph, user) = if behind == 1 {
                (gen::celebrity(n), n as NodeId + 1)
            } else {
                (gen::star_low_impact(n), 0)
            };
            let mut probs = if mixed == 1 {
                mixed_probs(graph.num_edges(), &mut StdRng::seed_from_u64(seed)).as_slice().to_vec()
            } else {
                vec![1.0 / n as f64; graph.num_edges()]
            };
            if let Some(to_hub) = graph.find_edge(user, 0) {
                probs[to_hub as usize] = 0.9;
            }
            let mut probs = FixedEdgeProbs::new(probs);
            agree_fresh(&graph, user, &mut probs, &params((budget > 0).then_some(budget), seed));
        }
    }

    #[test]
    fn budgets_that_end_inside_a_root_skip() {
        // p = 0.02: the root's timers come due every ~17 samples, so most
        // budgets and the adaptive threshold fall inside a skipped stretch.
        let graph = gen::star_low_impact(3);
        let mut probs = FixedEdgeProbs::uniform(3, 0.02);
        for budget in 1..=300 {
            let est = agree_fresh(&graph, 0, &mut probs, &params(Some(budget), 9));
            assert_eq!(est.samples_used, budget);
        }
        for seed in 0..50 {
            let est = agree_fresh(&graph, 0, &mut probs, &params(None, seed));
            let threshold = params(None, seed).stop_threshold(est.reachable);
            let accumulated = (est.spread * est.samples_used as f64).round();
            assert!(accumulated >= threshold && accumulated - 4.0 < threshold, "stopped late");
        }
    }

    #[test]
    fn a_reused_sampler_equals_fresh_ones() {
        let mut rng = StdRng::seed_from_u64(21);
        let a = gen::erdos_renyi(30, 120, &mut rng);
        let b = gen::star_low_impact(70);
        let mut probs_a = mixed_probs(a.num_edges(), &mut rng);
        let mut probs_b = mixed_probs(b.num_edges(), &mut rng);
        let params = params(Some(2_000), 3);
        // Sized for the smaller graph: the call on `b` has to grow it.
        let mut new = LazySampler::new(a.num_nodes());
        let mut old = HeapLazySampler::new(a.num_nodes());
        let first = agree(&mut new, &mut old, &a, 4, &mut probs_a, &params);
        let other = agree(&mut new, &mut old, &b, 0, &mut probs_b, &params);
        let again = agree(&mut new, &mut old, &a, 4, &mut probs_a, &params);
        assert_eq!(first, again);
        assert_eq!(first, agree_fresh(&a, 4, &mut probs_a, &params));
        assert_eq!(other, agree_fresh(&b, 0, &mut probs_b, &params));
        // Another user of the same graph, then back.
        agree(&mut new, &mut old, &a, 11, &mut probs_a, &params);
        assert_eq!(first, agree(&mut new, &mut old, &a, 4, &mut probs_a, &params));
    }
}
