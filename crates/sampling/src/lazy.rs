//! Lazy propagation sampling (§5.1, Algo. 2).
//!
//! MC probes every out-edge of every activated vertex in every instance; on
//! sparse influence graphs almost all of those probes fail. Lazy propagation
//! replaces per-instance Bernoulli probes with per-edge *geometric skip
//! counters*: when a vertex `v` is first activated, each live out-edge draws
//! a geometric gap `X` and fires at `v`'s `X`-th activation (counted across
//! all sample instances); on firing it re-arms `X′` activations later.
//! Lemma 6 shows the fire pattern is statistically identical to Bernoulli
//! probing, and Lemma 7 bounds the per-instance probe count by
//! `O(|R_W(u)|·E[I(u ⇝ v*|W)])` — edges are touched only when they fire.
//!
//! One estimate is **compile → sample**, on arrays sized by `R_W(u)`:
//!
//! * *Compile.* One BFS from `u` over positive edges renumbers `R_W(u)` in
//!   discovery order and lays its positive out-edges out as a local CSR, in
//!   stored edge order: target (local id) and `ln(1−p)` per edge. Each edge
//!   probability is read once per estimate; sampling never sees the graph
//!   or the `EdgeProbs` again.
//! * *Timers.* Algo. 2 keeps a min-heap of `(fire_at, edge)` per vertex.
//!   Here a flat table holds, per local edge, the activation count at which
//!   it fires next, and over each vertex's stretch of it a tree of cached
//!   minima with fan-out 32: one per 32 timers, one per 32 of those,
//!   one per vertex. A timer never lies in the past (it is re-armed the
//!   moment it comes due), so the timers due at activation `c` are exactly
//!   those equal to `c`: an activation with `c < min[v]` costs one compare,
//!   a firing one walks down from the top through the nodes equal to `c`.
//!   Edges fire in ascending edge order, which is the heap's pop order on
//!   its unique `(fire_at, edge)` keys, so the RNG stream and every
//!   [`Estimate`] field equal the heap's bit for bit (the heap version
//!   survives as the test reference, `lazy_reference.rs`).
//! * *Root skip.* While the root's minimum lies beyond the next sample, the
//!   samples up to it activate the root alone and draw nothing; they are
//!   accounted in O(1).

use crate::bounds::{SampleBudget, SamplingParams};
use crate::estimator::{Estimate, SpreadEstimator};
use crate::geometric::{gap, ln_survival, NEVER};
use pitex_graph::{DiGraph, NodeId};
use pitex_model::EdgeProbs;
use pitex_support::EpochVisited;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::Range;

/// Fan-out of the tree of minima over a vertex's timers.
const BLOCK: usize = 32;

/// Levels of that tree below the per-vertex minimum: the timers, the minima
/// of [`BLOCK`] timers, the minima of [`BLOCK`] of those. With the vertex
/// minimum on top, a firing activation of an out-degree-`d` vertex scans
/// `max(d / BLOCK², BLOCK)` nodes at most on its top level and `BLOCK` under
/// each due node on the way down. Two levels (no minima of minima) make a
/// 4096-edge hub scan 128 nodes per firing activation and lose to the heap.
const LEVELS: usize = 3;

/// Per-vertex state of the compiled view, indexed by local id.
#[derive(Clone, Copy, Debug)]
struct Vertex {
    /// `c_v`: activations in the current call; 0 ⇔ timers not armed yet.
    count: u64,
    /// Earliest timer of the vertex (meaningful once armed).
    min: u64,
    /// The vertex's first node on each tree level (level 0: its first local
    /// edge); the next vertex's `first` ends the ranges.
    first: [u32; LEVELS],
}

/// Lazy propagation spread estimator (the paper's LAZY).
#[derive(Debug)]
pub struct LazySampler {
    /// Vertices of the graph seen by the current compile, and their local
    /// ids — the only state sized `|V|`.
    seen: EpochVisited,
    local_id: Vec<u32>,
    /// `R_W(u)` in BFS discovery order (local id → vertex); the BFS queue.
    order: Vec<NodeId>,
    /// One entry per reachable vertex plus a sentinel closing the ranges.
    verts: Vec<Vertex>,
    /// Local CSR, one entry per positive out-edge of a reachable vertex.
    target: Vec<u32>,
    ln_q: Vec<f64>,
    /// `tree[0][i]`: the activation count at which local edge `i` fires
    /// next. `tree[l][j]`, `l > 0`: the minimum of a group of `BLOCK`
    /// consecutive nodes of its vertex on level `l − 1`.
    tree: [Vec<u64>; LEVELS],
    /// Per-sample activation marks, over local ids.
    visited: EpochVisited,
    frontier: Vec<u32>,
    /// Edges fired in the current call.
    fired: u64,
}

impl LazySampler {
    pub fn new(num_nodes: usize) -> Self {
        Self {
            seen: EpochVisited::new(num_nodes),
            local_id: vec![0; num_nodes],
            order: Vec::new(),
            verts: Vec::new(),
            target: Vec::new(),
            ln_q: Vec::new(),
            tree: Default::default(),
            visited: EpochVisited::new(0),
            frontier: Vec::new(),
            fired: 0,
        }
    }

    /// Compiles `R_W(user)` into the local arrays; returns `|R_W(user)|`.
    fn compile(&mut self, graph: &DiGraph, user: NodeId, probs: &mut dyn EdgeProbs) -> usize {
        self.seen.grow(graph.num_nodes());
        if self.local_id.len() < graph.num_nodes() {
            self.local_id.resize(graph.num_nodes(), 0);
        }
        self.seen.reset();
        self.order.clear();
        self.verts.clear();
        self.target.clear();
        self.ln_q.clear();

        self.seen.insert(user);
        self.local_id[user as usize] = 0;
        self.order.push(user);
        // Nodes laid out so far on each level.
        let mut first = [0u32; LEVELS];
        let mut head = 0;
        while let Some(&v) = self.order.get(head) {
            head += 1;
            self.verts.push(Vertex { count: 0, min: NEVER, first });
            for (e, t) in graph.out_edges(v) {
                let p = probs.prob(e);
                if p > 0.0 {
                    if self.seen.insert(t) {
                        self.local_id[t as usize] = self.order.len() as u32;
                        self.order.push(t);
                    }
                    self.target.push(self.local_id[t as usize]);
                    self.ln_q.push(ln_survival(p));
                }
            }
            let mut nodes = self.target.len() - first[0] as usize;
            first[0] = self.target.len() as u32;
            for level_first in &mut first[1..] {
                nodes = nodes.div_ceil(BLOCK);
                *level_first += nodes as u32;
            }
        }
        self.verts.push(Vertex { count: 0, min: NEVER, first });
        // Armed per vertex on its first activation; the fill value is never read.
        for (level, &nodes) in self.tree.iter_mut().zip(&first) {
            level.resize(nodes as usize, NEVER);
        }
        self.visited.grow(self.order.len());
        self.order.len()
    }

    /// One sample instance; returns the number of vertices activated.
    fn sample(&mut self, rng: &mut StdRng) -> u64 {
        self.visited.reset();
        self.visited.insert(0);
        self.frontier.push(0);
        // Every activated vertex is pushed once, so pops count activations.
        let mut activated = 0u64;
        while let Some(v) = self.frontier.pop() {
            activated += 1;
            let v = v as usize;
            // First activation in this call: arm the timers.
            if self.verts[v].count == 0 {
                self.arm(v, rng);
            }
            let vertex = &mut self.verts[v];
            vertex.count += 1;
            if vertex.count == vertex.min {
                self.fire(v, rng);
            }
        }
        activated
    }

    /// The nodes of `v` on tree level `level`.
    fn nodes(&self, v: usize, level: usize) -> Range<usize> {
        self.verts[v].first[level] as usize..self.verts[v + 1].first[level] as usize
    }

    /// The level whose nodes `Vertex::min` is the minimum of: the lowest
    /// one on which `v` has at most [`BLOCK`] nodes. The levels above it
    /// are not maintained for `v`.
    fn top(&self, v: usize) -> usize {
        (0..LEVELS - 1).find(|&level| self.nodes(v, level).len() <= BLOCK).unwrap_or(LEVELS - 1)
    }

    /// Draws the first gap of every out-edge of `v`, in edge order.
    fn arm(&mut self, v: usize, rng: &mut StdRng) {
        let edges = self.nodes(v, 0);
        for (timer, &ln_q) in self.tree[0][edges.clone()].iter_mut().zip(&self.ln_q[edges]) {
            *timer = gap(ln_q, rng);
        }
        let top = self.top(v);
        for level in 1..=top {
            let (groups, nodes) = (self.nodes(v, level - 1), self.nodes(v, level));
            let (below, above) = self.tree.split_at_mut(level);
            let groups = below[level - 1][groups].chunks(BLOCK);
            for (node, group) in above[0][nodes].iter_mut().zip(groups) {
                *node = min_of(group);
            }
        }
        self.verts[v].min = min_of(&self.tree[top][self.nodes(v, top)]);
    }

    /// Fires the timers of `v` that have come due at its current activation
    /// count, in edge order.
    fn fire(&mut self, v: usize, rng: &mut StdRng) {
        let top = self.top(v);
        let (vertex, next) = (self.verts[v], self.verts[v + 1]);
        let mut firing = Firing {
            c: vertex.count,
            first: vertex.first.map(|first| first as usize),
            end: next.first.map(|first| first as usize),
            ln_q: &self.ln_q,
            target: &self.target,
            visited: &mut self.visited,
            frontier: &mut self.frontier,
            rng,
            fired: &mut self.fired,
        };
        let nodes = firing.first[top]..firing.end[top];
        self.verts[v].min = firing.sweep(&mut self.tree[..=top], nodes);
    }
}

/// One firing activation: the vertex, its count and what a firing edge
/// touches.
struct Firing<'a> {
    /// The activation count; the timers equal to it are due.
    c: u64,
    /// The vertex's node range on each level.
    first: [usize; LEVELS],
    end: [usize; LEVELS],
    ln_q: &'a [f64],
    target: &'a [u32],
    visited: &'a mut EpochVisited,
    frontier: &'a mut Vec<u32>,
    rng: &'a mut StdRng,
    fired: &'a mut u64,
}

impl Firing<'_> {
    /// Visits `nodes` of the top level of `levels` in order, descends into
    /// those whose minimum has come due and returns the new minimum of
    /// `nodes`. Every timer is `≥ c`, so "due" is "equal to `c`".
    fn sweep(&mut self, levels: &mut [Vec<u64>], nodes: Range<usize>) -> u64 {
        let (level, below) = levels.split_last_mut().expect("level 0 holds the timers");
        let depth = below.len();
        let mut min = NEVER;
        for (i, node) in nodes.clone().zip(&mut level[nodes]) {
            if *node == self.c {
                *node = if depth == 0 {
                    self.refire(i)
                } else {
                    let group = self.first[depth - 1] + BLOCK * (i - self.first[depth]);
                    self.sweep(below, group..self.end[depth - 1].min(group + BLOCK))
                };
            }
            min = min.min(*node);
        }
        min
    }

    /// Fires local edge `i` and returns its re-armed timer: the next fire
    /// is X' activations from now (Lemma 6's memorylessness keeps instances
    /// i.i.d.).
    fn refire(&mut self, i: usize) -> u64 {
        *self.fired += 1;
        let t = self.target[i];
        if self.visited.insert(t) {
            self.frontier.push(t);
        }
        self.c.saturating_add(gap(self.ln_q[i], self.rng))
    }
}

/// The smallest of `timers`, [`NEVER`] if there are none.
fn min_of(timers: &[u64]) -> u64 {
    timers.iter().copied().min().unwrap_or(NEVER)
}

impl SpreadEstimator for LazySampler {
    fn estimate(
        &mut self,
        graph: &DiGraph,
        user: NodeId,
        probs: &mut dyn EdgeProbs,
        params: &SamplingParams,
    ) -> Estimate {
        let reachable = self.compile(graph, user, probs);
        if reachable <= 1 {
            return Estimate::isolated();
        }

        let mut rng =
            StdRng::seed_from_u64(params.seed ^ (user as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93));
        let max_iters = params.max_iterations(reachable);
        // Accumulated spread is an integer, so `s ≥ Λ·|R|` ⇔ `s ≥ ⌈Λ·|R|⌉`.
        let stop_at = match params.budget {
            SampleBudget::Adaptive => params.stop_threshold(reachable).ceil() as u64,
            SampleBudget::Fixed(_) => u64::MAX,
        };

        self.fired = 0;
        let mut accumulated = 0u64;
        let mut iterations = 0u64;
        while iterations < max_iters {
            let root = self.verts[0];
            if root.count > 0 && root.count + 1 < root.min {
                // Until the root's next timer comes due, every sample
                // activates the root alone and draws nothing.
                let skipped = (root.min - 1 - root.count)
                    .min(max_iters - iterations)
                    .min(stop_at - accumulated);
                self.verts[0].count += skipped;
                accumulated += skipped;
                iterations += skipped;
            } else {
                accumulated += self.sample(&mut rng);
                iterations += 1;
            }
            if accumulated >= stop_at {
                break;
            }
        }

        Estimate {
            spread: accumulated as f64 / iterations as f64,
            samples_used: iterations,
            edges_visited: self.fired,
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
    use pitex_graph::gen;
    use pitex_model::FixedEdgeProbs;

    fn params_fixed(n: u64) -> SamplingParams {
        SamplingParams::enumeration(0.5, 100.0, 10, 2).with_fixed_budget(n)
    }

    #[test]
    fn certain_path_gives_exact_spread() {
        let g = gen::path(5);
        let mut probs = FixedEdgeProbs::uniform(g.num_edges(), 1.0);
        let mut lazy = LazySampler::new(g.num_nodes());
        let est = lazy.estimate(&g, 0, &mut probs, &params_fixed(100));
        assert_eq!(est.spread, 5.0);
        // p = 1 edges fire on every activation: 4 fires per instance.
        assert_eq!(est.edges_visited, 400);
    }

    #[test]
    fn isolated_user_short_circuits() {
        let g = gen::path(3);
        let mut probs = FixedEdgeProbs::uniform(g.num_edges(), 0.0);
        let mut lazy = LazySampler::new(g.num_nodes());
        let est = lazy.estimate(&g, 0, &mut probs, &params_fixed(10));
        assert_eq!(est.spread, 1.0);
    }

    #[test]
    fn star_estimate_converges_to_closed_form() {
        let n = 50usize;
        let g = gen::star_low_impact(n);
        let mut probs = FixedEdgeProbs::uniform(g.num_edges(), 1.0 / n as f64);
        let mut lazy = LazySampler::new(g.num_nodes());
        let est = lazy.estimate(&g, 0, &mut probs, &params_fixed(20_000));
        assert!((est.spread - 2.0).abs() < 0.1, "got {}", est.spread);
    }

    #[test]
    fn lazy_visits_orders_of_magnitude_fewer_edges_than_mc_on_star() {
        // The §5.1 claim: on Fig. 3(a) MC probes n edges per instance while
        // lazy fires ≈ n·p = 1 per instance.
        let n = 100usize;
        let iters = 2_000u64;
        let g = gen::star_low_impact(n);
        let p = 1.0 / n as f64;

        let mut probs = FixedEdgeProbs::uniform(g.num_edges(), p);
        let mut lazy = LazySampler::new(g.num_nodes());
        let lazy_est = lazy.estimate(&g, 0, &mut probs, &params_fixed(iters));

        let mut mc = crate::mc::McSampler::new(g.num_nodes());
        let mc_est = mc.estimate(&g, 0, &mut probs, &params_fixed(iters));

        assert!(
            lazy_est.edges_visited * 20 < mc_est.edges_visited,
            "lazy {} vs mc {}",
            lazy_est.edges_visited,
            mc_est.edges_visited
        );
        // Expected fires ≈ iters·n·p = iters.
        let expected = iters as f64;
        assert!(
            (lazy_est.edges_visited as f64 - expected).abs() < 0.2 * expected,
            "fires {} vs expected {expected}",
            lazy_est.edges_visited
        );
    }

    #[test]
    fn fire_counts_match_bernoulli_rate() {
        // Single edge with p = 0.3 probed over θ instances must fire
        // ≈ Binomial(θ, p) times (Lemma 6).
        let g = gen::path(2);
        let theta = 50_000u64;
        let mut probs = FixedEdgeProbs::uniform(1, 0.3);
        let mut lazy = LazySampler::new(g.num_nodes());
        let est = lazy.estimate(&g, 0, &mut probs, &params_fixed(theta));
        let rate = est.edges_visited as f64 / theta as f64;
        assert!((rate - 0.3).abs() < 0.01, "fire rate {rate}");
        // And the spread estimate follows: 1 + p.
        assert!((est.spread - 1.3).abs() < 0.01, "spread {}", est.spread);
    }

    #[test]
    fn an_edge_below_f64_resolution_never_fires() {
        // 1 − 1e-17 rounds to 1, ln(1) = 0, and dividing by it used to give
        // a gap of 1: the edge fired on every activation (spread 2.0).
        let g = gen::path(2);
        let mut probs = FixedEdgeProbs::uniform(1, 1e-17);
        let p = params_fixed(10_000);
        let lazy = LazySampler::new(g.num_nodes()).estimate(&g, 0, &mut probs, &p);
        let mc = crate::mc::McSampler::new(g.num_nodes()).estimate(&g, 0, &mut probs, &p);
        assert_eq!(lazy.reachable, 2, "positive, so still part of R_W(u)");
        assert_eq!((lazy.spread, lazy.edges_visited), (1.0, 0));
        assert_eq!(lazy.spread, mc.spread);
    }

    #[test]
    fn agrees_with_mc_on_a_random_dag() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(8);
        let g = gen::random_dag(25, 0.15, &mut rng);
        let mut probs = FixedEdgeProbs::uniform(g.num_edges(), 0.4);
        let p = params_fixed(30_000);
        let mut lazy = LazySampler::new(g.num_nodes());
        let mut mc = crate::mc::McSampler::new(g.num_nodes());
        let a = lazy.estimate(&g, 0, &mut probs, &p).spread;
        let b = mc.estimate(&g, 0, &mut probs, &p).spread;
        assert!((a - b).abs() < 0.05 * b.max(1.0), "lazy {a} vs mc {b}");
    }

    #[test]
    fn state_is_isolated_between_calls() {
        // Different tag sets (here: different probabilities) must not leak
        // timers armed for the previous probabilities.
        let g = gen::path(3);
        let mut lazy = LazySampler::new(g.num_nodes());
        let mut hot = FixedEdgeProbs::uniform(2, 1.0);
        let est_hot = lazy.estimate(&g, 0, &mut hot, &params_fixed(500));
        assert_eq!(est_hot.spread, 3.0);
        let mut cold = FixedEdgeProbs::uniform(2, 0.01);
        let est_cold = lazy.estimate(&g, 0, &mut cold, &params_fixed(500));
        assert!(est_cold.spread < 1.2, "stale p=1 timers leaked: {}", est_cold.spread);
    }

    #[test]
    fn deterministic_under_seed() {
        let g = gen::star_low_impact(40);
        let mut probs = FixedEdgeProbs::uniform(g.num_edges(), 0.1);
        let p = params_fixed(1_000);
        let mut lazy = LazySampler::new(g.num_nodes());
        let a = lazy.estimate(&g, 0, &mut probs, &p);
        let b = lazy.estimate(&g, 0, &mut probs, &p);
        assert_eq!(a, b);
    }
}
