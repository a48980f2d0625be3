//! Delay materialization (§6.3, Algo. 4) — the paper's DELAYMAT.
//!
//! Storing θ RR-Graphs dwarfs the original data (Table 3). Delay
//! materialization keeps only `θ(u)` — how many RR-Graphs contain each user
//! — and *recovers* `θ(u)` statistically-equivalent RR-Graphs when `u`
//! actually queries. Theorem 3 proves the recovery scheme preserves the
//! estimator's distribution; the two ingredients (Algo. 4) are:
//!
//! 1. a forward sample from `u` on the `p(e) = max_z p(e|z)` graph — its
//!    activated set `V′` and live edges `E′` — with a uniform target
//!    `v′ ∈ V′`, reverse-restricted to the vertices of `V′` that reach `v′`
//!    (conditioning the RR-Graph on containing `u`);
//! 2. fresh marks `c(e) ~ U[0, p(e))` on the recovered edges, matching the
//!    conditional mark distribution of a live edge.
//!
//! The recovered graphs are cached for the duration of a query (one user,
//! many tag sets) and run through the same edge-cut filter as INDEXEST+.
//!
//! > Faithfulness note. Algo. 4 as printed draws the target *uniformly from
//! > `V′`*, but the offline conditional it must match weights each sample
//! > graph by `|V′|` (a graph with a larger forward reach hosts the query
//! > user in proportionally more offline RR-Graphs). Taken verbatim the
//! > estimator is biased upward for low-spread users — measurably so on the
//! > paper's own running example (≈1.9 vs the true 1.5125 for
//! > `E[I(u1|{w1,w2})]`). We therefore apply the standard self-normalized
//! > importance correction: each recovered graph carries weight
//! > `w_i = |V′_i|`, and the estimate is
//! > `Ê = |V| · (θ(u)/θ) · Σ_i 1_i·w_i / Σ_i w_i`,
//! > which is ratio-consistent for the offline estimator's value and keeps
//! > the one-forward-sample-per-graph cost of the paper's scheme.

use crate::build::IndexBudget;
use crate::prune::{CutPolicy, UserView};
use crate::rrgraph::{RrGraph, Sampler};
use pitex_graph::{DiGraph, EdgeId, NodeId};
use pitex_model::{EdgeProbs, EdgeTopics, TicModel};
use pitex_sampling::{Estimate, SamplingParams, SpreadEstimator};
use pitex_support::{EpochVisited, FxHashMap};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The delay-materialized index: one counter per user.
#[derive(Clone, Debug, PartialEq)]
pub struct DelayMatIndex {
    num_nodes: usize,
    theta: u64,
    /// The budget and seed the counters were sampled under (carried and
    /// persisted so a live reload can re-count under the same stream).
    budget: IndexBudget,
    seed: u64,
    /// `θ(u)`: number of offline RR-Graphs containing each user.
    counts: Vec<u32>,
}

impl DelayMatIndex {
    /// Builds the counters by running the same offline sampling as the full
    /// index but discarding each RR-Graph after counting its members.
    pub fn build(model: &TicModel, budget: IndexBudget, seed: u64) -> Self {
        let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        Self::build_with_threads(model, budget, seed, threads)
    }

    /// Thread-count-explicit variant. Counts the members of exactly the
    /// same per-draw sample stream as [`crate::build::sample_rr_graph_at`],
    /// so the counters are a pure function of `(model, budget, seed)` and
    /// agree with the full index built under the same parameters.
    pub fn build_with_threads(
        model: &TicModel,
        budget: IndexBudget,
        seed: u64,
        threads: usize,
    ) -> Self {
        let n = model.graph().num_nodes();
        let theta = budget.sample_count(n, model.num_tags());
        let per_thread = crate::build::in_ranges(theta, threads, |draws| {
            let mut sampler = Sampler::default();
            let mut local = vec![0u32; n];
            for draw in draws {
                crate::build::sample_draw(&mut sampler, model, seed, draw);
                for &v in sampler.members() {
                    local[v as usize] += 1;
                }
            }
            local
        });
        let mut counts = vec![0u32; n];
        for local in per_thread {
            for (c, l) in counts.iter_mut().zip(local) {
                *c += l;
            }
        }
        Self { num_nodes: n, theta, budget, seed, counts }
    }

    /// Constructs from raw counters (decoder / tests).
    pub fn from_counts(
        num_nodes: usize,
        theta: u64,
        budget: IndexBudget,
        seed: u64,
        counts: Vec<u32>,
    ) -> Self {
        assert_eq!(counts.len(), num_nodes);
        Self { num_nodes, theta, budget, seed, counts }
    }

    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    pub fn theta(&self) -> u64 {
        self.theta
    }

    /// The sample budget the counters were built under.
    pub fn budget(&self) -> IndexBudget {
        self.budget
    }

    /// The seed of the counters' per-draw sample streams.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// `θ(u)` (Example 9).
    pub fn count(&self, user: NodeId) -> u32 {
        self.counts[user as usize]
    }

    pub fn counts(&self) -> &[u32] {
        &self.counts
    }

    /// Index footprint: 4 bytes per user (the point of the scheme).
    pub fn heap_bytes(&self) -> u64 {
        (self.counts.len() * 4) as u64
    }
}

/// Recovers one RR-Graph that contains `user` (Algo. 4 / RetainRRGraphs),
/// returning the graph together with its importance weight `|V′|` (the size
/// of the forward sample's activated set; see the module-level note).
pub fn recover_rr_graph<R: Rng + ?Sized>(
    graph: &DiGraph,
    edge_topics: &EdgeTopics,
    user: NodeId,
    rng: &mut R,
    visited: &mut EpochVisited,
) -> (RrGraph, u32) {
    // Step 1: forward sample from `user` on the p_max graph.
    visited.grow(graph.num_nodes());
    visited.reset();
    let mut activated = vec![user];
    visited.insert(user);
    let mut frontier = vec![user];
    let mut live_edges: Vec<(NodeId, NodeId, EdgeId)> = Vec::new();
    while let Some(v) = frontier.pop() {
        for (e, t) in graph.out_edges(v) {
            let p = edge_topics.p_max(e) as f64;
            if p > 0.0 && rng.gen_bool(p.min(1.0)) {
                // Live edge of the sample g (recorded even when t is
                // already active: E(v′) keeps all live edges inside V(v′)).
                live_edges.push((v, t, e));
                if visited.insert(t) {
                    activated.push(t);
                    frontier.push(t);
                }
            }
        }
    }

    // Step 2: uniform target among the activated vertices.
    let target = activated[rng.gen_range(0..activated.len())];

    // Step 3: reverse-restrict to the vertices of V′ that reach the target
    // through live edges.
    let mut reverse: FxHashMap<NodeId, Vec<(NodeId, EdgeId)>> = FxHashMap::default();
    for &(s, t, e) in &live_edges {
        reverse.entry(t).or_default().push((s, e));
    }
    let mut members = pitex_support::FxHashSet::default();
    members.insert(target);
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(target);
    while let Some(y) = queue.pop_front() {
        if let Some(ins) = reverse.get(&y) {
            for &(x, _) in ins {
                if members.insert(x) {
                    queue.push_back(x);
                }
            }
        }
    }

    // Step 4: keep live edges within the member set, re-drawing marks
    // c(e) ~ U[0, p(e)).
    let nodes: Vec<NodeId> = members.iter().copied().collect();
    let edges: Vec<(NodeId, NodeId, EdgeId, f32)> = live_edges
        .iter()
        .filter(|&&(s, t, _)| members.contains(&s) && members.contains(&t))
        .map(|&(s, t, e)| {
            let p = edge_topics.p_max(e);
            let c: f32 = rng.gen_range(0.0..p.max(f32::MIN_POSITIVE));
            (s, t, e, c)
        })
        .collect();
    (RrGraph::from_parts(target, nodes, &edges), activated.len() as u32)
}

/// DELAYMAT — recovers `θ(u)` RR-Graphs at query time and estimates through
/// the shared edge-cut filter.
#[derive(Debug)]
pub struct DelayMatEstimator<'a> {
    index: &'a DelayMatIndex,
    edge_topics: &'a EdgeTopics,
    seed: u64,
    /// The graphs recovered for the user `view` is compiled for.
    recovered: RecoveredSet,
    view: UserView,
    recover_visited: EpochVisited,
}

/// The per-user recovered graphs with their importance weights.
#[derive(Clone, Debug, Default)]
struct RecoveredSet {
    graphs: Vec<RrGraph>,
    weights: Vec<u32>,
    total_weight: f64,
    /// Weight of the graphs whose target is the user (always hits).
    self_hit_weight: f64,
}

impl<'a> DelayMatEstimator<'a> {
    pub fn new(index: &'a DelayMatIndex, edge_topics: &'a EdgeTopics, seed: u64) -> Self {
        Self {
            index,
            edge_topics,
            seed,
            recovered: RecoveredSet::default(),
            view: UserView::default(),
            recover_visited: EpochVisited::new(0),
        }
    }

    /// Recovered graphs for the current user (test hook).
    pub fn recovered_for(&mut self, graph: &DiGraph, user: NodeId) -> &[RrGraph] {
        self.ensure(graph, user);
        &self.recovered.graphs
    }

    /// Importance weights `|V′|` of the graphs last recovered, in their
    /// order (test hook).
    pub fn recovered_weights(&self) -> &[u32] {
        &self.recovered.weights
    }

    fn ensure(&mut self, graph: &DiGraph, user: NodeId) {
        if self.view.is_for(user) {
            return;
        }
        let mut rng =
            StdRng::seed_from_u64(self.seed ^ (user as u64).wrapping_mul(0xE703_7ED1_A0B4_28DB));
        let RecoveredSet { graphs, weights, total_weight, self_hit_weight } = &mut self.recovered;
        graphs.clear();
        weights.clear();
        for _ in 0..self.index.count(user) {
            let (rr, w) = recover_rr_graph(
                graph,
                self.edge_topics,
                user,
                &mut rng,
                &mut self.recover_visited,
            );
            graphs.push(rr);
            weights.push(w);
        }
        *total_weight = weights.iter().map(|&w| w as f64).sum();
        let cuts = Some((self.edge_topics, CutPolicy::Best));
        self.view.compile(user, graphs.iter().map(RrGraph::as_ref), cuts);
        *self_hit_weight =
            self.view.self_hits().iter().map(|&pos| weights[pos as usize] as f64).sum();
    }
}

impl SpreadEstimator for DelayMatEstimator<'_> {
    fn estimate(
        &mut self,
        graph: &DiGraph,
        user: NodeId,
        probs: &mut dyn EdgeProbs,
        _params: &SamplingParams,
    ) -> Estimate {
        debug_assert_eq!(graph.num_nodes(), self.index.num_nodes());
        self.ensure(graph, user);
        let recovered = &self.recovered;

        // Self-normalized importance estimate (see module docs):
        // Ê = |V| · (θ(u)/θ) · Σ 1_i·w_i / Σ w_i. The weights are integers,
        // so the order the hits are summed in cannot change the sum.
        let mut hit_weight = recovered.self_hit_weight;
        let verified =
            self.view.verify(probs, |pos| hit_weight += recovered.weights[pos as usize] as f64);
        let theta_u = recovered.graphs.len() as f64;
        let spread = if recovered.total_weight > 0.0 {
            self.index.num_nodes() as f64
                * (theta_u / self.index.theta() as f64)
                * (hit_weight / recovered.total_weight)
        } else {
            0.0
        };
        Estimate {
            spread,
            samples_used: recovered.graphs.len() as u64,
            edges_visited: verified.edges_visited,
            reachable: 0,
        }
    }

    fn name(&self) -> &'static str {
        "DELAYMAT"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rrgraph::ReachScratch;
    use pitex_model::{MaxEdgeProbs, PosteriorEdgeProbs, TagSet, TicModel};
    use pitex_sampling::exact_spread;

    #[test]
    fn counters_match_full_index_distribution() {
        // DelayMat with the same (seed, threads) counts exactly the
        // membership of the equivalent full index.
        let model = TicModel::paper_example();
        let full =
            crate::build::RrIndex::build_with_threads(&model, IndexBudget::Fixed(3_000), 41, 2);
        let delay = DelayMatIndex::build_with_threads(&model, IndexBudget::Fixed(3_000), 41, 2);
        for u in 0..model.graph().num_nodes() as u32 {
            assert_eq!(delay.count(u), full.membership_count(u) as u32, "user {u}");
        }
    }

    #[test]
    fn index_is_tiny() {
        let model = TicModel::paper_example();
        let delay = DelayMatIndex::build_with_threads(&model, IndexBudget::Fixed(1_000), 1, 2);
        assert_eq!(delay.heap_bytes(), 7 * 4);
    }

    #[test]
    fn recovered_graphs_contain_the_user_with_valid_marks() {
        let model = TicModel::paper_example();
        let mut visited = EpochVisited::new(0);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..300 {
            let (rr, weight) =
                recover_rr_graph(model.graph(), model.edge_topics(), 0, &mut rng, &mut visited);
            let rr = rr.as_ref();
            assert!(rr.contains(0), "Algo. 4 conditions on membership of the query user");
            assert!(weight >= 1, "the forward sample always activates the user");
            for (_, e) in rr.edges() {
                let p = model.edge_topics().p_max(e.edge_id);
                assert!(e.c < p, "c = {} must lie below p(e) = {p}", e.c);
            }
            // Every member reaches the target at p_max probabilities.
            let mut p_max = MaxEdgeProbs::new(model.edge_topics());
            let mut scratch = ReachScratch::new();
            let mut visits = 0u64;
            for &v in rr.nodes() {
                assert!(rr.reaches_target(v, &mut p_max, &mut scratch, &mut visits));
            }
        }
    }

    #[test]
    fn estimate_matches_exact_on_paper_example() {
        let model = TicModel::paper_example();
        let delay = DelayMatIndex::build_with_threads(&model, IndexBudget::Fixed(60_000), 43, 4);
        let mut est = DelayMatEstimator::new(&delay, model.edge_topics(), 99);
        let params = SamplingParams::enumeration(0.7, 1000.0, 4, 2);
        let mut cache = model.new_prob_cache();
        for tags in [vec![0u32, 1], vec![2, 3]] {
            let w = TagSet::new(tags.clone());
            let posterior = model.posterior(&w);
            let mut probs = PosteriorEdgeProbs::new(model.edge_topics(), &posterior, &mut cache);
            let spread = est.estimate(model.graph(), 0, &mut probs, &params).spread;
            let mut probs = PosteriorEdgeProbs::new(model.edge_topics(), &posterior, &mut cache);
            let exact = exact_spread(model.graph(), 0, &mut probs);
            assert!(
                (spread - exact).abs() < 0.15 * exact.max(1.0),
                "W {tags:?}: delay {spread} vs exact {exact}"
            );
        }
    }

    #[test]
    fn recovery_is_cached_per_user() {
        let model = TicModel::paper_example();
        let delay = DelayMatIndex::build_with_threads(&model, IndexBudget::Fixed(2_000), 47, 4);
        let mut est = DelayMatEstimator::new(&delay, model.edge_topics(), 7);
        let a = est.recovered_for(model.graph(), 0).to_vec();
        let b = est.recovered_for(model.graph(), 0).to_vec();
        assert_eq!(a, b, "same user: no re-recovery");
        let c = est.recovered_for(model.graph(), 2).to_vec();
        assert_eq!(c.len(), delay.count(2) as usize);
    }

    #[test]
    fn recovered_count_matches_theta_u() {
        let model = TicModel::paper_example();
        let delay = DelayMatIndex::build_with_threads(&model, IndexBudget::Fixed(4_000), 53, 4);
        let mut est = DelayMatEstimator::new(&delay, model.edge_topics(), 3);
        for u in [0u32, 2, 4] {
            assert_eq!(
                est.recovered_for(model.graph(), u).len(),
                delay.count(u) as usize,
                "user {u}"
            );
        }
    }
}
