//! Index-based influence estimation — `EstimateInfluence+` (Algo. 3,
//! online phase): the paper's INDEXEST.

use crate::build::RrIndex;
use crate::prune::{CutPolicy, UserView};
use pitex_graph::{DiGraph, NodeId};
use pitex_model::{EdgeProbs, EdgeTopics};
use pitex_sampling::{Estimate, SamplingParams, SpreadEstimator};

/// The compiled view of the most recent query user over a materialized
/// [`RrIndex`]: the shared body of INDEXEST (`cuts = None`, every member
/// graph is traversed) and INDEXEST+.
#[derive(Debug)]
pub(crate) struct IndexView<'a> {
    index: &'a RrIndex,
    view: UserView,
}

impl<'a> IndexView<'a> {
    pub(crate) fn new(index: &'a RrIndex) -> Self {
        Self { index, view: UserView::default() }
    }

    /// `(Σᵢ 1[u ⇝ vᵢ | G^RR_{vᵢ}, W]) / θ · |V|` over the RR-Graphs that
    /// contain `user`, and how many of them the filter did not rule out.
    pub(crate) fn estimate(
        &mut self,
        graph: &DiGraph,
        user: NodeId,
        probs: &mut dyn EdgeProbs,
        cuts: Option<(&EdgeTopics, CutPolicy)>,
    ) -> (Estimate, u64) {
        debug_assert_eq!(graph.num_nodes(), self.index.num_nodes());
        let member_ids = self.index.graphs_containing(user);
        if !self.view.is_for(user) {
            let index = self.index;
            self.view.compile(user, member_ids.iter().map(|&gid| index.graph(gid as usize)), cuts);
        }
        let mut hits = self.view.self_hits().len() as u64;
        let verified = self.view.verify(probs, |_| hits += 1);
        let estimate = Estimate {
            spread: hits as f64 / self.index.theta() as f64 * self.index.num_nodes() as f64,
            samples_used: member_ids.len() as u64,
            edges_visited: verified.edges_visited,
            reachable: 0, // not computed: avoiding the full-graph BFS is the point
        };
        (estimate, verified.candidates)
    }
}

/// Estimates `E[I(u|W)]` as `(Σᵢ 1[u ⇝ vᵢ | G^RR_{vᵢ}, W]) / θ · |V|`,
/// checking tag-aware reachability only in the RR-Graphs that contain `u`.
#[derive(Debug)]
pub struct IndexEstimator<'a> {
    view: IndexView<'a>,
}

impl<'a> IndexEstimator<'a> {
    pub fn new(index: &'a RrIndex) -> Self {
        Self { view: IndexView::new(index) }
    }

    pub fn index(&self) -> &'a RrIndex {
        self.view.index
    }
}

impl SpreadEstimator for IndexEstimator<'_> {
    fn estimate(
        &mut self,
        graph: &DiGraph,
        user: NodeId,
        probs: &mut dyn EdgeProbs,
        _params: &SamplingParams,
    ) -> Estimate {
        self.view.estimate(graph, user, probs, None).0
    }

    fn name(&self) -> &'static str {
        "INDEXEST"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::IndexBudget;
    use pitex_model::{PosteriorEdgeProbs, TagSet, TicModel};
    use pitex_sampling::exact_spread;

    fn params() -> SamplingParams {
        SamplingParams::enumeration(0.7, 1000.0, 4, 2)
    }

    #[test]
    fn matches_exact_on_paper_example() {
        let model = TicModel::paper_example();
        let index = RrIndex::build_with_threads(&model, IndexBudget::Fixed(60_000), 5, 4);
        let mut est = IndexEstimator::new(&index);
        let mut cache = model.new_prob_cache();

        for tags in [vec![0u32, 1], vec![2, 3], vec![0, 2]] {
            let w = TagSet::new(tags.clone());
            let posterior = model.posterior(&w);
            let mut probs = PosteriorEdgeProbs::new(model.edge_topics(), &posterior, &mut cache);
            let sampled = est.estimate(model.graph(), 0, &mut probs, &params()).spread;
            let mut probs = PosteriorEdgeProbs::new(model.edge_topics(), &posterior, &mut cache);
            let exact = exact_spread(model.graph(), 0, &mut probs);
            assert!(
                (sampled - exact).abs() < 0.12 * exact.max(1.0),
                "W = {tags:?}: index {sampled} vs exact {exact}"
            );
        }
    }

    #[test]
    fn example1_value_is_recovered() {
        // E[I(u1|{w1,w2})] = 1.5125.
        let model = TicModel::paper_example();
        let index = RrIndex::build_with_threads(&model, IndexBudget::Fixed(80_000), 9, 4);
        let mut est = IndexEstimator::new(&index);
        let w = TagSet::from([0, 1]);
        let posterior = model.posterior(&w);
        let mut cache = model.new_prob_cache();
        let mut probs = PosteriorEdgeProbs::new(model.edge_topics(), &posterior, &mut cache);
        let spread = est.estimate(model.graph(), 0, &mut probs, &params()).spread;
        assert!((spread - 1.5125).abs() < 0.1, "got {spread}");
    }

    #[test]
    fn infeasible_tag_set_estimates_own_activation_only() {
        // Empty posterior ⇒ all edges dead ⇒ u reaches only targets equal to
        // itself ⇒ spread ≈ |V|·θ(u,self)/θ ≈ 1.
        let model = TicModel::paper_example();
        let index = RrIndex::build_with_threads(&model, IndexBudget::Fixed(40_000), 13, 4);
        let mut est = IndexEstimator::new(&index);
        let mut zero = pitex_model::FixedEdgeProbs::uniform(model.graph().num_edges(), 0.0);
        let spread = est.estimate(model.graph(), 0, &mut zero, &params()).spread;
        assert!((spread - 1.0).abs() < 0.15, "got {spread}");
    }

    #[test]
    fn estimate_is_monotone_in_probabilities() {
        let model = TicModel::paper_example();
        let index = RrIndex::build_with_threads(&model, IndexBudget::Fixed(30_000), 17, 4);
        let mut est = IndexEstimator::new(&index);
        let m = model.graph().num_edges();
        let mut low = pitex_model::FixedEdgeProbs::uniform(m, 0.1);
        let mut high = pitex_model::FixedEdgeProbs::uniform(m, 0.6);
        let s_low = est.estimate(model.graph(), 0, &mut low, &params()).spread;
        let s_high = est.estimate(model.graph(), 0, &mut high, &params()).spread;
        assert!(s_high > s_low, "{s_high} > {s_low}");
    }

    #[test]
    fn example6_hand_counted_estimate() {
        // Example 6 of the paper: four RR-Graphs for {u6, u4, u7, u2} plus
        // one for u3 — of the graphs containing u3, exactly the reachability
        // outcomes decide the estimate (2/4)·7 = 3.5 there. We rebuild the
        // same situation: an index whose graphs are hand-made.
        use crate::rrgraph::RrGraph;
        let model = TicModel::paper_example();
        let e34 = model.graph().find_edge(2, 3).unwrap();
        let e36 = model.graph().find_edge(2, 5).unwrap();
        let e67 = model.graph().find_edge(5, 6).unwrap();
        // G_u6: u3 -> u6 live-ish mark 0.5; G_u4: u3 -> u4 mark 0.4;
        // G_u7: u3 -> u6 -> u7; G_u2: no u3.
        let graphs = vec![
            RrGraph::from_parts(5, vec![2, 5], &[(2, 5, e36, 0.5)]),
            RrGraph::from_parts(3, vec![2, 3], &[(2, 3, e34, 0.4)]),
            RrGraph::from_parts(6, vec![2, 5, 6], &[(2, 5, e36, 0.5), (5, 6, e67, 0.3)]),
            RrGraph::from_parts(1, vec![1], &[]),
        ];
        let index = RrIndex::from_graphs(7, 4, IndexBudget::Fixed(4), 0, &graphs);
        let mut est = IndexEstimator::new(&index);
        // Under {w3,w4}: p(u3->u6) ≈ 0.554, p(u3->u4) = 0, p(u6->u7) ≈ 0.346.
        let w = TagSet::from([2, 3]);
        let posterior = model.posterior(&w);
        let mut cache = model.new_prob_cache();
        let mut probs = PosteriorEdgeProbs::new(model.edge_topics(), &posterior, &mut cache);
        let est = est.estimate(model.graph(), 2, &mut probs, &params());
        // u3 reaches u6 (0.554 ≥ 0.5) and u7 (both edges live), not u4.
        // hits = 2 of θ = 4 ⇒ (2/4)·7 = 3.5 — the paper's Example 6 value.
        assert!((est.spread - 3.5).abs() < 1e-9, "got {}", est.spread);
    }
}
