//! The assembled topic-aware influence model.

use crate::edge_topics::EdgeTopics;
use crate::ids::{TagId, TagSet};
use crate::posterior::{EdgeProbCache, TopicPosterior};
use crate::tag_topic::TagTopicMatrix;
use pitex_graph::{DiGraph, EdgeId};
use std::sync::Arc;

/// A complete TIC model: the social graph, tag–topic matrix with prior, and
/// per-edge topic probabilities. This is the input to a PITEX query (§3.1).
///
/// The three components are immutable and held behind `Arc`s, so a clone is
/// three reference counts and a model derived from another
/// (`pitex_live::ModelOverlay::compact`) shares every component its update
/// did not touch — two live epochs of a serving shard hold one copy of
/// those.
#[derive(Clone, Debug)]
pub struct TicModel {
    graph: Arc<DiGraph>,
    tag_topic: Arc<TagTopicMatrix>,
    edge_topics: Arc<EdgeTopics>,
}

impl TicModel {
    /// Bundles the three components.
    ///
    /// # Panics
    /// If the edge-topic table does not cover exactly the graph's edges or
    /// the topic counts disagree.
    pub fn new(graph: DiGraph, tag_topic: TagTopicMatrix, edge_topics: EdgeTopics) -> Self {
        Self::from_shared(Arc::new(graph), Arc::new(tag_topic), Arc::new(edge_topics))
    }

    /// [`Self::new`] over components that may already belong to another
    /// model. Same panics.
    pub fn from_shared(
        graph: Arc<DiGraph>,
        tag_topic: Arc<TagTopicMatrix>,
        edge_topics: Arc<EdgeTopics>,
    ) -> Self {
        assert_eq!(
            edge_topics.num_edges(),
            graph.num_edges(),
            "edge-topic rows must cover every edge"
        );
        assert_eq!(
            edge_topics.num_topics(),
            tag_topic.num_topics(),
            "edge and tag tables must agree on |Z|"
        );
        Self { graph, tag_topic, edge_topics }
    }

    /// The shared handles, in [`Self::from_shared`]'s order: what a derived
    /// model clones for the components it keeps, and what `Arc::ptr_eq`
    /// tells apart.
    pub fn shared(&self) -> (&Arc<DiGraph>, &Arc<TagTopicMatrix>, &Arc<EdgeTopics>) {
        (&self.graph, &self.tag_topic, &self.edge_topics)
    }

    #[inline]
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    #[inline]
    pub fn tag_topic(&self) -> &TagTopicMatrix {
        &self.tag_topic
    }

    #[inline]
    pub fn edge_topics(&self) -> &EdgeTopics {
        &self.edge_topics
    }

    /// `|Ω|`.
    pub fn num_tags(&self) -> usize {
        self.tag_topic.num_tags()
    }

    /// `|Z|`.
    pub fn num_topics(&self) -> usize {
        self.tag_topic.num_topics()
    }

    /// All tag ids.
    pub fn tags(&self) -> impl Iterator<Item = TagId> + '_ {
        0..self.num_tags() as TagId
    }

    /// Computes `p(z|W)` (Eq. 1's posterior factor).
    pub fn posterior(&self, tag_set: &TagSet) -> TopicPosterior {
        TopicPosterior::compute(&self.tag_topic, tag_set)
    }

    /// Convenience: `p(e|W)` for a single edge (Eq. 1). Query processing
    /// uses the cached [`crate::PosteriorEdgeProbs`] view instead.
    pub fn edge_prob(&self, e: EdgeId, tag_set: &TagSet) -> f64 {
        self.posterior(tag_set).edge_prob(&self.edge_topics, e)
    }

    /// Fresh memo table sized for this graph.
    pub fn new_prob_cache(&self) -> EdgeProbCache {
        EdgeProbCache::new(self.graph.num_edges())
    }

    /// Approximate heap footprint in bytes (graph + model).
    pub fn heap_bytes(&self) -> u64 {
        self.graph.heap_bytes() + self.tag_topic.heap_bytes() + self.edge_topics.heap_bytes()
    }

    /// The running example of the paper (Fig. 2): seven users `u1..u7`
    /// (ids `0..=6`), seven edges, four tags, three topics, uniform prior.
    ///
    /// Reconstructed from the paper's own numbers and pinned by them:
    /// `p((u1,u2)|{w1,w2}) = 0.2`, `E[I(u1|{w1,w2})] = 1.5125` (Example 1)
    /// and `W* = {w3, w4}` for the query `(u1, k=2)`.
    pub fn paper_example() -> Self {
        use pitex_graph::GraphBuilder;
        let mut b = GraphBuilder::new(7);
        // Edge list in (src, dst) order; ids are assigned in sorted order,
        // so we list them pre-sorted and attach topic rows in the same order.
        type ExampleEdge = ((u32, u32), Vec<(u16, f32)>);
        let edges: &[ExampleEdge] = &[
            ((0, 1), vec![(0, 0.4)]),           // u1 -> u2
            ((0, 2), vec![(1, 0.5), (2, 0.5)]), // u1 -> u3
            ((2, 3), vec![(0, 0.5)]),           // u3 -> u4
            ((2, 5), vec![(2, 0.8)]),           // u3 -> u6
            ((3, 5), vec![(2, 0.5)]),           // u4 -> u6
            ((3, 6), vec![(2, 0.4)]),           // u4 -> u7
            ((5, 6), vec![(2, 0.5)]),           // u6 -> u7
        ];
        for &((s, t), _) in edges {
            b.add_edge(s, t);
        }
        let graph = b.build();
        let mut rows: Vec<Vec<(u16, f32)>> = vec![Vec::new(); graph.num_edges()];
        for &((s, t), ref row) in edges {
            let e = graph.find_edge(s, t).expect("edge exists") as usize;
            rows[e] = row.clone();
        }
        let edge_topics = EdgeTopics::new(rows, 3);
        // Fig. 2b tag–topic table.
        let tag_topic = TagTopicMatrix::with_uniform_prior(
            vec![
                vec![(0, 0.6), (1, 0.4)], // w1
                vec![(0, 0.4), (1, 0.6)], // w2
                vec![(1, 0.4), (2, 0.6)], // w3
                vec![(1, 0.4), (2, 0.6)], // w4
            ],
            3,
        );
        Self::new(graph, tag_topic, edge_topics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_shape() {
        let m = TicModel::paper_example();
        assert_eq!(m.graph().num_nodes(), 7);
        assert_eq!(m.graph().num_edges(), 7);
        assert_eq!(m.num_tags(), 4);
        assert_eq!(m.num_topics(), 3);
    }

    #[test]
    fn paper_example_edge_probability() {
        // Example 1: p((u1,u2)|{w1,w2}) = 0.2.
        let m = TicModel::paper_example();
        let e = m.graph().find_edge(0, 1).unwrap();
        let p = m.edge_prob(e, &TagSet::from([0, 1]));
        assert!((p - 0.2).abs() < 1e-6, "got {p}");
    }

    #[test]
    fn paper_example_exact_spread_for_w1w2() {
        // Example 1: E[I(u1|{w1,w2})] = 1.5125. The graph restricted to
        // positive-probability edges under {w1,w2} is the path-with-branch
        // u1->{u2}, u1->u3->u4; independent edges give the closed form
        // 1 + 0.2 + 0.25 + 0.25·0.25.
        let m = TicModel::paper_example();
        let w = TagSet::from([0, 1]);
        let p12 = m.edge_prob(m.graph().find_edge(0, 1).unwrap(), &w);
        let p13 = m.edge_prob(m.graph().find_edge(0, 2).unwrap(), &w);
        let p34 = m.edge_prob(m.graph().find_edge(2, 3).unwrap(), &w);
        let spread = 1.0 + p12 + p13 + p13 * p34;
        assert!((spread - 1.5125).abs() < 1e-6, "got {spread}");
        // All other edges are dead under {w1,w2}.
        for (s, t) in [(2u32, 5u32), (3, 5), (3, 6), (5, 6)] {
            let e = m.graph().find_edge(s, t).unwrap();
            assert_eq!(m.edge_prob(e, &w), 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "cover every edge")]
    fn rejects_mismatched_edge_rows() {
        let m = TicModel::paper_example();
        let bad = EdgeTopics::new(vec![vec![(0, 0.5)]], 3);
        TicModel::new(m.graph().clone(), m.tag_topic().clone(), bad);
    }

    #[test]
    #[should_panic(expected = "agree on |Z|")]
    fn rejects_mismatched_topic_count() {
        let m = TicModel::paper_example();
        let rows = vec![Vec::new(); m.graph().num_edges()];
        let bad = EdgeTopics::new(rows, 5);
        TicModel::new(m.graph().clone(), m.tag_topic().clone(), bad);
    }
}
