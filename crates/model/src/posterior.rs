//! Topic posteriors `p(z|W)` and the lazy edge-probability views.
//!
//! Eq. 1 of the paper factors the edge influence probability as
//! `p(e|W) = Σ_z p(e|z)·p(z|W)` with
//! `p(z|W) ∝ p(z)·∏_{w∈W} p(w|z)` (bag-of-words Bayesian language model).
//! The posterior is computed **once per tag set** in `O(k·nnz)` and every
//! edge probability is then a sparse dot product against it, evaluated on
//! first access and memoised — the estimators only ever touch a small
//! neighborhood of the query user for most candidate tag sets.

use crate::edge_topics::EdgeTopics;
use crate::ids::{TagSet, TopicId};
use crate::tag_topic::TagTopicMatrix;
use pitex_graph::EdgeId;

/// The sparse posterior `p(z|W)` over topics for a tag set `W`.
///
/// Only topics supported by *every* tag in `W` (i.e. `p(w|z) > 0 ∀w∈W`)
/// can have non-zero posterior mass. An empty posterior means `p(W) = 0`:
/// no topic explains the tag combination, so every edge probability — and
/// hence the influence spread beyond the user herself — is zero.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TopicPosterior {
    /// `(topic, p(z|W))` entries with positive mass, sorted by topic.
    entries: Vec<(TopicId, f64)>,
}

impl TopicPosterior {
    /// Computes `p(z|W)` from the tag–topic matrix and its prior.
    ///
    /// For the empty tag set the posterior equals the prior restricted to
    /// positive-mass topics (the product over an empty `W` is 1).
    pub fn compute(matrix: &TagTopicMatrix, tag_set: &TagSet) -> Self {
        let mut posterior = Self::default();
        posterior.recompute(matrix, tag_set);
        posterior
    }

    /// [`TopicPosterior::compute`] into `self`, reusing its allocation: the
    /// query engine evaluates hundreds of tag sets per query and keeps one
    /// posterior for all of them.
    pub fn recompute(&mut self, matrix: &TagTopicMatrix, tag_set: &TagSet) {
        // The entries double as the |Z|-long weight vector until the end.
        let weights = &mut self.entries;
        weights.clear();
        weights.extend(matrix.prior().iter().enumerate().map(|(z, &p)| (z as TopicId, p)));
        for w in tag_set.iter() {
            // Multiply row into weights; topics absent from the row get 0.
            let mut row = matrix.row(w).peekable();
            for (z, weight) in weights.iter_mut() {
                let mut factor = 0.0f64;
                while let Some(&(rz, rp)) = row.peek() {
                    match rz.cmp(z) {
                        std::cmp::Ordering::Less => {
                            row.next();
                        }
                        std::cmp::Ordering::Equal => {
                            factor = rp as f64;
                            row.next();
                            break;
                        }
                        std::cmp::Ordering::Greater => break,
                    }
                }
                *weight *= factor;
            }
        }
        let total: f64 = weights.iter().map(|&(_, w)| w).sum();
        if total <= 0.0 {
            weights.clear();
            return;
        }
        weights.retain_mut(|(_, w)| {
            let positive = *w > 0.0;
            *w /= total;
            positive
        });
    }

    /// Builds directly from `(topic, weight)` entries; normalizes.
    /// Used by the Lemma 8 bound oracle, whose "posterior" is a vector of
    /// per-topic upper-bound weights rather than a true distribution.
    pub fn from_weights(mut entries: Vec<(TopicId, f64)>) -> Self {
        entries.retain(|&(_, w)| w > 0.0);
        entries.sort_unstable_by_key(|&(z, _)| z);
        Self { entries }
    }

    /// `(topic, mass)` entries, sorted by topic id.
    pub fn entries(&self) -> &[(TopicId, f64)] {
        &self.entries
    }

    /// True when `p(W) = 0` (infeasible tag combination).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Posterior mass of a topic (zero if absent).
    pub fn mass(&self, z: TopicId) -> f64 {
        self.entries.binary_search_by_key(&z, |&(t, _)| t).map(|i| self.entries[i].1).unwrap_or(0.0)
    }

    /// `p(e|W) = Σ_z p(e|z)·p(z|W)` via sorted merge-join (Eq. 1).
    pub fn edge_prob(&self, edge_topics: &EdgeTopics, e: EdgeId) -> f64 {
        let (topics, probs) = edge_topics.row_slices(e);
        let mut acc = 0.0f64;
        let mut i = 0usize;
        let mut j = 0usize;
        while i < topics.len() && j < self.entries.len() {
            let (pz, mass) = self.entries[j];
            match topics[i].cmp(&pz) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    acc += probs[i] as f64 * mass;
                    i += 1;
                    j += 1;
                }
            }
        }
        acc
    }
}

/// The edge-probability interface every spread estimator consumes.
///
/// `prob` takes `&mut self` because implementations memoise: the same edge
/// is probed by many sampling iterations for the same tag set.
pub trait EdgeProbs {
    /// Influence probability of edge `e` under the current tag set, in `[0, 1]`.
    fn prob(&mut self, e: EdgeId) -> f64;

    /// Whether the edge can ever be live (`p > 0`); used to compute
    /// `R_W(u)` and to skip arming dead edges in the lazy sampler.
    #[inline]
    fn positive(&mut self, e: EdgeId) -> bool {
        self.prob(e) > 0.0
    }

    /// Bulk kernel: `out[i] = prob(edges[i]) as f32`, bit for bit. The
    /// index estimators probe a per-user edge list once per tag set; the
    /// tag-set views override this with one dense pass that skips the memo.
    ///
    /// # Panics
    /// If `edges` and `out` differ in length.
    fn fill(&mut self, edges: &[EdgeId], out: &mut [f32]) {
        assert_eq!(edges.len(), out.len(), "one output slot per edge");
        for (slot, &e) in out.iter_mut().zip(edges) {
            *slot = self.prob(e) as f32;
        }
    }
}

/// Epoch-stamped memo table of edge probabilities, reusable across tag sets.
///
/// `begin` starts a new tag set in O(1); values are stored as `f32`
/// (probabilities need no more precision; the working set halves), and
/// the stored `f32` is what every probe of an edge returns — the first
/// one included, so an edge compares the same against a mark `c(e)` no
/// matter how often it was probed before.
///
/// Also owns the dense per-topic weight vector of the current tag set,
/// which [`EdgeProbs::fill`] reads instead of merge-joining each edge row
/// against the sparse posterior.
#[derive(Clone, Debug)]
pub struct EdgeProbCache {
    stamps: Vec<u32>,
    values: Vec<f32>,
    epoch: u32,
    /// Per-topic weights of the current tag set; valid iff `dense_ready`.
    dense: Vec<f64>,
    dense_ready: bool,
}

impl EdgeProbCache {
    pub fn new(num_edges: usize) -> Self {
        Self {
            stamps: vec![0; num_edges],
            values: vec![0.0; num_edges],
            epoch: 0,
            dense: Vec::new(),
            dense_ready: false,
        }
    }

    /// Invalidates all cached values (start of a new tag set).
    pub fn begin(&mut self) {
        if self.epoch == u32::MAX {
            self.stamps.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.dense_ready = false;
    }

    /// Returns the cached value for `e` or computes and stores it. Both
    /// paths return the stored (`f32`-rounded) value.
    #[inline]
    pub fn get_or_insert_with<F: FnOnce() -> f64>(&mut self, e: EdgeId, compute: F) -> f64 {
        let i = e as usize;
        if self.stamps[i] != self.epoch {
            self.stamps[i] = self.epoch;
            self.values[i] = compute() as f32;
        }
        self.values[i] as f64
    }

    /// The current tag set's sparse per-topic `entries` scattered over all
    /// `num_topics` topics, `absent` elsewhere. Scattered on the first call
    /// after [`begin`](Self::begin), reused until the next.
    pub(crate) fn dense_weights(
        &mut self,
        num_topics: usize,
        entries: &[(TopicId, f64)],
        absent: f64,
    ) -> &[f64] {
        if !self.dense_ready {
            self.dense.clear();
            self.dense.resize(num_topics, absent);
            for &(z, weight) in entries {
                self.dense[z as usize] = weight;
            }
            self.dense_ready = true;
        }
        &self.dense
    }
}

/// [`EdgeProbs`] view for a concrete tag set: Eq. 1 probabilities computed
/// lazily against a posterior and memoised in a shared cache.
pub struct PosteriorEdgeProbs<'a> {
    edge_topics: &'a EdgeTopics,
    posterior: &'a TopicPosterior,
    cache: &'a mut EdgeProbCache,
}

impl<'a> PosteriorEdgeProbs<'a> {
    /// Creates the view and invalidates the cache for the new tag set.
    pub fn new(
        edge_topics: &'a EdgeTopics,
        posterior: &'a TopicPosterior,
        cache: &'a mut EdgeProbCache,
    ) -> Self {
        cache.begin();
        Self { edge_topics, posterior, cache }
    }
}

impl EdgeProbs for PosteriorEdgeProbs<'_> {
    #[inline]
    fn prob(&mut self, e: EdgeId) -> f64 {
        let posterior = self.posterior;
        let edge_topics = self.edge_topics;
        self.cache.get_or_insert_with(e, || posterior.edge_prob(edge_topics, e))
    }

    /// Eq. 1 against the dense posterior. Bit-identical to `prob`: the
    /// row's terms are added in the same ascending-topic order as the
    /// merge-join, and a topic outside the posterior adds `p·0.0 = +0.0`,
    /// which leaves the non-negative `f64` accumulator unchanged.
    fn fill(&mut self, edges: &[EdgeId], out: &mut [f32]) {
        assert_eq!(edges.len(), out.len(), "one output slot per edge");
        let dense =
            self.cache.dense_weights(self.edge_topics.num_topics(), self.posterior.entries(), 0.0);
        for (slot, &e) in out.iter_mut().zip(edges) {
            let (topics, probs) = self.edge_topics.row_slices(e);
            let mut acc = 0.0f64;
            for (&z, &p) in topics.iter().zip(probs) {
                acc += p as f64 * dense[z as usize];
            }
            *slot = acc as f32;
        }
    }
}

/// [`EdgeProbs`] view of `p(e) = max_z p(e|z)` — the RR-Graph generation
/// distribution of Def. 2 and the delay-materialization forward sample of
/// Algo. 4.
pub struct MaxEdgeProbs<'a> {
    edge_topics: &'a EdgeTopics,
}

impl<'a> MaxEdgeProbs<'a> {
    pub fn new(edge_topics: &'a EdgeTopics) -> Self {
        Self { edge_topics }
    }
}

impl EdgeProbs for MaxEdgeProbs<'_> {
    #[inline]
    fn prob(&mut self, e: EdgeId) -> f64 {
        self.edge_topics.p_max(e) as f64
    }
}

/// Fixed per-edge probabilities; the test/verification workhorse and the
/// representation used for single-graph IC experiments.
#[derive(Clone, Debug, PartialEq)]
pub struct FixedEdgeProbs {
    probs: Vec<f64>,
}

impl FixedEdgeProbs {
    pub fn new(probs: Vec<f64>) -> Self {
        assert!(
            probs.iter().all(|&p| (0.0..=1.0).contains(&p)),
            "probabilities must lie in [0, 1]"
        );
        Self { probs }
    }

    /// Same probability on every edge.
    pub fn uniform(num_edges: usize, p: f64) -> Self {
        Self::new(vec![p; num_edges])
    }

    pub fn as_slice(&self) -> &[f64] {
        &self.probs
    }
}

impl EdgeProbs for FixedEdgeProbs {
    #[inline]
    fn prob(&mut self, e: EdgeId) -> f64 {
        self.probs[e as usize]
    }
}

impl EdgeProbs for &mut FixedEdgeProbs {
    #[inline]
    fn prob(&mut self, e: EdgeId) -> f64 {
        self.probs[e as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::TagSet;

    /// Fig. 2b tag–topic matrix (uniform prior over 3 topics).
    fn fig2_matrix() -> TagTopicMatrix {
        TagTopicMatrix::with_uniform_prior(
            vec![
                vec![(0, 0.6), (1, 0.4)],
                vec![(0, 0.4), (1, 0.6)],
                vec![(1, 0.4), (2, 0.6)],
                vec![(1, 0.4), (2, 0.6)],
            ],
            3,
        )
    }

    #[test]
    fn posterior_w1w2_matches_fig2_table() {
        let m = fig2_matrix();
        let p = TopicPosterior::compute(&m, &TagSet::from([0, 1]));
        // Fig. 2b: p(z|{w1,w2}) = (0.5, 0.5, 0.0)
        assert!((p.mass(0) - 0.5).abs() < 1e-9);
        assert!((p.mass(1) - 0.5).abs() < 1e-9);
        assert_eq!(p.mass(2), 0.0);
        assert_eq!(p.entries().len(), 2);
    }

    #[test]
    fn posterior_w3w4_matches_fig2_table() {
        let m = fig2_matrix();
        let p = TopicPosterior::compute(&m, &TagSet::from([2, 3]));
        // Fig. 2b: p(z|{w3,w4}) = (0, 0.33, 0.67) — exactly (0, 4/13, 9/13)
        assert_eq!(p.mass(0), 0.0);
        assert!((p.mass(1) - 0.16 / 0.52).abs() < 1e-6);
        assert!((p.mass(2) - 0.36 / 0.52).abs() < 1e-6);
    }

    #[test]
    fn posterior_of_cross_pairs_is_pure_topic1() {
        let m = fig2_matrix();
        // Fig. 2b: all of {w1,w3}, {w1,w4}, {w2,w3}, {w2,w4} give (0, 1, 0).
        for pair in [[0u32, 2], [0, 3], [1, 2], [1, 3]] {
            let p = TopicPosterior::compute(&m, &TagSet::from(pair));
            assert!((p.mass(1) - 1.0).abs() < 1e-9, "pair {pair:?}");
            assert_eq!(p.entries().len(), 1);
        }
    }

    #[test]
    fn empty_tag_set_recovers_prior() {
        let m = fig2_matrix();
        let p = TopicPosterior::compute(&m, &TagSet::empty());
        for z in 0..3 {
            assert!((p.mass(z) - 1.0 / 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn infeasible_tag_set_has_empty_posterior() {
        // Two tags with disjoint topic support.
        let m = TagTopicMatrix::with_uniform_prior(vec![vec![(0, 1.0)], vec![(1, 1.0)]], 2);
        let p = TopicPosterior::compute(&m, &TagSet::from([0, 1]));
        assert!(p.is_empty());
    }

    #[test]
    fn posterior_sums_to_one() {
        let m = fig2_matrix();
        for set in [vec![0], vec![1, 2], vec![0, 1, 2], vec![2, 3]] {
            let p = TopicPosterior::compute(&m, &TagSet::new(set.clone()));
            let sum: f64 = p.entries().iter().map(|&(_, w)| w).sum();
            assert!(p.is_empty() || (sum - 1.0).abs() < 1e-9, "posterior of {set:?} sums to {sum}");
        }
    }

    #[test]
    fn edge_prob_matches_paper_example1() {
        // Example 1: p((u1,u2)|{w1,w2}) = 0.4·0.5 + 0·0.5 + 0·0 = 0.2.
        let m = fig2_matrix();
        let et = EdgeTopics::new(vec![vec![(0, 0.4)]], 3);
        let p = TopicPosterior::compute(&m, &TagSet::from([0, 1]));
        assert!((p.edge_prob(&et, 0) - 0.2).abs() < 1e-6);
    }

    #[test]
    fn cache_serves_repeat_lookups_and_resets() {
        let m = fig2_matrix();
        let et = EdgeTopics::new(vec![vec![(0, 0.4)], vec![(2, 0.8)]], 3);
        let mut cache = EdgeProbCache::new(2);

        let post12 = TopicPosterior::compute(&m, &TagSet::from([0, 1]));
        let mut view = PosteriorEdgeProbs::new(&et, &post12, &mut cache);
        assert!((view.prob(0) - 0.2).abs() < 1e-6);
        assert!((view.prob(0) - 0.2).abs() < 1e-6, "second read hits the cache");
        assert_eq!(view.prob(1), 0.0);
        assert!(!view.positive(1));

        // Switching tag sets must invalidate.
        let post34 = TopicPosterior::compute(&m, &TagSet::from([2, 3]));
        let mut view = PosteriorEdgeProbs::new(&et, &post34, &mut cache);
        assert_eq!(view.prob(0), 0.0);
        assert!((view.prob(1) - 0.8 * (0.36 / 0.52)).abs() < 1e-6);
    }

    #[test]
    fn max_edge_probs_returns_row_maxima() {
        let et = EdgeTopics::new(vec![vec![(0, 0.4), (1, 0.7)], vec![]], 3);
        let mut v = MaxEdgeProbs::new(&et);
        assert!((v.prob(0) - 0.7).abs() < 1e-7);
        assert_eq!(v.prob(1), 0.0);
    }

    #[test]
    fn fixed_probs_validate_range() {
        let mut f = FixedEdgeProbs::uniform(3, 0.25);
        assert_eq!(f.prob(2), 0.25);
    }

    #[test]
    #[should_panic(expected = "must lie in [0, 1]")]
    fn fixed_probs_reject_out_of_range() {
        FixedEdgeProbs::new(vec![1.2]);
    }

    /// Edge rows with awkward (non-dyadic) values, one of them empty.
    fn awkward_edges() -> EdgeTopics {
        EdgeTopics::new(
            vec![
                vec![(0, 0.37), (1, 0.123), (2, 0.9)],
                vec![],
                vec![(1, 0.7)],
                vec![(0, 0.05), (2, 0.61)],
            ],
            3,
        )
    }

    #[test]
    fn every_probe_of_an_edge_returns_the_stored_f32() {
        // A miss used to return the un-rounded f64 and a hit the rounded
        // f32: the same (e, W) could compare differently against a mark.
        let m = fig2_matrix();
        let et = awkward_edges();
        let mut cache = EdgeProbCache::new(et.num_edges());
        let posterior = TopicPosterior::compute(&m, &TagSet::from([2, 3]));
        let mut view = PosteriorEdgeProbs::new(&et, &posterior, &mut cache);
        for e in 0..et.num_edges() as EdgeId {
            let first = view.prob(e);
            assert_eq!(first.to_bits(), view.prob(e).to_bits(), "edge {e}");
            assert_eq!(first.to_bits(), (first as f32 as f64).to_bits(), "edge {e} is an f32");
        }
    }

    #[test]
    fn fill_equals_prob_bit_for_bit() {
        let m = fig2_matrix();
        let et = awkward_edges();
        let mut posteriors: Vec<TopicPosterior> = (0u32..16)
            .map(|mask| TagSet::new((0..4).filter(|w| mask >> w & 1 == 1).collect()))
            .map(|tags| TopicPosterior::compute(&m, &tags))
            .collect();
        posteriors.push(TopicPosterior::default()); // infeasible: every edge is dead
                                                    // Repeats and a scrambled order: `fill` must not depend on either.
        let edges: Vec<EdgeId> = vec![3, 0, 1, 2, 0, 3, 1];
        let mut cache = EdgeProbCache::new(et.num_edges());
        for posterior in &posteriors {
            let mut view = PosteriorEdgeProbs::new(&et, posterior, &mut cache);
            let expected: Vec<u32> =
                edges.iter().map(|&e| (view.prob(e) as f32).to_bits()).collect();
            let mut filled = vec![f32::NAN; edges.len()];
            view.fill(&edges, &mut filled); // memo primed
            assert_eq!(filled.iter().map(|p| p.to_bits()).collect::<Vec<_>>(), expected);
            let mut view = PosteriorEdgeProbs::new(&et, posterior, &mut cache);
            filled.fill(f32::NAN);
            view.fill(&edges, &mut filled); // memo cold
            assert_eq!(filled.iter().map(|p| p.to_bits()).collect::<Vec<_>>(), expected);
            // The default kernel (what `FixedEdgeProbs` and wrappers run).
            let mut fixed = FixedEdgeProbs::new(edges.iter().map(|&e| view.prob(e)).collect());
            let all: Vec<EdgeId> = (0..edges.len() as EdgeId).collect();
            fixed.fill(&all, &mut filled);
            assert_eq!(filled.iter().map(|p| p.to_bits()).collect::<Vec<_>>(), expected);
        }
    }

    #[test]
    fn recompute_reuses_the_allocation_and_matches_compute() {
        let m = fig2_matrix();
        let mut reused = TopicPosterior::default();
        for tags in [vec![0u32, 1], vec![2, 3], vec![], vec![0, 3], vec![1]] {
            let tags = TagSet::new(tags);
            reused.recompute(&m, &tags);
            assert_eq!(reused, TopicPosterior::compute(&m, &tags), "{tags}");
        }
        let disjoint = TagTopicMatrix::with_uniform_prior(vec![vec![(0, 1.0)], vec![(1, 1.0)]], 2);
        reused.recompute(&disjoint, &TagSet::from([0, 1]));
        assert!(reused.is_empty(), "an infeasible set clears the reused entries");
    }
}
