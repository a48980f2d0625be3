//! Topic posteriors `p(z|W)` and the lazy edge-probability views.
//!
//! Eq. 1 of the paper factors the edge influence probability as
//! `p(e|W) = Σ_z p(e|z)·p(z|W)` with
//! `p(z|W) ∝ p(z)·∏_{w∈W} p(w|z)` (bag-of-words Bayesian language model).
//! The posterior is computed **once per tag set** in `O(k·nnz)` and every
//! edge probability is then a sparse dot product against it, evaluated on
//! first access and memoised — the estimators only ever touch a small
//! neighborhood of the query user for most candidate tag sets.

use crate::columns::EdgeColumns;
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
    ///
    /// Costs the first tag's row plus one lookup per surviving topic and
    /// later tag, not `|Z|` per tag: the support starts as the first tag's
    /// row (`p(z)·p(w₀|z)`, the product's first factor) and each later tag
    /// multiplies it by its factor from the matrix's dense table, dropping
    /// the topics whose factor is 0. Such a topic would have been
    /// multiplied by 0, and a zero weight adds `+0.0` to the total and is
    /// dropped, so the entries are bit for bit those of the product over
    /// all `|Z|` topics.
    pub fn recompute(&mut self, matrix: &TagTopicMatrix, tag_set: &TagSet) {
        // The entries hold unnormalised weights until the end.
        let weights = &mut self.entries;
        weights.clear();
        let prior = matrix.prior();
        let mut tags = tag_set.iter();
        match tags.next() {
            None => weights.extend(prior.iter().enumerate().map(|(z, &p)| (z as TopicId, p))),
            Some(first) => {
                weights.extend(matrix.row(first).map(|(z, p)| (z, prior[z as usize] * p as f64)))
            }
        }
        for w in tags {
            scale_support(weights, matrix.dense_row(w));
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

/// Multiplies each of the `entries` by its topic's factor in the dense row
/// `factors` and drops those whose factor is 0.
pub(crate) fn scale_support(entries: &mut Vec<(TopicId, f64)>, factors: &[f64]) {
    entries.retain_mut(|(z, weight)| {
        let factor = factors[*z as usize];
        *weight *= factor;
        factor != 0.0
    });
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

    /// Sparse bulk kernel over the slots of `cols` (slot `i` is
    /// `cols.edges()[i]`). On entry `out` is all `+0.0` and `touched` is
    /// empty. On return every `out[i]` holds `prob(cols.edges()[i]) as
    /// f32`, bit for bit, and `touched` lists, each once and in any order,
    /// a superset of the slots that are not `+0.0`; only those were
    /// written. Clearing the listed slots and `touched` restores the entry
    /// state, which is how the index estimators reuse one buffer for
    /// every tag set of a query.
    ///
    /// The default probes every listed edge and lists the slots whose value
    /// is not `+0.0`. The tag-set views override it with a pass over the
    /// columns of their support that skips the memo, so a tag set pays for
    /// the slots its support reaches.
    ///
    /// # Panics
    /// If `cols` and `out` differ in length.
    fn fill(&mut self, cols: &EdgeColumns, out: &mut [f32], touched: &mut Vec<u32>) {
        fill_by_prob(self, cols, out, touched);
    }
}

/// [`EdgeProbs::fill`]'s default, one `prob` per listed edge; also what the
/// tag-set views fall back to for columns over another table.
pub(crate) fn fill_by_prob<P: EdgeProbs + ?Sized>(
    probs: &mut P,
    cols: &EdgeColumns,
    out: &mut [f32],
    touched: &mut Vec<u32>,
) {
    assert_eq!(cols.edges().len(), out.len(), "one output slot per edge");
    debug_assert!(touched.is_empty(), "`touched` is empty on entry");
    for ((slot, value), &e) in (0u32..).zip(out.iter_mut()).zip(cols.edges()) {
        let p = probs.prob(e) as f32;
        if p.to_bits() != 0 {
            *value = p;
            touched.push(slot);
        }
    }
}

/// The running Eq. 1 / Eq. 6 sum and Eq. 5 maximum of one slot of a column
/// fill, valid while `stamp` is the fill's epoch.
#[derive(Clone, Copy, Debug, Default)]
struct SlotSums {
    stamp: u32,
    sum: f64,
    max: f64,
}

/// Epoch-stamped memo table of edge probabilities, reusable across tag sets.
///
/// `begin` starts a new tag set in O(1); values are stored as `f32`
/// (probabilities need no more precision; the working set halves), and
/// the stored `f32` is what every probe of an edge returns — the first
/// one included, so an edge compares the same against a mark `c(e)` no
/// matter how often it was probed before.
///
/// Also owns the per-slot accumulators of the column kernels of
/// [`EdgeProbs::fill`], stamped per fill so a fill starts only the slots
/// its columns reach.
#[derive(Clone, Debug)]
pub struct EdgeProbCache {
    stamps: Vec<u32>,
    values: Vec<f32>,
    epoch: u32,
    slots: Vec<SlotSums>,
    fill_epoch: u32,
}

impl EdgeProbCache {
    pub fn new(num_edges: usize) -> Self {
        Self {
            stamps: vec![0; num_edges],
            values: vec![0.0; num_edges],
            epoch: 0,
            slots: Vec::new(),
            fill_epoch: 0,
        }
    }

    /// Invalidates all cached values (start of a new tag set).
    pub fn begin(&mut self) {
        if self.epoch == u32::MAX {
            self.stamps.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
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

    /// The column kernel of both tag-set views: for each `(z, weight)` of
    /// `weights` (ascending topics), every slot of column `z` adds
    /// `p(e|z)·weight` to its sum (Eq. 1 / Eq. 6) and, with `BOUND`, takes
    /// `p(e|z)` into its maximum (Eq. 5). A slot's accumulators start at
    /// `+0.0` on its first touch, which lists it in `touched`, and each
    /// entry writes the slot's running sum, with `BOUND` `min(max, sum)`, as
    /// `f32`: the last write is the merge-join of `prob` term for term, in
    /// the same ascending-topic order. An unlisted slot would have read
    /// `+0.0` either way and keeps the `+0.0` it holds on entry (see
    /// [`EdgeProbs::fill`]).
    pub(crate) fn fill_columns<const BOUND: bool>(
        &mut self,
        cols: &EdgeColumns,
        weights: &[(TopicId, f64)],
        out: &mut [f32],
        touched: &mut Vec<u32>,
    ) {
        assert_eq!(cols.edges().len(), out.len(), "one output slot per edge");
        debug_assert!(touched.is_empty(), "`touched` is empty on entry");
        if self.slots.len() < out.len() {
            self.slots.resize(out.len(), SlotSums::default());
        }
        if self.fill_epoch == u32::MAX {
            self.slots.iter_mut().for_each(|acc| acc.stamp = 0);
            self.fill_epoch = 0;
        }
        self.fill_epoch += 1;
        let epoch = self.fill_epoch;
        for &(z, weight) in weights {
            let (slots, probs) = cols.column(z);
            for (&slot, &p) in slots.iter().zip(probs) {
                let acc = &mut self.slots[slot as usize];
                if acc.stamp != epoch {
                    *acc = SlotSums { stamp: epoch, sum: 0.0, max: 0.0 };
                    touched.push(slot);
                }
                let pez = p as f64;
                if BOUND {
                    acc.max = acc.max.max(pez);
                }
                acc.sum += pez * weight;
                let value = if BOUND { acc.max.min(acc.sum) } else { acc.sum };
                out[slot as usize] = value as f32;
            }
        }
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

    /// Eq. 1 over the posterior's columns only, writing the slots they
    /// reach; bit-identical to `prob` (see `EdgeProbCache::fill_columns`).
    /// Columns over another table take the per-edge default.
    fn fill(&mut self, cols: &EdgeColumns, out: &mut [f32], touched: &mut Vec<u32>) {
        if !cols.is_over(self.edge_topics) {
            return fill_by_prob(self, cols, out, touched);
        }
        self.cache.fill_columns::<false>(cols, self.posterior.entries(), out, touched);
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
    use crate::ids::{TagId, TagSet};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

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
        let cols = EdgeColumns::new(&et, &edges);
        let mut cache = EdgeProbCache::new(et.num_edges());
        let mut touched = Vec::new();
        for posterior in &posteriors {
            let mut view = PosteriorEdgeProbs::new(&et, posterior, &mut cache);
            let expected: Vec<u32> =
                edges.iter().map(|&e| (view.prob(e) as f32).to_bits()).collect();
            let mut filled = vec![0.0; edges.len()];
            view.fill(&cols, &mut filled, &mut touched); // memo primed
            assert_eq!(filled.iter().map(|p| p.to_bits()).collect::<Vec<_>>(), expected);
            let mut view = PosteriorEdgeProbs::new(&et, posterior, &mut cache);
            filled.fill(0.0);
            touched.clear();
            view.fill(&cols, &mut filled, &mut touched); // memo cold
            assert_eq!(filled.iter().map(|p| p.to_bits()).collect::<Vec<_>>(), expected);
            // The default kernel (what `FixedEdgeProbs` and wrappers run).
            let mut fixed = FixedEdgeProbs::new(edges.iter().map(|&e| view.prob(e)).collect());
            let all: Vec<EdgeId> = (0..edges.len() as EdgeId).collect();
            filled.fill(0.0);
            touched.clear();
            fixed.fill(&EdgeColumns::edges_only(&all), &mut filled, &mut touched);
            assert_eq!(filled.iter().map(|p| p.to_bits()).collect::<Vec<_>>(), expected);
            touched.clear();
        }
    }

    /// The dense definition `recompute` must equal: the product over all
    /// `|Z|` topics, a topic a row lacks multiplied by 0.
    fn dense_posterior(matrix: &TagTopicMatrix, tag_set: &TagSet) -> Vec<(TopicId, f64)> {
        let mut weights: Vec<(TopicId, f64)> =
            matrix.prior().iter().enumerate().map(|(z, &p)| (z as TopicId, p)).collect();
        for w in tag_set.iter() {
            for (z, weight) in weights.iter_mut() {
                *weight *= matrix.prob(w, *z) as f64;
            }
        }
        let total: f64 = weights.iter().map(|&(_, w)| w).sum();
        if total <= 0.0 {
            return Vec::new();
        }
        weights.retain_mut(|(_, w)| {
            let positive = *w > 0.0;
            *w /= total;
            positive
        });
        weights
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// The sparse product equals the dense one bit for bit, for `|W|`
        /// from 0 to 4 over matrices with zero-prior topics, empty rows,
        /// disjoint supports and underflowing products.
        #[test]
        fn sparse_recompute_equals_the_dense_product(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let matrix = crate::genmodel::mixed_matrix(&mut rng);
            let tags: Vec<TagId> = (0..matrix.num_tags() as TagId).collect();
            let mut posterior = TopicPosterior::default();
            for size in 0..=4.min(tags.len()) {
                for _ in 0..4 {
                    let set = TagSet::new(tags.choose_multiple(&mut rng, size).copied().collect());
                    posterior.recompute(&matrix, &set);
                    let bits = |entries: &[(TopicId, f64)]| -> Vec<(TopicId, u64)> {
                        entries.iter().map(|&(z, w)| (z, w.to_bits())).collect()
                    };
                    prop_assert_eq!(
                        bits(posterior.entries()),
                        bits(&dense_posterior(&matrix, &set)),
                        "{}",
                        set
                    );
                }
            }
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
