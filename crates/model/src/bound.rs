//! The Lemma 8 upper bound `p⁺(e|W)` for partial tag sets.
//!
//! Best-effort exploration (§5.2, Appx. C) prunes a partial tag set `W`
//! (`|W| < k`) when an *upper bound* on the spread of every size-`k`
//! superset is already below the best known solution. Lemma 8 bounds the
//! edge probability of any completion `W′ ⊇ W, |W′| = k` by
//!
//! ```text
//! p⁺(e|W) = min(  max_{z: p(z|W)>0} p(e|z),                       (Eq. 5)
//!                 Σ_{z: p(z|W)>0} p(e|z) · max_{W*} p(z)·Π_{w∈W∪W*} q(w,z) )  (Eq. 6)
//! with  q(w,z) = p(w|z) / Π_{z′} p(w|z′)^{p(z′)}
//! ```
//!
//! The Appx. B.8 Jensen step (`ln Σ_{z′} p(z′)X_{z′} ≥ Σ_{z′} p(z′) ln X_{z′}`
//! applied to the posterior's denominator) yields
//! `p(z|W′) ≤ p(z)·Π_{w∈W′} q(w,z)`.
//!
//! > Faithfulness note: the paper prints `q(w,z) = p(w|z)·p(z)/…`, i.e. a
//! > prior factor **per tag**. That shrinks the bound by `p(z)^{|W′|−1}` and
//! > makes it invalid — property testing found a two-topic, three-tag
//! > counterexample with a true posterior of 0.76 against a "bound" of 0.22
//! > (`tests/proptest_invariants.rs::lemma8_bound_dominates`). The single
//! > `p(z)` factor above is what the Jensen derivation actually gives; it is
//! > the version implemented here.
//!
//! The per-topic maximum over completions `W*` is attained by the
//! `k − |W|` largest `q(·,z)` values among tags outside `W`, so the oracle
//! precomputes, per topic, tags sorted by descending `q`.

use crate::columns::EdgeColumns;
use crate::ids::{TagId, TagSet, TopicId};
use crate::posterior::{fill_by_prob, scale_support, EdgeProbCache, EdgeProbs};
use crate::{EdgeTopics, TagTopicMatrix};
use pitex_graph::EdgeId;

/// Precomputed `q(w,z)` tables for fast partial-set bounds.
#[derive(Clone, Debug)]
pub struct BoundOracle {
    /// Per topic: `(q(w,z), w)` sorted by descending `q`. Only topics with
    /// positive prior appear populated.
    per_topic: Vec<Vec<(f64, TagId)>>,
    /// Per tag: `(z, q(w,z))` sorted by topic, mirroring the matrix rows.
    per_tag: Vec<Vec<(TopicId, f64)>>,
    /// `q(w,z)` at `w·|Z| + z`, 0 where `per_tag` lists no entry. A listed
    /// `q` is never 0 (`q ≥ p(w|z) > 0`, since the denominator is ≤ 1), so
    /// 0 here means exactly "not listed".
    q_dense: Vec<f64>,
    prior: Vec<f64>,
}

impl BoundOracle {
    /// Builds the oracle from a tag–topic matrix;
    /// `O(nnz·|Z| + nnz log nnz + |Ω|·|Z|)`.
    pub fn new(matrix: &TagTopicMatrix) -> Self {
        let num_topics = matrix.num_topics();
        let prior = matrix.prior().to_vec();
        let mut per_topic: Vec<Vec<(f64, TagId)>> = vec![Vec::new(); num_topics];
        let mut per_tag: Vec<Vec<(TopicId, f64)>> = Vec::with_capacity(matrix.num_tags());
        let mut q_dense = vec![0.0; matrix.num_tags() * num_topics];

        for w in 0..matrix.num_tags() as TagId {
            // ln D(w) = Σ_{z′} p(z′)·ln p(w|z′). If any prior-positive topic
            // is missing from the row, D(w) = 0 and q(w,·) = +∞ — the bound
            // then caps at 1 (Appx. B.8's inequality is vacuous there).
            let mut ln_d = 0.0f64;
            let mut covered_mass = 0.0f64;
            for (z, p) in matrix.row(w) {
                let pz = prior[z as usize];
                if pz > 0.0 {
                    ln_d += pz * (p as f64).ln();
                    covered_mass += pz;
                }
            }
            let full_support = (covered_mass - 1.0).abs() < 1e-12;
            let d = if full_support { ln_d.exp() } else { 0.0 };

            let mut row_q = Vec::with_capacity(matrix.row_len(w));
            for (z, p) in matrix.row(w) {
                let pz = prior[z as usize];
                if pz <= 0.0 {
                    continue;
                }
                let q = if d > 0.0 { p as f64 / d } else { f64::INFINITY };
                row_q.push((z, q));
                per_topic[z as usize].push((q, w));
                q_dense[w as usize * num_topics + z as usize] = q;
            }
            per_tag.push(row_q);
        }
        for list in &mut per_topic {
            list.sort_unstable_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
        }
        Self { per_topic, per_tag, q_dense, prior }
    }

    /// `q(w,z)`, or 0 if `p(w|z) = 0` or `p(z) = 0`.
    pub fn q(&self, w: TagId, z: TopicId) -> f64 {
        self.q_row(w)[z as usize]
    }

    /// `q(w,·)` over every topic.
    fn q_row(&self, w: TagId) -> &[f64] {
        let num_topics = self.prior.len();
        &self.q_dense[w as usize * num_topics..(w as usize + 1) * num_topics]
    }

    /// Heap footprint of the tables in bytes.
    pub fn heap_bytes(&self) -> u64 {
        use std::mem::size_of;
        let per_topic: usize =
            self.per_topic.iter().map(|l| l.len() * size_of::<(f64, TagId)>()).sum();
        let per_tag: usize =
            self.per_tag.iter().map(|r| r.len() * size_of::<(TopicId, f64)>()).sum();
        let headers = (self.per_topic.len() + self.per_tag.len()) * size_of::<Vec<()>>();
        (per_topic + per_tag + headers + (self.q_dense.len() + self.prior.len()) * 8) as u64
    }

    /// Per-topic upper-bound weights for all size-`k` completions of the
    /// partial set `W` (`|W| ≤ k`).
    ///
    /// Entry `z` carries `min(1, Π_{w∈W} q(w,z) · top_{k−|W|} q(·,z) over
    /// Ω∖W)`; topics where some `w ∈ W` has `p(w|z) = 0` are absent (they can
    /// never carry posterior mass for a superset of `W`). Topics where no
    /// valid completion exists carry weight 0 but remain listed, because
    /// Eq. 5's term still ranges over the *posterior support of `W`*.
    pub fn bounded_posterior(&self, tag_set: &TagSet, k: usize) -> BoundedPosterior {
        let mut bounded = BoundedPosterior::default();
        self.bounded_posterior_into(tag_set, k, &mut bounded);
        bounded
    }

    /// [`BoundOracle::bounded_posterior`] into `out`, reusing its
    /// allocation (best-effort exploration bounds hundreds of partial sets
    /// per query).
    ///
    /// For a non-empty `W` the support is the first tag's `per_tag` row,
    /// filtered by each later tag's `q` row of the dense table: a topic
    /// some `w ∈ W` does not cover is dead for every superset. The base
    /// product is `p(z)` times `q(w, z)` over `W` in tag order, as for `|Z|`
    /// topics.
    pub fn bounded_posterior_into(&self, tag_set: &TagSet, k: usize, out: &mut BoundedPosterior) {
        debug_assert!(tag_set.len() <= k);
        let needed = k - tag_set.len();
        // The entries hold the base products until the completions weigh in.
        let entries = &mut out.entries;
        entries.clear();
        let mut tags = tag_set.iter();
        match tags.next() {
            None => entries.extend(
                (0..self.prior.len() as TopicId)
                    .map(|z| (z, self.prior[z as usize]))
                    .filter(|&(_, p)| p > 0.0),
            ),
            Some(first) => entries.extend(
                self.per_tag[first as usize].iter().map(|&(z, q)| (z, self.prior[z as usize] * q)),
            ),
        }
        for w in tags {
            scale_support(entries, self.q_row(w));
        }
        for (z, weight) in entries.iter_mut() {
            // Best completion: largest `needed` q values among tags ∉ W.
            let mut completion = 1.0f64;
            let mut taken = 0usize;
            if needed > 0 {
                for &(q, w) in &self.per_topic[*z as usize] {
                    if tag_set.contains(w) {
                        continue;
                    }
                    completion *= q;
                    taken += 1;
                    if taken == needed {
                        break;
                    }
                }
            }
            *weight = if taken < needed {
                0.0 // every completion includes a zero-probability tag
            } else {
                (*weight * completion).min(1.0)
            };
        }
    }
}

/// Per-topic upper-bound weights for a partial tag set, consumed by
/// [`UpperBoundEdgeProbs`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BoundedPosterior {
    /// `(topic, weight)` over the posterior support of the partial set,
    /// sorted by topic; weights are capped at 1 and may be 0.
    entries: Vec<(TopicId, f64)>,
}

impl BoundedPosterior {
    pub fn entries(&self) -> &[(TopicId, f64)] {
        &self.entries
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Evaluates `p⁺(e|W)` = min(Eq. 5, Eq. 6) for one edge.
    pub fn edge_bound(&self, edge_topics: &EdgeTopics, e: EdgeId) -> f64 {
        let (topics, probs) = edge_topics.row_slices(e);
        let mut max_term = 0.0f64; // Eq. 5
        let mut sum_term = 0.0f64; // Eq. 6
        let mut i = 0usize;
        let mut j = 0usize;
        while i < topics.len() && j < self.entries.len() {
            let (z, weight) = self.entries[j];
            match topics[i].cmp(&z) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    let pez = probs[i] as f64;
                    max_term = max_term.max(pez);
                    sum_term += pez * weight;
                    i += 1;
                    j += 1;
                }
            }
        }
        max_term.min(sum_term)
    }
}

/// [`EdgeProbs`] view of the Lemma 8 bound: plugs into any spread estimator
/// to produce an upper bound on the spread of every completion of `W`
/// (IC spread is monotone in edge probabilities).
pub struct UpperBoundEdgeProbs<'a> {
    edge_topics: &'a EdgeTopics,
    bounded: &'a BoundedPosterior,
    cache: &'a mut EdgeProbCache,
}

impl<'a> UpperBoundEdgeProbs<'a> {
    pub fn new(
        edge_topics: &'a EdgeTopics,
        bounded: &'a BoundedPosterior,
        cache: &'a mut EdgeProbCache,
    ) -> Self {
        cache.begin();
        Self { edge_topics, bounded, cache }
    }
}

impl EdgeProbs for UpperBoundEdgeProbs<'_> {
    #[inline]
    fn prob(&mut self, e: EdgeId) -> f64 {
        let bounded = self.bounded;
        let edge_topics = self.edge_topics;
        self.cache.get_or_insert_with(e, || bounded.edge_bound(edge_topics, e))
    }

    /// `edge_bound` over the bounded topics' columns only, writing the
    /// slots they reach; bit-identical to `prob` (see
    /// `EdgeProbCache::fill_columns`), a listed topic of weight 0 included
    /// (it still counts in Eq. 5's max). Columns over another table take
    /// the per-edge default.
    fn fill(&mut self, cols: &EdgeColumns, out: &mut [f32], touched: &mut Vec<u32>) {
        if !cols.is_over(self.edge_topics) {
            return fill_by_prob(self, cols, out, touched);
        }
        self.cache.fill_columns::<true>(cols, self.bounded.entries(), out, touched);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combi::KSubsets;
    use crate::posterior::{FixedEdgeProbs, PosteriorEdgeProbs, TopicPosterior};
    use crate::TicModel;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    fn fig2() -> TicModel {
        TicModel::paper_example()
    }

    #[test]
    fn q_is_zero_outside_support() {
        let m = fig2();
        let oracle = BoundOracle::new(m.tag_topic());
        assert_eq!(oracle.q(0, 2), 0.0, "w1 has no mass on z3");
        assert!(oracle.q(0, 0) > 0.0);
    }

    #[test]
    fn empty_set_bound_is_capped_by_p_max_and_dominates_all_sets() {
        // Lemma 8 (W.L.O.G. clause): p⁺(e|∅) ≤ max_z p(e|z), and it must
        // dominate p(e|W′) for every size-k set W′.
        let m = fig2();
        let oracle = BoundOracle::new(m.tag_topic());
        let bounded = oracle.bounded_posterior(&TagSet::empty(), 2);
        for (e, _, _) in m.graph().edges() {
            let b = bounded.edge_bound(m.edge_topics(), e);
            let p_max = m.edge_topics().p_max(e) as f64;
            assert!(b <= p_max + 1e-7, "edge {e}: bound {b} above p_max {p_max}");
            for full in KSubsets::new(m.num_tags() as u32, 2) {
                let wp = TagSet::new(full);
                let post = TopicPosterior::compute(m.tag_topic(), &wp);
                let exact = post.edge_prob(m.edge_topics(), e);
                assert!(b >= exact - 1e-9, "edge {e}, W'={wp}: {b} < {exact}");
            }
        }
    }

    /// The central soundness property: for every partial `W` and every
    /// size-k completion `W′ ⊇ W`, `p⁺(e|W) ≥ p(e|W′)` on every edge.
    #[test]
    fn bound_dominates_all_completions_fig2() {
        let m = fig2();
        let oracle = BoundOracle::new(m.tag_topic());
        let k = 2usize;
        let num_tags = m.num_tags() as u32;
        for partial_size in 0..=k {
            for partial in KSubsets::new(num_tags, partial_size) {
                let w = TagSet::new(partial);
                let bounded = oracle.bounded_posterior(&w, k);
                for full in KSubsets::new(num_tags, k) {
                    let wp = TagSet::new(full);
                    if !w.is_subset_of(&wp) {
                        continue;
                    }
                    let post = TopicPosterior::compute(m.tag_topic(), &wp);
                    for (e, _, _) in m.graph().edges() {
                        let bound = bounded.edge_bound(m.edge_topics(), e);
                        let exact = post.edge_prob(m.edge_topics(), e);
                        assert!(
                            bound >= exact - 1e-9,
                            "W={w} W'={wp} edge {e}: bound {bound} < exact {exact}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn heap_bytes_counts_the_dense_q_table() {
        // Fig. 2: 8 listed (w, z) pairs, each once per topic list and once
        // per tag row; 3 + 4 list headers; 4 × 3 q values and 3 priors.
        let oracle = BoundOracle::new(fig2().tag_topic());
        assert_eq!(oracle.heap_bytes(), (8 * 16 * 2 + 7 * 24 + (12 + 3) * 8) as u64);
        for w in 0..4 {
            for z in 0..3 {
                assert_eq!(oracle.q(w, z) > 0.0, fig2().tag_topic().prob(w, z) > 0.0, "({w}, {z})");
            }
        }
    }

    #[test]
    fn dead_topics_are_dropped_from_support() {
        let m = fig2();
        let oracle = BoundOracle::new(m.tag_topic());
        // w1 (id 0) has support {z1, z2}; any superset keeps z3 dead.
        let bounded = oracle.bounded_posterior(&TagSet::from([0]), 2);
        assert!(bounded.entries().iter().all(|&(z, _)| z != 2));
    }

    #[test]
    fn weights_are_capped_at_one() {
        let m = fig2();
        let oracle = BoundOracle::new(m.tag_topic());
        for size in 0..=2usize {
            for set in KSubsets::new(m.num_tags() as u32, size) {
                let bounded = oracle.bounded_posterior(&TagSet::new(set), 2);
                for &(_, weight) in bounded.entries() {
                    assert!((0.0..=1.0).contains(&weight));
                }
            }
        }
    }

    #[test]
    fn missing_prior_support_gives_infinite_q_capped_to_one() {
        // A tag that covers only one of two topics ⇒ D(w) = 0 ⇒ q = ∞,
        // and the bound must cap at 1, not produce NaN.
        let matrix =
            TagTopicMatrix::with_uniform_prior(vec![vec![(0, 0.5)], vec![(0, 0.3), (1, 0.7)]], 2);
        let oracle = BoundOracle::new(&matrix);
        assert!(oracle.q(0, 0).is_infinite());
        let bounded = oracle.bounded_posterior(&TagSet::from([0]), 2);
        for &(_, weight) in bounded.entries() {
            assert!(weight.is_finite());
            assert!((0.0..=1.0).contains(&weight));
        }
    }

    #[test]
    fn impossible_completion_weights_zero() {
        // Topic 1 is supported by a single tag; a 3-set through topic 1
        // cannot exist, so its weight must be 0 for any |W| ≤ 2 not
        // containing enough topic-1 tags.
        let matrix = TagTopicMatrix::with_uniform_prior(
            vec![vec![(0, 0.5), (1, 0.5)], vec![(0, 1.0)], vec![(0, 1.0)]],
            2,
        );
        let oracle = BoundOracle::new(&matrix);
        let bounded = oracle.bounded_posterior(&TagSet::empty(), 3);
        let z1 = bounded.entries().iter().find(|&&(z, _)| z == 1).unwrap();
        assert_eq!(z1.1, 0.0, "only one tag supports topic 1, k = 3 needs three");
    }

    #[test]
    fn fill_and_repeated_probes_equal_the_first_probe_bit_for_bit() {
        // Three matrices: Fig. 2, one with an infinite q, and one where a
        // listed topic has weight 0 (it must still count in Eq. 5's max).
        let matrices = [
            fig2().tag_topic().clone(),
            TagTopicMatrix::with_uniform_prior(vec![vec![(0, 0.5)], vec![(0, 0.3), (1, 0.7)]], 2),
            TagTopicMatrix::with_uniform_prior(
                vec![vec![(0, 0.5), (1, 0.5)], vec![(0, 1.0)], vec![(0, 1.0)]],
                2,
            ),
        ];
        for matrix in &matrices {
            let z = matrix.num_topics();
            // Awkward (non-dyadic) values on every topic subset, one empty row.
            let rows: Vec<Vec<(TopicId, f32)>> = (0u32..1 << z)
                .map(|mask| {
                    (0..z as TopicId)
                        .filter(|t| mask >> t & 1 == 1)
                        .map(|t| (t, 0.123 + 0.29 * t as f32 + 0.01 * mask as f32))
                        .collect()
                })
                .collect();
            let et = EdgeTopics::new(rows, z);
            let edges: Vec<EdgeId> = (0..et.num_edges() as EdgeId).rev().chain([0, 1]).collect();
            let oracle = BoundOracle::new(matrix);
            let mut cache = EdgeProbCache::new(et.num_edges());
            let mut bounded = BoundedPosterior::default();
            let mut saw_zero_weight = false;
            for k in 1..=matrix.num_tags() {
                for size in 0..=k {
                    for partial in KSubsets::new(matrix.num_tags() as u32, size) {
                        oracle.bounded_posterior_into(&TagSet::new(partial), k, &mut bounded);
                        saw_zero_weight |= bounded.entries().iter().any(|&(_, w)| w == 0.0);
                        let mut view = UpperBoundEdgeProbs::new(&et, &bounded, &mut cache);
                        let expected: Vec<u32> =
                            edges.iter().map(|&e| (view.prob(e) as f32).to_bits()).collect();
                        for (&e, &bits) in edges.iter().zip(&expected) {
                            assert_eq!(
                                view.prob(e).to_bits(),
                                (f32::from_bits(bits) as f64).to_bits()
                            );
                        }
                        let mut view = UpperBoundEdgeProbs::new(&et, &bounded, &mut cache);
                        let mut filled = vec![0.0; edges.len()];
                        view.fill(&EdgeColumns::new(&et, &edges), &mut filled, &mut Vec::new());
                        assert_eq!(
                            filled.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
                            expected
                        );
                    }
                }
            }
            if matrix.num_tags() == 3 && z == 2 {
                assert!(saw_zero_weight, "the third matrix exists for its zero-weight topic");
            }
        }
    }

    /// The dense walk `bounded_posterior_into` must equal: every
    /// prior-positive topic, `q` looked up per tag.
    fn dense_bounded(oracle: &BoundOracle, tag_set: &TagSet, k: usize) -> Vec<(TopicId, f64)> {
        let needed = k - tag_set.len();
        let mut entries = Vec::new();
        'topic: for z in 0..oracle.per_topic.len() {
            if oracle.prior[z] <= 0.0 {
                continue;
            }
            let mut base = oracle.prior[z];
            for w in tag_set.iter() {
                let q = oracle.q(w, z as TopicId);
                if q <= 0.0 {
                    continue 'topic;
                }
                base *= q;
            }
            let mut completion = 1.0f64;
            let mut taken = 0usize;
            if needed > 0 {
                for &(q, w) in &oracle.per_topic[z] {
                    if tag_set.contains(w) {
                        continue;
                    }
                    completion *= q;
                    taken += 1;
                    if taken == needed {
                        break;
                    }
                }
            }
            let weight = if taken < needed { 0.0 } else { (base * completion).min(1.0) };
            entries.push((z as TopicId, weight));
        }
        entries
    }

    fn bits(entries: &[(TopicId, f64)]) -> Vec<(TopicId, u64)> {
        entries.iter().map(|&(z, w)| (z, w.to_bits())).collect()
    }

    /// Random partial sets of every size up to 4 (capped by `|Ω|`).
    fn partial_sets(num_tags: usize, rng: &mut StdRng) -> Vec<TagSet> {
        let tags: Vec<TagId> = (0..num_tags as TagId).collect();
        (0..=4.min(num_tags))
            .flat_map(|size| (0..3).map(move |_| size))
            .map(|size| TagSet::new(tags.choose_multiple(rng, size).copied().collect()))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// The sparse support walk equals the dense one bit for bit, for
        /// `|W|` from 0 to 4 and every `k` from `|W|` to `|Ω|`.
        #[test]
        fn sparse_bounds_equal_the_dense_walk(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let matrix = crate::genmodel::mixed_matrix(&mut rng);
            let oracle = BoundOracle::new(&matrix);
            let mut bounded = BoundedPosterior::default();
            for set in partial_sets(matrix.num_tags(), &mut rng) {
                for k in set.len()..=matrix.num_tags() {
                    oracle.bounded_posterior_into(&set, k, &mut bounded);
                    let want = dense_bounded(&oracle, &set, k);
                    prop_assert_eq!(bits(bounded.entries()), bits(&want), "{} k {}", set, k);
                }
            }
        }

        /// Both views' column `fill` equals `prob as f32` bit for bit: over
        /// mixed edge rows, repeated and scrambled edge lists, empty
        /// posteriors and zero-weight bound topics; a block over another
        /// table takes the per-edge default.
        #[test]
        fn column_fill_equals_prob_bit_for_bit(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let matrix = crate::genmodel::mixed_matrix(&mut rng);
            let z = matrix.num_topics();
            let num_edges = rng.gen_range(1..24usize);
            let mut table = || {
                let density = rng.gen_range(0.2..1.0);
                let rows = (0..num_edges).map(|_| crate::genmodel::mixed_row(z, density, &mut rng));
                EdgeTopics::new(rows.collect(), z)
            };
            let (et, foreign) = (table(), table());
            let edges: Vec<EdgeId> =
                (0..rng.gen_range(0..40usize)).map(|_| rng.gen_range(0..num_edges as EdgeId)).collect();
            let cols = EdgeColumns::new(&et, &edges);
            let foreign_cols = EdgeColumns::new(&foreign, &edges);
            let oracle = BoundOracle::new(&matrix);
            let mut cache = EdgeProbCache::new(num_edges);
            let mut filled = vec![0.0; edges.len()];
            let mut check = |view: &mut dyn EdgeProbs, what: &str| {
                let want: Vec<u32> = edges.iter().map(|&e| (view.prob(e) as f32).to_bits()).collect();
                for block in [&cols, &foreign_cols] {
                    filled.fill(0.0);
                    view.fill(block, &mut filled, &mut Vec::new());
                    let got: Vec<u32> = filled.iter().map(|p| p.to_bits()).collect();
                    prop_assert_eq!(&got, &want, "{} over {:?}", what, edges);
                }
            };
            let mut posterior = TopicPosterior::default();
            let mut bounded = BoundedPosterior::default();
            check(&mut PosteriorEdgeProbs::new(&et, &posterior, &mut cache), "empty posterior");
            for set in partial_sets(matrix.num_tags(), &mut rng) {
                posterior.recompute(&matrix, &set);
                check(&mut PosteriorEdgeProbs::new(&et, &posterior, &mut cache), "posterior");
                for k in set.len()..=matrix.num_tags() {
                    oracle.bounded_posterior_into(&set, k, &mut bounded);
                    check(&mut UpperBoundEdgeProbs::new(&et, &bounded, &mut cache), "bound");
                }
            }
        }

        /// The sparse `fill` contract, fill after fill into one buffer that
        /// only `touched` re-zeroes: every fill equals a fresh dense pass of
        /// `prob as f32` bit for bit, lists no slot twice, lists every slot
        /// that is not `+0.0` (so an unlisted slot reads `+0.0`), and leaves
        /// an all-zero buffer once its listed slots are cleared. Over both
        /// views, one posterior, bound, foreign-block or fixed fill after
        /// another, on mixed rows and fixed probabilities (0, 1, subnormal,
        /// `f32`-rounded, `1 − 2⁻²⁴`, `−0.0`, below `f32`'s range).
        #[test]
        fn sparse_fill_contract_holds_fill_after_fill(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let matrix = crate::genmodel::mixed_matrix(&mut rng);
            let z = matrix.num_topics();
            let num_edges = rng.gen_range(1..24usize);
            let mut table = || {
                let density = rng.gen_range(0.2..1.0);
                let rows = (0..num_edges).map(|_| crate::genmodel::mixed_row(z, density, &mut rng));
                EdgeTopics::new(rows.collect(), z)
            };
            let (et, foreign) = (table(), table());
            let edges: Vec<EdgeId> =
                (0..rng.gen_range(0..40usize)).map(|_| rng.gen_range(0..num_edges as EdgeId)).collect();
            let (cols, foreign_cols) = (EdgeColumns::new(&et, &edges), EdgeColumns::new(&foreign, &edges));
            let oracle = BoundOracle::new(&matrix);
            let (mut cache, mut fresh) = (EdgeProbCache::new(num_edges), EdgeProbCache::new(num_edges));
            let mut out = vec![0.0f32; edges.len()];
            let mut touched = Vec::new();
            let mut fill_and_check = |view: &mut dyn EdgeProbs, block: &EdgeColumns, want: &[u32]| {
                view.fill(block, &mut out, &mut touched);
                let got: Vec<u32> = out.iter().map(|p| p.to_bits()).collect();
                prop_assert_eq!(&got, want, "over {:?}", edges);
                let mut listed = vec![false; out.len()];
                for &slot in &touched {
                    prop_assert!(!std::mem::replace(&mut listed[slot as usize], true), "{slot} twice");
                }
                for (slot, &bits) in want.iter().enumerate() {
                    prop_assert!(listed[slot] || bits == 0, "slot {slot} is not +0.0 but unlisted");
                }
                for slot in touched.drain(..) {
                    out[slot as usize] = 0.0;
                }
                prop_assert!(out.iter().all(|p| p.to_bits() == 0), "a slot outlived its fill");
            };
            let dense = |view: &mut dyn EdgeProbs| -> Vec<u32> {
                edges.iter().map(|&e| (view.prob(e) as f32).to_bits()).collect()
            };
            let mut posterior = TopicPosterior::default();
            let mut bounded = BoundedPosterior::default();
            for set in partial_sets(matrix.num_tags(), &mut rng) {
                posterior.recompute(&matrix, &set);
                let want = dense(&mut PosteriorEdgeProbs::new(&et, &posterior, &mut fresh));
                for block in [&cols, &foreign_cols] {
                    fill_and_check(&mut PosteriorEdgeProbs::new(&et, &posterior, &mut cache), block, &want);
                }
                let k = rng.gen_range(set.len()..=matrix.num_tags());
                oracle.bounded_posterior_into(&set, k, &mut bounded);
                let want = dense(&mut UpperBoundEdgeProbs::new(&et, &bounded, &mut fresh));
                for block in [&cols, &foreign_cols] {
                    fill_and_check(&mut UpperBoundEdgeProbs::new(&et, &bounded, &mut cache), block, &want);
                }
                let fixed: Vec<f64> = (0..num_edges)
                    .map(|_| match rng.gen_range(0..8u32) {
                        0 => -0.0,
                        1 => 1e-50, // rounds to +0.0 as an f32
                        _ => crate::genmodel::mixed_prob(&mut rng),
                    })
                    .collect();
                let mut fixed = FixedEdgeProbs::new(fixed);
                let want = dense(&mut fixed);
                fill_and_check(&mut fixed, &EdgeColumns::edges_only(&edges), &want);
            }
        }
    }

    /// Summation order shows in the `f32` result here. Ascending, the two
    /// smallest terms are absorbed one at a time and the sum stays on an
    /// `f32` midpoint, which rounds to even (`0.25`); descending, they add
    /// up first and tip it over (`0.25 + 2⁻²⁵`). Both views must sum in
    /// `prob`'s ascending order.
    #[test]
    fn column_fill_sums_topics_in_ascending_order() {
        let tiny = 3.0 * 2f32.powi(-55);
        let row = vec![(0, 1.0), (1, 2f32.powi(-24)), (2, tiny), (3, tiny)];
        let et = EdgeTopics::new(vec![row], 4);
        let matrix = TagTopicMatrix::with_uniform_prior(vec![vec![(0, 1.0)]], 4);
        let posterior = TopicPosterior::compute(&matrix, &TagSet::empty());
        let bounded = BoundOracle::new(&matrix).bounded_posterior(&TagSet::empty(), 0);
        assert!(bounded.entries().iter().all(|&(_, w)| w == 0.25));
        let cols = EdgeColumns::new(&et, &[0]);
        let mut cache = EdgeProbCache::new(1);
        let mut filled = [0.0];
        let mut view = PosteriorEdgeProbs::new(&et, &posterior, &mut cache);
        assert_eq!(view.prob(0) as f32, 0.25);
        view.fill(&cols, &mut filled, &mut Vec::new());
        assert_eq!(filled[0], 0.25, "posterior view");
        let mut view = UpperBoundEdgeProbs::new(&et, &bounded, &mut cache);
        assert_eq!(view.prob(0) as f32, 0.25);
        filled[0] = 0.0;
        view.fill(&cols, &mut filled, &mut Vec::new());
        assert_eq!(filled[0], 0.25, "bound view");
    }

    #[test]
    fn bounded_posterior_into_matches_the_allocating_form() {
        let m = fig2();
        let oracle = BoundOracle::new(m.tag_topic());
        let mut reused = BoundedPosterior::default();
        for size in 0..=2usize {
            for set in KSubsets::new(m.num_tags() as u32, size) {
                let w = TagSet::new(set);
                oracle.bounded_posterior_into(&w, 2, &mut reused);
                assert_eq!(reused, oracle.bounded_posterior(&w, 2), "{w}");
            }
        }
    }
}
