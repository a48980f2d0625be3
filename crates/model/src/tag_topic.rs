//! The sparse tag–topic probability matrix `p(w|z)` and the topic prior.

use crate::ids::{TagId, TopicId};
use crate::rows::SparseRows;

/// Sparse `|Ω| × |Z|` matrix of tag–topic probabilities `p(w|z)`, stored
/// CSR-style by tag, together with the topic prior `p(z)`.
///
/// The paper's datasets have tag–topic *densities* (fraction of non-zero
/// entries) between 0.08 and 0.32, and the best-effort strategy's pruning
/// power comes exactly from those zeros (§7.3, "varying k"), so sparsity is
/// structural, not an optimization. The rows are a [`SparseRows`] arena
/// whose row `w` is tag `w`'s: `row`, `row_len`, `prob`, `nnz` and
/// `num_topics` are the arena's, reached through `Deref`.
///
/// Beside the rows the matrix keeps them dense, as `f64` (`|Ω|·|Z|·8`
/// bytes, 8 KB to 100 KB on the paper's profiles): a posterior
/// multiplies its support by each later tag's `p(w|z)` with one lookup
/// per topic instead of a merge with the tag's row.
#[derive(Clone, Debug, PartialEq)]
pub struct TagTopicMatrix {
    rows: SparseRows,
    /// Topic prior `p(z)`; `len = num_topics`, sums to 1.
    prior: Vec<f64>,
    /// `p(w|z)` at `w·|Z| + z`, 0 where row `w` has no entry.
    dense: Vec<f64>,
}

impl std::ops::Deref for TagTopicMatrix {
    type Target = SparseRows;

    #[inline]
    fn deref(&self) -> &SparseRows {
        &self.rows
    }
}

impl TagTopicMatrix {
    /// Builds from per-tag sparse rows. Each row lists `(topic, p(w|z))`
    /// pairs; rows may be unsorted but must not repeat a topic.
    ///
    /// # Panics
    /// If a probability is not in `(0, 1]`, a topic id is out of range, a
    /// row repeats a topic, or the prior does not sum to 1 (±1e-6).
    pub fn new(rows: Vec<Vec<(TopicId, f32)>>, prior: Vec<f64>) -> Self {
        let mut arena = SparseRows::with_capacity(prior.len(), rows.len(), 0);
        for (w, mut row) in rows.into_iter().enumerate() {
            row.sort_unstable_by_key(|&(z, _)| z);
            arena.push_row(&row).unwrap_or_else(|err| panic!("tag {w}: {err}"));
        }
        Self::from_rows(arena, prior)
    }

    /// Pairs an arena whose row `w` is tag `w`'s `p(w|z)` row with the
    /// topic prior.
    ///
    /// # Panics
    /// If the prior's length is not the arena's `|Z|`, it has a negative
    /// entry, or it does not sum to 1 (±1e-6).
    pub fn from_rows(rows: SparseRows, prior: Vec<f64>) -> Self {
        assert_eq!(prior.len(), rows.num_topics(), "the prior must cover every topic");
        let prior_sum: f64 = prior.iter().sum();
        assert!((prior_sum - 1.0).abs() < 1e-6, "topic prior must sum to 1, got {prior_sum}");
        assert!(prior.iter().all(|&p| p >= 0.0), "prior probabilities must be non-negative");
        let num_topics = rows.num_topics();
        let mut dense = vec![0.0; rows.num_rows() * num_topics];
        for (w, dense_row) in dense.chunks_exact_mut(num_topics.max(1)).enumerate() {
            for (z, p) in rows.row(w as TagId) {
                dense_row[z as usize] = p as f64;
            }
        }
        Self { rows, prior, dense }
    }

    /// Uniform prior helper: `p(z) = 1/|Z|`.
    pub fn with_uniform_prior(rows: Vec<Vec<(TopicId, f32)>>, num_topics: usize) -> Self {
        Self::new(rows, vec![1.0 / num_topics as f64; num_topics])
    }

    /// Number of tags `|Ω|`.
    pub fn num_tags(&self) -> usize {
        self.rows.num_rows()
    }

    /// Topic prior `p(z)`.
    pub fn prior(&self) -> &[f64] {
        &self.prior
    }

    /// `p(w|z)` of tag `w` over every topic, 0 where the row has no entry
    /// (a row's entries are never 0, so 0 means exactly "absent").
    #[inline]
    pub fn dense_row(&self, w: TagId) -> &[f64] {
        let num_topics = self.num_topics();
        &self.dense[w as usize * num_topics..(w as usize + 1) * num_topics]
    }

    /// Fraction of non-zero entries, the paper's "tag-topic probability
    /// density" (footnote 7): `nnz / (|Ω|·|Z|)`.
    pub fn density(&self) -> f64 {
        if self.num_tags() == 0 || self.num_topics() == 0 {
            return 0.0;
        }
        self.nnz() as f64 / (self.num_tags() * self.num_topics()) as f64
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_bytes(&self) -> u64 {
        self.rows.heap_bytes() + (self.prior.len() + self.dense.len()) as u64 * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tag–topic table of the paper's running example (Fig. 2b).
    pub(crate) fn fig2_matrix() -> TagTopicMatrix {
        TagTopicMatrix::with_uniform_prior(
            vec![
                vec![(0, 0.6), (1, 0.4)], // w1
                vec![(0, 0.4), (1, 0.6)], // w2
                vec![(1, 0.4), (2, 0.6)], // w3
                vec![(1, 0.4), (2, 0.6)], // w4
            ],
            3,
        )
    }

    #[test]
    fn shape_and_lookup() {
        let m = fig2_matrix();
        assert_eq!(m.num_tags(), 4);
        assert_eq!(m.num_topics(), 3);
        assert_eq!(m.prob(0, 0), 0.6);
        assert_eq!(m.prob(0, 2), 0.0, "absent entry reads as zero");
        assert_eq!(m.prob(3, 2), 0.6);
    }

    #[test]
    fn rows_are_sorted_and_complete() {
        let m = fig2_matrix();
        let row: Vec<_> = m.row(2).collect();
        assert_eq!(row, vec![(1, 0.4), (2, 0.6)]);
        assert_eq!(m.row_len(2), 2);
    }

    #[test]
    fn dense_rows_mirror_the_sparse_rows_and_count_in_heap_bytes() {
        let m = fig2_matrix();
        for w in 0..4 {
            let dense: Vec<f64> = (0..3).map(|z| m.prob(w, z) as f64).collect();
            assert_eq!(m.dense_row(w), &dense[..], "tag {w}");
        }
        assert_eq!(m.heap_bytes(), m.rows.heap_bytes() + (3 + 4 * 3) * 8);
    }

    #[test]
    fn density_matches_nnz() {
        let m = fig2_matrix();
        assert_eq!(m.nnz(), 8);
        assert!((m.density() - 8.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn unsorted_rows_are_accepted() {
        let m = TagTopicMatrix::with_uniform_prior(vec![vec![(2, 0.5), (0, 0.5)]], 3);
        let row: Vec<_> = m.row(0).collect();
        assert_eq!(row, vec![(0, 0.5), (2, 0.5)]);
    }

    #[test]
    #[should_panic(expected = "must sum to 1")]
    fn rejects_bad_prior() {
        TagTopicMatrix::new(vec![], vec![0.3, 0.3]);
    }

    #[test]
    #[should_panic(expected = "outside (0, 1]")]
    fn rejects_zero_probability_entries() {
        TagTopicMatrix::with_uniform_prior(vec![vec![(0, 0.0)]], 2);
    }

    #[test]
    #[should_panic(expected = "repeats topic")]
    fn rejects_duplicate_topics_in_row() {
        TagTopicMatrix::with_uniform_prior(vec![vec![(0, 0.2), (0, 0.3)]], 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_topic() {
        TagTopicMatrix::with_uniform_prior(vec![vec![(5, 0.2)]], 2);
    }
}
