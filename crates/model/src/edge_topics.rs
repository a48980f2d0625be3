//! Per-edge sparse topic-wise influence probabilities `p(e|z)`.

use crate::ids::TopicId;
use crate::rows::SparseRows;
use pitex_graph::EdgeId;
use std::sync::atomic::{AtomicU64, Ordering};

/// Sparse per-edge topic probabilities, CSR by edge id, plus the per-edge
/// maximum `p(e) = max_z p(e|z)` that drives RR-Graph generation (Def. 2).
///
/// Real influence graphs learned from propagation logs are sparse in topics
/// — most edges carry probability on one or two topics (§5.1 cites this as
/// the reason lazy propagation wins) — so a per-edge sparse row is both the
/// faithful and the fast representation. It **is** a [`SparseRows`] arena
/// whose row `e` is edge `e`'s: `row`, `row_slices`, `prob`, `nnz`,
/// `num_topics` and `heap_bytes` are the arena's, reached through `Deref`.
///
/// A table is immutable once built and carries an id its clones share and
/// no other table has: an [`EdgeColumns`](crate::EdgeColumns) block tells
/// by it whether it holds this table's rows. Equality compares rows only.
#[derive(Clone, Debug)]
pub struct EdgeTopics {
    rows: SparseRows,
    id: u64,
}

impl PartialEq for EdgeTopics {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
    }
}

impl std::ops::Deref for EdgeTopics {
    type Target = SparseRows;

    #[inline]
    fn deref(&self) -> &SparseRows {
        &self.rows
    }
}

impl EdgeTopics {
    /// Builds from per-edge sparse rows of `(topic, p(e|z))` pairs; rows
    /// may be unsorted.
    ///
    /// # Panics
    /// If a probability is outside `(0, 1]`, a topic id is out of range, or
    /// a row repeats a topic.
    pub fn new(rows: Vec<Vec<(TopicId, f32)>>, num_topics: usize) -> Self {
        let mut arena = SparseRows::with_capacity(num_topics, rows.len(), 0);
        for (e, mut row) in rows.into_iter().enumerate() {
            row.sort_unstable_by_key(|&(z, _)| z);
            arena.push_row(&row).unwrap_or_else(|err| panic!("edge {e}: {err}"));
        }
        Self::from_rows(arena)
    }

    /// Wraps an arena whose row `e` is edge `e`'s `p(e|z)` row.
    pub fn from_rows(rows: SparseRows) -> Self {
        // Only uniqueness matters: the id publishes no other data.
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        Self { rows, id: NEXT_ID.fetch_add(1, Ordering::Relaxed) }
    }

    /// The id this table and its clones share.
    #[inline]
    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    /// Number of edges covered.
    pub fn num_edges(&self) -> usize {
        self.rows.num_rows()
    }

    /// `p(e) = max_z p(e|z)` (Def. 2 of the paper).
    #[inline]
    pub fn p_max(&self, e: EdgeId) -> f32 {
        self.rows.row_max()[e as usize]
    }

    /// All per-edge maxima.
    #[inline]
    pub fn p_max_all(&self) -> &[f32] {
        self.rows.row_max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EdgeTopics {
        EdgeTopics::new(vec![vec![(0, 0.4)], vec![(1, 0.5), (2, 0.5)], vec![], vec![(2, 0.8)]], 3)
    }

    #[test]
    fn shape_and_lookup() {
        let et = sample();
        assert_eq!(et.num_edges(), 4);
        assert_eq!(et.prob(1, 2), 0.5);
        assert_eq!(et.prob(1, 0), 0.0);
        assert_eq!(et.row(2).count(), 0, "empty rows are allowed (dead edges)");
    }

    #[test]
    fn p_max_is_rowwise_maximum() {
        let et = sample();
        assert_eq!(et.p_max(0), 0.4);
        assert_eq!(et.p_max(1), 0.5);
        assert_eq!(et.p_max(2), 0.0);
        assert_eq!(et.p_max(3), 0.8);
    }

    #[test]
    fn row_slices_are_sorted() {
        let et = EdgeTopics::new(vec![vec![(2, 0.1), (0, 0.2)]], 3);
        let (topics, probs) = et.row_slices(0);
        assert_eq!(topics, &[0, 2]);
        assert_eq!(probs, &[0.2, 0.1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_topic() {
        EdgeTopics::new(vec![vec![(9, 0.5)]], 3);
    }

    #[test]
    #[should_panic(expected = "outside (0, 1]")]
    fn rejects_probability_above_one() {
        EdgeTopics::new(vec![vec![(0, 1.5)]], 3);
    }

    #[test]
    #[should_panic(expected = "repeats topic")]
    fn rejects_duplicate_topic() {
        EdgeTopics::new(vec![vec![(1, 0.5), (1, 0.2)]], 3);
    }
}
