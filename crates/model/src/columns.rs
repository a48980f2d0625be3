//! Topic-major columns over a list of edges: the layout the bulk
//! [`EdgeProbs::fill`](crate::EdgeProbs::fill) kernels read.
//!
//! [`EdgeTopics`] stores `p(e|z)` by edge, which is what one probe of one
//! edge wants. A bulk evaluation of the same edge list under hundreds of tag
//! sets wants the transpose: a tag set's posterior (or Lemma 8 bound) has
//! only a few topics of support, and by topic the work is the support's
//! columns alone. [`EdgeColumns`] is that transpose for one list, built
//! once by a counting sort over the listed rows and reused for every tag set.

use crate::edge_topics::EdgeTopics;
use crate::ids::TopicId;
use pitex_graph::EdgeId;

/// The `p(e|z)` rows of a list of edges, transposed: per topic `z`, the
/// `(slot, p(e|z))` pairs of the listed edges whose row holds `z`, slots
/// ascending. Slot `i` is the list's `i`-th edge; an edge listed twice has
/// two slots.
///
/// The block records which table it was built over, so a kernel can tell
/// whether its own `p(e|z)` are the ones transposed here
/// ([`is_over`](Self::is_over)). The default is the block over no edges.
#[derive(Clone, Debug, Default)]
pub struct EdgeColumns {
    /// [`EdgeTopics`] id of the source table.
    table: Option<u64>,
    edges: Vec<EdgeId>,
    /// Column `z` is `offsets[z]..offsets[z + 1]` of `slots` / `probs`.
    offsets: Vec<u32>,
    slots: Vec<u32>,
    probs: Vec<f32>,
}

impl EdgeColumns {
    /// Transposes the rows of `edges` in `table`.
    ///
    /// # Panics
    /// If an edge id is out of `table`'s range.
    pub fn new(table: &EdgeTopics, edges: &[EdgeId]) -> Self {
        let mut columns = Self::default();
        columns.rebuild(table, edges);
        columns
    }

    /// A block listing `edges` with no rows transposed: every kernel runs
    /// the per-edge default on it.
    pub fn edges_only(edges: &[EdgeId]) -> Self {
        Self { edges: edges.to_vec(), ..Self::default() }
    }

    /// [`EdgeColumns::new`] into `self`, reusing its allocations.
    pub fn rebuild(&mut self, table: &EdgeTopics, edges: &[EdgeId]) {
        self.table = Some(table.id());
        self.edges.clear();
        self.edges.extend_from_slice(edges);
        // Counting sort: column sizes, their prefix sums, then one scatter
        // in slot order with `offsets[z]` as column z's write cursor.
        let num_topics = table.num_topics();
        self.offsets.clear();
        self.offsets.resize(num_topics + 1, 0);
        for &e in edges {
            for &z in table.row_slices(e).0 {
                self.offsets[z as usize + 1] += 1;
            }
        }
        for z in 0..num_topics {
            self.offsets[z + 1] += self.offsets[z];
        }
        let nnz = self.offsets[num_topics] as usize;
        self.slots.resize(nnz, 0);
        self.probs.resize(nnz, 0.0);
        for (slot, &e) in (0u32..).zip(edges) {
            let (topics, probs) = table.row_slices(e);
            for (&z, &p) in topics.iter().zip(probs) {
                let cursor = &mut self.offsets[z as usize];
                self.slots[*cursor as usize] = slot;
                self.probs[*cursor as usize] = p;
                *cursor += 1;
            }
        }
        // Every cursor now stands on the next column's start: shift back.
        self.offsets.copy_within(0..num_topics, 1);
        self.offsets[0] = 0;
    }

    /// The listed edges, slot order.
    #[inline]
    pub fn edges(&self) -> &[EdgeId] {
        &self.edges
    }

    /// Whether the columns hold `table`'s rows: built over it or over a
    /// clone of it, never over a table built separately, equal or not.
    #[inline]
    pub fn is_over(&self, table: &EdgeTopics) -> bool {
        self.table == Some(table.id())
    }

    /// `(slots, p(e|z))` of topic `z`, slots ascending; empty for a topic
    /// no listed row holds or outside the table's `|Z|`.
    #[inline]
    pub fn column(&self, z: TopicId) -> (&[u32], &[f32]) {
        let z = z as usize;
        match self.offsets.get(z..z + 2) {
            Some(&[start, end]) => {
                let span = start as usize..end as usize;
                (&self.slots[span.clone()], &self.probs[span])
            }
            _ => (&[], &[]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NONE: (&[u32], &[f32]) = (&[], &[]);

    #[test]
    fn columns_transpose_the_listed_rows() {
        let table = EdgeTopics::new(
            vec![vec![(0, 0.5), (2, 0.25)], vec![], vec![(2, 1.0)], vec![(3, 0.125)]],
            5,
        );
        let edges = [2, 0, 1, 0];
        let cols = EdgeColumns::new(&table, &edges);
        assert_eq!(cols.edges(), &edges);
        assert_eq!(cols.column(0), (&[1u32, 3][..], &[0.5f32, 0.5][..]));
        assert_eq!(cols.column(1), NONE);
        assert_eq!(cols.column(2), (&[0u32, 1, 3][..], &[1.0f32, 0.25, 0.25][..]));
        assert_eq!(cols.column(3), NONE, "edge 3 is not listed");
        assert_eq!(cols.column(4), NONE);
        assert_eq!(cols.column(9), NONE, "outside |Z|");
        assert!(cols.is_over(&table) && cols.is_over(&table.clone()));
        let equal = EdgeTopics::from_rows((*table).clone());
        assert!(equal == table && !cols.is_over(&equal), "an equal table is another table");
    }

    #[test]
    fn rebuild_reuses_the_block() {
        let a = EdgeTopics::new(vec![vec![(0, 0.5)], vec![(1, 0.75)]], 2);
        let b = EdgeTopics::new(vec![vec![(2, 0.5), (0, 0.25)]], 3);
        let mut cols = EdgeColumns::new(&a, &[0, 1]);
        cols.rebuild(&b, &[0]);
        assert!(cols.is_over(&b) && !cols.is_over(&a));
        assert_eq!(cols.column(1), NONE, "nothing of `a` is left");
        assert_eq!(cols.column(2), (&[0u32][..], &[0.5f32][..]));
        cols.rebuild(&b, &[]);
        assert!(cols.edges().is_empty() && cols.is_over(&b));
        assert_eq!(cols.column(0), NONE);
        let listed = EdgeColumns::edges_only(&[1, 0]);
        assert_eq!(listed.edges(), &[1, 0]);
        assert!(!listed.is_over(&a) && listed.column(0) == NONE, "no rows: the default runs");
    }
}
