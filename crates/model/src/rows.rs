//! The sparse row arena under [`EdgeTopics`](crate::EdgeTopics) and
//! [`TagTopicMatrix`](crate::TagTopicMatrix).
//!
//! Both tables are a CSR of `(topic, probability)` rows — by edge id and by
//! tag id — under the same invariants, so the storage, its validation and
//! its two ways of growing live here once. The arena is append-only:
//! [`SparseRows::push_row`] validates a new row, [`SparseRows::copy_rows`]
//! bulk-copies a run of rows another arena already validated. Every way a
//! model comes into being — the `new(rows, …)` constructors, the binary
//! decoder, `pitex_live`'s compaction — is a sequence of those two calls,
//! and every reader gets flat slices.

use crate::ids::TopicId;
use std::ops::Range;

/// Why [`SparseRows::push_row`] refused a row.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RowError {
    /// Topic ids must ascend within a row.
    Unsorted { topic: TopicId, after: TopicId },
    /// A topic id appears twice.
    RepeatsTopic { topic: TopicId },
    /// A topic id outside `0..|Z|`.
    TopicOutOfRange { topic: TopicId, num_topics: usize },
    /// A probability outside `(0, 1]` (or NaN).
    BadProb { prob: f32 },
}

impl std::fmt::Display for RowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            RowError::Unsorted { topic, after } => {
                write!(f, "topic {topic} listed after topic {after}")
            }
            RowError::RepeatsTopic { topic } => write!(f, "repeats topic {topic}"),
            RowError::TopicOutOfRange { topic, num_topics } => {
                write!(f, "topic {topic} out of range (|Z| = {num_topics})")
            }
            RowError::BadProb { prob } => write!(f, "probability {prob} outside (0, 1]"),
        }
    }
}

impl std::error::Error for RowError {}

/// Append-only CSR of sparse topic rows with each row's maximum.
///
/// Invariants (established by `push_row`, preserved by `copy_rows`): within
/// a row topic ids strictly ascend and are below `num_topics`, every
/// probability is in `(0, 1]`, and `row_max[r]` is the row's largest
/// probability (`0` for an empty row) — for an edge row that is the
/// `p(e) = max_z p(e|z)` of Def. 2.
#[derive(Clone, Debug, PartialEq)]
pub struct SparseRows {
    num_topics: usize,
    /// CSR offsets by row; `len = num_rows + 1`.
    offsets: Vec<u32>,
    topics: Vec<TopicId>,
    /// Probabilities parallel to `topics`.
    probs: Vec<f32>,
    row_max: Vec<f32>,
}

impl SparseRows {
    /// An empty arena with room for `rows` rows holding `entries` entries
    /// in total.
    pub fn with_capacity(num_topics: usize, rows: usize, entries: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        Self {
            num_topics,
            offsets,
            topics: Vec::with_capacity(entries),
            probs: Vec::with_capacity(entries),
            row_max: Vec::with_capacity(rows),
        }
    }

    /// Validates `row` and appends it. On `Err` the arena is unchanged.
    pub fn push_row(&mut self, row: &[(TopicId, f32)]) -> Result<(), RowError> {
        let mut max = 0.0f32;
        let mut prev: Option<TopicId> = None;
        for &(topic, prob) in row {
            match prev {
                Some(after) if after == topic => return Err(RowError::RepeatsTopic { topic }),
                Some(after) if after > topic => return Err(RowError::Unsorted { topic, after }),
                _ => prev = Some(topic),
            }
            if topic as usize >= self.num_topics {
                return Err(RowError::TopicOutOfRange { topic, num_topics: self.num_topics });
            }
            if !(prob > 0.0 && prob <= 1.0) {
                return Err(RowError::BadProb { prob });
            }
            max = max.max(prob);
        }
        self.reserve_entries(row.len());
        self.topics.extend(row.iter().map(|&(topic, _)| topic));
        self.probs.extend(row.iter().map(|&(_, prob)| prob));
        self.row_max.push(max);
        self.offsets.push(self.topics.len() as u32);
        Ok(())
    }

    /// Appends rows `rows` of `from` as slice copies — they were validated
    /// when `from` was built, so only the offsets are rewritten.
    ///
    /// # Panics
    /// If the two arenas disagree on `|Z|` or `rows` is out of range.
    pub fn copy_rows(&mut self, from: &SparseRows, rows: Range<usize>) {
        assert_eq!(from.num_topics, self.num_topics, "row arenas must agree on |Z|");
        let entries = from.offsets[rows.start] as usize..from.offsets[rows.end] as usize;
        self.reserve_entries(entries.len());
        // Wrapping: the shift is "negative" when rows move towards the front.
        let shift = (self.topics.len() as u32).wrapping_sub(entries.start as u32);
        self.topics.extend_from_slice(&from.topics[entries.clone()]);
        self.probs.extend_from_slice(&from.probs[entries]);
        self.row_max.extend_from_slice(&from.row_max[rows.clone()]);
        let ends = &from.offsets[rows.start + 1..=rows.end];
        self.offsets.extend(ends.iter().map(|&end| end.wrapping_add(shift)));
    }

    fn reserve_entries(&mut self, more: usize) {
        assert!(self.topics.len() + more <= u32::MAX as usize, "a row arena is u32-indexed");
        self.topics.reserve(more);
        self.probs.reserve(more);
    }

    /// Number of rows.
    #[inline]
    pub fn num_rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of topics `|Z|`.
    #[inline]
    pub fn num_topics(&self) -> usize {
        self.num_topics
    }

    /// Total number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.topics.len()
    }

    #[inline]
    fn span(&self, r: u32) -> Range<usize> {
        self.offsets[r as usize] as usize..self.offsets[r as usize + 1] as usize
    }

    /// Number of entries in row `r`.
    #[inline]
    pub fn row_len(&self, r: u32) -> usize {
        self.span(r).len()
    }

    /// Raw `(topics, probs)` slices of row `r`, sorted by topic.
    #[inline]
    pub fn row_slices(&self, r: u32) -> (&[TopicId], &[f32]) {
        let span = self.span(r);
        (&self.topics[span.clone()], &self.probs[span])
    }

    /// `(topic, probability)` entries of row `r`, sorted by topic.
    #[inline]
    pub fn row(&self, r: u32) -> impl Iterator<Item = (TopicId, f32)> + '_ {
        let (topics, probs) = self.row_slices(r);
        topics.iter().copied().zip(probs.iter().copied())
    }

    /// The probability row `r` gives `topic`, zero if absent.
    pub fn prob(&self, r: u32, topic: TopicId) -> f32 {
        let (topics, probs) = self.row_slices(r);
        topics.binary_search(&topic).map_or(0.0, |i| probs[i])
    }

    /// Largest probability of every row (`0` for empty rows).
    #[inline]
    pub fn row_max(&self) -> &[f32] {
        &self.row_max
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_bytes(&self) -> u64 {
        (self.offsets.len() * 4
            + self.topics.len() * 2
            + self.probs.len() * 4
            + self.row_max.len() * 4) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EdgeTopics, TagTopicMatrix};
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    const Z: usize = 7;

    /// Up to `Z` distinct topics in random order, some rows empty.
    fn random_rows(count: usize, rng: &mut StdRng) -> Vec<Vec<(TopicId, f32)>> {
        (0..count)
            .map(|_| {
                let mut topics: Vec<TopicId> = (0..Z as TopicId).collect();
                topics.shuffle(rng);
                topics.truncate(rng.gen_range(0..=Z).saturating_sub(2));
                topics.into_iter().map(|z| (z, 1.0 - rng.gen_range(0.0..1.0f32))).collect()
            })
            .collect()
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Any interleaving of `copy_rows` runs and `push_row`s that lays the
    /// rows down in order is the table the validating constructors build.
    #[test]
    fn copy_rows_and_push_row_reproduce_the_constructors() {
        let mut rng = StdRng::seed_from_u64(23);
        for count in [0usize, 1, 2, 17, 120] {
            let rows = random_rows(count, &mut rng);
            let edges = EdgeTopics::new(rows.clone(), Z);
            let mut arena = SparseRows::with_capacity(Z, 0, 0);
            let mut r = 0;
            while r < count {
                let run = rng.gen_range(0..=(count - r).min(9));
                arena.copy_rows(&edges, r..r + run);
                r += run;
                if r < count {
                    let mut sorted = rows[r].clone();
                    sorted.sort_unstable_by_key(|&(z, _)| z);
                    arena.push_row(&sorted).unwrap();
                    r += 1;
                }
            }
            assert_eq!(bits(arena.row_max()), bits(edges.p_max_all()), "p_max bitwise");
            for (e, row) in rows.iter().enumerate() {
                let max = row.iter().map(|&(_, p)| p).fold(0.0f32, f32::max);
                assert_eq!(edges.p_max(e as u32).to_bits(), max.to_bits(), "Def. 2");
            }
            let prior = vec![1.0 / Z as f64; Z];
            assert_eq!(
                TagTopicMatrix::from_rows(arena.clone(), prior.clone()),
                TagTopicMatrix::new(rows, prior)
            );
            assert_eq!(EdgeTopics::from_rows(arena), edges);
        }
    }

    #[test]
    fn copy_rows_shifts_offsets_in_both_directions() {
        let from = EdgeTopics::new(
            vec![vec![(0, 0.1)], vec![(1, 0.2), (2, 0.3)], vec![], vec![(3, 0.4)]],
            Z,
        );
        // Towards the front (row 3 lands at 0), then towards the back.
        let mut arena = SparseRows::with_capacity(Z, 0, 0);
        arena.copy_rows(&from, 3..4);
        arena.copy_rows(&from, 0..3);
        arena.copy_rows(&from, 1..1);
        let want = EdgeTopics::new(
            vec![vec![(3, 0.4)], vec![(0, 0.1)], vec![(1, 0.2), (2, 0.3)], vec![]],
            Z,
        );
        assert_eq!(EdgeTopics::from_rows(arena), want);
    }

    #[test]
    fn a_refused_row_leaves_the_arena_unchanged() {
        let mut arena = SparseRows::with_capacity(3, 0, 0);
        arena.push_row(&[(0, 0.5), (2, 1.0)]).unwrap();
        let before = arena.clone();
        for (row, error) in [
            (vec![(1, 0.5), (0, 0.5)], RowError::Unsorted { topic: 0, after: 1 }),
            (vec![(1, 0.5), (1, 0.5)], RowError::RepeatsTopic { topic: 1 }),
            (vec![(0, 0.5), (3, 0.5)], RowError::TopicOutOfRange { topic: 3, num_topics: 3 }),
            (vec![(0, 0.0)], RowError::BadProb { prob: 0.0 }),
            (vec![(0, 1.5)], RowError::BadProb { prob: 1.5 }),
            (vec![(0, -0.5)], RowError::BadProb { prob: -0.5 }),
        ] {
            assert_eq!(arena.push_row(&row), Err(error));
            assert_eq!(arena, before);
        }
        assert!(matches!(arena.push_row(&[(0, f32::NAN)]), Err(RowError::BadProb { .. })));
        assert_eq!(arena, before);
    }

    #[test]
    #[should_panic(expected = "agree on |Z|")]
    fn copy_rows_refuses_another_topic_space() {
        SparseRows::with_capacity(3, 0, 0).copy_rows(&SparseRows::with_capacity(4, 0, 0), 0..0);
    }
}
