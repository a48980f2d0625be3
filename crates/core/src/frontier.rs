//! The frontier of best-effort exploration (Algo. 5, Appx. C).
//!
//! Expanding a partial set `P` yields its canonical children `{w} ∪ P`,
//! `w < min(P)`, all under the same inherited bound. Equal keys pop the
//! lexicographically smaller set first, so siblings pop in ascending `w`:
//! the frontier keeps them as one **sibling run** `(key, P, next w, end)`
//! whose heap entry stands for its next child, and popping that child
//! re-queues the run at `w + 1`. This is a k-way merge of runs already
//! sorted in heap order, so the pop sequence is the one a heap holding
//! every child gives — at one entry per expanded set, with `P` in a shared
//! arena, where that heap paid one `TagSet` per child, most never popped.

use pitex_model::{TagId, TagSet};
use std::cmp::Ordering;

/// The children `{w} ∪ P` for `w ∈ next..end` of one expanded set `P`.
#[derive(Clone, Copy, Debug)]
struct Run {
    /// The inherited upper bound of every child.
    key: f64,
    next: TagId,
    end: TagId,
    /// `P` is `parents[start..start + len]`.
    start: u32,
    len: u32,
}

/// Partial and full tag sets queued by inherited bound, highest first,
/// ties to the lexicographically smallest set. Reused across queries.
#[derive(Debug, Default)]
pub(crate) struct Frontier {
    num_tags: TagId,
    /// Whether the root `∅` is still queued.
    root: bool,
    /// Binary heap of runs, [`Frontier::before`] first.
    heap: Vec<Run>,
    parents: Vec<TagId>,
}

impl Frontier {
    /// Empties the frontier down to its root `∅` (bound `+∞`) over the
    /// tags `0..num_tags`.
    pub(crate) fn reset(&mut self, num_tags: TagId) {
        self.num_tags = num_tags;
        self.root = true;
        self.heap.clear();
        self.parents.clear();
    }

    /// Pops the next tag set into `tags` and returns its inherited bound.
    pub(crate) fn pop(&mut self, tags: &mut TagSet) -> Option<f64> {
        if std::mem::take(&mut self.root) {
            tags.assign([]);
            return Some(f64::INFINITY);
        }
        let top = *self.heap.first()?;
        tags.assign(std::iter::once(top.next).chain(self.parent(&top).iter().copied()));
        if top.next + 1 < top.end {
            self.heap[0].next += 1;
        } else {
            let last = self.heap.pop().expect("the heap has a top");
            if self.heap.is_empty() {
                return Some(top.key);
            }
            self.heap[0] = last;
        }
        self.sift_down(0);
        Some(top.key)
    }

    /// Queues the canonical children of `parent` under the bound `key`.
    pub(crate) fn expand(&mut self, parent: &TagSet, key: f64) {
        let end = parent.min_tag().unwrap_or(self.num_tags);
        if end == 0 {
            return;
        }
        let start = self.parents.len() as u32;
        self.parents.extend_from_slice(parent.tags());
        self.heap.push(Run { key, next: 0, end, start, len: parent.len() as u32 });
        self.sift_up(self.heap.len() - 1);
    }

    /// Tag sets still queued.
    pub(crate) fn remaining(&self) -> u64 {
        let queued: u64 = self.heap.iter().map(|run| u64::from(run.end - run.next)).sum();
        queued + u64::from(self.root)
    }

    fn parent(&self, run: &Run) -> &[TagId] {
        &self.parents[run.start as usize..(run.start + run.len) as usize]
    }

    /// Whether `a`'s next child pops before `b`'s: a higher key, or an
    /// equal key and a lexicographically smaller `{next} ∪ P`.
    fn before(&self, a: &Run, b: &Run) -> bool {
        let smaller_set = || b.next.cmp(&a.next).then_with(|| self.parent(b).cmp(self.parent(a)));
        a.key.total_cmp(&b.key).then_with(smaller_set) == Ordering::Greater
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let up = (i - 1) / 2;
            if !self.before(&self.heap[i], &self.heap[up]) {
                break;
            }
            self.heap.swap(i, up);
            i = up;
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let left = 2 * i + 1;
            if left >= self.heap.len() {
                break;
            }
            let right = left + 1;
            let child =
                if right < self.heap.len() && self.before(&self.heap[right], &self.heap[left]) {
                    right
                } else {
                    left
                };
            if !self.before(&self.heap[child], &self.heap[i]) {
                break;
            }
            self.heap.swap(i, child);
            i = child;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OrdF64;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// Random pops and expansions against a heap of every child, with keys
    /// from a small set so that ties between runs are common.
    #[test]
    fn pops_what_a_heap_of_every_child_pops() {
        let mut rng = StdRng::seed_from_u64(25);
        let mut frontier = Frontier::default();
        for case in 0..200 {
            let num_tags = rng.gen_range(1..12);
            let keys = [1.0, 2.0, 2.5, f64::INFINITY];
            let mut eager = BinaryHeap::new();
            eager.push((OrdF64(f64::INFINITY), Reverse(TagSet::empty())));
            frontier.reset(num_tags);
            let mut tags = TagSet::empty();
            loop {
                assert_eq!(frontier.remaining(), eager.len() as u64, "case {case}");
                let Some((OrdF64(key), Reverse(want))) = eager.pop() else {
                    assert_eq!(frontier.pop(&mut tags), None);
                    break;
                };
                assert_eq!(frontier.pop(&mut tags).map(f64::to_bits), Some(key.to_bits()));
                assert_eq!(tags, want, "case {case}");
                if rng.gen_bool(0.6) {
                    let child_key = key.min(keys[rng.gen_range(0..keys.len())]);
                    for w in 0..tags.min_tag().unwrap_or(num_tags) {
                        eager.push((OrdF64(child_key), Reverse(tags.with(w))));
                    }
                    frontier.expand(&tags, child_key);
                }
            }
        }
    }
}
