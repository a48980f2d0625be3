//! Epoch-stamped visited sets.
//!
//! Every sampling iteration in PITEX performs a graph traversal that must
//! start from a clean "nothing visited" state. Clearing a `Vec<bool>` (or a
//! bitset) per iteration is O(|V|) and dominates the cost of the *lazy*
//! sampler, whose whole point is to touch only a handful of vertices per
//! iteration (§5.1 of the paper). An epoch stamp makes the reset O(1): a
//! vertex is visited iff its stamp equals the current epoch.

/// A visited set over dense `u32` ids with O(1) reset.
#[derive(Clone, Debug, Default)]
pub struct EpochVisited {
    stamps: Vec<u32>,
    epoch: u32,
}

impl EpochVisited {
    /// Creates a visited set for ids `0..n`.
    pub fn new(n: usize) -> Self {
        Self { stamps: vec![0; n], epoch: 0 }
    }

    /// Number of ids tracked.
    #[inline]
    pub fn len(&self) -> usize {
        self.stamps.len()
    }

    /// True if no ids are tracked.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.stamps.is_empty()
    }

    /// Starts a fresh traversal: everything becomes unvisited in O(1).
    ///
    /// On epoch wrap-around (every `u32::MAX` resets) the stamp array is
    /// zeroed once, keeping correctness without a 64-bit stamp.
    #[inline]
    pub fn reset(&mut self) {
        if self.epoch == u32::MAX {
            self.stamps.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// True if `id` was visited in the current epoch.
    #[inline]
    pub fn contains(&self, id: u32) -> bool {
        self.stamps[id as usize] == self.epoch
    }

    /// Marks `id` visited; returns `true` if it was *newly* visited.
    #[inline]
    pub fn insert(&mut self, id: u32) -> bool {
        let slot = &mut self.stamps[id as usize];
        if *slot == self.epoch {
            false
        } else {
            *slot = self.epoch;
            true
        }
    }

    /// Grows the tracked id range to at least `n` ids.
    pub fn grow(&mut self, n: usize) {
        if n > self.stamps.len() {
            self.stamps.resize(n, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_contains() {
        let mut v = EpochVisited::new(8);
        v.reset();
        assert!(!v.contains(3));
        assert!(v.insert(3));
        assert!(v.contains(3));
        assert!(!v.insert(3), "second insert reports already-visited");
    }

    #[test]
    fn reset_clears_in_o1() {
        let mut v = EpochVisited::new(4);
        v.reset();
        v.insert(0);
        v.insert(1);
        v.reset();
        for id in 0..4 {
            assert!(!v.contains(id));
        }
    }

    #[test]
    fn epoch_wraparound_is_correct() {
        let mut v = EpochVisited::new(2);
        v.epoch = u32::MAX - 1;
        v.reset(); // -> u32::MAX
        v.insert(0);
        assert!(v.contains(0));
        v.reset(); // wraps: zeroes stamps, epoch = 1
        assert!(!v.contains(0));
        v.insert(1);
        assert!(v.contains(1));
    }

    #[test]
    fn grow_preserves_semantics() {
        let mut v = EpochVisited::new(1);
        v.reset();
        v.insert(0);
        v.grow(10);
        assert!(v.contains(0));
        assert!(!v.contains(9));
        assert!(v.insert(9));
    }
}
