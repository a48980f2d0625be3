//! Identifier types for tags and topics, and the canonical [`TagSet`].

/// Dense tag identifier (`0..|Ω|`). Tags are the user-interpretable keywords
/// PITEX selects; the paper's datasets use 50–276 of them (Table 2).
pub type TagId = u32;

/// Dense topic identifier (`0..|Z|`). Topics are the latent variables of the
/// TIC model; the paper's datasets use 9–50 of them (Table 2).
pub type TopicId = u16;

/// A candidate tag set `W ⊆ Ω`, stored sorted and deduplicated.
///
/// Tag sets are tiny (`k ≤ K = 10` in the paper's setting) so a sorted
/// `Vec` beats any hashed structure; sortedness also gives canonical
/// equality and cheap subset tests.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TagSet {
    tags: Vec<TagId>,
}

impl TagSet {
    /// The empty tag set (the root of best-effort exploration).
    pub fn empty() -> Self {
        Self { tags: Vec::new() }
    }

    /// Builds a tag set from arbitrary ids; sorts and deduplicates.
    pub fn new(mut tags: Vec<TagId>) -> Self {
        tags.sort_unstable();
        tags.dedup();
        Self { tags }
    }

    /// Builds from a slice.
    pub fn from_slice(tags: &[TagId]) -> Self {
        Self::new(tags.to_vec())
    }

    /// Number of tags.
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// Sorted tag ids.
    pub fn tags(&self) -> &[TagId] {
        &self.tags
    }

    /// Membership test (binary search).
    pub fn contains(&self, tag: TagId) -> bool {
        self.tags.binary_search(&tag).is_ok()
    }

    /// Replaces the set with `tags` (sorted and deduplicated), reusing its
    /// allocation.
    pub fn assign(&mut self, tags: impl IntoIterator<Item = TagId>) {
        self.tags.clear();
        self.tags.extend(tags);
        self.tags.sort_unstable();
        self.tags.dedup();
    }

    /// Returns a new set with `tag` inserted (no-op if present).
    pub fn with(&self, tag: TagId) -> TagSet {
        match self.tags.binary_search(&tag) {
            Ok(_) => self.clone(),
            Err(pos) => {
                let mut tags = Vec::with_capacity(self.tags.len() + 1);
                tags.extend_from_slice(&self.tags[..pos]);
                tags.push(tag);
                tags.extend_from_slice(&self.tags[pos..]);
                TagSet { tags }
            }
        }
    }

    /// True if `self ⊆ other`.
    pub fn is_subset_of(&self, other: &TagSet) -> bool {
        // Both sorted: linear merge scan.
        let mut it = other.tags.iter();
        'outer: for &t in &self.tags {
            for &o in it.by_ref() {
                if o == t {
                    continue 'outer;
                }
                if o > t {
                    return false;
                }
            }
            return false;
        }
        true
    }

    /// Smallest tag id, if any. Best-effort exploration (Appx. C) extends a
    /// partial set only with tags *smaller* than its minimum so every set is
    /// generated exactly once.
    pub fn min_tag(&self) -> Option<TagId> {
        self.tags.first().copied()
    }

    /// Iterates over the tags.
    pub fn iter(&self) -> impl Iterator<Item = TagId> + '_ {
        self.tags.iter().copied()
    }
}

impl From<Vec<TagId>> for TagSet {
    fn from(tags: Vec<TagId>) -> Self {
        TagSet::new(tags)
    }
}

impl<const N: usize> From<[TagId; N]> for TagSet {
    fn from(tags: [TagId; N]) -> Self {
        TagSet::new(tags.to_vec())
    }
}

impl std::fmt::Display for TagSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{")?;
        for (i, t) in self.tags.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "w{t}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_sorts_and_dedups() {
        let w = TagSet::new(vec![3, 1, 3, 2]);
        assert_eq!(w.tags(), &[1, 2, 3]);
        assert_eq!(w.len(), 3);
    }

    #[test]
    fn assign_replaces_in_canonical_form() {
        let mut w = TagSet::from([9, 4]);
        w.assign([3, 1, 3]);
        assert_eq!(w, TagSet::from([1, 3]));
        w.assign([]);
        assert_eq!(w, TagSet::empty());
    }

    #[test]
    fn with_inserts_in_order() {
        let w = TagSet::from([5, 1]);
        let w2 = w.with(3);
        assert_eq!(w2.tags(), &[1, 3, 5]);
        assert_eq!(w.with(5), w, "inserting an existing tag is a no-op");
    }

    #[test]
    fn subset_tests() {
        let small = TagSet::from([2, 4]);
        let big = TagSet::from([1, 2, 3, 4]);
        assert!(small.is_subset_of(&big));
        assert!(!big.is_subset_of(&small));
        assert!(TagSet::empty().is_subset_of(&small));
        assert!(!TagSet::from([9]).is_subset_of(&big));
    }

    #[test]
    fn contains_and_min() {
        let w = TagSet::from([7, 2, 9]);
        assert!(w.contains(7));
        assert!(!w.contains(3));
        assert_eq!(w.min_tag(), Some(2));
        assert_eq!(TagSet::empty().min_tag(), None);
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(TagSet::from([3, 4]).to_string(), "{w3, w4}");
        assert_eq!(TagSet::empty().to_string(), "{}");
    }

    #[test]
    fn canonical_equality() {
        assert_eq!(TagSet::new(vec![2, 1]), TagSet::new(vec![1, 2, 2]));
    }
}
