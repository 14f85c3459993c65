//! A compact bit-set over fate groups (or links), used to describe which
//! parts of the network are down in a failure scenario — and, over scenario
//! indices, which scenarios of a set share a property (`scenario.rs`).

/// Fixed-capacity bit set. The capacity is chosen at construction from the
/// topology size; all set operations are O(words).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LinkSet {
    bits: Vec<u64>,
    len: usize,
}

impl LinkSet {
    /// Empty set able to hold `len` elements (indices `0..len`).
    pub fn new(len: usize) -> Self {
        LinkSet {
            bits: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Build a set from explicit indices.
    pub fn from_indices(len: usize, indices: &[usize]) -> Self {
        let mut s = LinkSet::new(len);
        for &i in indices {
            s.insert(i);
        }
        s
    }

    /// Capacity (number of addressable elements).
    pub fn capacity(&self) -> usize {
        self.len
    }

    pub fn insert(&mut self, i: usize) {
        assert!(i < self.len, "index {i} out of range {}", self.len);
        self.bits[i / 64] |= 1 << (i % 64);
    }

    pub fn remove(&mut self, i: usize) {
        assert!(i < self.len, "index {i} out of range {}", self.len);
        self.bits[i / 64] &= !(1 << (i % 64));
    }

    pub fn contains(&self, i: usize) -> bool {
        i < self.len && self.bits[i / 64] & (1 << (i % 64)) != 0
    }

    /// Number of elements in the set.
    pub fn count(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// Iterate set elements in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.bits.iter().enumerate().flat_map(|(wi, &w)| {
            let mut word = w;
            std::iter::from_fn(move || {
                if word == 0 {
                    None
                } else {
                    let bit = word.trailing_zeros() as usize;
                    word &= word - 1;
                    Some(wi * 64 + bit)
                }
            })
        })
    }

    /// True if `self` and `other` share any element.
    pub fn intersects(&self, other: &LinkSet) -> bool {
        self.bits.iter().zip(&other.bits).any(|(a, b)| a & b != 0)
    }

    /// True if every element of `self` is in `other`.
    pub fn is_subset(&self, other: &LinkSet) -> bool {
        self.bits.iter().zip(&other.bits).all(|(a, b)| a & !b == 0)
    }

    /// Add every element of `other` (a set of the same capacity).
    pub fn union_with(&mut self, other: &LinkSet) {
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= b;
        }
    }

    /// `[self \ other, self ∩ other]`.
    pub fn split(&self, other: &LinkSet) -> [LinkSet; 2] {
        let mut parts = [self.clone(), self.clone()];
        for (i, b) in other.bits.iter().enumerate() {
            parts[0].bits[i] &= !b;
            parts[1].bits[i] &= b;
        }
        parts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = LinkSet::new(130);
        s.insert(0);
        s.insert(64);
        s.insert(129);
        assert!(s.contains(0) && s.contains(64) && s.contains(129));
        assert_eq!(s.count(), 3);
        s.remove(64);
        assert!(!s.contains(64));
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn iter_is_sorted_and_complete() {
        let s = LinkSet::from_indices(100, &[7, 3, 99, 63, 64]);
        let v: Vec<usize> = s.iter().collect();
        assert_eq!(v, vec![3, 7, 63, 64, 99]);
    }

    #[test]
    fn intersects_and_subset() {
        let a = LinkSet::from_indices(10, &[1, 2]);
        let b = LinkSet::from_indices(10, &[2, 3]);
        let c = LinkSet::from_indices(10, &[1, 2, 5]);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&LinkSet::from_indices(10, &[4])));
        assert!(a.is_subset(&c));
        assert!(!c.is_subset(&a));
    }

    #[test]
    fn union_and_split() {
        let mut a = LinkSet::from_indices(130, &[1, 64, 129]);
        a.union_with(&LinkSet::from_indices(130, &[2, 64]));
        assert_eq!(a, LinkSet::from_indices(130, &[1, 2, 64, 129]));
        let [outside, inside] = a.split(&LinkSet::from_indices(130, &[2, 3, 129]));
        assert_eq!(outside, LinkSet::from_indices(130, &[1, 64]));
        assert_eq!(inside, LinkSet::from_indices(130, &[2, 129]));
    }

    #[test]
    fn empty_set() {
        let s = LinkSet::new(0);
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_insert_panics() {
        let mut s = LinkSet::new(5);
        s.insert(5);
    }
}
