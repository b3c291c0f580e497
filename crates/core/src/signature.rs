//! Join-value signatures per input partition (Section III-A).
//!
//! "To avoid tuple-level comparison, we maintain for each partition the
//! signature of the list of join domain values of the tuples contained in
//! the partition. These signatures can be efficiently maintained by either
//! Bloom Filter or a bit vector."
//!
//! This is the bit vector. The executor remaps join keys to dense ids
//! before building grids, so an exact bitset never needs more bits than
//! there are distinct keys, and a Bloom filter's memory argument does not
//! apply. Exactness is what region-level dominance pruning relies on:
//! overlapping exact signatures imply at least one join result
//! ("guaranteed to be populated"). The one other form is
//! [`JoinSignature::Unknown`], the signature of a declared streaming cell
//! whose rows have not arrived: it may join anything and guarantees
//! nothing.

/// Signature of the join-domain values present in one partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JoinSignature {
    /// Exact membership bitset over the join domain `0..domain_size`.
    Exact(BitSet),
    /// Join values not known yet — a declared streaming cell before its
    /// rows arrive. It may hold any value, so it overlaps every signature
    /// and guarantees nothing.
    Unknown,
}

impl JoinSignature {
    /// Creates an empty exact signature for a join domain of
    /// `domain_size` values.
    pub fn empty(domain_size: usize) -> Self {
        JoinSignature::Exact(BitSet::new(domain_size))
    }

    /// Registers a join value (a no-op on an unknown signature, which
    /// already admits every value).
    pub fn insert(&mut self, value: u32) {
        if let JoinSignature::Exact(bits) = self {
            bits.set(value as usize);
        }
    }

    /// Whether two partitions may share a join value. For exact signatures
    /// a `true` answer is a *guarantee* that at least one join pair exists.
    pub fn overlaps(&self, other: &JoinSignature) -> bool {
        match (self, other) {
            (JoinSignature::Exact(a), JoinSignature::Exact(b)) => a.intersects(b),
            _ => true,
        }
    }

    /// True when overlap answers are exact (no false positives).
    pub fn is_exact(&self) -> bool {
        matches!(self, JoinSignature::Exact(_))
    }
}

/// A plain fixed-capacity bitset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    capacity: usize,
}

impl BitSet {
    /// Creates a bitset able to hold `capacity` bits (all clear).
    pub fn new(capacity: usize) -> Self {
        Self {
            words: vec![0; capacity.div_ceil(64).max(1)],
            capacity: capacity.max(1),
        }
    }

    /// Sets bit `i`.
    ///
    /// # Panics
    /// Panics when `i >= capacity`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        assert!(
            i < self.capacity,
            "bit {i} out of capacity {}",
            self.capacity
        );
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Reads bit `i` (out-of-range reads return `false`).
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        if i >= self.capacity {
            return false;
        }
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// True when any bit is set in both sets.
    pub fn intersects(&self, other: &BitSet) -> bool {
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitset_set_get() {
        let mut b = BitSet::new(130);
        b.set(0);
        b.set(64);
        b.set(129);
        assert!(b.get(0) && b.get(64) && b.get(129));
        assert!(!b.get(1) && !b.get(128));
        assert!(!b.get(500), "out of range reads are false");
    }

    #[test]
    fn bitset_intersects() {
        let mut a = BitSet::new(100);
        let mut b = BitSet::new(100);
        a.set(70);
        b.set(71);
        assert!(!a.intersects(&b));
        b.set(70);
        assert!(a.intersects(&b));
    }

    #[test]
    fn exact_signature_is_precise() {
        let mut a = JoinSignature::empty(1000);
        let mut b = JoinSignature::empty(1000);
        a.insert(5);
        a.insert(999);
        b.insert(6);
        assert!(!a.overlaps(&b));
        b.insert(999);
        assert!(a.overlaps(&b));
        assert!(a.is_exact());
    }

    #[test]
    fn unknown_signatures_overlap_and_guarantee_nothing() {
        let u = JoinSignature::Unknown;
        assert!(u.overlaps(&JoinSignature::Unknown));
        let mut exact = JoinSignature::empty(8);
        exact.insert(3);
        assert!(u.overlaps(&exact) && exact.overlaps(&u));
        assert!(!u.is_exact());
    }

    #[test]
    fn empty_signatures_do_not_overlap_exact() {
        let a = JoinSignature::empty(64);
        let b = JoinSignature::empty(64);
        assert!(!a.overlaps(&b));
    }
}
