//! Join-value signatures per input partition (Section III-A).
//!
//! "To avoid tuple-level comparison, we maintain for each partition the
//! signature of the list of join domain values of the tuples contained in
//! the partition. These signatures can be efficiently maintained by either
//! Bloom Filter or a bit vector."
//!
//! The *exact* bitset realization guarantees that overlapping signatures
//! imply at least one join result — the property region-level dominance
//! pruning relies on ("guaranteed to be populated"). The Bloom realization
//! trades that guarantee for O(bits) memory independent of the join domain;
//! overlap then only means "may join", and the executor must weaken its
//! pruning accordingly.

use crate::config::SignatureConfig;

/// Signature of the join-domain values present in one partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JoinSignature {
    /// Exact membership bitset over the join domain `0..domain_size`.
    Exact(BitSet),
    /// Bloom filter: 2 hash probes per value.
    Bloom(BitSet),
}

impl JoinSignature {
    /// Creates an empty signature of the configured kind for a join domain
    /// of `domain_size` values.
    pub fn empty(config: SignatureConfig, domain_size: usize) -> Self {
        match config {
            SignatureConfig::Exact => JoinSignature::Exact(BitSet::new(domain_size)),
            SignatureConfig::Bloom { bits } => JoinSignature::Bloom(BitSet::new(bits.max(64))),
        }
    }

    /// The signature of a partition whose join values are not known yet —
    /// a streaming cell before its rows arrive: it may hold any value, so
    /// it overlaps every signature that holds one and guarantees nothing.
    pub fn unknown() -> Self {
        let mut bits = BitSet::new(64);
        bits.words.fill(u64::MAX);
        JoinSignature::Bloom(bits)
    }

    /// Registers a join value.
    pub fn insert(&mut self, value: u32) {
        match self {
            JoinSignature::Exact(bits) => bits.set(value as usize),
            JoinSignature::Bloom(bits) => {
                let (h1, h2) = bloom_hashes(value, bits.capacity());
                bits.set(h1);
                bits.set(h2);
            }
        }
    }

    /// Whether the value may be present. Exact signatures answer precisely;
    /// Bloom signatures may report false positives.
    pub fn maybe_contains(&self, value: u32) -> bool {
        match self {
            JoinSignature::Exact(bits) => bits.get(value as usize),
            JoinSignature::Bloom(bits) => {
                let (h1, h2) = bloom_hashes(value, bits.capacity());
                bits.get(h1) && bits.get(h2)
            }
        }
    }

    /// Whether two partitions may share a join value. For exact signatures
    /// a `true` answer is a *guarantee* that at least one join pair exists.
    pub fn overlaps(&self, other: &JoinSignature) -> bool {
        match (self, other) {
            (JoinSignature::Exact(a), JoinSignature::Exact(b)) => a.intersects(b),
            (JoinSignature::Bloom(a), JoinSignature::Bloom(b)) => a.intersects(b),
            // Mixed kinds cannot arise from one executor run; conservatively
            // report overlap so no join results are ever lost.
            _ => true,
        }
    }

    /// True when overlap answers are exact (no false positives).
    pub fn is_exact(&self) -> bool {
        matches!(self, JoinSignature::Exact(_))
    }
}

fn bloom_hashes(value: u32, capacity: usize) -> (usize, usize) {
    // Two independent multiplicative hashes; capacity is ≥ 64.
    let v = value as u64;
    let h1 = v.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 13;
    let h2 = v.wrapping_mul(0xC2B2_AE3D_27D4_EB4F) >> 17;
    (h1 as usize % capacity, h2 as usize % capacity)
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

    /// Bit capacity.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
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

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
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
        assert_eq!(b.count_ones(), 3);
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
        let mut a = JoinSignature::empty(SignatureConfig::Exact, 1000);
        let mut b = JoinSignature::empty(SignatureConfig::Exact, 1000);
        a.insert(5);
        a.insert(999);
        b.insert(6);
        assert!(!a.overlaps(&b));
        b.insert(999);
        assert!(a.overlaps(&b));
        assert!(a.maybe_contains(5));
        assert!(!a.maybe_contains(6));
        assert!(a.is_exact());
    }

    #[test]
    fn bloom_signature_has_no_false_negatives() {
        let mut s = JoinSignature::empty(SignatureConfig::Bloom { bits: 256 }, 0);
        for v in 0..50 {
            s.insert(v * 17);
        }
        for v in 0..50 {
            assert!(s.maybe_contains(v * 17), "false negative at {}", v * 17);
        }
        assert!(!s.is_exact());
    }

    #[test]
    fn bloom_overlap_superset_of_true_overlap() {
        let mut a = JoinSignature::empty(SignatureConfig::Bloom { bits: 1024 }, 0);
        let mut b = JoinSignature::empty(SignatureConfig::Bloom { bits: 1024 }, 0);
        a.insert(42);
        b.insert(42);
        assert!(a.overlaps(&b), "shared value must overlap");
    }

    #[test]
    fn unknown_signatures_overlap_and_guarantee_nothing() {
        let u = JoinSignature::unknown();
        assert!(u.overlaps(&JoinSignature::unknown()));
        assert!(u.maybe_contains(0) && u.maybe_contains(u32::MAX));
        assert!(!u.is_exact());
    }

    #[test]
    fn empty_signatures_do_not_overlap_exact() {
        let a = JoinSignature::empty(SignatureConfig::Exact, 64);
        let b = JoinSignature::empty(SignatureConfig::Exact, 64);
        assert!(!a.overlaps(&b));
    }
}
