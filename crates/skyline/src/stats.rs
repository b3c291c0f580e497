//! Instrumentation shared by all skyline algorithms.

/// Counters exposed by every skyline algorithm run.
///
/// The paper's Section III-B quantifies its optimization as a reduction in
/// the number of dominance comparisons; these counters make that claim
/// measurable for our implementations as well.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SkylineStats {
    /// Number of pairwise dominance tests performed.
    pub dominance_tests: u64,
    /// Number of input tuples inspected (including dominated ones).
    pub tuples_scanned: u64,
}

/// Result of a skyline computation: indices of the non-dominated points in
/// the input [`crate::PointStore`], in algorithm-specific order, plus stats.
#[derive(Debug, Clone, Default)]
pub struct SkylineResult {
    /// Indices (into the input store) of skyline members.
    pub indices: Vec<usize>,
    /// Work counters for the run.
    pub stats: SkylineStats,
}

impl SkylineResult {
    /// Indices sorted ascending — convenient for set comparisons in tests.
    pub fn sorted_indices(&self) -> Vec<usize> {
        let mut v = self.indices.clone();
        v.sort_unstable();
        v
    }

    /// Number of skyline members.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// True when the skyline is empty (only possible for empty input).
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorted_indices_sorts() {
        let r = SkylineResult {
            indices: vec![3, 1, 2],
            stats: SkylineStats::default(),
        };
        assert_eq!(r.sorted_indices(), vec![1, 2, 3]);
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
    }
}
