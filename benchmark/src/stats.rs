//! Percentiles and spreads over raw samples.
//!
//! Every latency the benchmark reports is a nearest-rank percentile over
//! *all* samples of the measured window (no histogram buckets), and a
//! percentile is only trusted when at least [`MIN_BEYOND`] samples lie
//! beyond it — the choosing-metrics rule for "the highest percentile the
//! sample supports".

/// Samples that must lie strictly beyond a percentile's rank for it to be
/// reported.
pub const MIN_BEYOND: usize = 10;

/// Sorts samples ascending (NaN-free by construction: every sample is a
/// difference of two `Instant`s or a count).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile (`0 < p ≤ 100`) of ascending `sorted` samples;
/// `None` when there are none.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// Whether `n` samples support the `p`-th percentile: at least
/// [`MIN_BEYOND`] of them rank above it.
pub fn supports(n: usize, p: f64) -> bool {
    n > 0 && n - rank(n, p) >= MIN_BEYOND
}

/// Median of unsorted samples (nearest rank); 0 when empty, which only
/// happens for a layer that produced no sample and is reported as such.
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples.to_vec()), 50.0).unwrap_or(0.0)
}

/// First quartile, median and third quartile by linear interpolation —
/// the same "exclusive" method as Python's `statistics.quantiles(v, n=4)`,
/// so spreads printed here match the acceptance check's arithmetic. Needs
/// at least two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64, f64)> {
    let v = sorted(samples.to_vec());
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |k: usize| {
        // Position k·(n+1)/4 in 1-based ranks, clamped into the sample.
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        v[lo - 1] + (v[lo] - v[lo - 1]) * frac
    };
    Some((at(1), at(2), at(3)))
}

/// Interquartile range as a share of the median — the run-to-run spread
/// the acceptance check compares against a metric's bound.
pub fn relative_spread(samples: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(samples)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(5.0));
        assert_eq!(percentile(&v, 90.0), Some(9.0));
        assert_eq!(percentile(&v, 100.0), Some(10.0));
        assert_eq!(percentile(&v, 1.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        // Unsorted input goes through `sorted` first.
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // p90 of 100 samples is rank 90: exactly 10 beyond.
        assert!(supports(100, 90.0));
        assert!(!supports(99, 90.0));
        // p50 needs 20 samples.
        assert!(supports(20, 50.0));
        assert!(!supports(19, 50.0));
        assert!(!supports(0, 50.0));
    }

    #[test]
    fn quartiles_agree_with_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12);
        assert!((q2 - 5.5).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates past the ends of a tiny sample.
        let (q1, _, q3) = quartiles(&[1.0, 2.0]).unwrap();
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert_eq!(quartiles(&[1.0]), None);
        assert!((relative_spread(&v).unwrap() - 1.0).abs() < 1e-12);
    }
}
