//! Order statistics for latency samples.

/// Percentile rungs a tail may be reported at, highest first.
pub const TAIL_RUNGS: [f64; 7] = [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 50.0];

/// Samples a tail percentile must leave beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Sorts a copy of `v` ascending.
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p).saturating_sub(1)]
}

/// Median of an unsorted slice: the middle value, or the mean of the two
/// middle values.
///
/// # Panics
/// Panics on an empty slice.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    assert!(!s.is_empty(), "median of no samples");
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Samples strictly beyond percentile `p`'s rank among `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The tail percentile for `n` samples: `preferred` when it leaves at
/// least [`TAIL_MIN_BEYOND`] samples beyond it, else the highest lower
/// rung that does. `None` when even the median does not.
pub fn tail_rung(n: usize, preferred: f64) -> Option<f64> {
    TAIL_RUNGS
        .into_iter()
        .filter(|&p| p <= preferred)
        .find(|&p| n > 0 && beyond(n, p) >= TAIL_MIN_BEYOND)
}

/// Sum of a slice.
pub fn sum(v: &[f64]) -> f64 {
    v.iter().sum()
}

/// Mean of a slice (0 when empty).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        sum(v) / v.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.5 only 5.
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(tail_rung(1000, 99.9), Some(99.0));
        assert_eq!(tail_rung(1000, 99.0), Some(99.0));
        // 999 samples: p99 leaves 9, so the tail falls to p98 (19 beyond).
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(tail_rung(999, 99.0), Some(98.0));
        // The preferred rung caps the choice even when more would fit.
        assert_eq!(tail_rung(100_000, 95.0), Some(95.0));
        // Too few samples for any tail.
        assert_eq!(tail_rung(15, 99.0), None);
        assert_eq!(tail_rung(0, 99.0), None);
        for n in 0..3000 {
            if let Some(p) = tail_rung(n, 99.9) {
                assert!(beyond(n, p) >= TAIL_MIN_BEYOND, "n={n} p={p}");
                let higher = TAIL_RUNGS.iter().copied().filter(|&q| q > p);
                for q in higher {
                    assert!(beyond(n, q) < TAIL_MIN_BEYOND, "n={n}: p{q} also qualifies");
                }
            }
        }
    }
}
