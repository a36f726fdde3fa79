//! Order statistics over rep timings and pooled per-op latencies.

/// Median and quartiles of one metric's samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median — the value a metric reports.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Inter-quartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Quartiles by the exclusive method, so the numbers agree with Python's
/// `statistics.quantiles(samples, n=4)` that the acceptance check uses.
/// One sample is its own median and quartiles.
///
/// # Panics
/// Panics on an empty slice or a NaN sample: both are harness bugs.
pub fn summary(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "a metric needs at least one sample");
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    let n = v.len();
    if n == 1 {
        return Summary {
            n,
            q1: v[0],
            median: v[0],
            q3: v[0],
        };
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Summary {
        n,
        q1: cut(1),
        median: cut(2),
        q3: cut(3),
    }
}

/// The median alone.
pub fn median(samples: &[f64]) -> f64 {
    summary(samples).median
}

/// Percentiles a latency report may quote, lowest first.
pub const LADDER: [f64; 6] = [50.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// Whether `n` pooled samples leave at least ten beyond percentile `p` —
/// the condition under which that percentile may be reported.
pub fn has_tail(n: usize, p: f64) -> bool {
    // Rounded so that 1000 samples at p99 count their ten exactly.
    (n as f64 * (100.0 - p) / 100.0 + 1e-9).floor() >= 10.0
}

/// The highest percentile of [`LADDER`] that `n` samples support, or
/// `None` below twenty samples (not even the median has ten beyond it).
pub fn top_percentile(n: usize) -> Option<f64> {
    LADDER.iter().copied().rev().find(|&p| has_tail(n, p))
}

/// Nearest-rank percentile `p` (in percent) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "a percentile needs samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summary(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summary(&[3.0, 1.0, 2.0]);
        assert_eq!((s.n, s.q1, s.median, s.q3), (3, 1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summary(&[2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn one_sample_is_its_own_summary() {
        let s = summary(&[4.5]);
        assert_eq!((s.n, s.q1, s.median, s.q3), (1, 4.5, 4.5, 4.5));
        assert_eq!(s.spread(), 0.0);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(summary(&v).spread(), 1.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert!(has_tail(1000, 99.0));
        assert!(!has_tail(999, 99.0));
        assert!(has_tail(20, 50.0));
        assert!(!has_tail(19, 50.0));
        assert_eq!(top_percentile(19), None);
        assert_eq!(top_percentile(20), Some(50.0));
        assert_eq!(top_percentile(100), Some(90.0));
        assert_eq!(top_percentile(999), Some(95.0));
        assert_eq!(top_percentile(1000), Some(99.0));
        assert_eq!(top_percentile(10_000), Some(99.9));
        assert_eq!(top_percentile(1_000_000), Some(99.99));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }
}
