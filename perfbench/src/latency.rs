//! Latency summaries: the median plus the highest percentile the sample
//! supports, always with the sample count beside them.
//!
//! A percentile is *supported* when at least [`MIN_BEYOND`] samples lie
//! beyond it; a p99 from 200 samples rests on two values and says little.
//! The summary therefore reports the requested tail percentile only when
//! the sample supports it, and otherwise the highest percentile that is
//! supported. With [`MIN_BEYOND`] samples or fewer no tail percentile is
//! supported at all, and the tail falls back to the maximum (`tail_q` 1).

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Median and tail of one set of latency samples, in the samples' unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    pub p50: f64,
    /// The percentile `tail` reports, as a fraction (0.99 for p99).
    pub tail_q: f64,
    pub tail: f64,
}

/// The highest percentile of `n` samples with at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when the sample is too small for any.
pub fn highest_supported(n: usize) -> Option<f64> {
    (n > MIN_BEYOND).then(|| 1.0 - MIN_BEYOND as f64 / n as f64)
}

/// Nearest-rank percentile of sorted samples.
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Summarize `samples`, reporting `want_q` as the tail when the sample
/// supports it (see the module docs). `None` for an empty sample.
pub fn summarize(samples: &[f64], want_q: f64) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let tail_q = highest_supported(sorted.len()).map_or(1.0, |q| q.min(want_q));
    Some(Summary {
        n: sorted.len(),
        p50: nearest_rank(&sorted, 0.5),
        tail_q,
        tail: nearest_rank(&sorted, tail_q),
    })
}

/// Median of `samples` (`NaN` when empty).
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples, 0.5).map_or(f64::NAN, |s| s.p50)
}

/// Samples strictly over `limit`: each counts as a failed request.
pub fn count_over(samples: &[f64], limit: f64) -> usize {
    samples.iter().filter(|&&x| x > limit).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // 1..=n in a scrambled order: the summary must sort for itself
        (0..n).map(|i| ((i * 7919) % n + 1) as f64).collect()
    }

    #[test]
    fn empty_sample_has_no_summary() {
        assert_eq!(summarize(&[], 0.99), None);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn requested_tail_is_reported_when_supported() {
        let s = summarize(&ramp(2000), 0.99).unwrap();
        assert_eq!(s.n, 2000);
        assert_eq!(s.p50, 1000.0);
        assert_eq!(s.tail_q, 0.99);
        assert_eq!(s.tail, 1980.0);
        assert!(2000 - s.tail as usize >= MIN_BEYOND);
    }

    #[test]
    fn small_sample_reports_the_highest_supported_percentile() {
        // 200 samples support at most p95: exactly 10 samples lie beyond
        let s = summarize(&ramp(200), 0.99).unwrap();
        assert!((s.tail_q - 0.95).abs() < 1e-12);
        assert_eq!(s.tail, 190.0);
        assert_eq!(200 - s.tail as usize, MIN_BEYOND);
    }

    #[test]
    fn tiny_sample_falls_back_to_the_maximum() {
        let s = summarize(&[3.0, 1.0, 2.0], 0.99).unwrap();
        assert_eq!((s.n, s.p50, s.tail_q, s.tail), (3, 2.0, 1.0, 3.0));
        assert_eq!(highest_supported(MIN_BEYOND), None);
        assert!(highest_supported(MIN_BEYOND + 1).is_some());
    }

    #[test]
    fn median_of_even_sample_is_the_lower_middle() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn requests_over_the_limit_are_counted() {
        assert_eq!(count_over(&[1.0, 5.0, 5.0, 9.0], 5.0), 1);
        assert_eq!(count_over(&[], 5.0), 0);
    }
}
