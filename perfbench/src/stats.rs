//! The benchmark's one percentile rule.
//!
//! Every timing is reported as its median plus the highest percentile
//! that still has at least [`MIN_BEYOND`] samples beyond it, together
//! with the sample count. Percentiles use the nearest-rank definition,
//! so every reported value is an observed sample.

/// Samples that must lie beyond a tail percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles tried, highest first.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Median, supported tail and count of one sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Nearest-rank median (NaN when `n == 0`).
    pub p50: f64,
    /// `(percentile, value)` of the highest percentile in the ladder
    /// with at least [`MIN_BEYOND`] samples beyond it, if any.
    pub tail: Option<(f64, f64)>,
    /// The 95th and 99th percentiles, when at least [`MIN_BEYOND`]
    /// samples lie beyond them (n >= 200 and n >= 1000).
    pub p95: Option<f64>,
    pub p99: Option<f64>,
}

impl Summary {
    /// `(percentile, value)` to report as a p99 figure: p99 itself when
    /// supported, else the highest supported tail, else the median.
    pub fn p99_or_tail(&self) -> (f64, f64) {
        match self.p99 {
            Some(v) => (99.0, v),
            None => self.tail.unwrap_or((50.0, self.p50)),
        }
    }
}

/// 1-based nearest rank of percentile `p` in a sample of `n`.
fn rank(p: f64, n: usize) -> usize {
    // The epsilon keeps float error (99.9 / 100 * 10000 = 9990.000…1)
    // from bumping an exact rank up by one.
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Summarises `xs` (sorted in place) by the benchmark's percentile rule.
pub fn summarize(xs: &mut [f64]) -> Summary {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n == 0 {
        return Summary {
            n,
            p50: f64::NAN,
            tail: None,
            p95: None,
            p99: None,
        };
    }
    let tail = TAIL_LADDER
        .iter()
        .map(|&p| (p, rank(p, n)))
        .find(|&(_, r)| n - r >= MIN_BEYOND)
        .map(|(p, r)| (p, xs[r - 1]));
    let at = |p: f64| {
        let r = rank(p, n);
        (n - r >= MIN_BEYOND).then(|| xs[r - 1])
    };
    Summary {
        n,
        p50: xs[rank(50.0, n) - 1],
        tail,
        p95: at(95.0),
        p99: at(99.0),
    }
}

/// A line of nearest-rank percentiles of `xs` (sorted in place).
pub fn tails(xs: &mut [f64]) -> String {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    let at = |p: f64| if n == 0 { f64::NAN } else { xs[rank(p, n) - 1] };
    format!(
        "percentiles (n={n}): p50={:.4} p90={:.4} p95={:.4} p99={:.4}",
        at(50.0),
        at(90.0),
        at(95.0),
        at(99.0)
    )
}

/// Median of `xs` (sorted in place); NaN when empty.
pub fn median(xs: &mut [f64]) -> f64 {
    summarize(xs).p50
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn thousand_samples_support_p99_with_exactly_ten_beyond() {
        let s = summarize(&mut ramp(1000));
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.tail, Some((99.0, 990.0)));
        assert_eq!(s.p99, Some(990.0));
        assert_eq!(s.p95, Some(950.0));
    }

    #[test]
    fn one_short_of_a_thousand_falls_back_to_p95() {
        // rank(99, 999) = 990 leaves only 9 samples beyond it.
        let s = summarize(&mut ramp(999));
        assert_eq!(s.tail.map(|t| t.0), Some(95.0));
        assert_eq!(s.p99, None);
        assert_eq!(s.p99_or_tail().0, 95.0);
    }

    #[test]
    fn ten_thousand_samples_reach_p999() {
        let s = summarize(&mut ramp(10_000));
        assert_eq!(s.tail, Some((99.9, 9990.0)));
        assert_eq!(s.p99, Some(9900.0));
    }

    #[test]
    fn too_few_samples_report_only_the_median() {
        let s = summarize(&mut ramp(12));
        assert_eq!(s.p50, 6.0);
        assert_eq!(s.tail, None);
        assert_eq!(s.p99_or_tail(), (50.0, 6.0));
        assert_eq!(s.p95, None);
        let s = summarize(&mut ramp(40));
        assert_eq!(s.tail, Some((75.0, 30.0)));
    }

    #[test]
    fn order_does_not_matter_and_empty_is_nan() {
        let mut xs = vec![5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&mut xs), 3.0);
        assert!(summarize(&mut []).p50.is_nan());
    }
}
