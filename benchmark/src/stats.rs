//! Order statistics behind every reported number: medians, quartiles
//! (the same rule as Python's `statistics.quantiles(values, n=4)`), and the
//! tail-percentile rule.

/// The tail percentiles considered, highest first, in tenths of a percent
/// so ranks are computed in exact integer arithmetic.
const TAILS: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle pair for an even count); `NaN` when
/// `values` is empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile by the "exclusive" method of
/// Python's `statistics.quantiles(values, n=4)`, so a spread computed here
/// matches one computed from the same values in Python. A single value is
/// its own quartiles; `NaN`s for an empty slice.
#[must_use]
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    let len = v.len();
    match len {
        0 => return (f64::NAN, f64::NAN, f64::NAN),
        1 => return (v[0], v[0], v[0]),
        _ => {}
    }
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Nearest-rank percentile `p` (0–100) of an ascending slice.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = rank((p * 10.0).round() as usize, sorted.len());
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of the tail percentiles with at least [`MIN_BEYOND`]
/// samples above its nearest rank, or `None` when even the median has
/// fewer than that beyond it.
#[must_use]
pub fn tail_percentile(count: usize) -> Option<f64> {
    TAILS
        .into_iter()
        .find(|&tenths| count.saturating_sub(rank(tenths, count)) >= MIN_BEYOND)
        .map(|tenths| tenths as f64 / 10.0)
}

/// The 1-based nearest rank of the percentile `tenths / 10` among `count`
/// samples.
fn rank(tenths: usize, count: usize) -> usize {
    (tenths * count).div_ceil(1_000)
}

/// A timing reported by the percentile rule: the median, the highest
/// tail percentile with enough samples beyond it, and the sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The median.
    pub p50: f64,
    /// The chosen tail percentile and its value, when one qualifies.
    pub tail: Option<(f64, f64)>,
    /// How many samples the figures rest on.
    pub count: usize,
}

/// Summarizes `values` by the percentile rule.
#[must_use]
pub fn tail(values: &[f64]) -> Tail {
    let v = sorted(values);
    Tail {
        p50: median(&v),
        tail: tail_percentile(v.len()).map(|p| (p, percentile(&v, p))),
        count: v.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.9), 7.0);
    }

    #[test]
    fn tail_rule_picks_highest_percentile_with_ten_beyond() {
        // 10 000 samples: p99.9 has exactly 10 beyond.
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        // 1 000 samples: p99 has 10 beyond.
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        // 100 samples: p90 has 10 beyond, p95 only 5.
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn tail_reports_count_and_chosen_percentile() {
        let v: Vec<f64> = (1..=1_000).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.count, 1_000);
        assert_eq!(t.p50, 500.5);
        assert_eq!(t.tail, Some((99.0, 990.0)));
        assert_eq!(tail(&[1.0; 5]).tail, None);
    }
}
