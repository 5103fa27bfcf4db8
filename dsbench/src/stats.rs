//! Order statistics: medians, quantiles, and the tail-percentile rule.

/// The tail percentiles the benchmark may report, lowest first, in
/// hundredths of a percent (integers, so rank arithmetic is exact).
/// p99.99 is left out: at the workloads' sizes it has 10–60 samples
/// beyond it, and those sit on either side of the SLO depending on
/// whether a handful of queries completed late, so it flips by 20%
/// from seed to seed.
pub const TAIL_PERCENTILES: [u64; 3] = [9000, 9900, 9990];

/// A sample must have at least this many values strictly beyond a tail
/// percentile for that percentile to be reported.
pub const MIN_BEYOND: usize = 10;

/// Linear-interpolation quantile of an ascending-sorted slice
/// (`q` in `[0, 1]`); `NaN` when empty.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Sorts a copy of `values` ascending (NaNs last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values`; `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

/// A tail percentile chosen by [`tail`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported, e.g. `99.9`.
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// How many samples lie strictly beyond the percentile's rank.
    pub beyond: usize,
}

/// Samples strictly beyond a percentile (`hundredths` of a percent) in a
/// sample of `n`: the count of ranks above `ceil(n·p)`.
pub fn beyond_count(n: usize, hundredths: u64) -> usize {
    let rank = (n as u64 * hundredths).div_ceil(10_000);
    n.saturating_sub(rank as usize)
}

/// The highest of [`TAIL_PERCENTILES`] that still leaves at least
/// [`MIN_BEYOND`] samples beyond it; falls back to the median when even
/// p90 has too few (`None` for an empty sample).
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let percentile = TAIL_PERCENTILES
        .iter()
        .rev()
        .copied()
        .find(|&p| beyond_count(n, p) >= MIN_BEYOND)
        .unwrap_or(5000);
    Some(Tail {
        percentile: percentile as f64 / 100.0,
        value: quantile_sorted(sorted, percentile as f64 / 10_000.0),
        beyond: beyond_count(n, percentile),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&s, 0.0), 1.0);
        assert_eq!(quantile_sorted(&s, 1.0), 4.0);
        assert_eq!(quantile_sorted(&s, 0.5), 2.5);
        assert!(quantile_sorted(&[], 0.5).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        let s: Vec<f64> = (0..10_000).map(f64::from).collect();
        let t = tail(&s).unwrap();
        // 10k samples: p99.9 leaves exactly 10 beyond.
        assert_eq!(t.percentile, 99.9);
        assert_eq!(t.beyond, 10);

        let s: Vec<f64> = (0..9_999).map(f64::from).collect();
        // One short of 10 beyond p99.9, so p99 (≥ 99 beyond) wins.
        assert_eq!(tail(&s).unwrap().percentile, 99.0);

        let s: Vec<f64> = (0..1_000).map(f64::from).collect();
        let t = tail(&s).unwrap();
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.beyond, 10);

        let s: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(tail(&s).unwrap().percentile, 90.0);

        let s: Vec<f64> = (0..99).map(f64::from).collect();
        // Too small for even p90: the median, still with its count.
        let t = tail(&s).unwrap();
        assert_eq!(t.percentile, 50.0);
        assert!(t.beyond >= MIN_BEYOND);
        assert!(tail(&[]).is_none());
    }

    #[test]
    fn tail_value_is_the_interpolated_quantile() {
        let s: Vec<f64> = (0..2_000).map(f64::from).collect();
        let t = tail(&s).unwrap();
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, quantile_sorted(&s, 0.99));
    }
}
