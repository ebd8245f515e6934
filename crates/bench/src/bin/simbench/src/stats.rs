//! Order statistics over per-unit host times.

/// Samples that must lie beyond a reported percentile.
pub const TAIL_SAMPLES: usize = 10;

/// The highest whole percentile with at least [`TAIL_SAMPLES`] of `n`
/// samples beyond it, or `None` when fewer than `2 * TAIL_SAMPLES`
/// samples support no tail above the median.
pub fn tail_percentile(n: usize) -> Option<u32> {
    if n < 2 * TAIL_SAMPLES {
        return None;
    }
    // Largest p with n * (100 - p) / 100 >= TAIL_SAMPLES.
    let p = 100 - (100 * TAIL_SAMPLES).div_ceil(n);
    u32::try_from(p).ok()
}

/// The nearest-rank `p`th percentile of ascending `sorted` (`p` in
/// `1..=100`), or `None` for no samples.
pub fn percentile(sorted: &[f64], p: u32) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p as usize * sorted.len()).div_ceil(100);
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median of `values` (mean of the middle two for an even count), or
/// `None` for no samples.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(99), Some(89));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(120), Some(91));
        assert_eq!(tail_percentile(1000), Some(99));
        for n in 20..2_000 {
            let p = tail_percentile(n).map(|p| p as usize);
            let Some(p) = p else {
                unreachable!("n >= 20 has a tail")
            };
            let beyond = |p: usize| n - (p * n).div_ceil(100);
            assert!(beyond(p) >= TAIL_SAMPLES, "n={n} p={p}");
            assert!(
                p == 99 || beyond(p + 1) < TAIL_SAMPLES,
                "n={n}: p{} also fits",
                p + 1
            );
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), Some(50.0));
        assert_eq!(percentile(&v, 90), Some(90.0));
        assert_eq!(percentile(&v, 100), Some(100.0));
        assert_eq!(percentile(&[3.0], 90), Some(3.0));
        assert_eq!(percentile(&[], 50), None);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
