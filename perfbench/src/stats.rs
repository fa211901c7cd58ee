//! Medians and percentiles, with the tail rule the benchmark reports by:
//! a percentile is only quoted when at least ten samples lie beyond it.

/// Samples a percentile needs beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Median of `v` (mean of the middle pair for an even count); `NaN` when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank `p`-th percentile (`0 < p <= 100`); `NaN` when empty.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s[nearest_rank(s.len(), p) - 1]
}

/// The 1-based nearest rank of percentile `p` over `n` samples:
/// ⌈p·n/100⌉, in integers over thousandths of a percent so that
/// `p = 99.9, n = 10 000` is rank 9990 exactly.
fn nearest_rank(n: usize, p: f64) -> usize {
    let milli = (p.clamp(0.0, 100.0) * 1000.0).round() as u128;
    let rank = (milli * n as u128).div_ceil(100_000);
    (rank as usize).clamp(1, n)
}

/// How many of `n` samples lie strictly beyond the nearest-rank `p`-th percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - nearest_rank(n, p)
}

/// The highest of the usual tail percentiles that `n` samples support
/// with at least [`MIN_BEYOND`] samples beyond it; `None` below 20 samples.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0].into_iter().find(|&p| samples_beyond(n, p) >= MIN_BEYOND)
}

/// Samples per block of [`block_percentile`]: enough for a p95 with
/// [`MIN_BEYOND`] samples beyond it.
pub const BLOCK: usize = 200;

/// The median, over consecutive blocks of at least `block` samples, of
/// each block's nearest-rank `p`-th percentile. Fewer than two blocks'
/// worth of samples make one block. A burst of machine noise then moves
/// one block's tail, not the reported one.
pub fn block_percentile(v: &[f64], p: f64, block: usize) -> f64 {
    let blocks = (v.len() / block.max(1)).max(1);
    let tails: Vec<f64> = (0..blocks)
        .map(|k| percentile(&v[k * v.len() / blocks..(k + 1) * v.len() / blocks], p))
        .collect();
    median(&tails)
}

/// Arithmetic mean; `NaN` when empty.
pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// Geometric mean; `NaN` when empty.
pub fn geomean(v: &[f64]) -> f64 {
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(block_percentile(&v, 95.0, 200), 95.0);
        let w: Vec<f64> = (0..600)
            .map(|i| if i >= 400 && i % 4 == 0 { 1e6 } else { f64::from(i % 200) })
            .collect();
        assert_eq!(block_percentile(&w, 95.0, 200), 189.0);
    }
}
