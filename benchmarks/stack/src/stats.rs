//! Order statistics for the report: medians, quartiles and the percentile
//! rule (a percentile is reported only with ≥ 10 samples beyond it).

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Samples in ascending order: sorted once, asked many times (a served
/// workload's latency pool holds a million).
pub struct Sorted(Vec<f64>);

impl Sorted {
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Self(values)
    }

    pub fn mean(&self) -> f64 {
        mean(&self.0)
    }

    /// Linear-interpolated quantile, `q` in `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(!self.0.is_empty(), "quantile of no samples");
        let pos = q * (self.0.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        self.0[lo] + (self.0[hi] - self.0[lo]) * (pos - lo as f64)
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The `p`-th percentile (nearest-rank from above: the smallest sample
    /// with at least `p` % of the pool at or below it), refusing when fewer
    /// than [`MIN_BEYOND`] samples lie beyond it.
    pub fn percentile(&self, p: u32) -> Result<f64, String> {
        let n = self.0.len();
        let rank = (n * p as usize).div_ceil(100).max(1);
        if n < rank + MIN_BEYOND {
            return Err(format!("p{p} of {n} samples leaves {} beyond it", n.saturating_sub(rank)));
        }
        Ok(self.0[rank - 1])
    }
}

pub fn median(values: &[f64]) -> f64 {
    Sorted::new(values.to_vec()).median()
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// The highest whole percentile of `n` samples that still has
/// [`MIN_BEYOND`] samples above it, or `None` below 2·`MIN_BEYOND` samples
/// (then not even the median qualifies as "a percentile with a tail").
pub fn highest_percentile(n: usize) -> Option<u32> {
    if n < 2 * MIN_BEYOND {
        return None;
    }
    Some((100 * (n - MIN_BEYOND) / n) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(Sorted::new(vec![10.0, 0.0]).quantile(0.25), 2.5);
        assert_eq!(Sorted::new(vec![5.0, 1.0, 4.0, 2.0, 3.0]).quantile(0.75), 4.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn p95_needs_two_hundred_samples() {
        let pool = |n: usize| Sorted::new((1..=n).rev().map(|i| i as f64).collect());
        // 200 samples: rank 190, ten beyond.
        assert_eq!(pool(200).percentile(95), Ok(190.0));
        // 199 samples: rank 190 again, only nine beyond.
        assert!(pool(199).percentile(95).is_err());
        assert_eq!(pool(20).percentile(50), Ok(10.0));
        assert!(pool(19).percentile(50).is_err());
    }

    #[test]
    fn highest_percentile_keeps_ten_beyond() {
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(20), Some(50));
        assert_eq!(highest_percentile(200), Some(95));
        assert_eq!(highest_percentile(1_000), Some(99));
        for n in [20usize, 57, 200, 1_280, 5_000] {
            let p = highest_percentile(n).unwrap();
            let pool = Sorted::new((0..n).map(|i| i as f64).collect());
            assert!(pool.percentile(p).is_ok(), "p{p} of {n}");
        }
    }
}
