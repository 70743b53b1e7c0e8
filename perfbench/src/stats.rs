//! Order statistics and the outcome digest.

/// Median of `values` (mean of the middle pair for an even count); 0 for
/// no values.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank index of the `p`-th percentile among `n` sorted samples.
fn rank(n: usize, p: u32) -> usize {
    (n * p as usize).div_ceil(100).max(1) - 1
}

/// The highest whole percentile, at most 99, that still has at least ten
/// samples above its nearest-rank position among `n` samples; `None`
/// when even the median has fewer than ten above it.
pub fn tail_percentile(n: usize) -> Option<u32> {
    (50..=99).rev().find(|&p| n - (rank(n, p) + 1) >= 10)
}

/// The `p`-th percentile of `values` by nearest rank; 0 for no values.
pub fn percentile(values: &[f64], p: u32) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), p)]
}

/// The upper quartile of per-window rates. Interference from other
/// processes on a shared machine only ever slows a window, and it comes
/// in bursts shorter than a run: identical work timed back to back on the
/// two-core reference box took from 1.0× to 2.8× its fastest time, and
/// the medians of 5-second stretches ranged ±13% while the fastest
/// samples of most stretches stayed within 6% of each other.
pub fn fast_rate(rates: &[f64]) -> f64 {
    percentile(rates, 75)
}

/// The tail percentile reported under a `_p99` name: the 99th when there
/// are enough samples, otherwise the highest percentile the ten-sample
/// rule allows (the median below twenty samples).
pub fn tail(values: &[f64]) -> f64 {
    percentile(values, tail_percentile(values.len()).unwrap_or(50))
}

/// FNV-1a over a stream of integers: the outcome digest pinned for the
/// default seed.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn add(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn reported_percentile_is_the_highest_with_ten_samples_beyond() {
        // 1000 samples: the 99th percentile is rank 990, ten above it.
        assert_eq!(tail_percentile(1000), Some(99));
        // One fewer and p99 has only nine above it; p98 has nineteen.
        assert_eq!(tail_percentile(999), Some(98));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(19), None);
        for n in 20..3000 {
            let p = tail_percentile(n).expect("n >= 20 has a median tail");
            assert!(n - (rank(n, p) + 1) >= 10, "n={n} p={p}");
            if p < 99 {
                assert!(
                    n - (rank(n, p + 1) + 1) < 10,
                    "n={n}: p{} also qualifies",
                    p + 1
                );
            }
        }
    }

    #[test]
    fn tail_reads_the_value_at_that_rank() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&values), 990.0);
        assert_eq!(percentile(&values, 50), 500.0);
        let few: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&few), 90.0);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = Digest::default();
        a.add(1);
        a.add(2);
        let mut b = Digest::default();
        b.add(2);
        b.add(1);
        assert_ne!(a.hex(), b.hex());
    }
}
