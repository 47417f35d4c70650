//! Seeded randomness and order statistics.

/// SplitMix64: a tiny, well-mixed generator. The same seed gives the same
/// sequence on every platform, which is all the workloads need.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5354_4143_4b50_4552) // "STACKPER"
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The tail percentile: the highest percentile that has at least ten
/// samples beyond it, capped at p99. Further out, the tail of a mix of
/// programs reads the few verdicts a busy shared machine happened to
/// stall, not the slowest program. Returns `(percentile, value)`, or
/// `None` with ten samples or fewer.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n <= 10 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let beyond = (n / 100).max(10);
    Some((100.0 * (n - beyond) as f64 / n as f64, v[n - beyond - 1]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_sequence() {
        let a: Vec<u64> = (0..5)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..5)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        let c: Vec<u64> = (0..5)
            .scan(Rng::new(8), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn median_and_tail_pick_the_right_ranks() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // 90 leaves exactly ten samples (91..=100) beyond it.
        assert_eq!(tail(&v), Some((90.0, 90.0)));
        assert_eq!(tail(&v[..10]), None);
        assert_eq!(tail(&v[..11]), Some((100.0 / 11.0, 1.0)));
        // Large runs stop at p99.
        let v: Vec<f64> = (1..=2_000).map(f64::from).collect();
        assert_eq!(tail(&v), Some((99.0, 1_980.0)));
    }
}
