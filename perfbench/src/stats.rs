//! Order statistics over timing samples.

/// The `q`-quantile (0 ≤ q ≤ 1) of `values`, linearly interpolated between
/// order statistics. Returns 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Distance between the first and third quartile.
pub fn iqr(values: &[f64]) -> f64 {
    quantile(values, 0.75) - quantile(values, 0.25)
}

/// A SplitMix64 stream: the benchmark's own generator, so the inputs it
/// builds from `--seed` never depend on the library's RNG.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from [0, 1) with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(iqr(&v), 1.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn splitmix_is_deterministic() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = SplitMix::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = SplitMix::new(7);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
    }
}
