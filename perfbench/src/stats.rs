//! Order statistics, the percentile rule and the fingerprint hash.

/// Percentiles a tail is reported at, in per-mille, highest first
/// (integers, so the rule below is exact).
const TAIL_CANDIDATES_PERMILLE: [u64; 5] = [999, 990, 950, 900, 500];

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: u64 = 10;

/// The `q`-quantile (`0 <= q <= 1`) of `values`, linearly interpolated
/// between closest ranks; `None` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// The highest of the candidate percentiles that has at least
/// [`MIN_BEYOND`] of `n` samples beyond it, or `None` when even the
/// median has fewer (n < 20).
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES_PERMILLE
        .into_iter()
        .find(|&pm| n as u64 * (1000 - pm) >= MIN_BEYOND * 1000)
        .map(|pm| pm as f64 / 10.0)
}

/// 64-bit FNV-1a, folded over successive byte strings.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    /// Folds `bytes` in.
    pub fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash so far.
    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), Some(2.5));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(210), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn fingerprint_is_fnv1a() {
        let mut f = Fingerprint::default();
        f.feed(b"a");
        assert_eq!(f.value(), 0xaf63_dc4c_8601_ec8c);
    }
}
