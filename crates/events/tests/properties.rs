//! Property-based tests for the base statistics.

use plp_events::stats::geometric_mean;
use proptest::prelude::*;

proptest! {
    /// Geometric mean is scale-equivariant: gm(k·xs) = k·gm(xs).
    #[test]
    fn gmean_scale_equivariant(
        xs in prop::collection::vec(0.01f64..100.0, 1..20),
        k in 0.1f64..10.0,
    ) {
        let gm = geometric_mean(&xs).unwrap();
        let scaled: Vec<f64> = xs.iter().map(|x| x * k).collect();
        let gm2 = geometric_mean(&scaled).unwrap();
        prop_assert!((gm2 - k * gm).abs() / (k * gm) < 1e-9);
    }
}
