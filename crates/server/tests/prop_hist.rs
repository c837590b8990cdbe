//! Property-based tests of the log-linear latency histogram: bucket
//! boundaries partition the `u64` range, quantiles stay within one bucket
//! width of the exact order statistic, and merging is equivalent to
//! recording everything into one histogram.

use proptest::prelude::*;
use viewseeker_net::hist::{bucket_index, bucket_range, Histogram, BUCKETS};

/// Any microsecond value, including the saturating `u64::MAX` edge the
/// range strategy alone cannot reach.
fn arb_value() -> impl Strategy<Value = u64> {
    (0u32..16, 0u64..u64::MAX).prop_map(|(class, wide)| match class {
        0..=7 => wide % 64,           // sub-bucket-width noise
        8..=11 => 64 + wide % 10_000, // the typical-latency octaves
        12..=14 => wide,              // anywhere in the u64 range
        _ => u64::MAX,                // saturation
    })
}

/// Latency samples skewed the way real ones are: mostly small, with a
/// heavy tail.
fn arb_samples() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(arb_value(), 1..200)
}

/// The exact nearest-rank quantile the histogram approximates.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_value_lands_in_exactly_its_own_bucket(us in arb_value()) {
        let index = bucket_index(us);
        prop_assert!(index < BUCKETS);
        let (lo, hi) = bucket_range(index);
        // The topmost bucket saturates at u64::MAX and is inclusive there.
        prop_assert!(lo <= us && (us < hi || hi == u64::MAX), "{} not in [{},{})", us, lo, hi);
    }

    #[test]
    fn bucket_boundaries_are_contiguous_and_monotonic(index in 0usize..BUCKETS - 1) {
        let (lo, hi) = bucket_range(index);
        let (next_lo, _) = bucket_range(index + 1);
        prop_assert!(lo < hi);
        prop_assert_eq!(hi, next_lo, "gap or overlap after bucket {}", index);
    }

    #[test]
    fn relative_error_is_bounded_by_the_subbucket_width(us in 8u64..1 << 62) {
        let (lo, hi) = bucket_range(bucket_index(us));
        // Log-linear with 8 sub-buckets per octave: width ≤ lo / 8.
        prop_assert!((hi - lo) * 8 <= lo, "[{},{}) too wide at {}", lo, hi, us);
    }

    #[test]
    fn quantiles_land_in_the_exact_order_statistic_bucket(samples in arb_samples()) {
        let mut hist = Histogram::new();
        for &s in &samples {
            hist.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for q in [0.0f64, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let exact = exact_quantile(&sorted, q);
            let approx = hist.quantile(q);
            // The approximation is the inclusive upper bound of the bucket
            // holding the exact sample quantile (clamped to the observed
            // max), so it sits within one bucket width of exact.
            let (lo, hi) = bucket_range(bucket_index(exact));
            prop_assert!(lo <= approx && approx < hi,
                "q{}: approx {} outside bucket [{},{}) of exact {}", q, approx, lo, hi, exact);
            prop_assert!(approx <= hist.max_us());
        }
        prop_assert_eq!(hist.count(), samples.len() as u64);
        prop_assert_eq!(hist.max_us(), *sorted.last().unwrap());
    }

    #[test]
    fn merge_is_equivalent_to_recording_into_one(
        left in arb_samples(),
        right in arb_samples(),
    ) {
        let mut a = Histogram::new();
        let mut combined = Histogram::new();
        for &s in &left {
            a.record(s);
            combined.record(s);
        }
        let mut b = Histogram::new();
        for &s in &right {
            b.record(s);
            combined.record(s);
        }
        a.merge(&b);
        prop_assert_eq!(a.count(), combined.count());
        prop_assert_eq!(a.sum_us(), combined.sum_us());
        prop_assert_eq!(a.max_us(), combined.max_us());
        prop_assert_eq!(a.nonzero_buckets(), combined.nonzero_buckets());
        for q in [0.5f64, 0.9, 0.99] {
            prop_assert_eq!(a.quantile(q), combined.quantile(q));
        }
    }

    #[test]
    fn nonzero_buckets_account_for_every_observation(samples in arb_samples()) {
        let mut hist = Histogram::new();
        for &s in &samples {
            hist.record(s);
        }
        let total: u64 = hist.nonzero_buckets().iter().map(|(_, c)| c).sum();
        prop_assert_eq!(total, samples.len() as u64);
    }
}
