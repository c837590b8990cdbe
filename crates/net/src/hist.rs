//! Log-linear bucketed latency histograms (HDR-style).
//!
//! Lives in `viewseeker-net` so the reactor (loop-tick timing) and the
//! server's per-route metrics share one mergeable layout.
//!
//! Values are microseconds. The bucket layout is *fixed* — derived from the
//! value's binary magnitude, never from the data — so two histograms (e.g.
//! one per worker thread, or scrapes of the same route over time) merge by
//! element-wise addition, with no global sort and no re-bucketing:
//!
//! * values `0..8` get unit-width buckets (`[0,1), [1,2), … [7,8)`);
//! * every octave `[2^m, 2^(m+1))` for `m ≥ 3` is split into 8 linear
//!   sub-buckets of width `2^(m-3)`.
//!
//! A bucket's width is at most 1/8 of its lower bound, so any quantile read
//! from the histogram is within 12.5% (one bucket width) of the exact
//! sample quantile — tight enough for latency SLOs, at 496 fixed `u64`
//! counters per route instead of an unbounded sample reservoir. The exact
//! `count`, `sum`, and `max` are tracked alongside the buckets, so rates
//! and averages stay precise; only quantiles are approximated.

/// Unit-width buckets before the log-linear region starts.
const LINEAR_CUTOFF: u64 = 8;

/// Sub-buckets per power-of-two octave.
const SUBBUCKETS: usize = 8;

/// Total buckets: 8 unit buckets + 8 sub-buckets for each of the 61
/// octaves `2^3..2^63`, covering the full `u64` range.
pub const BUCKETS: usize = LINEAR_CUTOFF as usize + (64 - 3) * SUBBUCKETS;

/// Bucket index for a microsecond value. Total order: `v < w` implies
/// `bucket_index(v) <= bucket_index(w)`.
#[must_use]
pub fn bucket_index(us: u64) -> usize {
    if us < LINEAR_CUTOFF {
        return us as usize;
    }
    let magnitude = 63 - us.leading_zeros() as usize; // >= 3 here
    let sub = ((us >> (magnitude - 3)) - LINEAR_CUTOFF) as usize;
    LINEAR_CUTOFF as usize + (magnitude - 3) * SUBBUCKETS + sub
}

/// The `[lo, hi)` microsecond range of bucket `index`.
///
/// # Panics
///
/// If `index >= BUCKETS`.
#[must_use]
pub fn bucket_range(index: usize) -> (u64, u64) {
    assert!(index < BUCKETS, "bucket index {index} out of range");
    if index < LINEAR_CUTOFF as usize {
        return (index as u64, index as u64 + 1);
    }
    let magnitude = (index - LINEAR_CUTOFF as usize) / SUBBUCKETS + 3;
    let sub = ((index - LINEAR_CUTOFF as usize) % SUBBUCKETS) as u64;
    let width = 1u64 << (magnitude - 3);
    let lo = (LINEAR_CUTOFF + sub) << (magnitude - 3);
    (lo, lo.saturating_add(width))
}

/// A mergeable latency histogram over microsecond observations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum_us: u64,
    max_us: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            count: 0,
            sum_us: 0,
            max_us: 0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, us: u64) {
        if let Some(slot) = self.counts.get_mut(bucket_index(us)) {
            *slot += 1;
        }
        self.count += 1;
        self.sum_us = self.sum_us.saturating_add(us);
        self.max_us = self.max_us.max(us);
    }

    /// Adds every observation of `other` into `self`. The fixed layout
    /// makes this an element-wise sum — the property that lets per-thread
    /// or per-scrape histograms aggregate without a global sort.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum_us = self.sum_us.saturating_add(other.sum_us);
        self.max_us = self.max_us.max(other.max_us);
    }

    /// Observations recorded (exact).
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations, microseconds (exact, saturating).
    #[must_use]
    pub fn sum_us(&self) -> u64 {
        self.sum_us
    }

    /// Largest observation, microseconds (exact).
    #[must_use]
    pub fn max_us(&self) -> u64 {
        self.max_us
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The nearest-rank `q`-quantile (`q` in `[0, 1]`), reported as the
    /// inclusive upper bound of the bucket holding that rank (clamped to
    /// the exact max) — within one bucket width (≤ 12.5%) above the exact
    /// sample quantile. Returns 0 for an empty histogram.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (index, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return (bucket_range(index).1 - 1).min(self.max_us);
            }
        }
        self.max_us
    }

    /// `(inclusive upper bound µs, count)` for every non-empty bucket, in
    /// ascending bound order. Counts are per-bucket, not cumulative.
    #[must_use]
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(index, &c)| (bucket_range(index).1 - 1, c))
            .collect()
    }
}

/// A lock-free variant of [`Histogram`] for writers that must never
/// block: the reactor records its loop-tick duration on the hot path,
/// where a mutex shared with the scrape thread would stall every
/// connection at once. Same fixed bucket layout; [`AtomicHistogram::snapshot`]
/// materializes a plain mergeable [`Histogram`].
///
/// All operations are `Relaxed`: a scrape racing a record may observe a
/// bucket increment before the matching `count` increment (or vice
/// versa), which is fine for metrics — successive scrapes converge.
#[derive(Debug)]
pub struct AtomicHistogram {
    counts: Vec<std::sync::atomic::AtomicU64>,
    count: std::sync::atomic::AtomicU64,
    sum_us: std::sync::atomic::AtomicU64,
    max_us: std::sync::atomic::AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            counts: std::iter::repeat_with(std::sync::atomic::AtomicU64::default)
                .take(BUCKETS)
                .collect(),
            count: std::sync::atomic::AtomicU64::new(0),
            sum_us: std::sync::atomic::AtomicU64::new(0),
            max_us: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Records one observation without taking any lock.
    pub fn record(&self, us: u64) {
        use std::sync::atomic::Ordering::Relaxed;
        if let Some(slot) = self.counts.get(bucket_index(us)) {
            slot.fetch_add(1, Relaxed);
        }
        self.count.fetch_add(1, Relaxed);
        // Saturating add via CAS loop: latency sums can plausibly reach
        // u64::MAX over a long uptime and must not wrap.
        let mut cur = self.sum_us.load(Relaxed);
        loop {
            let next = cur.saturating_add(us);
            match self.sum_us.compare_exchange(cur, next, Relaxed, Relaxed) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
        self.max_us.fetch_max(us, Relaxed);
    }

    /// A point-in-time copy as a plain [`Histogram`].
    #[must_use]
    pub fn snapshot(&self) -> Histogram {
        use std::sync::atomic::Ordering::Relaxed;
        Histogram {
            counts: self.counts.iter().map(|c| c.load(Relaxed)).collect(),
            count: self.count.load(Relaxed),
            sum_us: self.sum_us.load(Relaxed),
            max_us: self.max_us.load(Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_exhaustive_and_ordered() {
        // Every bucket's range starts where the previous one ended.
        let mut expected_lo = 0;
        for index in 0..BUCKETS {
            let (lo, hi) = bucket_range(index);
            assert_eq!(lo, expected_lo, "bucket {index}");
            assert!(hi > lo, "bucket {index}");
            expected_lo = hi;
        }
    }

    #[test]
    fn values_land_in_their_own_bucket() {
        for us in (0..4096).chain([u64::MAX / 2, u64::MAX - 1, u64::MAX]) {
            let (lo, hi) = bucket_range(bucket_index(us));
            // The topmost bucket's upper bound saturates at u64::MAX and is
            // treated as inclusive.
            assert!(
                lo <= us && (us < hi || hi == u64::MAX),
                "{us} not in [{lo},{hi})"
            );
        }
    }

    #[test]
    fn relative_error_is_at_most_one_eighth() {
        for us in 8u64..100_000 {
            let (lo, hi) = bucket_range(bucket_index(us));
            assert!((hi - lo) * 8 <= lo, "bucket [{lo},{hi}) too wide at {us}");
        }
    }

    #[test]
    fn quantiles_track_exact_within_a_bucket() {
        let mut h = Histogram::new();
        let values: Vec<u64> = (1..=1000).map(|i| i * 13 % 5000).collect();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for q in [0.5f64, 0.9, 0.99] {
            let exact = sorted[(((q * 1000.0).ceil() as usize).max(1) - 1).min(999)];
            let approx = h.quantile(q);
            assert!(approx >= exact, "q{q}: {approx} < exact {exact}");
            let (lo, hi) = bucket_range(bucket_index(exact));
            assert!(approx < hi || approx <= exact + (hi - lo), "q{q}");
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum_us(), values.iter().sum::<u64>());
        assert_eq!(h.max_us(), *sorted.last().unwrap());
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut combined = Histogram::new();
        for v in 0..500u64 {
            let v = v * 97 % 10_000;
            if v % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            combined.record(v);
        }
        a.merge(&b);
        assert_eq!(a, combined);
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.nonzero_buckets(), Vec::new());
    }

    #[test]
    fn nonzero_buckets_cover_every_observation() {
        let mut h = Histogram::new();
        for v in [0, 3, 8, 100, 40_000] {
            h.record(v);
        }
        let buckets = h.nonzero_buckets();
        assert_eq!(buckets.iter().map(|(_, c)| c).sum::<u64>(), 5);
        // Bounds ascend.
        for pair in buckets.windows(2) {
            assert!(pair[0].0 < pair[1].0);
        }
    }

    #[test]
    fn atomic_histogram_snapshot_matches_plain_recording() {
        let atomic = AtomicHistogram::new();
        let mut plain = Histogram::new();
        for v in [0, 3, 8, 100, 40_000, u64::MAX] {
            atomic.record(v);
            plain.record(v);
        }
        assert_eq!(atomic.snapshot(), plain);
    }

    #[test]
    fn atomic_histogram_is_consistent_under_concurrent_writers() {
        let atomic = AtomicHistogram::new();
        std::thread::scope(|scope| {
            for thread in 0..4u64 {
                let atomic = &atomic;
                scope.spawn(move || {
                    for n in 0..1000u64 {
                        atomic.record(n * 31 + thread);
                    }
                });
            }
        });
        let snap = atomic.snapshot();
        assert_eq!(snap.count(), 4000);
        assert_eq!(
            snap.sum_us(),
            (0..4u64)
                .map(|t| (0..1000u64).map(|n| n * 31 + t).sum::<u64>())
                .sum()
        );
        assert_eq!(snap.max_us(), 999 * 31 + 3);
    }
}
