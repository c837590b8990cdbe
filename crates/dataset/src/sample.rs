//! Seeded uniform sampling.
//!
//! The α-sampling optimization (paper §3.3) computes "rough" utility features
//! over a uniform sample of `α` percent of the data. Sampling is seeded so
//! experiments are reproducible.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::selection::RowSet;

/// Keeps each row of `rows` independently with probability `fraction`
/// (Bernoulli sampling), deterministically for a given seed.
///
/// `fraction` is clamped to `[0, 1]`.
#[must_use]
pub fn bernoulli_sample(rows: &RowSet, fraction: f64, seed: u64) -> RowSet {
    let fraction = fraction.clamp(0.0, 1.0);
    if fraction >= 1.0 {
        return rows.clone();
    }
    if fraction <= 0.0 {
        return RowSet::empty();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let ids: Vec<u32> = rows
        .ids()
        .iter()
        .copied()
        .filter(|_| rng.gen::<f64>() < fraction)
        .collect();
    // Filtering a sorted id list preserves strict ordering, so this cannot
    // fail; the fallback keeps the path panic-free regardless.
    RowSet::from_sorted_ids(ids).unwrap_or_else(|_| RowSet::empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bernoulli_is_deterministic() {
        let rows = RowSet::all(10_000);
        let a = bernoulli_sample(&rows, 0.1, 42);
        let b = bernoulli_sample(&rows, 0.1, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn bernoulli_hits_expected_fraction() {
        let rows = RowSet::all(100_000);
        let s = bernoulli_sample(&rows, 0.1, 7);
        let frac = s.len() as f64 / 100_000.0;
        assert!((frac - 0.1).abs() < 0.01, "fraction was {frac}");
    }

    #[test]
    fn bernoulli_extremes() {
        let rows = RowSet::all(100);
        assert_eq!(bernoulli_sample(&rows, 1.0, 1), rows);
        assert!(bernoulli_sample(&rows, 0.0, 1).is_empty());
        // Out-of-range fractions clamp.
        assert_eq!(bernoulli_sample(&rows, 2.5, 1), rows);
        assert!(bernoulli_sample(&rows, -1.0, 1).is_empty());
    }

    #[test]
    fn bernoulli_sample_is_subset() {
        let rows = RowSet::from_ids((0..1000).step_by(3).collect()).unwrap();
        let s = bernoulli_sample(&rows, 0.5, 99);
        assert!(s.ids().iter().all(|id| rows.contains(*id)));
    }

    #[test]
    fn different_seeds_differ() {
        let rows = RowSet::all(10_000);
        let a = bernoulli_sample(&rows, 0.5, 1);
        let b = bernoulli_sample(&rows, 0.5, 2);
        assert_ne!(a, b);
    }
}
