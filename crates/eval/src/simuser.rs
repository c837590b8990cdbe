//! The simulated user (paper §4).
//!
//! "For each presented view vᵢ, we simulated the user's belief with respect
//! to the interestingness of a view through the normalized utility score
//! produced by the u*(vᵢ), such that u*(vᵢ) = 0.7 indicates the
//! interestingness of view vᵢ is about 70% of the maximum."
//!
//! The user's scores are computed against the *exact* (full-data) feature
//! matrix — the simulated human knows what they find interesting even when
//! ViewSeeker is still working with rough α-sampled features.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use viewseeker_core::{CompositeUtility, CoreError, FeatureMatrix, ViewId};

/// A simulated user with a hidden ideal utility function.
///
/// Optionally *noisy*: real users rate inconsistently, so
/// [`SimulatedUser::with_noise`] perturbs each label with seeded Gaussian
/// noise (clamped back into `[0, 1]`) while ground truth — the ideal top-k
/// and true scores — stays exact.
#[derive(Debug, Clone)]
pub struct SimulatedUser {
    scores: Vec<f64>,
    ideal_top_cache: Vec<usize>,
    /// Per-view label noise, precomputed so repeated label() calls agree.
    noise: Option<Vec<f64>>,
}

impl SimulatedUser {
    /// Creates a simulated user whose hidden ideal is `ideal`, evaluated on
    /// the exact feature matrix `truth`.
    ///
    /// # Errors
    ///
    /// Propagates scoring errors.
    pub fn new(ideal: &CompositeUtility, truth: &FeatureMatrix) -> Result<Self, CoreError> {
        let scores = ideal.normalized_scores(truth)?;
        let ideal_top_cache = viewseeker_stats::rank_descending(&scores);
        Ok(Self {
            scores,
            ideal_top_cache,
            noise: None,
        })
    }

    /// Like [`SimulatedUser::new`], but labels are perturbed with Gaussian
    /// noise of standard deviation `sigma` (seeded; the same view always
    /// gets the same noisy label, as a consistent-but-miscalibrated human
    /// would produce).
    ///
    /// # Errors
    ///
    /// Propagates scoring errors.
    pub fn with_noise(
        ideal: &CompositeUtility,
        truth: &FeatureMatrix,
        sigma: f64,
        seed: u64,
    ) -> Result<Self, CoreError> {
        let mut user = Self::new(ideal, truth)?;
        if sigma > 0.0 {
            let mut rng = StdRng::seed_from_u64(seed);
            // Box-Muller keeps us free of a rand_distr dependency here.
            let normals: Vec<f64> = (0..user.scores.len())
                .map(|_| {
                    let u1: f64 = rng.gen::<f64>().max(1e-12);
                    let u2: f64 = rng.gen();
                    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos() * sigma
                })
                .collect();
            user.noise = Some(normals);
        }
        Ok(user)
    }

    /// The user's feedback label for a presented view: the normalized ideal
    /// utility in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownView`] for a view outside the matrix.
    pub fn label(&self, view: ViewId) -> Result<f64, CoreError> {
        let exact = self
            .scores
            .get(view.index())
            .copied()
            .ok_or(CoreError::UnknownView(view.index()))?;
        Ok(match &self.noise {
            Some(noise) => (exact + noise[view.index()]).clamp(0.0, 1.0),
            None => exact,
        })
    }

    /// The ground-truth normalized score of every view.
    #[must_use]
    pub fn true_scores(&self) -> &[f64] {
        &self.scores
    }

    /// The ground-truth top-`k` views under the hidden ideal.
    #[must_use]
    pub fn ideal_top_k(&self, k: usize) -> Vec<ViewId> {
        self.ideal_top_cache
            .iter()
            .take(k)
            .map(|&i| ViewId::from_index(i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use viewseeker_core::features::FEATURE_COUNT;
    use viewseeker_core::UtilityFeature;

    fn truth() -> FeatureMatrix {
        let mut rows = Vec::new();
        for i in 0..5 {
            let mut r = [0.0; FEATURE_COUNT];
            r[0] = i as f64; // KL signal grows with index
            rows.push(r);
        }
        FeatureMatrix::new(rows)
    }

    #[test]
    fn labels_are_normalized_ideal_scores() {
        let m = truth();
        let user = SimulatedUser::new(&CompositeUtility::single(UtilityFeature::Kl), &m).unwrap();
        assert_eq!(user.label(ViewId::from_index(4)).unwrap(), 1.0);
        assert_eq!(user.label(ViewId::from_index(0)).unwrap(), 0.0);
        assert_eq!(user.label(ViewId::from_index(2)).unwrap(), 0.5);
    }

    #[test]
    fn ideal_top_k_is_descending() {
        let m = truth();
        let user = SimulatedUser::new(&CompositeUtility::single(UtilityFeature::Kl), &m).unwrap();
        let top3: Vec<usize> = user.ideal_top_k(3).iter().map(|v| v.index()).collect();
        assert_eq!(top3, vec![4, 3, 2]);
    }

    #[test]
    fn unknown_view_errors() {
        let m = truth();
        let user = SimulatedUser::new(&CompositeUtility::single(UtilityFeature::Kl), &m).unwrap();
        assert!(user.label(ViewId::from_index(99)).is_err());
    }

    #[test]
    fn scores_live_in_unit_interval() {
        let m = truth();
        let user = SimulatedUser::new(&CompositeUtility::single(UtilityFeature::Kl), &m).unwrap();
        assert!(user.true_scores().iter().all(|s| (0.0..=1.0).contains(s)));
    }

    #[test]
    fn noise_known_answers() {
        // The Box-Muller draws for seed 5, σ = 0.3, and the clamped labels
        // they produce over the exact scores 0, 0.25, 0.5, 0.75, 1.
        let noisy = SimulatedUser::with_noise(
            &CompositeUtility::single(UtilityFeature::Kl),
            &truth(),
            0.3,
            5,
        )
        .unwrap();
        assert_eq!(
            noisy.noise.as_deref(),
            Some(
                &[
                    -0.379_060_239_328_295_97,
                    0.121_109_734_160_613_81,
                    0.074_196_734_159_185_2,
                    0.126_550_264_311_980_94,
                    -0.313_256_889_341_790_63
                ][..]
            )
        );
        let labels: Vec<f64> = (0..5)
            .map(|i| noisy.label(ViewId::from_index(i)).unwrap())
            .collect();
        assert_eq!(
            labels,
            [
                0.0,
                0.371_109_734_160_613_8,
                0.574_196_734_159_185_2,
                0.876_550_264_311_980_9,
                0.686_743_110_658_209_4
            ]
        );
    }

    #[test]
    fn noisy_labels_are_clamped_deterministic_and_distinct() {
        let m = truth();
        let ideal = CompositeUtility::single(UtilityFeature::Kl);
        let clean = SimulatedUser::new(&ideal, &m).unwrap();
        let noisy = SimulatedUser::with_noise(&ideal, &m, 0.3, 5).unwrap();
        let mut any_different = false;
        for i in 0..5 {
            let v = ViewId::from_index(i);
            let a = noisy.label(v).unwrap();
            assert!((0.0..=1.0).contains(&a));
            assert_eq!(a, noisy.label(v).unwrap(), "same view, same label");
            if (a - clean.label(v).unwrap()).abs() > 1e-12 {
                any_different = true;
            }
        }
        assert!(any_different, "noise must actually perturb labels");
        // Ground truth stays exact.
        assert_eq!(noisy.true_scores(), clean.true_scores());
        // sigma = 0 degrades to the exact user.
        let zero = SimulatedUser::with_noise(&ideal, &m, 0.0, 5).unwrap();
        for i in 0..5 {
            let v = ViewId::from_index(i);
            assert_eq!(zero.label(v).unwrap(), clean.label(v).unwrap());
        }
    }
}
