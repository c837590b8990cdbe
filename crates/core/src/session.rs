//! A view-type-agnostic interactive session.
//!
//! [`crate::ViewSeeker`] binds the interactive loop to bar-chart views over
//! a table. [`FeedbackSession`] is the same Algorithm 1 loop — cold start,
//! query strategy, utility + uncertainty estimators, top-k recommendation —
//! over *any* precomputed [`FeatureMatrix`], which is what the paper's
//! future-work extension to "more visualization types, such as scatter plot,
//! line chart etc." needs: a new view type only has to map its views into
//! the 8-component utility-feature space (see [`crate::scatter`] for the
//! scatter-plot instantiation).

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::coldstart::ColdStart;
use crate::config::{QueryStrategyKind, ViewSeekerConfig};
use crate::estimator::{Label, UncertaintyEstimator, ViewUtilityEstimator};
use crate::features::FeatureMatrix;
use crate::seeker::SeekerPhase;
use crate::view::ViewId;
use crate::CoreError;

/// An interactive recommendation session over an arbitrary feature matrix.
///
/// Item indices (wrapped in [`ViewId`]) refer to rows of the matrix; what
/// those rows *are* — bar charts, scatter plots, line charts — is the
/// caller's concern.
#[derive(Debug)]
pub struct FeedbackSession {
    matrix: FeatureMatrix,
    config: ViewSeekerConfig,
    labels: Vec<Label>,
    labeled: HashSet<usize>,
    has_positive: bool,
    has_negative: bool,
    utility: ViewUtilityEstimator,
    uncertainty: UncertaintyEstimator,
    cold_start: ColdStart,
    rng: StdRng,
}

impl FeedbackSession {
    /// Starts a session over a precomputed feature matrix.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Invalid`] for an invalid configuration or an
    /// empty matrix.
    pub fn new(matrix: FeatureMatrix, config: ViewSeekerConfig) -> Result<Self, CoreError> {
        config.validate()?;
        if matrix.is_empty() {
            return Err(CoreError::Invalid("empty feature matrix".into()));
        }
        Ok(Self {
            utility: ViewUtilityEstimator::new(config.ridge_lambda),
            uncertainty: UncertaintyEstimator::new(
                config.logistic_lambda,
                config.positive_threshold,
            ),
            rng: StdRng::seed_from_u64(config.seed.wrapping_add(2)),
            config,
            matrix,
            labels: Vec::new(),
            labeled: HashSet::new(),
            has_positive: false,
            has_negative: false,
            cold_start: ColdStart::new(),
        })
    }

    /// The session's feature matrix.
    #[must_use]
    pub fn feature_matrix(&self) -> &FeatureMatrix {
        &self.matrix
    }

    /// The current phase.
    #[must_use]
    pub fn phase(&self) -> SeekerPhase {
        if self.has_positive && self.has_negative {
            SeekerPhase::Active
        } else {
            SeekerPhase::ColdStart
        }
    }

    /// Number of labels collected.
    #[must_use]
    pub fn label_count(&self) -> usize {
        self.labels.len()
    }

    /// All labels collected so far, in submission order.
    #[must_use]
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// Selects the next `m` items to present for labeling.
    ///
    /// Returns an empty vector once every item has been labeled.
    ///
    /// # Errors
    ///
    /// Propagates estimator errors.
    pub fn next_items(&mut self, m: usize) -> Result<Vec<ViewId>, CoreError> {
        if self.labeled.len() >= self.matrix.len() {
            return Ok(Vec::new());
        }
        if self.phase() == SeekerPhase::ColdStart {
            while let Some(picks) = self
                .cold_start
                .next_candidates(&self.matrix, &self.labeled, m)
            {
                if !picks.is_empty() {
                    return Ok(picks);
                }
            }
            return Ok(self.random_unlabeled(m));
        }

        let unlabeled: Vec<usize> = (0..self.matrix.len())
            .filter(|i| !self.labeled.contains(i))
            .collect();
        let scores: Vec<f64> = match self.config.strategy {
            QueryStrategyKind::Uncertainty => {
                let all = self.uncertainty.uncertainties(&self.matrix)?;
                unlabeled.iter().map(|&i| all[i]).collect()
            }
            QueryStrategyKind::Random => return Ok(self.random_unlabeled(m)),
            QueryStrategyKind::QueryByCommittee { committee_size } => {
                let labeled_x: Vec<Vec<f64>> = self
                    .labels
                    .iter()
                    .map(|l| self.matrix.row(l.view.index()).to_vec())
                    .collect();
                let labeled_y: Vec<f64> = self.labels.iter().map(|l| l.score).collect();
                let candidates: Vec<Vec<f64>> = unlabeled
                    .iter()
                    .map(|&i| self.matrix.row(i).to_vec())
                    .collect();
                let mut qbc = viewseeker_learn::QueryByCommittee::new(
                    viewseeker_learn::LogisticConfig {
                        lambda: self.config.logistic_lambda,
                        ..viewseeker_learn::LogisticConfig::default()
                    },
                    committee_size,
                    self.config.seed.wrapping_add(self.labels.len() as u64),
                );
                qbc.scores(&labeled_x, &labeled_y, &candidates)?
            }
        };
        let mut order: Vec<usize> = (0..unlabeled.len()).collect();
        order.sort_by(|&a, &b| {
            scores[b]
                .partial_cmp(&scores[a])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(unlabeled[a].cmp(&unlabeled[b]))
        });
        Ok(order
            .into_iter()
            .take(m)
            .map(|pos| ViewId::from_index(unlabeled[pos]))
            .collect())
    }

    /// Records feedback and refits the estimators.
    ///
    /// # Errors
    ///
    /// Same contract as [`crate::ViewSeeker::submit_feedback`].
    pub fn submit_feedback(&mut self, item: ViewId, score: f64) -> Result<(), CoreError> {
        if !score.is_finite() || !(0.0..=1.0).contains(&score) {
            return Err(CoreError::InvalidLabel(score));
        }
        if item.index() >= self.matrix.len() {
            return Err(CoreError::UnknownView(item.index()));
        }
        if !self.labeled.insert(item.index()) {
            return Err(CoreError::AlreadyLabeled(item.index()));
        }
        self.labels.push(Label { view: item, score });
        if score >= self.config.positive_threshold {
            self.has_positive = true;
        } else {
            self.has_negative = true;
        }
        self.utility.refit(&self.matrix, &self.labels)?;
        if self.has_positive && self.has_negative {
            self.uncertainty.refit(&self.matrix, &self.labels)?;
        }
        Ok(())
    }

    /// The current top-`k` items by predicted utility.
    ///
    /// # Errors
    ///
    /// [`CoreError::Learn`] until at least one label exists.
    pub fn recommend(&self, k: usize) -> Result<Vec<ViewId>, CoreError> {
        self.utility.top_k(&self.matrix, k)
    }

    /// The estimator's predicted score for every item.
    ///
    /// # Errors
    ///
    /// [`CoreError::Learn`] until at least one label exists.
    pub fn predicted_scores(&self) -> Result<Vec<f64>, CoreError> {
        self.utility.predict_all(&self.matrix)
    }

    /// [`FeedbackSession::predicted_scores`] scored on `threads` worker
    /// threads (see
    /// [`crate::estimator::ViewUtilityEstimator::predict_all_parallel`]).
    ///
    /// # Errors
    ///
    /// [`CoreError::Learn`] until at least one label exists.
    pub fn predicted_scores_parallel(&self, threads: usize) -> Result<Vec<f64>, CoreError> {
        self.utility.predict_all_parallel(&self.matrix, threads)
    }

    /// A diversified top-`k` via maximal marginal relevance
    /// (see [`crate::diversity`]): `lambda = 1` is the plain ranking, lower
    /// values trade predicted utility for feature-space coverage.
    ///
    /// # Errors
    ///
    /// [`CoreError::Learn`] until at least one label exists;
    /// [`CoreError::Invalid`] for `lambda` outside `[0, 1]`.
    pub fn recommend_diverse(&self, k: usize, lambda: f64) -> Result<Vec<ViewId>, CoreError> {
        let scores = self.predicted_scores()?;
        crate::diversity::diverse_top_k(&self.matrix, &scores, k, lambda)
    }

    /// Replaces the feature matrix (same item count) and refits both
    /// estimators on the collected labels — the hook incremental refinement
    /// uses after improving rough features.
    ///
    /// # Errors
    ///
    /// [`CoreError::Invalid`] on an item-count mismatch; refit errors
    /// otherwise.
    pub fn update_matrix(&mut self, matrix: FeatureMatrix) -> Result<(), CoreError> {
        if matrix.len() != self.matrix.len() {
            return Err(CoreError::Invalid(format!(
                "replacement matrix has {} items, session has {}",
                matrix.len(),
                self.matrix.len()
            )));
        }
        self.matrix = matrix;
        if !self.labels.is_empty() {
            self.utility.refit(&self.matrix, &self.labels)?;
            if self.has_positive && self.has_negative {
                self.uncertainty.refit(&self.matrix, &self.labels)?;
            }
        }
        Ok(())
    }

    /// The learned feature weights, once fitted.
    #[must_use]
    pub fn learned_weights(&self) -> Option<&[f64]> {
        self.utility.weights()
    }

    fn random_unlabeled(&mut self, m: usize) -> Vec<ViewId> {
        let mut pool: Vec<usize> = (0..self.matrix.len())
            .filter(|i| !self.labeled.contains(i))
            .collect();
        pool.shuffle(&mut self.rng);
        pool.truncate(m);
        pool.into_iter().map(ViewId::from_index).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::composite::CompositeUtility;
    use crate::features::{UtilityFeature, FEATURE_COUNT};
    use crate::metrics::tie_aware_precision_at_k;

    /// A synthetic 40-item matrix with signal in two feature columns.
    fn matrix() -> FeatureMatrix {
        let raws: Vec<[f64; FEATURE_COUNT]> = (0..40)
            .map(|i| {
                let mut r = [0.0; FEATURE_COUNT];
                r[0] = (i % 7) as f64 / 6.0;
                r[1] = (i % 5) as f64 / 4.0;
                r[4] = ((i * 13) % 11) as f64 / 10.0;
                r
            })
            .collect();
        FeatureMatrix::new(raws)
    }

    #[test]
    fn generic_session_learns_a_composite() {
        let m = matrix();
        let ideal = CompositeUtility::new(&[(UtilityFeature::Kl, 0.6), (UtilityFeature::Emd, 0.4)])
            .unwrap();
        let truth = ideal.normalized_scores(&m).unwrap();
        let mut s = FeedbackSession::new(m, ViewSeekerConfig::default()).unwrap();
        for _ in 0..25 {
            let Some(item) = s.next_items(1).unwrap().pop() else {
                break;
            };
            s.submit_feedback(item, truth[item.index()]).unwrap();
            let top = s.recommend(5).unwrap();
            if tie_aware_precision_at_k(&truth, &top, 5) >= 1.0 {
                break;
            }
        }
        let top = s.recommend(5).unwrap();
        assert_eq!(
            tie_aware_precision_at_k(&truth, &top, 5),
            1.0,
            "session with {} labels",
            s.label_count()
        );
    }

    #[test]
    fn rejects_empty_matrix_and_bad_labels() {
        assert!(
            FeedbackSession::new(FeatureMatrix::new(vec![]), ViewSeekerConfig::default()).is_err()
        );
        let mut s = FeedbackSession::new(matrix(), ViewSeekerConfig::default()).unwrap();
        let item = s.next_items(1).unwrap()[0];
        assert!(s.submit_feedback(item, 2.0).is_err());
        s.submit_feedback(item, 0.5).unwrap();
        assert!(matches!(
            s.submit_feedback(item, 0.5),
            Err(CoreError::AlreadyLabeled(_))
        ));
        assert!(s.submit_feedback(ViewId::from_index(999), 0.5).is_err());
    }

    #[test]
    fn exhausts_the_item_space() {
        let raws: Vec<[f64; FEATURE_COUNT]> = (0..4)
            .map(|i| {
                let mut r = [0.0; FEATURE_COUNT];
                r[0] = i as f64;
                r
            })
            .collect();
        let mut s =
            FeedbackSession::new(FeatureMatrix::new(raws), ViewSeekerConfig::default()).unwrap();
        for i in 0..4 {
            let item = s.next_items(1).unwrap()[0];
            s.submit_feedback(item, if i % 2 == 0 { 0.9 } else { 0.1 })
                .unwrap();
        }
        assert!(s.next_items(1).unwrap().is_empty());
        assert_eq!(s.label_count(), 4);
    }

    #[test]
    fn phase_transition_mirrors_viewseeker() {
        let mut s = FeedbackSession::new(matrix(), ViewSeekerConfig::default()).unwrap();
        assert_eq!(s.phase(), SeekerPhase::ColdStart);
        let a = s.next_items(1).unwrap()[0];
        s.submit_feedback(a, 0.9).unwrap();
        let b = s.next_items(1).unwrap()[0];
        s.submit_feedback(b, 0.1).unwrap();
        assert_eq!(s.phase(), SeekerPhase::Active);
        assert!(s.learned_weights().is_some());
    }
}
