//! Session snapshots: save an interactive session's collected feedback and
//! restore it later.
//!
//! The learned models are deliberately *not* serialized — they are a pure
//! function of the labels and the feature matrix, so a restore replays the
//! labels through a fresh session and arrives at bit-identical estimators.
//! That keeps snapshots tiny, forward-compatible across model-internals
//! changes, and impossible to de-synchronize from their training data.

use std::borrow::Borrow;

use serde::{Deserialize, Serialize};
use viewseeker_dataset::Table;

use crate::config::ViewSeekerConfig;
use crate::features::FeatureMatrix;
use crate::seeker::Seeker;
use crate::session::FeedbackSession;
use crate::view::ViewId;
use crate::CoreError;

#[cfg(doc)]
use crate::ViewSeeker;

/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u32 = 1;

/// A serializable record of one session's feedback.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionSnapshot {
    /// Format version (see [`SNAPSHOT_VERSION`]).
    pub version: u32,
    /// Size of the view space the labels refer to (restore validates it).
    pub view_count: usize,
    /// `(view index, feedback score)` in submission order.
    pub labels: Vec<(usize, f64)>,
    /// The learned β weights at snapshot time (informational; recomputed on
    /// restore).
    pub learned_weights: Option<Vec<f64>>,
}

impl SessionSnapshot {
    /// Captures a [`ViewSeeker`] / [`crate::OwnedSeeker`] session (any
    /// table-holder shape).
    #[must_use]
    pub fn from_seeker<H: Borrow<Table>>(seeker: &Seeker<H>) -> Self {
        Self {
            version: SNAPSHOT_VERSION,
            view_count: seeker.view_space().len(),
            labels: seeker
                .labels()
                .iter()
                .map(|l| (l.view.index(), l.score))
                .collect(),
            learned_weights: seeker.learned_weights().map(<[f64]>::to_vec),
        }
    }

    /// Captures a generic [`FeedbackSession`].
    #[must_use]
    pub fn from_session(session: &FeedbackSession) -> Self {
        Self {
            version: SNAPSHOT_VERSION,
            view_count: session.feature_matrix().len(),
            labels: session
                .labels()
                .iter()
                .map(|l| (l.view.index(), l.score))
                .collect(),
            learned_weights: session.learned_weights().map(<[f64]>::to_vec),
        }
    }

    /// Serializes to pretty JSON.
    ///
    /// # Errors
    ///
    /// Never fails for this type; kept fallible for API stability.
    pub fn to_json(&self) -> Result<String, CoreError> {
        serde_json::to_string_pretty(self)
            .map_err(|e| CoreError::Invalid(format!("snapshot serialization: {e}")))
    }

    /// Parses a snapshot from JSON.
    ///
    /// # Errors
    ///
    /// [`CoreError::Invalid`] for malformed JSON or an unsupported version.
    pub fn from_json(json: &str) -> Result<Self, CoreError> {
        let snapshot: Self = serde_json::from_str(json)
            .map_err(|e| CoreError::Invalid(format!("snapshot parse: {e}")))?;
        if snapshot.version != SNAPSHOT_VERSION {
            return Err(CoreError::Invalid(format!(
                "unsupported snapshot version {} (expected {SNAPSHOT_VERSION})",
                snapshot.version
            )));
        }
        Ok(snapshot)
    }

    /// Rejects snapshots from a different format version. Restores made
    /// from deserialized values (not [`SessionSnapshot::from_json`]) must
    /// still enforce this, so both replay paths call it.
    fn check_version(&self) -> Result<(), CoreError> {
        if self.version != SNAPSHOT_VERSION {
            return Err(CoreError::Invalid(format!(
                "unsupported snapshot version {} (expected {SNAPSHOT_VERSION})",
                self.version
            )));
        }
        Ok(())
    }

    /// Restores into a fresh [`FeedbackSession`] over `matrix` by replaying
    /// every label.
    ///
    /// # Errors
    ///
    /// [`CoreError::Invalid`] for an unsupported version or if the matrix
    /// size disagrees with the snapshot; label-replay errors otherwise.
    pub fn restore_session(
        &self,
        matrix: FeatureMatrix,
        config: ViewSeekerConfig,
    ) -> Result<FeedbackSession, CoreError> {
        self.check_version()?;
        if matrix.len() != self.view_count {
            return Err(CoreError::Invalid(format!(
                "snapshot was over {} views, matrix has {}",
                self.view_count,
                matrix.len()
            )));
        }
        let mut session = FeedbackSession::new(matrix, config)?;
        for (index, score) in &self.labels {
            session.submit_feedback(ViewId::from_index(*index), *score)?;
        }
        Ok(session)
    }

    /// Replays every label onto `seeker`, which the caller has just built
    /// over the snapshot's table, query and configuration — so whoever
    /// builds sessions (a registry that holds the table's zone maps and a
    /// tracer) builds restored ones the same way.
    ///
    /// # Errors
    ///
    /// [`CoreError::Invalid`] for an unsupported version or if the seeker's
    /// view space disagrees with the snapshot; label-replay errors
    /// otherwise.
    pub fn replay_onto<H: Borrow<Table>>(&self, seeker: &mut Seeker<H>) -> Result<(), CoreError> {
        self.check_version()?;
        if seeker.view_space().len() != self.view_count {
            return Err(CoreError::Invalid(format!(
                "snapshot was over {} views, view space has {}",
                self.view_count,
                seeker.view_space().len()
            )));
        }
        for (index, score) in &self.labels {
            seeker.submit_feedback(ViewId::from_index(*index), *score)?;
        }
        Ok(())
    }

    /// Restores into a fresh [`Seeker`] over the same table and query by
    /// replaying every label. The holder shape follows the `table` argument:
    /// pass `&table` for a borrowing [`ViewSeeker`], an `Arc<Table>` for an
    /// owned [`crate::OwnedSeeker`].
    ///
    /// # Errors
    ///
    /// Same contract as [`SessionSnapshot::replay_onto`], plus the session
    /// construction errors of [`Seeker::new`].
    pub fn restore_seeker<H: Borrow<Table>>(
        &self,
        table: H,
        query: &viewseeker_dataset::SelectQuery,
        config: ViewSeekerConfig,
    ) -> Result<Seeker<H>, CoreError> {
        let mut seeker = Seeker::new(table, query, config)?;
        self.replay_onto(&mut seeker)?;
        Ok(seeker)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::composite::CompositeUtility;
    use crate::features::UtilityFeature;
    use crate::ViewSeeker;
    use viewseeker_dataset::generate::{generate_diab, DiabConfig};
    use viewseeker_dataset::{Predicate, SelectQuery};

    fn testbed() -> (viewseeker_dataset::Table, SelectQuery) {
        (
            generate_diab(&DiabConfig::small(1_500, 31)).unwrap(),
            SelectQuery::new(Predicate::eq("a0", "a0_v0")),
        )
    }

    #[test]
    fn seeker_round_trip_reproduces_state() {
        let (table, query) = testbed();
        let mut original = ViewSeeker::new(&table, &query, ViewSeekerConfig::default()).unwrap();
        let ideal = CompositeUtility::single(UtilityFeature::Emd);
        let scores = ideal.normalized_scores(original.feature_matrix()).unwrap();
        for _ in 0..8 {
            let v = original.next_views(1).unwrap()[0];
            original.submit_feedback(v, scores[v.index()]).unwrap();
        }

        let json = SessionSnapshot::from_seeker(&original).to_json().unwrap();
        let snapshot = SessionSnapshot::from_json(&json).unwrap();
        let restored = snapshot
            .restore_seeker(&table, &query, ViewSeekerConfig::default())
            .unwrap();

        assert_eq!(restored.label_count(), original.label_count());
        assert_eq!(
            restored.recommend(10).unwrap(),
            original.recommend(10).unwrap()
        );
        assert_eq!(restored.learned_weights(), original.learned_weights());
        assert_eq!(restored.phase(), original.phase());
    }

    #[test]
    fn session_round_trip_over_a_matrix() {
        let (table, query) = testbed();
        let seeker = ViewSeeker::new(&table, &query, ViewSeekerConfig::default()).unwrap();
        let matrix = seeker.feature_matrix().clone();
        let mut s = FeedbackSession::new(matrix.clone(), ViewSeekerConfig::default()).unwrap();
        let a = s.next_items(1).unwrap()[0];
        s.submit_feedback(a, 0.8).unwrap();
        let b = s.next_items(1).unwrap()[0];
        s.submit_feedback(b, 0.2).unwrap();

        let snapshot = SessionSnapshot::from_session(&s);
        let restored = snapshot
            .restore_session(matrix, ViewSeekerConfig::default())
            .unwrap();
        assert_eq!(restored.label_count(), 2);
        assert_eq!(restored.recommend(5).unwrap(), s.recommend(5).unwrap());
    }

    #[test]
    fn version_and_size_validation() {
        let snapshot = SessionSnapshot {
            version: 99,
            view_count: 10,
            labels: vec![],
            learned_weights: None,
        };
        let json = serde_json::to_string(&snapshot).unwrap();
        assert!(matches!(
            SessionSnapshot::from_json(&json),
            Err(CoreError::Invalid(_))
        ));

        let (table, query) = testbed();
        let valid = SessionSnapshot {
            version: SNAPSHOT_VERSION,
            view_count: 9999, // wrong size
            labels: vec![],
            learned_weights: None,
        };
        assert!(valid
            .restore_seeker(&table, &query, ViewSeekerConfig::default())
            .is_err());
        assert!(SessionSnapshot::from_json("not json").is_err());
    }

    #[test]
    fn empty_snapshot_restores_to_fresh_session() {
        let (table, query) = testbed();
        let seeker = ViewSeeker::new(&table, &query, ViewSeekerConfig::default()).unwrap();
        let snapshot = SessionSnapshot::from_seeker(&seeker);
        assert!(snapshot.labels.is_empty());
        let restored = snapshot
            .restore_seeker(&table, &query, ViewSeekerConfig::default())
            .unwrap();
        assert_eq!(restored.label_count(), 0);
    }
}
