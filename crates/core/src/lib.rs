//! ViewSeeker: interactive view recommendation via active learning.
//!
//! This crate implements the core contribution of *"ViewSeeker: An
//! Interactive View Recommendation Tool"* (Zhang, Ge, Chrysanthis, Sharaf —
//! BigVis @ EDBT/ICDT 2019): instead of ranking views with a *fixed* utility
//! function (as SeeDB, MuVE, and similar recommenders do), ViewSeeker
//! *learns* the user's ideal utility function `u*()` — an unknown linear
//! combination of utility components (Eq. 4) — from simple 0–1 feedback on a
//! handful of actively-selected example views.
//!
//! # Architecture (paper §3)
//!
//! 1. **Offline initialization** ([`view`], [`viewgen`], [`features`]):
//!    enumerate the view space `(a, m, f)`, materialize each view's target
//!    (`DQ`) and reference (`DR`) distributions, and compute its 8 utility
//!    features (KL, EMD, L1, L2, MAX_DIFF, Usability, Accuracy, P-value).
//! 2. **Interactive recommendation** ([`seeker`], [`coldstart`],
//!    [`estimator`]): a cold-start stage probes the top view of each utility
//!    feature until a positive and a negative label exist; then
//!    least-confidence uncertainty sampling picks the most informative view
//!    each iteration, and a linear-regression *view utility estimator* plus
//!    a logistic-regression *uncertainty estimator* are refit on all labels.
//! 3. **Optimizations** ([`optimize`], paper §3.3): features are first
//!    computed on an α% sample ("rough" scores) and incrementally refined on
//!    the full data between labeling prompts, highest-ranked views first,
//!    within a per-iteration time budget.
//!
//! [`baseline`] provides the SeeDB-style fixed single-feature rankers used
//! as Experiment 2's comparison points, [`composite`] represents arbitrary
//! (including the ideal) linear utility functions, and [`metrics`] has the
//! paper's two quality measures: precision@k and utility distance (Eq. 8).
//!
//! # Quickstart
//!
//! ```
//! use viewseeker_core::{ViewSeeker, ViewSeekerConfig, composite::CompositeUtility};
//! use viewseeker_core::features::UtilityFeature;
//! use viewseeker_dataset::generate::{generate_diab, DiabConfig};
//! use viewseeker_dataset::{Predicate, SelectQuery};
//!
//! let table = generate_diab(&DiabConfig::small(2_000, 7)).unwrap();
//! let query = SelectQuery::new(Predicate::eq("a0", "a0_v0"));
//! let mut seeker = ViewSeeker::new(&table, &query, ViewSeekerConfig::default()).unwrap();
//!
//! // Pretend the user's ideal utility is pure EMD and label 12 views.
//! let ideal = CompositeUtility::single(UtilityFeature::Emd);
//! let ideal_scores = ideal.normalized_scores(seeker.feature_matrix()).unwrap();
//! for _ in 0..12 {
//!     let Some(view) = seeker.next_views(1).unwrap().pop() else { break };
//!     seeker.submit_feedback(view, ideal_scores[view.index()]).unwrap();
//! }
//! let top5 = seeker.recommend(5).unwrap();
//! assert_eq!(top5.len(), 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod coldstart;
pub mod composite;
pub mod config;
pub mod diversity;
pub mod estimator;
pub mod features;
pub mod metrics;
pub mod optimize;
pub mod persist;
pub mod scatter;
pub mod seeker;
pub mod session;
pub mod trace;
pub mod view;
pub mod viewgen;

pub use composite::CompositeUtility;
pub use config::{QueryStrategyKind, RefineBudget, ViewSeekerConfig};
pub use diversity::{diverse_top_k, mean_pairwise_distance};
pub use features::{FeatureMatrix, UtilityFeature};
pub use metrics::{precision_at_k, tie_aware_precision_at_k, utility_distance};
pub use persist::SessionSnapshot;
pub use seeker::{MaterializationReport, OwnedSeeker, Seeker, SeekerPhase, ViewSeeker};
pub use session::FeedbackSession;
pub use trace::{
    noop_tracer, IterationTrace, NoopTracer, PhaseTotal, Recorder, RefinementBudgetReport,
    TracePhase, Tracer,
};
pub use view::{ViewDef, ViewId, ViewSpace};

use viewseeker_dataset::DatasetError;
use viewseeker_learn::LearnError;
use viewseeker_stats::StatsError;

/// Errors produced by the ViewSeeker core.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// An error from the dataset engine.
    Dataset(DatasetError),
    /// An error from the statistics substrate.
    Stats(StatsError),
    /// An error from the learning substrate.
    Learn(LearnError),
    /// A view id referenced a view outside the view space.
    UnknownView(usize),
    /// The same view was labeled twice.
    AlreadyLabeled(usize),
    /// A feedback label was outside `[0, 1]` or not finite.
    InvalidLabel(f64),
    /// Invalid configuration or arguments.
    Invalid(String),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Dataset(e) => write!(f, "dataset error: {e}"),
            CoreError::Stats(e) => write!(f, "stats error: {e}"),
            CoreError::Learn(e) => write!(f, "learning error: {e}"),
            CoreError::UnknownView(id) => write!(f, "unknown view id {id}"),
            CoreError::AlreadyLabeled(id) => write!(f, "view {id} is already labeled"),
            CoreError::InvalidLabel(l) => write!(f, "label {l} outside [0, 1]"),
            CoreError::Invalid(msg) => write!(f, "invalid argument: {msg}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Dataset(e) => Some(e),
            CoreError::Stats(e) => Some(e),
            CoreError::Learn(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DatasetError> for CoreError {
    fn from(e: DatasetError) -> Self {
        CoreError::Dataset(e)
    }
}

impl From<StatsError> for CoreError {
    fn from(e: StatsError) -> Self {
        CoreError::Stats(e)
    }
}

impl From<LearnError> for CoreError {
    fn from(e: LearnError) -> Self {
        CoreError::Learn(e)
    }
}
