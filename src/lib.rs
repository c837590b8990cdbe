//! # ViewSeeker
//!
//! An interactive view-recommendation library — a from-scratch Rust
//! reproduction of *"ViewSeeker: An Interactive View Recommendation Tool"*
//! (Zhang, Ge, Chrysanthis, Sharaf — BigVis @ EDBT/ICDT 2019).
//!
//! Classic view recommenders (SeeDB, MuVE, DeepEye, …) rank every possible
//! aggregate view of a dataset by a *fixed* utility function. ViewSeeker
//! instead **learns the user's utility function** — an unknown linear
//! combination of deviation, usability, accuracy, and significance
//! components — from simple 0–1 feedback on a handful of actively selected
//! example views, typically reaching the user's exact top-k in 7–16 labels.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`dataset`] — in-memory columnar engine: tables, predicates, group-by
//!   aggregation, binning, sampling, CSV, synthetic-dataset generators;
//! * [`catalog`] — persistent dataset store: the VSC2 on-disk columnar
//!   format, CSV ingestion, and a shared in-memory table cache so many
//!   sessions resolve one `Arc<Table>`;
//! * [`stats`] — distributions, histogram distances (KL/EMD/L1/L2/L∞), χ²;
//! * [`learn`] — hand-rolled ridge regression, logistic regression, and
//!   active-learning query strategies;
//! * [`core`] — the ViewSeeker session itself plus baselines and metrics;
//! * [`eval`] — the simulated-user harness reproducing the paper's
//!   experiments.
//!
//! ## Quickstart
//!
//! ```
//! use viewseeker::prelude::*;
//!
//! // A dataset with categorical dimensions and numeric measures.
//! let table = generate_diab(&DiabConfig::small(2_000, 7)).unwrap();
//! // The user explores a subset (here: one patient cohort).
//! let query = SelectQuery::new(Predicate::eq("a0", "a0_v0"));
//! let mut seeker = ViewSeeker::new(&table, &query, ViewSeekerConfig::default()).unwrap();
//!
//! // Interactive loop: rate the views ViewSeeker presents (0 = boring,
//! // 1 = fascinating). Here a simulated user wants high-EMD views.
//! let hidden_interest = CompositeUtility::single(UtilityFeature::Emd);
//! let scores = hidden_interest.normalized_scores(seeker.feature_matrix()).unwrap();
//! for _ in 0..12 {
//!     let Some(view) = seeker.next_views(1).unwrap().pop() else { break };
//!     seeker.submit_feedback(view, scores[view.index()]).unwrap();
//! }
//!
//! // The learned estimator now ranks all 280 views by *your* taste.
//! for view in seeker.recommend(3).unwrap() {
//!     println!("{}", seeker.view_space().def(view).unwrap());
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use viewseeker_catalog as catalog;
pub use viewseeker_core as core;
pub use viewseeker_dataset as dataset;
pub use viewseeker_eval as eval;
pub use viewseeker_learn as learn;
pub use viewseeker_stats as stats;

/// The most commonly used types, re-exported flat.
pub mod prelude {
    pub use viewseeker_core::scatter::{ScatterSpace, ScatterViewDef};
    pub use viewseeker_core::{
        precision_at_k, tie_aware_precision_at_k, utility_distance, CompositeUtility, CoreError,
        FeatureMatrix, FeedbackSession, QueryStrategyKind, RefineBudget, SeekerPhase,
        SessionSnapshot, UtilityFeature, ViewDef, ViewId, ViewSeeker, ViewSeekerConfig, ViewSpace,
    };
    pub use viewseeker_dataset::generate::{
        generate_diab, generate_syn, hypercube_query, DiabConfig, HypercubeConfig, SynConfig,
    };
    pub use viewseeker_dataset::{
        AggregateFunction, BinSpec, Column, Predicate, RowSet, Schema, SelectQuery, Table,
    };
    pub use viewseeker_eval::{
        diab_testbed, ideal_functions, run_session, syn_testbed, RunnerConfig, SessionOutcome,
        SimulatedUser, StopCriterion, Testbed, TestbedScale,
    };
    pub use viewseeker_stats::Distribution;
}
