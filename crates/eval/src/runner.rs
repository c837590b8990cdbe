//! Session runner: drives one ViewSeeker session against a simulated user.
//!
//! The runner owns the measurement protocol shared by all experiments:
//!
//! 1. compute the *exact* feature matrix (full data) to define ground truth;
//! 2. create the (possibly optimization-enabled) [`ViewSeeker`] session;
//! 3. loop: ask the seeker for `M` views, label them with the simulated
//!    user, read the current top-k, record precision and utility distance;
//! 4. stop when the configured criterion is met or the label budget runs
//!    out.

use std::time::{Duration, Instant};

use serde::Serialize;
use viewseeker_core::viewgen::materialize_all_fused;
use viewseeker_core::ViewSpace;
use viewseeker_core::{
    tie_aware_precision_at_k, utility_distance, CompositeUtility, CoreError, FeatureMatrix,
    ViewSeeker, ViewSeekerConfig,
};
use viewseeker_dataset::{SelectQuery, Table};

use crate::simuser::SimulatedUser;

/// When a session run counts as finished.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StopCriterion {
    /// Stop once precision@k reaches this value (Experiment 1 uses 1.0).
    Precision(f64),
    /// Stop once the utility distance (Eq. 8) falls to this value or below
    /// (the optimization evaluation uses 0.0).
    UtilityDistance(f64),
}

/// Runner parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunnerConfig {
    /// The k of top-k.
    pub k: usize,
    /// Maximum labels before giving up.
    pub max_labels: usize,
    /// Stop criterion.
    pub stop: StopCriterion,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        Self {
            k: 10,
            max_labels: 100,
            stop: StopCriterion::Precision(1.0),
        }
    }
}

/// The record of one simulated session.
#[derive(Debug, Clone, Serialize)]
pub struct SessionOutcome {
    /// Labels spent before the stop criterion was met (= `max_labels` when
    /// it never was).
    pub labels_used: usize,
    /// Whether the stop criterion was met.
    pub converged: bool,
    /// precision@k after each label.
    pub precision_trace: Vec<f64>,
    /// Utility distance after each label.
    pub ud_trace: Vec<f64>,
    /// Total wall-clock of the session (offline initialization + every
    /// iteration, including think-time refinement work).
    pub wall_time: Duration,
    /// Wall-clock time of the offline initialization alone.
    pub init_time: Duration,
    /// User-perceived system time: `wall_time` minus the incremental
    /// refinement the optimization hides inside user think-time (paper
    /// §3.3: "makes the delays transparent to the user"). This is the
    /// quantity Figure 7 compares.
    pub system_time: Duration,
}

impl SessionOutcome {
    /// Final precision@k (0 if no labels were submitted).
    #[must_use]
    pub fn final_precision(&self) -> f64 {
        self.precision_trace.last().copied().unwrap_or(0.0)
    }

    /// Final utility distance (∞ if no labels were submitted).
    #[must_use]
    pub fn final_ud(&self) -> f64 {
        self.ud_trace.last().copied().unwrap_or(f64::INFINITY)
    }
}

/// Computes the exact (full-data, α = 1) feature matrix for ground truth.
///
/// # Errors
///
/// Propagates materialization errors.
pub fn exact_feature_matrix(
    table: &Table,
    query: &SelectQuery,
    config: &ViewSeekerConfig,
) -> Result<FeatureMatrix, CoreError> {
    let dq = query.execute(table)?;
    let dr = table.all_rows();
    let space =
        ViewSpace::enumerate_excluding(table, &config.bin_configs, &config.excluded_dimensions)?;
    let views = materialize_all_fused(table, &dq, &dr, &space, config.effective_threads())?;
    FeatureMatrix::from_views(&views, config.usability_optimal_bins)
}

/// Runs one full simulated session.
///
/// # Errors
///
/// Propagates seeker and labeling errors.
pub fn run_session(
    table: &Table,
    query: &SelectQuery,
    seeker_config: ViewSeekerConfig,
    ideal: &CompositeUtility,
    runner: &RunnerConfig,
) -> Result<SessionOutcome, CoreError> {
    let truth = exact_feature_matrix(table, query, &seeker_config)?;
    run_session_with_truth(table, query, seeker_config, ideal, runner, &truth)
}

/// Like [`run_session`] but reuses a precomputed exact feature matrix —
/// experiments that sweep k or strategies over one testbed avoid
/// recomputing the ground truth every run.
///
/// # Errors
///
/// Propagates seeker and labeling errors.
pub fn run_session_with_truth(
    table: &Table,
    query: &SelectQuery,
    seeker_config: ViewSeekerConfig,
    ideal: &CompositeUtility,
    runner: &RunnerConfig,
    truth: &FeatureMatrix,
) -> Result<SessionOutcome, CoreError> {
    let user = SimulatedUser::new(ideal, truth)?;
    run_session_with_user(table, query, seeker_config, &user, runner)
}

/// Like [`run_session_with_truth`] but with an explicit (possibly noisy)
/// simulated user. Precision and UD are always measured against the user's
/// exact ground truth, regardless of label noise.
///
/// # Errors
///
/// Propagates seeker and labeling errors.
pub fn run_session_with_user(
    table: &Table,
    query: &SelectQuery,
    seeker_config: ViewSeekerConfig,
    user: &SimulatedUser,
    runner: &RunnerConfig,
) -> Result<SessionOutcome, CoreError> {
    let views_per_iteration = seeker_config.views_per_iteration;
    let ideal_top = user.ideal_top_k(runner.k);

    let started = Instant::now();
    let mut seeker = ViewSeeker::new(table, query, seeker_config)?;
    let init_time = started.elapsed();

    let mut precision_trace = Vec::new();
    let mut ud_trace = Vec::new();
    let mut converged = false;

    'outer: while seeker.label_count() < runner.max_labels {
        let batch = seeker.next_views(views_per_iteration)?;
        if batch.is_empty() {
            break;
        }
        for view in batch {
            seeker.submit_feedback(view, user.label(view)?)?;
            let recommended = seeker.recommend(runner.k)?;
            // Tie-aware precision: exact boundary ties are common in the
            // synthetic view space (e.g. COUNT views duplicate across
            // measures), so set-intersection precision is ill-posed — see
            // metrics::tie_aware_precision_at_k and EXPERIMENTS.md.
            let p = tie_aware_precision_at_k(user.true_scores(), &recommended, runner.k);
            let ud = utility_distance(user.true_scores(), &recommended, &ideal_top);
            precision_trace.push(p);
            ud_trace.push(ud);
            let met = match runner.stop {
                StopCriterion::Precision(target) => p >= target,
                StopCriterion::UtilityDistance(target) => ud <= target,
            };
            if met {
                converged = true;
                break 'outer;
            }
            if seeker.label_count() >= runner.max_labels {
                break 'outer;
            }
        }
    }

    let wall_time = started.elapsed();
    Ok(SessionOutcome {
        labels_used: seeker.label_count(),
        converged,
        precision_trace,
        ud_trace,
        system_time: wall_time.saturating_sub(seeker.refinement_time()),
        wall_time,
        init_time,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::idealfn::ideal_functions;
    use crate::testbed::{diab_testbed, TestbedScale};
    use viewseeker_core::UtilityFeature;

    fn testbed() -> crate::testbed::Testbed {
        diab_testbed(TestbedScale::Small(3_000), 21).unwrap()
    }

    #[test]
    fn converges_on_a_single_component_ideal() {
        let tb = testbed();
        let ideal = CompositeUtility::single(UtilityFeature::Emd);
        let outcome = run_session(
            &tb.table,
            &tb.query,
            ViewSeekerConfig::default(),
            &ideal,
            &RunnerConfig {
                k: 5,
                max_labels: 80,
                stop: StopCriterion::Precision(1.0),
            },
        )
        .unwrap();
        assert!(outcome.converged, "labels used: {}", outcome.labels_used);
        assert_eq!(outcome.final_precision(), 1.0);
        assert!(outcome.labels_used <= 80);
        assert_eq!(outcome.precision_trace.len(), outcome.labels_used);
        assert_eq!(outcome.ud_trace.len(), outcome.labels_used);
    }

    #[test]
    fn ud_stop_criterion_works() {
        let tb = testbed();
        let ideal = &ideal_functions()[3].utility; // 0.5 EMD + 0.5 KL
        let outcome = run_session(
            &tb.table,
            &tb.query,
            ViewSeekerConfig::default(),
            ideal,
            &RunnerConfig {
                k: 10,
                max_labels: 100,
                stop: StopCriterion::UtilityDistance(0.0),
            },
        )
        .unwrap();
        assert!(outcome.converged);
        assert!(outcome.final_ud() <= 1e-12);
    }

    #[test]
    fn label_budget_is_respected() {
        let tb = testbed();
        let ideal = CompositeUtility::single(UtilityFeature::Accuracy);
        let outcome = run_session(
            &tb.table,
            &tb.query,
            ViewSeekerConfig::default(),
            &ideal,
            &RunnerConfig {
                k: 30,
                max_labels: 3,
                stop: StopCriterion::Precision(1.0),
            },
        )
        .unwrap();
        assert!(outcome.labels_used <= 3);
    }

    #[test]
    fn precision_trace_is_bounded() {
        let tb = testbed();
        let ideal = CompositeUtility::single(UtilityFeature::Kl);
        let outcome = run_session(
            &tb.table,
            &tb.query,
            ViewSeekerConfig::default(),
            &ideal,
            &RunnerConfig::default(),
        )
        .unwrap();
        assert!(outcome
            .precision_trace
            .iter()
            .all(|p| (0.0..=1.0).contains(p)));
        assert!(outcome.init_time <= outcome.wall_time);
    }
}
