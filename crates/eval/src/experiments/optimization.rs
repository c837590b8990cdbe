//! Optimization evaluation (Figures 6 and 7).
//!
//! "We evaluated the effectiveness of our optimization techniques by
//! comparing the recommendation precision and runtime between the
//! optimizations-enabled ViewSeeker and the optimizations-disabled
//! ViewSeeker (i.e., baseline model). ... Figures 6 and 7 show the number of
//! feedback and runtime, respectively, needed for both models to reach
//! UD = 0 for the DIAB dataset. On average, the model with optimization
//! achieved 43% reduction in running time while requiring only 19% more user
//! labeling effort."

use std::time::Duration;

use viewseeker_core::{CoreError, ViewSeekerConfig};

use crate::idealfn::{functions_in_group, IdealGroup};
use crate::runner::{exact_feature_matrix, run_session_with_truth, RunnerConfig, StopCriterion};
use crate::testbed::Testbed;

/// One group's Figures 6+7 cell: labels and runtime to UD = 0 for both
/// models.
#[derive(Debug, Clone)]
pub struct OptimizationPoint {
    /// Ideal-function group.
    pub group: IdealGroup,
    /// The k of top-k.
    pub k: usize,
    /// Mean labels to UD = 0 without optimizations.
    pub labels_baseline: f64,
    /// Mean labels to UD = 0 with α-sampling + incremental refinement.
    pub labels_optimized: f64,
    /// Mean user-perceived system time to UD = 0 without optimizations
    /// (offline init + per-iteration response latency; think-time
    /// refinement excluded, matching the paper's accounting).
    pub time_baseline: Duration,
    /// Mean user-perceived system time to UD = 0 with optimizations.
    pub time_optimized: Duration,
    /// Whether every run converged.
    pub all_converged: bool,
}

impl OptimizationPoint {
    /// Fractional runtime reduction of the optimized model (paper: ≈0.43).
    #[must_use]
    pub fn runtime_reduction(&self) -> f64 {
        let base = self.time_baseline.as_secs_f64();
        if base <= 0.0 {
            return 0.0;
        }
        1.0 - self.time_optimized.as_secs_f64() / base
    }

    /// Fractional extra labeling effort of the optimized model (paper:
    /// ≈0.19).
    #[must_use]
    pub fn label_overhead(&self) -> f64 {
        if self.labels_baseline <= 0.0 {
            return 0.0;
        }
        self.labels_optimized / self.labels_baseline - 1.0
    }
}

/// Runs the optimization evaluation: for each ideal-function group, drives
/// every member to UD = 0 under both the optimization-disabled
/// (`baseline_config`) and optimization-enabled (`optimized_config`)
/// configurations.
///
/// # Errors
///
/// Propagates session errors.
pub fn optimization_experiment(
    testbed: &Testbed,
    baseline_config: &ViewSeekerConfig,
    optimized_config: &ViewSeekerConfig,
    k: usize,
    max_labels: usize,
) -> Result<Vec<OptimizationPoint>, CoreError> {
    let baseline_config = ViewSeekerConfig {
        bin_configs: testbed.bin_configs.clone(),
        ..baseline_config.clone()
    };
    let optimized_config = ViewSeekerConfig {
        bin_configs: testbed.bin_configs.clone(),
        ..optimized_config.clone()
    };
    // Ground truth is the same for both models.
    let truth = exact_feature_matrix(&testbed.table, &testbed.query, &baseline_config)?;

    let runner = RunnerConfig {
        k,
        max_labels,
        stop: StopCriterion::UtilityDistance(0.0),
    };

    let mut points = Vec::new();
    for group in IdealGroup::all() {
        let members = functions_in_group(group);
        let mut labels = [0.0f64; 2];
        let mut time = [Duration::ZERO; 2];
        let mut all_converged = true;
        for f in &members {
            for (slot, config) in [(0, &baseline_config), (1, &optimized_config)] {
                let outcome = run_session_with_truth(
                    &testbed.table,
                    &testbed.query,
                    config.clone(),
                    &f.utility,
                    &runner,
                    &truth,
                )?;
                labels[slot] += outcome.labels_used as f64;
                time[slot] += outcome.system_time;
                all_converged &= outcome.converged;
            }
        }
        let n = members.len() as u32;
        points.push(OptimizationPoint {
            group,
            k,
            labels_baseline: labels[0] / f64::from(n),
            labels_optimized: labels[1] / f64::from(n),
            time_baseline: time[0] / n,
            time_optimized: time[1] / n,
            all_converged,
        });
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed::{diab_testbed, TestbedScale};
    use viewseeker_core::RefineBudget;

    #[test]
    fn produces_one_point_per_group() {
        let tb = diab_testbed(TestbedScale::Small(2_000), 41).unwrap();
        let baseline = ViewSeekerConfig::default();
        let optimized = ViewSeekerConfig {
            alpha: 0.3,
            refine_budget: RefineBudget::Views(40),
            ..ViewSeekerConfig::default()
        };
        let points = optimization_experiment(&tb, &baseline, &optimized, 10, 150).unwrap();
        assert_eq!(points.len(), 3);
        for p in &points {
            assert!(p.labels_baseline >= 1.0);
            assert!(p.labels_optimized >= 1.0);
            assert!(p.time_baseline > Duration::ZERO);
            assert!(p.time_optimized > Duration::ZERO);
        }
    }

    #[test]
    fn derived_ratios_behave() {
        let p = OptimizationPoint {
            group: IdealGroup::Single,
            k: 10,
            labels_baseline: 10.0,
            labels_optimized: 12.0,
            time_baseline: Duration::from_secs(10),
            time_optimized: Duration::from_secs(6),
            all_converged: true,
        };
        assert!((p.runtime_reduction() - 0.4).abs() < 1e-12);
        assert!((p.label_overhead() - 0.2).abs() < 1e-12);
        let degenerate = OptimizationPoint {
            labels_baseline: 0.0,
            time_baseline: Duration::ZERO,
            ..p
        };
        assert_eq!(degenerate.runtime_reduction(), 0.0);
        assert_eq!(degenerate.label_overhead(), 0.0);
    }
}
