//! Experiment 1: user effort (Figures 3 and 4).
//!
//! "Figures 3 and 4 illustrate the effectiveness of the ViewSeeker by
//! showing the number of example views that need to be labeled in order for
//! the view utility estimator to reach 100% precision in the top-k
//! recommended views" — for k ∈ {5, 10, 15, 20, 25, 30}, averaged within
//! each ideal-function group (1–3, 4–6, 7–11).

use viewseeker_core::{CoreError, ViewSeekerConfig};

use crate::idealfn::{functions_in_group, IdealGroup};
use crate::runner::{exact_feature_matrix, run_session_with_truth, RunnerConfig, StopCriterion};
use crate::testbed::Testbed;

/// The paper's k sweep for Figures 3–4.
pub const PAPER_KS: [usize; 6] = [5, 10, 15, 20, 25, 30];

/// One point of Figure 3/4: a (group, k) cell.
#[derive(Debug, Clone)]
pub struct EffortPoint {
    /// Ideal-function group (subfigure a/b/c).
    pub group: IdealGroup,
    /// The k of top-k.
    pub k: usize,
    /// Mean labels needed across the group's ideal functions.
    pub mean_labels: f64,
    /// Whether every run in the cell reached 100% precision.
    pub all_converged: bool,
}

/// Runs Experiment 1 on a testbed: for every group and every `k`, drive a
/// session per ideal function to 100% precision and average the labels
/// spent.
///
/// # Errors
///
/// Propagates session errors.
pub fn user_effort_experiment(
    testbed: &Testbed,
    base_config: &ViewSeekerConfig,
    ks: &[usize],
    max_labels: usize,
) -> Result<Vec<EffortPoint>, CoreError> {
    let config = ViewSeekerConfig {
        bin_configs: testbed.bin_configs.clone(),
        ..base_config.clone()
    };
    let truth = exact_feature_matrix(&testbed.table, &testbed.query, &config)?;

    let mut points = Vec::new();
    for group in IdealGroup::all() {
        let members = functions_in_group(group);
        for &k in ks {
            let mut total = 0.0;
            let mut all_converged = true;
            for f in &members {
                let outcome = run_session_with_truth(
                    &testbed.table,
                    &testbed.query,
                    config.clone(),
                    &f.utility,
                    &RunnerConfig {
                        k,
                        max_labels,
                        stop: StopCriterion::Precision(1.0),
                    },
                    &truth,
                )?;
                total += outcome.labels_used as f64;
                all_converged &= outcome.converged;
            }
            points.push(EffortPoint {
                group,
                k,
                mean_labels: total / members.len() as f64,
                all_converged,
            });
        }
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed::{diab_testbed, TestbedScale};

    #[test]
    fn produces_one_point_per_group_and_k() {
        let tb = diab_testbed(TestbedScale::Small(2_000), 33).unwrap();
        let points =
            user_effort_experiment(&tb, &ViewSeekerConfig::default(), &[5, 10], 120).unwrap();
        assert_eq!(points.len(), 3 * 2);
        for p in &points {
            assert!(p.mean_labels >= 1.0);
            assert!(p.mean_labels <= 120.0);
        }
        // Every (group, k) combination appears exactly once.
        for group in IdealGroup::all() {
            for k in [5usize, 10] {
                assert_eq!(
                    points
                        .iter()
                        .filter(|p| p.group == group && p.k == k)
                        .count(),
                    1
                );
            }
        }
    }

    #[test]
    fn single_component_ideals_converge_on_small_testbed() {
        let tb = diab_testbed(TestbedScale::Small(2_000), 17).unwrap();
        let points = user_effort_experiment(&tb, &ViewSeekerConfig::default(), &[5], 150).unwrap();
        let single = points
            .iter()
            .find(|p| p.group == IdealGroup::Single)
            .unwrap();
        assert!(
            single.all_converged,
            "single-component ideals should reach 100% precision, mean labels {}",
            single.mean_labels
        );
    }
}
