//! Ablations of ViewSeeker's design choices.
//!
//! Two knobs DESIGN.md calls out:
//!
//! * **query strategy** — the paper chooses least-confidence uncertainty
//!   sampling for efficiency; [`strategy_ablation`] measures the labels it
//!   saves against random sampling and query-by-committee;
//! * **α (partial-data ratio)** — [`alpha_sweep`] quantifies the trade
//!   between rough-feature fidelity (labels needed) and offline-phase cost
//!   across α values.

use std::time::Duration;

use viewseeker_core::{CoreError, QueryStrategyKind, RefineBudget, ViewSeekerConfig};

use crate::idealfn::ideal_functions;
use crate::runner::{
    exact_feature_matrix, run_session_with_truth, run_session_with_user, RunnerConfig,
    StopCriterion,
};
use crate::simuser::SimulatedUser;
use crate::testbed::Testbed;

/// One strategy's averaged outcome.
#[derive(Debug, Clone)]
pub struct StrategyPoint {
    /// Strategy name (`"uncertainty"`, `"random"`, `"qbc"`).
    pub strategy: String,
    /// Mean labels to 100% precision across ideal functions.
    pub mean_labels: f64,
    /// Fraction of runs that converged within the budget.
    pub convergence_rate: f64,
}

/// Compares the three query strategies over all 11 ideal functions.
///
/// # Errors
///
/// Propagates session errors.
pub fn strategy_ablation(
    testbed: &Testbed,
    base_config: &ViewSeekerConfig,
    k: usize,
    max_labels: usize,
) -> Result<Vec<StrategyPoint>, CoreError> {
    let strategies = [
        ("uncertainty", QueryStrategyKind::Uncertainty),
        ("random", QueryStrategyKind::Random),
        (
            "qbc",
            QueryStrategyKind::QueryByCommittee { committee_size: 5 },
        ),
    ];
    let config_base = ViewSeekerConfig {
        bin_configs: testbed.bin_configs.clone(),
        ..base_config.clone()
    };
    let truth = exact_feature_matrix(&testbed.table, &testbed.query, &config_base)?;
    let functions = ideal_functions();

    let mut points = Vec::new();
    for (name, kind) in strategies {
        let mut labels = 0.0;
        let mut converged = 0usize;
        for f in &functions {
            let outcome = run_session_with_truth(
                &testbed.table,
                &testbed.query,
                ViewSeekerConfig {
                    strategy: kind,
                    ..config_base.clone()
                },
                &f.utility,
                &RunnerConfig {
                    k,
                    max_labels,
                    stop: StopCriterion::Precision(1.0),
                },
                &truth,
            )?;
            labels += outcome.labels_used as f64;
            converged += usize::from(outcome.converged);
        }
        points.push(StrategyPoint {
            strategy: name.to_owned(),
            mean_labels: labels / functions.len() as f64,
            convergence_rate: converged as f64 / functions.len() as f64,
        });
    }
    Ok(points)
}

/// One α value's averaged outcome.
#[derive(Debug, Clone)]
pub struct AlphaPoint {
    /// The partial-data ratio.
    pub alpha: f64,
    /// Mean labels to UD = 0.
    pub mean_labels: f64,
    /// Mean offline-initialization time.
    pub mean_init_time: Duration,
    /// Mean total wall-clock to UD = 0.
    pub mean_wall_time: Duration,
    /// Fraction of runs that converged.
    pub convergence_rate: f64,
}

/// Sweeps the α partial-data ratio, measuring offline cost against labeling
/// effort (the trade the paper's §3.3 optimization navigates).
///
/// # Errors
///
/// Propagates session errors.
pub fn alpha_sweep(
    testbed: &Testbed,
    base_config: &ViewSeekerConfig,
    alphas: &[f64],
    k: usize,
    max_labels: usize,
) -> Result<Vec<AlphaPoint>, CoreError> {
    let config_base = ViewSeekerConfig {
        bin_configs: testbed.bin_configs.clone(),
        ..base_config.clone()
    };
    let truth = exact_feature_matrix(&testbed.table, &testbed.query, &config_base)?;
    // Use a representative subset of ideal functions (one per group) to keep
    // the sweep tractable.
    let functions = ideal_functions();
    let sample = [&functions[1], &functions[3], &functions[10]];

    let mut points = Vec::new();
    for &alpha in alphas {
        let config = ViewSeekerConfig {
            alpha,
            refine_budget: if alpha < 1.0 {
                base_config.refine_budget
            } else {
                RefineBudget::Views(0)
            },
            ..config_base.clone()
        };
        let mut labels = 0.0;
        let mut init = Duration::ZERO;
        let mut wall = Duration::ZERO;
        let mut converged = 0usize;
        for f in sample {
            let outcome = run_session_with_truth(
                &testbed.table,
                &testbed.query,
                config.clone(),
                &f.utility,
                &RunnerConfig {
                    k,
                    max_labels,
                    stop: StopCriterion::UtilityDistance(0.0),
                },
                &truth,
            )?;
            labels += outcome.labels_used as f64;
            init += outcome.init_time;
            wall += outcome.wall_time;
            converged += usize::from(outcome.converged);
        }
        let n = sample.len() as u32;
        points.push(AlphaPoint {
            alpha,
            mean_labels: labels / f64::from(n),
            mean_init_time: init / n,
            mean_wall_time: wall / n,
            convergence_rate: converged as f64 / f64::from(n),
        });
    }
    Ok(points)
}

/// One batch-size's averaged outcome.
#[derive(Debug, Clone)]
pub struct BatchPoint {
    /// Views presented per iteration (the paper's `M`).
    pub views_per_iteration: usize,
    /// Mean labels to 100% precision.
    pub mean_labels: f64,
    /// Mean user *iterations* (prompt rounds) — labels / M, the quantity a
    /// batched UI actually trades for.
    pub mean_iterations: f64,
    /// Fraction of runs that converged.
    pub convergence_rate: f64,
}

/// Sweeps `M`, the number of views presented per iteration (paper default
/// M = 1): batching lowers the number of prompt rounds but spends labels on
/// less-informative views picked from one model state.
///
/// # Errors
///
/// Propagates session errors.
pub fn batch_size_sweep(
    testbed: &Testbed,
    base_config: &ViewSeekerConfig,
    batch_sizes: &[usize],
    k: usize,
    max_labels: usize,
) -> Result<Vec<BatchPoint>, CoreError> {
    let config_base = ViewSeekerConfig {
        bin_configs: testbed.bin_configs.clone(),
        ..base_config.clone()
    };
    let truth = exact_feature_matrix(&testbed.table, &testbed.query, &config_base)?;
    let functions = ideal_functions();

    let mut points = Vec::new();
    for &m in batch_sizes {
        let mut labels = 0.0;
        let mut converged = 0usize;
        for f in &functions {
            let outcome = run_session_with_truth(
                &testbed.table,
                &testbed.query,
                ViewSeekerConfig {
                    views_per_iteration: m,
                    ..config_base.clone()
                },
                &f.utility,
                &RunnerConfig {
                    k,
                    max_labels,
                    stop: StopCriterion::Precision(1.0),
                },
                &truth,
            )?;
            labels += outcome.labels_used as f64;
            converged += usize::from(outcome.converged);
        }
        let mean_labels = labels / functions.len() as f64;
        points.push(BatchPoint {
            views_per_iteration: m,
            mean_labels,
            mean_iterations: mean_labels / m as f64,
            convergence_rate: converged as f64 / functions.len() as f64,
        });
    }
    Ok(points)
}

/// One label-noise level's averaged outcome.
#[derive(Debug, Clone)]
pub struct NoisePoint {
    /// Standard deviation of the Gaussian label noise.
    pub sigma: f64,
    /// Mean labels spent (up to the budget).
    pub mean_labels: f64,
    /// Mean final tie-aware precision@k against the *exact* ideal.
    pub mean_final_precision: f64,
    /// Fraction of runs that reached 100% precision within the budget.
    pub convergence_rate: f64,
}

/// Sweeps Gaussian label noise — how robust is the interactive learner to
/// inconsistent human ratings? (The paper's planned user study would face
/// exactly this; the simulated study uses exact labels.)
///
/// # Errors
///
/// Propagates session errors.
pub fn noise_sweep(
    testbed: &Testbed,
    base_config: &ViewSeekerConfig,
    sigmas: &[f64],
    k: usize,
    max_labels: usize,
) -> Result<Vec<NoisePoint>, CoreError> {
    let config_base = ViewSeekerConfig {
        bin_configs: testbed.bin_configs.clone(),
        ..base_config.clone()
    };
    let truth = exact_feature_matrix(&testbed.table, &testbed.query, &config_base)?;
    let functions = ideal_functions();

    let mut points = Vec::new();
    for &sigma in sigmas {
        let mut labels = 0.0;
        let mut precision = 0.0;
        let mut converged = 0usize;
        for f in &functions {
            let user = SimulatedUser::with_noise(
                &f.utility,
                &truth,
                sigma,
                config_base.seed ^ f.number as u64,
            )?;
            let outcome = run_session_with_user(
                &testbed.table,
                &testbed.query,
                config_base.clone(),
                &user,
                &RunnerConfig {
                    k,
                    max_labels,
                    stop: StopCriterion::Precision(1.0),
                },
            )?;
            labels += outcome.labels_used as f64;
            precision += outcome.final_precision();
            converged += usize::from(outcome.converged);
        }
        let n = functions.len() as f64;
        points.push(NoisePoint {
            sigma,
            mean_labels: labels / n,
            mean_final_precision: precision / n,
            convergence_rate: converged as f64 / n,
        });
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed::{diab_testbed, TestbedScale};

    #[test]
    fn strategy_ablation_covers_all_three() {
        let tb = diab_testbed(TestbedScale::Small(1_500), 51).unwrap();
        let points = strategy_ablation(&tb, &ViewSeekerConfig::default(), 10, 60).unwrap();
        assert_eq!(points.len(), 3);
        let names: Vec<&str> = points.iter().map(|p| p.strategy.as_str()).collect();
        assert_eq!(names, vec!["uncertainty", "random", "qbc"]);
        for p in &points {
            assert!(p.mean_labels >= 1.0);
            assert!((0.0..=1.0).contains(&p.convergence_rate));
        }
    }

    #[test]
    fn alpha_sweep_produces_one_point_per_alpha() {
        let tb = diab_testbed(TestbedScale::Small(1_500), 52).unwrap();
        let cfg = ViewSeekerConfig {
            refine_budget: RefineBudget::Views(30),
            ..ViewSeekerConfig::default()
        };
        let points = alpha_sweep(&tb, &cfg, &[0.25, 1.0], 10, 80).unwrap();
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].alpha, 0.25);
        assert_eq!(points[1].alpha, 1.0);
    }

    #[test]
    fn batch_sweep_produces_one_point_per_m() {
        let tb = diab_testbed(TestbedScale::Small(1_500), 53).unwrap();
        let points = batch_size_sweep(&tb, &ViewSeekerConfig::default(), &[1, 3], 10, 60).unwrap();
        assert_eq!(points.len(), 2);
        assert!(points[1].mean_iterations <= points[1].mean_labels);
        for p in &points {
            assert!(p.mean_labels >= 1.0);
        }
    }

    #[test]
    fn noise_sweep_zero_sigma_matches_exact_user() {
        let tb = diab_testbed(TestbedScale::Small(1_500), 54).unwrap();
        let points = noise_sweep(&tb, &ViewSeekerConfig::default(), &[0.0, 0.5], 10, 40).unwrap();
        assert_eq!(points.len(), 2);
        // Exact labels converge at least as reliably as heavily noisy ones.
        assert!(points[0].convergence_rate >= points[1].convergence_rate);
        assert!(points[0].mean_final_precision >= points[1].mean_final_precision - 1e-9);
    }
}
