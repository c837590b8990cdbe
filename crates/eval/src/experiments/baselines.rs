//! Experiment 2: comparison against fixed single-feature baselines
//! (Figure 5).
//!
//! "We compared the top-k recommended views by ViewSeeker with the top-k
//! recommended views by the baselines in terms of the maximum achievable
//! recommendation precision. We use the 8 individual utility features
//! (e.g., KL, EMD, L1, L2, etc.) as the baselines. Figure 5 shows the result
//! for ideal Utility Function 11 (u*() = 0.3·EMD + 0.3·KL + 0.4·Accuracy) in
//! the DIAB dataset. ViewSeeker achieved a 3X improvement against the
//! best-performing baseline."

use viewseeker_core::baseline::SingleFeatureRanker;
use viewseeker_core::{tie_aware_precision_at_k, CoreError, ViewSeekerConfig};

use crate::idealfn::ideal_functions;
use crate::runner::{exact_feature_matrix, run_session_with_truth, RunnerConfig, StopCriterion};
use crate::simuser::SimulatedUser;
use crate::testbed::Testbed;

/// One baseline's fixed precision.
#[derive(Debug, Clone)]
pub struct BaselinePrecision {
    /// The utility feature the baseline ranks by.
    pub feature: String,
    /// Its (fixed, maximum achievable) precision@k against the ideal top-k.
    pub precision: f64,
}

/// The output of Experiment 2.
#[derive(Debug, Clone)]
pub struct BaselineComparison {
    /// The ideal function's 1-based Table 2 number.
    pub ideal_number: usize,
    /// The k of top-k.
    pub k: usize,
    /// ViewSeeker's precision@k after each label.
    pub viewseeker_trace: Vec<f64>,
    /// ViewSeeker's final (maximum achieved) precision.
    pub viewseeker_precision: f64,
    /// Labels ViewSeeker spent.
    pub labels_used: usize,
    /// Every fixed baseline's precision.
    pub baselines: Vec<BaselinePrecision>,
}

impl BaselineComparison {
    /// The best fixed baseline's precision.
    #[must_use]
    pub fn best_baseline(&self) -> f64 {
        self.baselines
            .iter()
            .map(|b| b.precision)
            .fold(0.0, f64::max)
    }

    /// ViewSeeker's improvement factor over the best baseline
    /// (∞ if every baseline scores zero).
    #[must_use]
    pub fn improvement_factor(&self) -> f64 {
        let best = self.best_baseline();
        if best <= 0.0 {
            f64::INFINITY
        } else {
            self.viewseeker_precision / best
        }
    }
}

/// Runs Experiment 2 for Table 2 function number `ideal_number` (the paper
/// uses 11).
///
/// # Errors
///
/// * [`CoreError::Invalid`] for an ideal number outside 1–11;
/// * session errors.
pub fn baseline_experiment(
    testbed: &Testbed,
    base_config: &ViewSeekerConfig,
    ideal_number: usize,
    k: usize,
    max_labels: usize,
) -> Result<BaselineComparison, CoreError> {
    let functions = ideal_functions();
    let ideal = functions
        .get(ideal_number.wrapping_sub(1))
        .ok_or_else(|| CoreError::Invalid(format!("no ideal function #{ideal_number}")))?;

    let config = ViewSeekerConfig {
        bin_configs: testbed.bin_configs.clone(),
        ..base_config.clone()
    };
    let truth = exact_feature_matrix(&testbed.table, &testbed.query, &config)?;
    let user = SimulatedUser::new(&ideal.utility, &truth)?;

    // Each fixed baseline's precision never changes — compute it once, with
    // the same tie-aware precision the interactive runs are scored by.
    let baselines = SingleFeatureRanker::all()
        .into_iter()
        .map(|r| BaselinePrecision {
            feature: r.feature().to_string(),
            precision: tie_aware_precision_at_k(user.true_scores(), &r.top_k(&truth, k), k),
        })
        .collect::<Vec<_>>();

    let outcome = run_session_with_truth(
        &testbed.table,
        &testbed.query,
        config,
        &ideal.utility,
        &RunnerConfig {
            k,
            max_labels,
            stop: StopCriterion::Precision(1.0),
        },
        &truth,
    )?;

    Ok(BaselineComparison {
        ideal_number,
        k,
        viewseeker_precision: outcome.final_precision(),
        labels_used: outcome.labels_used,
        viewseeker_trace: outcome.precision_trace,
        baselines,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed::{diab_testbed, TestbedScale};

    #[test]
    fn viewseeker_beats_every_fixed_baseline_on_function_11() {
        let tb = diab_testbed(TestbedScale::Small(3_000), 5).unwrap();
        let cmp = baseline_experiment(&tb, &ViewSeekerConfig::default(), 11, 10, 150).unwrap();
        assert_eq!(cmp.baselines.len(), 8);
        assert!(
            cmp.viewseeker_precision >= cmp.best_baseline(),
            "ViewSeeker {} vs best baseline {}",
            cmp.viewseeker_precision,
            cmp.best_baseline()
        );
        assert!(cmp.viewseeker_precision > 0.9);
    }

    #[test]
    fn matching_single_feature_baseline_is_perfect() {
        // For ideal #2 (pure EMD) the EMD baseline must reach precision 1.
        let tb = diab_testbed(TestbedScale::Small(2_000), 6).unwrap();
        let cmp = baseline_experiment(&tb, &ViewSeekerConfig::default(), 2, 5, 80).unwrap();
        let emd = cmp.baselines.iter().find(|b| b.feature == "EMD").unwrap();
        assert_eq!(emd.precision, 1.0);
        assert_eq!(cmp.improvement_factor(), cmp.viewseeker_precision);
    }

    #[test]
    fn bad_ideal_number_is_rejected() {
        let tb = diab_testbed(TestbedScale::Small(1_000), 7).unwrap();
        assert!(baseline_experiment(&tb, &ViewSeekerConfig::default(), 0, 5, 10).is_err());
        assert!(baseline_experiment(&tb, &ViewSeekerConfig::default(), 12, 5, 10).is_err());
    }
}
