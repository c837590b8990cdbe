//! Active-learning query strategies that need a model of their own.
//!
//! "A query strategy attempts to minimize the labeling costs by selecting
//! the most informative examples" (paper §3.2). Uncertainty sampling (the
//! paper's choice) reads the session's own logistic estimator and random
//! sampling needs no model, so both live in `viewseeker-core`'s session.
//! What stays here is [`QueryByCommittee`], a bootstrap-committee strategy
//! (the paper cites Seung et al.'s QBC as an alternative; it backs the
//! strategy ablation).

mod qbc;

pub use qbc::QueryByCommittee;

/// Binarizes soft labels at `threshold` for classifier-based strategies.
#[must_use]
pub(crate) fn binarize(labels: &[f64], threshold: f64) -> Vec<f64> {
    labels
        .iter()
        .map(|&l| if l >= threshold { 1.0 } else { 0.0 })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binarize_thresholds() {
        assert_eq!(
            binarize(&[0.0, 0.5, 0.49, 1.0], 0.5),
            vec![0.0, 1.0, 0.0, 1.0]
        );
    }
}
