//! Property-based tests of the learning substrate: exact recovery, bounded
//! outputs, and solver round-trips on arbitrary inputs.

use proptest::prelude::*;
use viewseeker_learn::{
    LogisticConfig, LogisticRegression, Matrix, QueryByCommittee, RidgeConfig, RidgeRegression,
};

/// Feature rows in the unit cube (matching the normalized feature matrix).
fn arb_rows(n: usize, d: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    proptest::collection::vec(proptest::collection::vec(0.0f64..1.0, d), n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ridge_recovers_noiseless_linear_functions(
        rows in arb_rows(24, 4),
        w in proptest::collection::vec(-3.0f64..3.0, 4),
        intercept in -2.0f64..2.0,
    ) {
        let y: Vec<f64> = rows
            .iter()
            .map(|r| r.iter().zip(&w).map(|(x, wi)| x * wi).sum::<f64>() + intercept)
            .collect();
        let mut m = RidgeRegression::new(RidgeConfig { lambda: 1e-10, fit_intercept: true });
        m.fit(&rows, &y).unwrap();
        for (r, target) in rows.iter().zip(&y) {
            let pred = m.predict(r).unwrap();
            prop_assert!(
                (pred - target).abs() < 1e-5 * (1.0 + target.abs()),
                "pred {pred} vs target {target}"
            );
        }
    }

    #[test]
    fn ridge_predictions_are_finite_on_any_data(
        rows in arb_rows(8, 3),
        y in proptest::collection::vec(0.0f64..1.0, 8),
    ) {
        let mut m = RidgeRegression::new(RidgeConfig::default());
        m.fit(&rows, &y).unwrap();
        for r in &rows {
            prop_assert!(m.predict(r).unwrap().is_finite());
        }
    }

    #[test]
    fn logistic_probabilities_in_unit_interval(
        rows in arb_rows(10, 3),
        labels in proptest::collection::vec(0u8..2, 10),
    ) {
        let y: Vec<f64> = labels.iter().map(|l| f64::from(*l)).collect();
        let mut m = LogisticRegression::new(LogisticConfig {
            max_iterations: 200,
            ..LogisticConfig::default()
        });
        m.fit(&rows, &y).unwrap();
        for r in &rows {
            let p = m.predict_proba(r).unwrap();
            prop_assert!((0.0..=1.0).contains(&p) && p.is_finite());
        }
    }

    #[test]
    fn cholesky_round_trip_on_random_spd(
        data in proptest::collection::vec(-2.0f64..2.0, 12),
        x_true in proptest::collection::vec(-5.0f64..5.0, 3),
    ) {
        // SPD via AᵀA + I.
        let a = Matrix::from_rows(4, 3, data).unwrap();
        let g = a.gram_regularized(1.0);
        let b = g.mul_vec(&x_true).unwrap();
        let x = g.cholesky_solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            prop_assert!((xi - ti).abs() < 1e-8, "{xi} vs {ti}");
        }
    }

    #[test]
    fn strategies_score_every_candidate(
        labeled in arb_rows(6, 3),
        candidates in arb_rows(9, 3),
        labels in proptest::collection::vec(0u8..2, 6),
    ) {
        // Guarantee both classes so the committee's classifiers are
        // well-posed.
        let mut y: Vec<f64> = labels.iter().map(|l| f64::from(*l)).collect();
        y[0] = 0.0;
        y[1] = 1.0;
        let mut qbc = QueryByCommittee::new(LogisticConfig {
            max_iterations: 100,
            ..LogisticConfig::default()
        }, 3, 5);
        let scores = qbc.scores(&labeled, &y, &candidates).unwrap();
        prop_assert_eq!(scores.len(), candidates.len());
        prop_assert!(scores.iter().all(|v| v.is_finite() && *v >= 0.0));
    }

    #[test]
    fn ridge_interpolates_single_sample(row in proptest::collection::vec(0.0f64..1.0, 6), y in 0.0f64..1.0) {
        let mut m = RidgeRegression::new(RidgeConfig::default());
        m.fit(std::slice::from_ref(&row), &[y]).unwrap();
        prop_assert!((m.predict(&row).unwrap() - y).abs() < 1e-2);
    }
}
