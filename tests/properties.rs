//! Cross-crate property-based tests: invariants that must hold for *any*
//! dataset, query, or utility combination the generators produce.

use proptest::prelude::*;
use viewseeker::prelude::*;
use viewseeker_core::features::compute_features;
use viewseeker_core::viewgen::materialize_view;
use viewseeker_core::ViewDef;
use viewseeker_dataset::aggregate::{group_by_aggregate, AggregateFunction};
use viewseeker_dataset::BinSpec;
use viewseeker_dataset::Column;

/// A small random table: one categorical dimension, one numeric dimension,
/// one measure.
fn arb_table() -> impl Strategy<Value = Table> {
    let rows = 1usize..120;
    rows.prop_flat_map(|n| {
        (
            proptest::collection::vec(0u32..4, n),
            proptest::collection::vec(-50.0f64..50.0, n),
            proptest::collection::vec(-100.0f64..100.0, n),
        )
            .prop_map(|(cats, dims, measures)| {
                let schema = Schema::builder()
                    .categorical_dimension("c")
                    .numeric_dimension("x")
                    .measure("m")
                    .build()
                    .unwrap();
                let labels: Vec<String> = (0..4).map(|i| format!("v{i}")).collect();
                Table::new(
                    schema,
                    vec![
                        Column::categorical_from_codes(cats, labels).unwrap(),
                        Column::numeric(dims),
                        Column::numeric(measures),
                    ],
                )
                .unwrap()
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn group_by_counts_partition_the_selection(table in arb_table(), frac in 0.0f64..1.0) {
        let rows = viewseeker_dataset::sample::bernoulli_sample(&table.all_rows(), frac, 9);
        let spec = BinSpec::categorical_of(table.column_by_name("c").unwrap()).unwrap();
        let r = group_by_aggregate(&table, &rows, "c", &spec, "m", AggregateFunction::Count).unwrap();
        // COUNT bins partition the selected rows.
        prop_assert_eq!(r.total_rows(), rows.len() as u64);
        let sum: f64 = r.aggregates.iter().sum();
        prop_assert!((sum - rows.len() as f64).abs() < 1e-9);
    }

    #[test]
    fn sum_aggregate_is_selection_total(table in arb_table()) {
        let spec = BinSpec::categorical_of(table.column_by_name("c").unwrap()).unwrap();
        let r = group_by_aggregate(
            &table, &table.all_rows(), "c", &spec, "m", AggregateFunction::Sum,
        ).unwrap();
        // Sum over bins with no empty-bin contribution = column total.
        let total: f64 = table.numeric_values("m").unwrap().iter().sum();
        let bins: f64 = r.aggregates.iter().sum();
        prop_assert!((bins - total).abs() < 1e-6 * (1.0 + total.abs()));
    }

    #[test]
    fn view_distributions_are_valid_probability_vectors(table in arb_table(), bins in 1usize..8) {
        for aggregate in AggregateFunction::all() {
            let def = ViewDef {
                dimension: "x".into(),
                measure: "m".into(),
                aggregate,
                bins: Some(bins),
            };
            let vd = materialize_view(&table, &table.all_rows(), &table.all_rows(), &def).unwrap();
            for d in [&vd.target, &vd.reference] {
                prop_assert_eq!(d.len(), bins);
                prop_assert!(d.masses().iter().all(|m| (0.0..=1.0 + 1e-12).contains(m)));
                prop_assert!((d.masses().iter().sum::<f64>() - 1.0).abs() < 1e-9);
            }
            // Identical target/reference row sets ⇒ identical distributions.
            prop_assert_eq!(&vd.target, &vd.reference);
        }
    }

    #[test]
    fn features_of_identical_views_have_zero_deviation(table in arb_table(), bins in 1usize..6) {
        let def = ViewDef {
            dimension: "x".into(),
            measure: "m".into(),
            aggregate: AggregateFunction::Avg,
            bins: Some(bins),
        };
        let vd = materialize_view(&table, &table.all_rows(), &table.all_rows(), &def).unwrap();
        let f = compute_features(&vd, 8.0).unwrap();
        // KL, EMD, L1, L2, MAX_DIFF all ~0 when DQ = DR.
        for (c, value) in f.iter().take(5).enumerate() {
            prop_assert!(value.abs() < 1e-6, "feature {} = {}", c, value);
        }
        prop_assert!(f.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn predicate_de_morgan(table in arb_table(), split in -50.0f64..50.0) {
        let a = Predicate::eq("c", "v0");
        let b = Predicate::range("x", split, f64::INFINITY);
        let not_or = Predicate::Not(Box::new(Predicate::Or(vec![a.clone(), b.clone()])));
        let and_nots = Predicate::And(vec![
            Predicate::Not(Box::new(a)),
            Predicate::Not(Box::new(b)),
        ]);
        prop_assert_eq!(
            not_or.evaluate(&table).unwrap(),
            and_nots.evaluate(&table).unwrap()
        );
    }

    #[test]
    fn feature_matrix_is_unit_normalized(table in arb_table()) {
        let space = viewseeker_core::ViewSpace::enumerate(&table, &[3]).unwrap();
        let views = viewseeker_core::viewgen::materialize_all(
            &table, &table.all_rows(), &table.all_rows(), &space,
        ).unwrap();
        let matrix = FeatureMatrix::from_views(&views, 8.0).unwrap();
        for row in matrix.rows() {
            prop_assert!(row.iter().all(|v| (0.0..=1.0).contains(v)));
        }
    }

    #[test]
    fn composite_scores_respect_linearity(
        w1 in 0.0f64..1.0,
        w2 in 0.0f64..1.0,
        f1 in proptest::collection::vec(0.0f64..1.0, 8),
    ) {
        let u1 = CompositeUtility::single(UtilityFeature::Kl);
        let u2 = CompositeUtility::single(UtilityFeature::Emd);
        let combo = CompositeUtility::new(&[
            (UtilityFeature::Kl, w1),
            (UtilityFeature::Emd, w2),
        ]).unwrap();
        let s1 = u1.score(&f1).unwrap();
        let s2 = u2.score(&f1).unwrap();
        let sc = combo.score(&f1).unwrap();
        prop_assert!((sc - (w1 * s1 + w2 * s2)).abs() < 1e-12);
    }

    #[test]
    fn csv_round_trip_any_table(table in arb_table()) {
        let mut buf = Vec::new();
        viewseeker_dataset::csv::write_csv(&table, &mut buf).unwrap();
        let back = viewseeker_dataset::csv::read_csv(
            table.schema(), std::io::Cursor::new(&buf),
        ).unwrap();
        prop_assert_eq!(back.row_count(), table.row_count());
        let m0 = table.numeric_values("m").unwrap();
        let m1 = back.numeric_values("m").unwrap();
        for (a, b) in m0.iter().zip(m1) {
            prop_assert_eq!(a, b, "f64 round trip must be exact");
        }
    }
}
