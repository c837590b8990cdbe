//! Property-based tests of the columnar engine: row-set algebra laws,
//! predicate semantics, binning totality, sampling containment, and shared
//! vs single-aggregate equivalence on arbitrary data.

use proptest::prelude::*;
use viewseeker_dataset::aggregate::{
    group_by_aggregate, group_by_all, within_bin_dispersion, AggregateFunction,
};
use viewseeker_dataset::sample::bernoulli_sample;
use viewseeker_dataset::{BinSpec, Column, Predicate, RowSet, Schema, Table};

fn arb_rowset(universe: usize) -> impl Strategy<Value = RowSet> {
    proptest::collection::vec(0u32..universe as u32, 0..universe * 2)
        .prop_map(|ids| RowSet::from_ids(ids).unwrap())
}

fn arb_table() -> impl Strategy<Value = Table> {
    (1usize..100).prop_flat_map(|n| {
        (
            proptest::collection::vec(0u32..3, n),
            proptest::collection::vec(-10.0f64..10.0, n),
        )
            .prop_map(|(cats, measures)| {
                let schema = Schema::builder()
                    .categorical_dimension("c")
                    .measure("m")
                    .build()
                    .unwrap();
                let labels = vec!["x".into(), "y".into(), "z".into()];
                Table::new(
                    schema,
                    vec![
                        Column::categorical_from_codes(cats, labels).unwrap(),
                        Column::numeric(measures),
                    ],
                )
                .unwrap()
            })
    })
}

const UNIVERSE: usize = 40;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn rowset_union_intersect_laws(
        a in arb_rowset(UNIVERSE),
        b in arb_rowset(UNIVERSE),
        c in arb_rowset(UNIVERSE),
    ) {
        // Commutativity.
        prop_assert_eq!(a.union(&b), b.union(&a));
        prop_assert_eq!(a.intersect(&b), b.intersect(&a));
        // Associativity.
        prop_assert_eq!(a.union(&b).union(&c), a.union(&b.union(&c)));
        prop_assert_eq!(a.intersect(&b).intersect(&c), a.intersect(&b.intersect(&c)));
        // Absorption.
        prop_assert_eq!(a.union(&a.intersect(&b)), a.clone());
        prop_assert_eq!(a.intersect(&a.union(&b)), a.clone());
        // Idempotence.
        prop_assert_eq!(a.union(&a), a.clone());
        prop_assert_eq!(a.intersect(&a), a.clone());
    }

    #[test]
    fn rowset_complement_involution(a in arb_rowset(UNIVERSE)) {
        prop_assert_eq!(a.complement(UNIVERSE).complement(UNIVERSE), a.clone());
        // Complement partitions the universe.
        let comp = a.complement(UNIVERSE);
        prop_assert_eq!(a.len() + comp.len(), UNIVERSE);
        prop_assert!(a.intersect(&comp).is_empty());
    }

    #[test]
    fn inclusion_exclusion(a in arb_rowset(UNIVERSE), b in arb_rowset(UNIVERSE)) {
        prop_assert_eq!(
            a.union(&b).len() + a.intersect(&b).len(),
            a.len() + b.len()
        );
    }

    #[test]
    fn predicate_results_are_within_the_universe(table in arb_table(), lo in -10.0f64..10.0) {
        let preds = [
            Predicate::True,
            Predicate::eq("c", "y"),
            Predicate::range("m", lo, lo + 5.0),
            Predicate::Not(Box::new(Predicate::eq("c", "x"))),
        ];
        for p in preds {
            let rows = p.evaluate(&table).unwrap();
            prop_assert!(rows.len() <= table.row_count());
            prop_assert!(rows.ids().iter().all(|r| (*r as usize) < table.row_count()));
        }
    }

    #[test]
    fn predicate_and_own_negation_partition(table in arb_table()) {
        let p = Predicate::eq("c", "x");
        let yes = p.evaluate(&table).unwrap();
        let no = Predicate::Not(Box::new(p)).evaluate(&table).unwrap();
        prop_assert!(yes.intersect(&no).is_empty());
        prop_assert_eq!(yes.len() + no.len(), table.row_count());
    }

    #[test]
    fn bin_assignment_is_total_and_in_range(
        values in proptest::collection::vec(-1000.0f64..1000.0, 1..80),
        bins in 1usize..12,
    ) {
        let col = Column::numeric(values.clone());
        let spec = BinSpec::equal_width_of(&col, bins).unwrap();
        let assigned = spec.assign(&col).unwrap();
        prop_assert_eq!(assigned.len(), values.len());
        prop_assert!(assigned.iter().all(|b| (*b as usize) < bins));
    }

    #[test]
    fn samples_are_subsets(rows in arb_rowset(UNIVERSE), frac in 0.0f64..1.0) {
        let s = bernoulli_sample(&rows, frac, 11);
        prop_assert!(s.ids().iter().all(|id| rows.contains(*id)));
    }

    #[test]
    fn shared_aggregation_equals_individual(table in arb_table(), frac in 0.0f64..1.0) {
        let rows = bernoulli_sample(&table.all_rows(), frac, 17);
        let spec = BinSpec::categorical_of(table.column_by_name("c").unwrap()).unwrap();
        let all = group_by_all(&table, &rows, "c", &spec, "m").unwrap();
        for f in AggregateFunction::all() {
            let single = group_by_aggregate(&table, &rows, "c", &spec, "m", f).unwrap();
            prop_assert_eq!(all.aggregates(f), single.aggregates.as_slice());
        }
        let disp = within_bin_dispersion(&table, &rows, "c", &spec, "m").unwrap();
        prop_assert!((all.dispersion - disp).abs() < 1e-9);
    }

    #[test]
    fn avg_is_bounded_by_min_and_max(table in arb_table()) {
        let spec = BinSpec::categorical_of(table.column_by_name("c").unwrap()).unwrap();
        let all = group_by_all(&table, &table.all_rows(), "c", &spec, "m").unwrap();
        for b in 0..spec.bin_count() {
            if all.counts[b] > 0 {
                prop_assert!(all.mins[b] <= all.avgs[b] + 1e-9);
                prop_assert!(all.avgs[b] <= all.maxs[b] + 1e-9);
            }
        }
    }
}
