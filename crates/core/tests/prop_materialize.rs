//! Differential property tests for the fused materialization executor.
//!
//! The fused executor's correctness argument has two halves, and each half
//! gets its own property:
//!
//! 1. **Exactness against the reference.** On measure values that are
//!    exactly representable (integers), f64 addition never rounds, so
//!    accumulation order cannot matter and the fused executor must match
//!    the view-at-a-time [`materialize_all`] *bit-identically* — counts,
//!    sums, averages, mins, maxs, and dispersion — at every
//!    thread count. Negative and zero measures are included deliberately:
//!    sums that cancel to zero and min/max over negatives are where sign
//!    and identity-element bugs hide.
//! 2. **Thread invariance on arbitrary floats.** On continuous measures the
//!    reference and the fused path may differ by final-ULP rounding (the
//!    partition merge reassociates sums), but the fused executor itself is
//!    required to be bit-identical for *any* thread count, because its
//!    partition grid depends only on the data.
//!
//! A third property backs α-refinement: a pass over any *subset* of the
//! views ([`GroupPlan::materialize_views`]) returns, for each of them, the
//! data the pass over the whole space returns, bit for bit.

use proptest::prelude::*;
use viewseeker_core::viewgen::{materialize_all, materialize_all_fused, GroupPlan};
use viewseeker_core::ViewSpace;
use viewseeker_dataset::sample::bernoulli_sample;
use viewseeker_dataset::{Column, Predicate, Schema, Table};

/// A random table with one categorical dimension, one numeric dimension,
/// and one measure whose values are integer-valued f64s in [-8, 8]. Row
/// counts straddle the executor's 1024-row partition size so both the
/// single-partition and the multi-partition merge paths are exercised.
fn arb_exact_table() -> impl Strategy<Value = Table> {
    (1usize..2600).prop_flat_map(|n| {
        (
            proptest::collection::vec(0u32..3, n),
            proptest::collection::vec(-50.0f64..50.0, n),
            proptest::collection::vec(-8i32..9, n),
        )
            .prop_map(|(cats, dims, measures)| {
                build_table(cats, dims, measures.into_iter().map(f64::from).collect())
            })
    })
}

/// Like [`arb_exact_table`] but with continuous measure values, where only
/// thread invariance (not reference bit-identity) is guaranteed.
fn arb_float_table() -> impl Strategy<Value = Table> {
    (1usize..2600).prop_flat_map(|n| {
        (
            proptest::collection::vec(0u32..3, n),
            proptest::collection::vec(-50.0f64..50.0, n),
            proptest::collection::vec(-10.0f64..10.0, n),
        )
            .prop_map(|(cats, dims, measures)| build_table(cats, dims, measures))
    })
}

fn build_table(cats: Vec<u32>, dims: Vec<f64>, measures: Vec<f64>) -> Table {
    let schema = Schema::builder()
        .categorical_dimension("c")
        .numeric_dimension("n_d")
        .measure("m")
        .build()
        .unwrap();
    let labels = vec!["x".into(), "y".into(), "z".into()];
    Table::new(
        schema,
        vec![
            Column::categorical_from_codes(cats, labels).unwrap(),
            Column::numeric(dims),
            Column::numeric(measures),
        ],
    )
    .unwrap()
}

/// A random target predicate; every variant can select an empty, partial,
/// or full row set depending on the data.
fn arb_predicate() -> impl Strategy<Value = Predicate> {
    (0usize..5, -50.0f64..50.0).prop_map(|(choice, lo)| match choice {
        0 => Predicate::True,
        1 => Predicate::eq("c", "x"),
        2 => Predicate::eq("c", "y"),
        3 => Predicate::range("n_d", lo, lo + 40.0),
        _ => Predicate::Not(Box::new(Predicate::eq("c", "z"))),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn fused_matches_the_reference_bit_identically_on_exact_values(
        table in arb_exact_table(),
        predicate in arb_predicate(),
    ) {
        let dq = predicate.evaluate(&table).unwrap();
        let dr = table.all_rows();
        let space = ViewSpace::enumerate(&table, &[2, 3]).unwrap();
        let naive = materialize_all(&table, &dq, &dr, &space).unwrap();
        for threads in [1usize, 2, 8] {
            let fused = materialize_all_fused(&table, &dq, &dr, &space, threads).unwrap();
            prop_assert_eq!(&naive, &fused, "fused(threads={}) diverged", threads);
        }
    }

    #[test]
    fn fused_is_thread_invariant_on_arbitrary_floats(
        table in arb_float_table(),
        predicate in arb_predicate(),
    ) {
        let dq = predicate.evaluate(&table).unwrap();
        let dr = table.all_rows();
        let space = ViewSpace::enumerate(&table, &[2, 3]).unwrap();
        let serial = materialize_all_fused(&table, &dq, &dr, &space, 1).unwrap();
        for threads in [2usize, 3, 8] {
            let parallel = materialize_all_fused(&table, &dq, &dr, &space, threads).unwrap();
            prop_assert_eq!(&serial, &parallel, "threads={} diverged", threads);
        }
    }

    #[test]
    fn a_subset_pass_matches_the_full_pass_bit_identically(
        table in arb_float_table(),
        predicate in arb_predicate(),
        picks in proptest::collection::vec(0u8..2, 30),
        sampled_dr in 0u8..2,
        threads in 1usize..9,
    ) {
        let dq = predicate.evaluate(&table).unwrap();
        // A sampled DR leaves DQ rows outside it, exercising the tail pass.
        let dr = if sampled_dr == 1 {
            bernoulli_sample(&table.all_rows(), 0.5, 3)
        } else {
            table.all_rows()
        };
        let space = ViewSpace::enumerate(&table, &[2, 3]).unwrap();
        let full = materialize_all_fused(&table, &dq, &dr, &space, threads).unwrap();
        // Ids in descending order: the result follows the caller's order.
        let ids: Vec<usize> = (0..space.len())
            .rev()
            .filter(|&i| picks.get(i) == Some(&1))
            .collect();
        let plan = GroupPlan::build(&table, &space).unwrap();
        let (subset, _) = plan.materialize_views(&table, &dq, &dr, &ids, threads).unwrap();
        prop_assert_eq!(subset.len(), ids.len());
        for (got, &i) in subset.iter().zip(&ids) {
            prop_assert_eq!(got, &full[i], "view {}", i);
        }
    }
}
