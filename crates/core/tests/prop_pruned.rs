//! Differential property tests for the zone-pruned fused executor.
//!
//! [`materialize_all_fused_pruned`] evaluates the `DQ` predicate through
//! the table's zone maps, skipping row groups the zones provably exclude.
//! Pruning is an optimization, never a semantic: against the naive oracle
//! (plain `Predicate::evaluate` + [`materialize_all`]) the pruned path
//! must produce the **same `DQ` row set** and — on exactly-representable
//! measure values, where f64 addition cannot round — **bit-identical
//! views**, for every row-group size and every thread count. The scan
//! statistics must also account for every row group exactly once
//! (`scanned + pruned = groups`), so the server's pruning-rate metrics
//! can be trusted.

use proptest::prelude::*;
use viewseeker_core::viewgen::{materialize_all, materialize_all_fused_pruned};
use viewseeker_core::ViewSpace;
use viewseeker_dataset::{Column, Predicate, Schema, Table, ZoneMaps};

/// A random table with one categorical dimension, one numeric dimension,
/// and one measure whose values are integer-valued f64s (exact under
/// accumulation, so oracle comparisons are bit-level).
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
/// or full row set depending on the data, and the `c`/`n_d` variants are
/// exactly the shapes zone maps can prune on.
fn arb_predicate() -> impl Strategy<Value = Predicate> {
    (0usize..5, -50.0f64..50.0).prop_map(|(choice, lo)| match choice {
        0 => Predicate::True,
        1 => Predicate::eq("c", "x"),
        2 => Predicate::eq("c", "y"),
        3 => Predicate::range("n_d", lo, lo + 40.0),
        _ => Predicate::Not(Box::new(Predicate::eq("c", "z"))),
    })
}

/// The pruned path against the naive oracle, across row-group sizes and
/// thread counts.
fn check_pruned_matches_naive_oracle(table: &Table, predicate: &Predicate, group_rows: usize) {
    let dq = predicate.evaluate(table).unwrap();
    let dr = table.all_rows();
    let space = ViewSpace::enumerate(table, &[2, 3]).unwrap();
    let naive = materialize_all(table, &dq, &dr, &space).unwrap();
    let zones = ZoneMaps::build(table, group_rows);
    let n_groups = zones.groups.len() as u64;
    for threads in [1usize, 2, 8] {
        let (views, pruned_dq, stats, _retained) =
            materialize_all_fused_pruned(table, &zones, predicate, &space, threads).unwrap();
        assert_eq!(
            pruned_dq.ids(),
            dq.ids(),
            "zone-pruned DQ evaluation diverged (threads={threads}, group_rows={group_rows})"
        );
        assert_eq!(
            naive, views,
            "pruned views diverged from the naive oracle (threads={threads}, group_rows={group_rows})"
        );
        assert_eq!(
            stats.rowgroups_scanned + stats.rowgroups_pruned,
            n_groups,
            "scan stats lost a row group (threads={threads}, group_rows={group_rows})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pruned_executor_matches_naive_oracle_at_every_thread_count(
        table in arb_exact_table(),
        predicate in arb_predicate(),
        group_rows in 1usize..700,
    ) {
        check_pruned_matches_naive_oracle(&table, &predicate, group_rows);
    }
}

/// On data sorted by the predicate column, a selective range predicate
/// must actually skip row groups — the stats are not allowed to claim a
/// full scan. (Random data cannot guarantee pruning; sorted data can.)
#[test]
fn selective_predicate_on_sorted_data_prunes_rowgroups() {
    let n = 4096;
    let cats = (0..n).map(|i| (i % 3) as u32).collect();
    let dims: Vec<f64> = (0..n).map(|i| i as f64).collect(); // sorted
    let measures = (0..n).map(|i| f64::from(i % 17)).collect();
    let table = build_table(cats, dims, measures);
    let zones = ZoneMaps::build(&table, 256);
    let predicate = Predicate::range("n_d", 0.0, 500.0);
    let space = ViewSpace::enumerate(&table, &[2, 3]).unwrap();
    let (_, dq, stats, _) =
        materialize_all_fused_pruned(&table, &zones, &predicate, &space, 2).unwrap();
    assert_eq!(dq.ids(), predicate.evaluate(&table).unwrap().ids());
    assert!(
        stats.rowgroups_pruned > 0,
        "sorted data with a selective range predicate must prune: {stats:?}"
    );
    assert!(stats.rowgroups_scanned < zones.groups.len() as u64);
}
