//! Microbenchmarks of the group-by aggregation executor — the cost of
//! materializing one view, which the α-sampling optimization amortizes —
//! and of whole-view-space materialization: the view-at-a-time reference
//! against the fused single-scan executor.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use viewseeker_core::viewgen::{materialize_all, materialize_all_fused};
use viewseeker_core::ViewSpace;
use viewseeker_dataset::aggregate::{group_by_aggregate, within_bin_dispersion};
use viewseeker_dataset::generate::{generate_diab, DiabConfig};
use viewseeker_dataset::{AggregateFunction, BinSpec, Predicate, SelectQuery};

fn bench_groupby(c: &mut Criterion) {
    let mut group = c.benchmark_group("groupby");
    for rows in [10_000usize, 100_000] {
        let table = generate_diab(&DiabConfig::small(rows, 1)).unwrap();
        let all = table.all_rows();
        let spec = BinSpec::categorical_of(table.column_by_name("a6").unwrap()).unwrap();
        group.throughput(Throughput::Elements(rows as u64));
        group.bench_with_input(BenchmarkId::new("avg", rows), &rows, |b, _| {
            b.iter(|| {
                group_by_aggregate(&table, &all, "a6", &spec, "m0", AggregateFunction::Avg).unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("dispersion", rows), &rows, |b, _| {
            b.iter(|| within_bin_dispersion(&table, &all, "a6", &spec, "m0").unwrap())
        });
    }
    group.finish();
}

/// Full view-space materialization (the offline phase), at the paper's
/// default bin configs, on the DIAB generator. This is the headline
/// comparison: fused does one pass over the data for *all* views, the
/// reference does three passes per view.
fn bench_materialize(c: &mut Criterion) {
    let mut group = c.benchmark_group("materialize_all");
    group.sample_size(10);
    for rows in [10_000usize, 100_000] {
        let table = generate_diab(&DiabConfig::small(rows, 1)).unwrap();
        let query = SelectQuery::new(Predicate::eq("a0", "a0_v0"));
        let dq = query.execute(&table).unwrap();
        let dr = table.all_rows();
        let space = ViewSpace::enumerate(&table, &[3, 4]).unwrap();
        group.throughput(Throughput::Elements(rows as u64));
        group.bench_with_input(BenchmarkId::new("naive", rows), &rows, |b, _| {
            b.iter(|| materialize_all(&table, &dq, &dr, &space).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("fused", rows), &rows, |b, _| {
            b.iter(|| materialize_all_fused(&table, &dq, &dr, &space, 4).unwrap())
        });
        // Thread-scaling sweep for the fused executor only (the grid is
        // fixed by the data, so these all produce bit-identical output).
        for threads in [1usize, 2, 8] {
            group.bench_with_input(
                BenchmarkId::new(format!("fused_t{threads}"), rows),
                &rows,
                |b, _| b.iter(|| materialize_all_fused(&table, &dq, &dr, &space, threads).unwrap()),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_groupby, bench_materialize);
criterion_main!(benches);
