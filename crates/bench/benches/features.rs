//! Benchmarks the offline initialization phase: materializing the full view
//! space and computing the 8-feature matrix — exactly the work the
//! α-sampling optimization targets: the view-at-a-time reference, and the
//! fused executor serial vs parallel.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use viewseeker_core::viewgen::{materialize_all, materialize_all_fused};
use viewseeker_core::{FeatureMatrix, ViewSpace};
use viewseeker_dataset::generate::{generate_diab, DiabConfig};
use viewseeker_dataset::sample::bernoulli_sample;

fn bench_offline_phase(c: &mut Criterion) {
    let table = generate_diab(&DiabConfig::small(20_000, 1)).unwrap();
    let space = ViewSpace::enumerate(&table, &[3, 4]).unwrap();
    let dr = table.all_rows();
    let dq = bernoulli_sample(&dr, 0.02, 9);

    let mut group = c.benchmark_group("offline_init");
    group.sample_size(10);
    group.bench_function("materialize_280_views_reference", |b| {
        b.iter(|| materialize_all(&table, &dq, &dr, &space).unwrap())
    });
    for threads in [1usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("materialize_280_views", threads),
            &threads,
            |b, &threads| {
                b.iter(|| materialize_all_fused(&table, &dq, &dr, &space, threads).unwrap())
            },
        );
    }

    // α-sampling: the rough pass the optimization substitutes.
    let alpha_dq = bernoulli_sample(&dq, 0.1, 1);
    let alpha_dr = bernoulli_sample(&dr, 0.1, 2);
    group.bench_function("materialize_280_views_alpha10", |b| {
        b.iter(|| materialize_all_fused(&table, &alpha_dq, &alpha_dr, &space, 1).unwrap())
    });

    let views = materialize_all_fused(&table, &dq, &dr, &space, 1).unwrap();
    group.bench_function("feature_matrix_from_views", |b| {
        b.iter(|| FeatureMatrix::from_views(&views, 8.0).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_offline_phase);
criterion_main!(benches);
