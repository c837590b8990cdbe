//! Benchmarks one end-to-end interactive iteration — the paper's sub-second
//! (`tl` ≤ 1 s) responsiveness claim. An iteration is: run the refinement
//! budget, select the next view by uncertainty, record the feedback, refit
//! both estimators, and produce the top-k recommendation.

use criterion::{criterion_group, criterion_main, Criterion};
use viewseeker_core::{ViewSeeker, ViewSeekerConfig};
use viewseeker_dataset::generate::{generate_diab, DiabConfig};
use viewseeker_dataset::{Predicate, SelectQuery};

fn bench_iteration(c: &mut Criterion) {
    let table = generate_diab(&DiabConfig::small(20_000, 3)).unwrap();
    let query = SelectQuery::new(Predicate::eq("a0", "a0_v0"));

    let mut group = c.benchmark_group("interactive_iteration");
    group.sample_size(20);

    group.bench_function("offline_init_full", |b| {
        b.iter(|| ViewSeeker::new(&table, &query, ViewSeekerConfig::default()).unwrap())
    });

    group.bench_function("select_label_refit_recommend", |b| {
        b.iter_batched(
            || {
                // A warmed-up session with a few labels already collected.
                let mut s = ViewSeeker::new(&table, &query, ViewSeekerConfig::default()).unwrap();
                for i in 0..6 {
                    let v = s.next_views(1).unwrap()[0];
                    s.submit_feedback(v, if i % 2 == 0 { 0.9 } else { 0.1 })
                        .unwrap();
                }
                s
            },
            |mut s| {
                let v = s.next_views(1).unwrap()[0];
                s.submit_feedback(v, 0.6).unwrap();
                s.recommend(10).unwrap()
            },
            criterion::BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_iteration);
criterion_main!(benches);
