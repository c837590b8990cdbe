//! Benchmarks one end-to-end interactive iteration — the paper's sub-second
//! (`tl` ≤ 1 s) responsiveness claim. An iteration is: run the refinement
//! budget, select the next view by uncertainty, record the feedback, refit
//! both estimators, and produce the top-k recommendation.
//!
//! `refine_to_exact` times the refinement layer on its own terms: an α = 0.1
//! session with the default 200 ms `tl`, driven turn by turn (one label
//! each) until no view holds rough features.
//!
//! ```sh
//! cargo bench --bench iteration
//! ```

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use viewseeker_core::{RefineBudget, ViewSeeker, ViewSeekerConfig};
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

    let sampled = ViewSeekerConfig {
        alpha: 0.1,
        refine_budget: RefineBudget::Time(Duration::from_millis(200)),
        ..ViewSeekerConfig::default()
    };
    group.bench_function("refine_to_exact", |b| {
        b.iter_batched(
            || ViewSeeker::new(&table, &query, sampled.clone()).unwrap(),
            |mut s| {
                while s.pending_refinements() > 0 {
                    if let Some(&v) = s.next_views(1).unwrap().first() {
                        let score = if s.label_count() % 2 == 0 { 0.9 } else { 0.1 };
                        s.submit_feedback(v, score).unwrap();
                    }
                }
                s.iteration_count()
            },
            criterion::BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_iteration);
criterion_main!(benches);
