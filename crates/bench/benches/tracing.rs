//! Measures what phase tracing costs inside the interactive loop: the
//! default no-op tracer against a recording [`Recorder`]. The no-op path
//! wraps every phase in an `Instant::now()` pair and a dynamic dispatch
//! that does nothing, so it should sit within noise of the pre-tracing
//! iteration numbers; the recording path adds one mutex acquisition and a
//! few additions per phase.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use viewseeker_core::trace::{noop_tracer, Recorder, Tracer};
use viewseeker_core::{ViewSeeker, ViewSeekerConfig};
use viewseeker_dataset::generate::{generate_diab, DiabConfig};
use viewseeker_dataset::{Predicate, SelectQuery};

fn bench_tracing(c: &mut Criterion) {
    let table = generate_diab(&DiabConfig::small(20_000, 3)).unwrap();
    let query = SelectQuery::new(Predicate::eq("a0", "a0_v0"));

    let mut group = c.benchmark_group("tracing_overhead");
    group.sample_size(20);

    type MakeTracer = fn() -> Arc<dyn Tracer>;
    let cases: [(&str, MakeTracer); 2] = [
        ("iteration_noop_tracer", noop_tracer as MakeTracer),
        ("iteration_recording_tracer", || Recorder::shared()),
    ];
    for (name, make_tracer) in cases {
        group.bench_function(name, |b| {
            b.iter_batched(
                || {
                    // A warmed-up session with a few labels, tracing into
                    // the tracer under measurement.
                    let mut s = ViewSeeker::new_traced_with_zones(
                        &table,
                        &query,
                        ViewSeekerConfig::default(),
                        None,
                        make_tracer(),
                    )
                    .unwrap();
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
    }
    group.finish();
}

criterion_group!(benches, bench_tracing);
criterion_main!(benches);
