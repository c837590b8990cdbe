//! Phase-level tracing of the interactive loop.
//!
//! The paper's engineering claim is that α-sampling, incremental refinement,
//! and priority pruning keep every interactive iteration inside a time
//! budget `tl` (§3.3). Verifying that claim — and trusting any later
//! optimization — requires seeing *where* an iteration's time goes. This
//! module provides a dependency-free span API the seeker reports into:
//!
//! * [`TracePhase`] names the eight phases of a session (offline view-space
//!   enumeration, materialization and feature extraction; interactive
//!   pruning, refinement, estimator fits, uncertainty sampling,
//!   recommendation). The phases are disjoint: no phase's span contains
//!   another's, so the spans of one seeker call never add up to more than
//!   the call's wall time.
//! * [`Tracer`] is the reporting trait, with one method: a phase that ran
//!   is reported once, as one span. The default [`NoopTracer`] discards
//!   everything and costs a virtual call per span — nothing else.
//! * [`Recorder`] is a thread-safe implementation that accumulates
//!   cumulative per-phase totals.
//!
//! Durations are recorded in whole microseconds: sub-microsecond phases
//! exist (a no-op refinement check), and µs granularity keeps every counter
//! a `u64` that sums without overflow for centuries of tracing.

use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use serde::{Serialize, Value};

/// The phases of an interactive session, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TracePhase {
    /// Offline: enumerating the candidate views.
    ViewSpaceGen,
    /// Offline: the materialization scan — every candidate view's
    /// target/reference distributions (one fused pass, α-sampled when the
    /// optimization is on).
    Materialization,
    /// Offline: computing the 8-component utility-feature matrix.
    FeatureExtraction,
    /// Interactive: ranking still-rough views by the current utility
    /// estimator to prioritize refinement (the pruning of §3.3 — low-ranked
    /// views may never be refined).
    Pruning,
    /// Interactive: one incremental-refinement batch — rematerializing
    /// high-priority views on the full data and recomputing their features.
    Refinement,
    /// Interactive: refitting the utility and uncertainty estimators (after
    /// a refinement batch or a new label).
    EstimatorFit,
    /// Interactive: selecting the next views to label (uncertainty
    /// sampling, or the cold-start probe).
    UncertaintySampling,
    /// Producing the top-k recommendation.
    Recommend,
}

impl TracePhase {
    /// Every phase, in execution order.
    pub const ALL: [TracePhase; 8] = [
        TracePhase::ViewSpaceGen,
        TracePhase::Materialization,
        TracePhase::FeatureExtraction,
        TracePhase::Pruning,
        TracePhase::Refinement,
        TracePhase::EstimatorFit,
        TracePhase::UncertaintySampling,
        TracePhase::Recommend,
    ];

    /// Stable snake_case name (used in logs, metrics, and JSON payloads).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TracePhase::ViewSpaceGen => "view_space_gen",
            TracePhase::Materialization => "materialization",
            TracePhase::FeatureExtraction => "feature_extraction",
            TracePhase::Pruning => "pruning",
            TracePhase::Refinement => "refinement",
            TracePhase::EstimatorFit => "estimator_fit",
            TracePhase::UncertaintySampling => "uncertainty_sampling",
            TracePhase::Recommend => "recommend",
        }
    }

    fn index(self) -> usize {
        match self {
            TracePhase::ViewSpaceGen => 0,
            TracePhase::Materialization => 1,
            TracePhase::FeatureExtraction => 2,
            TracePhase::Pruning => 3,
            TracePhase::Refinement => 4,
            TracePhase::EstimatorFit => 5,
            TracePhase::UncertaintySampling => 6,
            TracePhase::Recommend => 7,
        }
    }
}

impl Serialize for TracePhase {
    fn to_value(&self) -> Value {
        Value::String(self.name().to_owned())
    }
}

/// Cumulative statistics for one phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct PhaseTotal {
    /// Spans recorded.
    pub count: u64,
    /// Total microseconds across those spans.
    pub total_us: u64,
}

/// The reporting sink the seeker emits phase spans into.
///
/// Implementations must be cheap when disabled — the seeker calls this on
/// every interactive turn — and thread-safe, since an owned seeker may be
/// driven from a server worker pool while another thread reads the trace.
pub trait Tracer: Send + Sync + std::fmt::Debug {
    /// Records one timed span of `phase`.
    fn record_span(&self, phase: TracePhase, duration: Duration);
}

/// The default tracer: discards everything.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopTracer;

impl Tracer for NoopTracer {
    fn record_span(&self, _phase: TracePhase, _duration: Duration) {}
}

/// A no-op tracer handle (the default for every seeker).
#[must_use]
pub fn noop_tracer() -> Arc<dyn Tracer> {
    Arc::new(NoopTracer)
}

/// A thread-safe [`Tracer`] that accumulates per-phase totals.
///
/// All accessors recover from a poisoned lock (a panicking recording thread
/// must not take observability down with it; the counters it held are at
/// worst one span behind).
#[derive(Debug, Default)]
pub struct Recorder {
    totals: Mutex<[PhaseTotal; TracePhase::ALL.len()]>,
}

impl Recorder {
    /// An empty recorder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh recorder behind the `Arc<dyn Tracer>`-shaped handle the
    /// seeker takes, plus a concrete handle for reading it back.
    #[must_use]
    pub fn shared() -> Arc<Recorder> {
        Arc::new(Self::new())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, [PhaseTotal; TracePhase::ALL.len()]> {
        self.totals.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Cumulative `(phase, stats)` pairs, in phase execution order.
    #[must_use]
    pub fn phase_totals(&self) -> Vec<(TracePhase, PhaseTotal)> {
        let totals = self.lock();
        TracePhase::ALL
            .iter()
            .map(|&p| (p, totals.get(p.index()).copied().unwrap_or_default()))
            .collect()
    }

    /// Cumulative stats for one phase.
    #[must_use]
    pub fn phase_total(&self, phase: TracePhase) -> PhaseTotal {
        self.lock().get(phase.index()).copied().unwrap_or_default()
    }
}

impl Tracer for Recorder {
    fn record_span(&self, phase: TracePhase, duration: Duration) {
        let mut totals = self.lock();
        let t = &mut totals[phase.index()];
        t.count += 1;
        t.total_us += duration_us(duration);
    }
}

/// Converts a [`Duration`] to whole microseconds, saturating.
#[must_use]
pub fn duration_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// A started wall-clock timer — the single sanctioned `Instant::now` site
/// in the determinism-critical crates (vslint rule `wall-clock`).
///
/// Timing reads feed only observability — trace spans, refinement time
/// budgets — never the recommendation math itself, so
/// confining the clock to this one type keeps the audit surface to one
/// file: everything else says *what* it is timing, not *how* time is
/// read.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: std::time::Instant,
}

impl Stopwatch {
    /// Starts timing now.
    #[must_use]
    pub fn start() -> Self {
        Stopwatch {
            started: std::time::Instant::now(),
        }
    }

    /// Time elapsed since [`Stopwatch::start`].
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Elapsed whole microseconds, saturating.
    #[must_use]
    pub fn elapsed_us(&self) -> u64 {
        duration_us(self.elapsed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_accumulates_spans() {
        let r = Recorder::new();
        r.record_span(TracePhase::ViewSpaceGen, Duration::from_micros(500));
        r.record_span(TracePhase::ViewSpaceGen, Duration::from_micros(250));
        r.record_span(TracePhase::FeatureExtraction, Duration::from_micros(40));

        let gen = r.phase_total(TracePhase::ViewSpaceGen);
        assert_eq!((gen.count, gen.total_us), (2, 750));
        let totals = r.phase_totals();
        assert_eq!(totals.len(), TracePhase::ALL.len());
        assert_eq!(
            totals[2],
            (
                TracePhase::FeatureExtraction,
                PhaseTotal {
                    count: 1,
                    total_us: 40
                }
            )
        );
        assert_eq!(r.phase_total(TracePhase::Refinement), PhaseTotal::default());
    }

    #[test]
    fn recorder_survives_a_poisoned_lock() {
        let r = std::sync::Arc::new(Recorder::new());
        let r2 = std::sync::Arc::clone(&r);
        let _ = std::thread::spawn(move || {
            let _guard = r2.totals.lock().unwrap();
            panic!("poison the recorder lock");
        })
        .join();
        // All paths still work after the panic above poisoned the mutex.
        r.record_span(TracePhase::Recommend, Duration::from_micros(9));
        assert_eq!(r.phase_total(TracePhase::Recommend).total_us, 9);
        assert_eq!(r.phase_totals().len(), TracePhase::ALL.len());
    }

    #[test]
    fn concurrent_recording_is_consistent() {
        let r = std::sync::Arc::new(Recorder::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let r = std::sync::Arc::clone(&r);
                s.spawn(move || {
                    for _ in 0..100 {
                        r.record_span(TracePhase::EstimatorFit, Duration::from_micros(2));
                        r.record_span(TracePhase::Pruning, Duration::from_micros(1));
                    }
                });
            }
        });
        let fit = r.phase_total(TracePhase::EstimatorFit);
        assert_eq!((fit.count, fit.total_us), (400, 800));
        let pruning = r.phase_total(TracePhase::Pruning);
        assert_eq!((pruning.count, pruning.total_us), (400, 400));
    }

    #[test]
    fn serialization_shapes() {
        let v = serde_json::to_string(&TracePhase::UncertaintySampling).unwrap();
        assert_eq!(v, "\"uncertainty_sampling\"");
        let t = serde_json::to_string(&PhaseTotal {
            count: 3,
            total_us: 17,
        })
        .unwrap();
        assert!(t.contains("\"count\":3"), "{t}");
        assert!(t.contains("\"total_us\":17"), "{t}");
    }

    #[test]
    fn noop_tracer_does_nothing() {
        let t = noop_tracer();
        t.record_span(TracePhase::Pruning, Duration::from_secs(1));
    }

    #[test]
    fn duration_us_saturates() {
        assert_eq!(duration_us(Duration::from_micros(17)), 17);
        assert_eq!(duration_us(Duration::MAX), u64::MAX);
    }
}
