//! Phase-level tracing of the interactive loop.
//!
//! The paper's engineering claim is that α-sampling, incremental refinement,
//! and priority pruning keep every interactive iteration inside a time
//! budget `tl` (§3.3). Verifying that claim — and trusting any later
//! optimization — requires seeing *where* an iteration's time goes. This
//! module provides a dependency-free span API the seeker reports into:
//!
//! * [`TracePhase`] names the phases of a session (offline view-space
//!   generation and feature extraction; interactive pruning, refinement,
//!   estimator fits, uncertainty sampling, recommendation).
//! * [`Tracer`] is the reporting trait. The default [`NoopTracer`] discards
//!   everything and costs a virtual call per span — nothing else.
//! * [`Recorder`] is a thread-safe implementation that accumulates
//!   cumulative per-phase totals plus a bounded window of recent
//!   [`IterationTrace`]s, one per `next_views` call, each breaking the
//!   iteration's wall time into its phases and reporting the
//!   incremental-refinement batch against its configured budget.
//!
//! Durations are recorded in whole microseconds: sub-microsecond phases
//! exist (a no-op refinement check), and µs granularity keeps every counter
//! a `u64` that sums without overflow for centuries of tracing.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use serde::{Number, Serialize, Value};

/// The phases of an interactive session, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TracePhase {
    /// Offline: view-space enumeration plus materializing every candidate
    /// view's target/reference distributions (shared-scan, α-sampled).
    ViewSpaceGen,
    /// Offline: the materialization scan itself — a sub-span of
    /// [`TracePhase::ViewSpaceGen`], isolated so the scan's cost can be
    /// read apart from view-space enumeration in the phase totals.
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

/// The incremental-refinement batch of one iteration, reported against its
/// configured budget (the paper's `tl`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefinementBudgetReport {
    /// A deterministic per-iteration view-count budget.
    Views {
        /// Maximum views the batch was allowed to refine.
        budget: usize,
        /// Views actually refined.
        refined: usize,
    },
    /// A wall-clock budget (the paper's actual mechanism).
    Time {
        /// The configured allowance, microseconds.
        budget_us: u64,
        /// Wall time the batch actually took, microseconds. May exceed
        /// `budget_us` by up to one view's refinement cost: the budget is
        /// checked between views, never mid-view.
        actual_us: u64,
    },
}

impl Serialize for RefinementBudgetReport {
    fn to_value(&self) -> Value {
        let fields = match self {
            RefinementBudgetReport::Views { budget, refined } => vec![
                ("kind".to_owned(), Value::String("views".to_owned())),
                (
                    "budget".to_owned(),
                    Value::Number(Number::PosInt(*budget as u64)),
                ),
                (
                    "refined".to_owned(),
                    Value::Number(Number::PosInt(*refined as u64)),
                ),
            ],
            RefinementBudgetReport::Time {
                budget_us,
                actual_us,
            } => vec![
                ("kind".to_owned(), Value::String("time".to_owned())),
                (
                    "budget_us".to_owned(),
                    Value::Number(Number::PosInt(*budget_us)),
                ),
                (
                    "actual_us".to_owned(),
                    Value::Number(Number::PosInt(*actual_us)),
                ),
            ],
        };
        Value::Object(fields)
    }
}

/// The phase breakdown of one interactive iteration (one `next_views`
/// call). The four phase fields sum to within instrumentation overhead —
/// a few `Instant::now` calls — of `total_us`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct IterationTrace {
    /// 1-based iteration number within the session.
    pub iteration: u64,
    /// µs ranking rough views to prioritize refinement (pruning).
    pub pruning_us: u64,
    /// µs rematerializing views and recomputing their features.
    pub refinement_us: u64,
    /// µs refitting the estimators after the refinement batch.
    pub estimator_fit_us: u64,
    /// µs selecting the next views to label.
    pub sampling_us: u64,
    /// Total wall µs of the `next_views` call.
    pub total_us: u64,
    /// Views refined by this iteration's batch.
    pub views_refined: usize,
    /// Views still holding rough features after the batch.
    pub pending_after: usize,
    /// The refinement budget-vs-actual, when the α-sampling optimization is
    /// active and refinement is still incomplete.
    pub budget: Option<RefinementBudgetReport>,
}

impl IterationTrace {
    /// Sum of the per-phase durations (everything except inter-phase
    /// instrumentation overhead).
    #[must_use]
    pub fn phase_sum_us(&self) -> u64 {
        self.pruning_us + self.refinement_us + self.estimator_fit_us + self.sampling_us
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

/// The reporting sink the seeker emits spans and iteration traces into.
///
/// Implementations must be cheap when disabled — the seeker calls these on
/// every interactive turn — and thread-safe, since an owned seeker may be
/// driven from a server worker pool while another thread reads the trace.
pub trait Tracer: Send + Sync + std::fmt::Debug {
    /// Records one timed span of `phase`.
    fn record_span(&self, phase: TracePhase, duration: Duration);

    /// Records one complete interactive iteration.
    fn record_iteration(&self, trace: IterationTrace);
}

/// The default tracer: discards everything.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopTracer;

impl Tracer for NoopTracer {
    fn record_span(&self, _phase: TracePhase, _duration: Duration) {}
    fn record_iteration(&self, _trace: IterationTrace) {}
}

/// A no-op tracer handle (the default for every seeker).
#[must_use]
pub fn noop_tracer() -> Arc<dyn Tracer> {
    Arc::new(NoopTracer)
}

/// Recent iterations retained by a [`Recorder`]; older traces roll off but
/// stay counted in the cumulative per-phase totals.
pub const RETAINED_ITERATIONS: usize = 128;

#[derive(Debug, Default)]
struct RecorderInner {
    totals: [PhaseTotal; TracePhase::ALL.len()],
    iterations: VecDeque<IterationTrace>,
    iteration_count: u64,
}

/// A thread-safe [`Tracer`] that accumulates per-phase totals and keeps the
/// most recent [`RETAINED_ITERATIONS`] iteration breakdowns.
///
/// All accessors recover from a poisoned lock (a panicking recording thread
/// must not take observability down with it; the counters it held are at
/// worst one span behind).
#[derive(Debug, Default)]
pub struct Recorder {
    inner: Mutex<RecorderInner>,
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

    fn lock(&self) -> std::sync::MutexGuard<'_, RecorderInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Cumulative `(phase, stats)` pairs, in phase execution order.
    #[must_use]
    pub fn phase_totals(&self) -> Vec<(TracePhase, PhaseTotal)> {
        let inner = self.lock();
        TracePhase::ALL
            .iter()
            .map(|&p| (p, inner.totals.get(p.index()).copied().unwrap_or_default()))
            .collect()
    }

    /// Cumulative stats for one phase.
    #[must_use]
    pub fn phase_total(&self, phase: TracePhase) -> PhaseTotal {
        self.lock()
            .totals
            .get(phase.index())
            .copied()
            .unwrap_or_default()
    }

    /// The retained recent iterations, oldest first.
    #[must_use]
    pub fn iterations(&self) -> Vec<IterationTrace> {
        self.lock().iterations.iter().cloned().collect()
    }

    /// The most recent iteration, if any.
    #[must_use]
    pub fn last_iteration(&self) -> Option<IterationTrace> {
        self.lock().iterations.back().cloned()
    }

    /// Total iterations recorded (including ones that rolled off).
    #[must_use]
    pub fn iteration_count(&self) -> u64 {
        self.lock().iteration_count
    }
}

impl Tracer for Recorder {
    fn record_span(&self, phase: TracePhase, duration: Duration) {
        let mut inner = self.lock();
        let t = &mut inner.totals[phase.index()];
        t.count += 1;
        t.total_us += duration_us(duration);
    }

    fn record_iteration(&self, trace: IterationTrace) {
        let mut inner = self.lock();
        inner.iteration_count += 1;
        for (phase, us) in [
            (TracePhase::Pruning, trace.pruning_us),
            (TracePhase::Refinement, trace.refinement_us),
            (TracePhase::EstimatorFit, trace.estimator_fit_us),
            (TracePhase::UncertaintySampling, trace.sampling_us),
        ] {
            let t = &mut inner.totals[phase.index()];
            t.count += 1;
            t.total_us += us;
        }
        if inner.iterations.len() >= RETAINED_ITERATIONS {
            inner.iterations.pop_front();
        }
        inner.iterations.push_back(trace);
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
/// Timing reads feed only observability — trace spans, iteration reports,
/// refinement time budgets — never the recommendation math itself, so
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

    fn iteration(n: u64, pruning: u64, refinement: u64, fit: u64, sampling: u64) -> IterationTrace {
        IterationTrace {
            iteration: n,
            pruning_us: pruning,
            refinement_us: refinement,
            estimator_fit_us: fit,
            sampling_us: sampling,
            total_us: pruning + refinement + fit + sampling + 1,
            views_refined: 3,
            pending_after: 7,
            budget: Some(RefinementBudgetReport::Views {
                budget: 5,
                refined: 3,
            }),
        }
    }

    #[test]
    fn recorder_accumulates_spans_and_iterations() {
        let r = Recorder::new();
        r.record_span(TracePhase::ViewSpaceGen, Duration::from_micros(500));
        r.record_span(TracePhase::ViewSpaceGen, Duration::from_micros(250));
        r.record_span(TracePhase::FeatureExtraction, Duration::from_micros(40));
        r.record_iteration(iteration(1, 10, 100, 5, 20));
        r.record_iteration(iteration(2, 12, 90, 6, 25));

        let gen = r.phase_total(TracePhase::ViewSpaceGen);
        assert_eq!((gen.count, gen.total_us), (2, 750));
        let refine = r.phase_total(TracePhase::Refinement);
        assert_eq!((refine.count, refine.total_us), (2, 190));
        assert_eq!(r.iteration_count(), 2);
        assert_eq!(r.iterations().len(), 2);
        assert_eq!(r.last_iteration().unwrap().iteration, 2);
        assert_eq!(r.last_iteration().unwrap().phase_sum_us(), 12 + 90 + 6 + 25);
    }

    #[test]
    fn iteration_window_is_bounded_but_totals_are_not() {
        let r = Recorder::new();
        for n in 0..(RETAINED_ITERATIONS as u64 + 10) {
            r.record_iteration(iteration(n + 1, 1, 1, 1, 1));
        }
        assert_eq!(r.iterations().len(), RETAINED_ITERATIONS);
        assert_eq!(r.iteration_count(), RETAINED_ITERATIONS as u64 + 10);
        // Oldest retained trace is #11, not #1.
        assert_eq!(r.iterations()[0].iteration, 11);
        let pruning = r.phase_total(TracePhase::Pruning);
        assert_eq!(pruning.total_us, RETAINED_ITERATIONS as u64 + 10);
    }

    #[test]
    fn recorder_survives_a_poisoned_lock() {
        let r = std::sync::Arc::new(Recorder::new());
        let r2 = std::sync::Arc::clone(&r);
        let _ = std::thread::spawn(move || {
            let _guard = r2.inner.lock().unwrap();
            panic!("poison the recorder lock");
        })
        .join();
        // All paths still work after the panic above poisoned the mutex.
        r.record_span(TracePhase::Recommend, Duration::from_micros(9));
        r.record_iteration(iteration(1, 1, 2, 3, 4));
        assert_eq!(r.phase_total(TracePhase::Recommend).total_us, 9);
        assert_eq!(r.iteration_count(), 1);
    }

    #[test]
    fn concurrent_recording_is_consistent() {
        let r = std::sync::Arc::new(Recorder::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let r = std::sync::Arc::clone(&r);
                s.spawn(move || {
                    for n in 0..100 {
                        r.record_span(TracePhase::EstimatorFit, Duration::from_micros(2));
                        r.record_iteration(iteration(n, 1, 1, 1, 1));
                    }
                });
            }
        });
        assert_eq!(r.iteration_count(), 400);
        let fit = r.phase_total(TracePhase::EstimatorFit);
        // 400 direct spans (2 µs) + 400 iteration contributions (1 µs).
        assert_eq!(fit.count, 800);
        assert_eq!(fit.total_us, 400 * 2 + 400);
    }

    #[test]
    fn serialization_shapes() {
        let v = serde_json::to_string(&TracePhase::UncertaintySampling).unwrap();
        assert_eq!(v, "\"uncertainty_sampling\"");
        let b = serde_json::to_string(&RefinementBudgetReport::Time {
            budget_us: 1_000_000,
            actual_us: 950_000,
        })
        .unwrap();
        assert!(b.contains("\"kind\":\"time\""), "{b}");
        assert!(b.contains("\"budget_us\":1000000"), "{b}");
        let t = serde_json::to_string(&iteration(3, 1, 2, 3, 4)).unwrap();
        assert!(t.contains("\"iteration\":3"), "{t}");
        assert!(t.contains("\"budget\":{\"kind\":\"views\""), "{t}");
    }

    #[test]
    fn noop_tracer_does_nothing() {
        let t = noop_tracer();
        t.record_span(TracePhase::Pruning, Duration::from_secs(1));
        t.record_iteration(iteration(1, 1, 1, 1, 1));
    }

    #[test]
    fn duration_us_saturates() {
        assert_eq!(duration_us(Duration::from_micros(17)), 17);
        assert_eq!(duration_us(Duration::MAX), u64::MAX);
    }
}
