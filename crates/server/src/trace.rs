//! Server-side request-tracing glue: the thread-local current-trace
//! scope, the [`SessionTracer`] every seeker reports its `core::trace`
//! phases through, and the [`ServerTraceSink`] that fans finished traces
//! out to the tail sampler, the per-stage latency histograms, and (for
//! requests the router never saw) the access log.
//!
//! The split of responsibilities: `viewseeker-net` owns ids, span
//! mechanics, sampling, and export formats; this module owns everything
//! that needs the server's shared state — metrics, logging, and the
//! session tracer. The router enters a [`TraceScope`] per request so
//! handler-layer code (serialization, the session tracer) can reach the
//! active trace without threading it through every signature.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::Duration;

use viewseeker_core::trace::{Recorder, TracePhase, Tracer};
use viewseeker_net::trace::{ActiveTrace, RequestTrace, TraceSink};

use crate::api::AppState;
use crate::log::{n, s, LogLevel};

thread_local! {
    /// The request trace the current thread is handling, if any. Set by
    /// [`enter`] for the duration of a handler call.
    static CURRENT: RefCell<Option<ActiveTrace>> = const { RefCell::new(None) };
}

/// Guard marking `trace` as the thread's current request trace until
/// dropped.
pub struct TraceScope(());

/// Installs `trace` as the thread-local current trace; the returned
/// guard clears it on drop (handler calls never nest on one thread, so
/// plain set/clear suffices).
#[must_use]
pub fn enter(trace: &ActiveTrace) -> TraceScope {
    CURRENT.with(|current| {
        *current.borrow_mut() = Some(trace.clone());
    });
    TraceScope(())
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        CURRENT.with(|current| {
            current.borrow_mut().take();
        });
    }
}

/// The thread's current request trace, if a [`TraceScope`] is active.
#[must_use]
pub fn current() -> Option<ActiveTrace> {
    CURRENT.with(|current| current.borrow().clone())
}

/// The current request id, for stamping log lines emitted anywhere under
/// a handler (the logger appends it automatically).
#[must_use]
pub fn current_id() -> Option<String> {
    current().map(|t| t.id())
}

/// Records the response-body serialization time as a `serialize` span
/// nested under `handler` on the current trace, when one is active.
pub fn record_serialize(duration: Duration) {
    if let Some(trace) = current() {
        trace.record_nested("serialize", duration);
    }
}

/// The one tracer a session's seeker holds for its whole life: every
/// phase span goes to the session's long-lived [`Recorder`] and, while a
/// request scope is active on the calling thread, is also stamped as a
/// span nested under `handler` on that request's trace — so
/// `/debug/traces` shows where inside the handler a slow create, restore,
/// `next`, `feedback` or `recommend` call actually went.
#[derive(Debug)]
pub struct SessionTracer {
    recorder: Arc<Recorder>,
}

impl SessionTracer {
    /// A tracer feeding `recorder`.
    #[must_use]
    pub fn new(recorder: Arc<Recorder>) -> Self {
        Self { recorder }
    }
}

impl Tracer for SessionTracer {
    fn record_span(&self, phase: TracePhase, duration: Duration) {
        self.recorder.record_span(phase, duration);
        if let Some(trace) = current() {
            trace.record_nested(phase.name(), duration);
        }
    }
}

/// The production [`TraceSink`]: feeds the tail sampler behind
/// `GET /debug/traces`, records every span into the
/// `viewseeker_request_stage_seconds` histograms, and emits the access
/// line for requests that never reached the router (admission-control
/// sheds and parse rejections), correlated by `request_id`.
pub struct ServerTraceSink {
    state: Arc<AppState>,
}

impl std::fmt::Debug for ServerTraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerTraceSink").finish_non_exhaustive()
    }
}

impl ServerTraceSink {
    /// A sink recording into `state`'s sampler, metrics, and logger.
    #[must_use]
    pub fn new(state: Arc<AppState>) -> Self {
        Self { state }
    }
}

impl TraceSink for ServerTraceSink {
    fn record(&self, trace: RequestTrace) {
        let route = trace.route_label();
        for span in &trace.spans {
            self.state
                .metrics
                .record_stage(route, span.name, span.dur_us);
        }
        if trace.route.is_empty() {
            // The router never saw this request (shed or rejected during
            // parse), so its access line is emitted here. Routed requests
            // already logged from inside the handler.
            let level = if trace.status >= 500 {
                LogLevel::Warn
            } else {
                LogLevel::Info
            };
            let mut fields = vec![
                ("method", s(&trace.method)),
                ("path", s(&trace.path)),
                ("route", s(route)),
                ("status", n(trace.status.into())),
                ("duration_us", n(trace.total_us)),
                ("request_id", s(&trace.id)),
            ];
            if trace.shed {
                fields.push(("shed", serde::Value::Bool(true)));
            }
            self.state.logger.log(level, "request", &fields);
        }
        self.state.traces.record(trace);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::SessionRegistry;
    use viewseeker_net::trace::Span;

    fn state() -> Arc<AppState> {
        Arc::new(AppState::new(SessionRegistry::new(
            2,
            Duration::from_secs(600),
            None,
        )))
    }

    #[test]
    fn scope_sets_and_clears_the_current_trace() {
        assert!(current().is_none());
        let trace = ActiveTrace::detached("GET", "/x");
        {
            let _scope = enter(&trace);
            assert_eq!(current_id(), Some(trace.id()));
            record_serialize(Duration::from_micros(7));
        }
        assert!(current().is_none());
        record_serialize(Duration::from_micros(9)); // no scope: ignored
        let done = trace.finish();
        assert_eq!(done.spans.len(), 1);
        assert_eq!(done.spans.first().map(|s| s.name), Some("serialize"));
        assert_eq!(done.spans.first().and_then(|s| s.parent), Some("handler"));
    }

    #[test]
    fn session_tracer_feeds_recorder_and_trace() {
        let recorder = Recorder::shared();
        let tracer = SessionTracer::new(Arc::clone(&recorder));
        // Outside a request scope only the recorder sees the span.
        tracer.record_span(TracePhase::Materialization, Duration::from_micros(5));
        let trace = ActiveTrace::detached("GET", "/x");
        {
            let _scope = enter(&trace);
            tracer.record_span(TracePhase::EstimatorFit, Duration::from_micros(40));
        }
        let fit = recorder.phase_total(TracePhase::EstimatorFit);
        assert_eq!((fit.count, fit.total_us), (1, 40));
        assert_eq!(recorder.phase_total(TracePhase::Materialization).count, 1);
        let done = trace.finish();
        assert_eq!(done.spans.len(), 1);
        assert_eq!(done.spans.first().map(|s| s.name), Some("estimator_fit"));
        assert_eq!(done.spans.first().and_then(|s| s.parent), Some("handler"));
    }

    #[test]
    fn sink_records_stages_and_samples_the_trace() {
        let state = state();
        let sink = ServerTraceSink::new(Arc::clone(&state));
        let trace = RequestTrace {
            id: "req-1".into(),
            method: "GET".into(),
            path: "/sessions/s1/next".into(),
            route: "GET /sessions/:id/next",
            status: 200,
            shed: false,
            started: std::time::Instant::now(),
            total_us: 120,
            spans: vec![
                Span {
                    name: "parse",
                    start_us: 0,
                    dur_us: 10,
                    parent: None,
                },
                Span {
                    name: "handler",
                    start_us: 10,
                    dur_us: 100,
                    parent: None,
                },
            ],
        };
        sink.record(trace);
        assert_eq!(state.traces.recorded(), 1);
        let stages = state.metrics.stage_histograms();
        let names: Vec<&str> = stages.iter().map(|(_, stage, _)| stage.as_str()).collect();
        assert_eq!(names, ["handler", "parse"]);
        assert!(stages
            .iter()
            .all(|(route, _, _)| route == "GET /sessions/:id/next"));
    }

    #[test]
    fn sink_logs_unrouted_requests_with_their_id() {
        use crate::log::{LogFormat, Logger};
        use std::io::Write;
        use std::sync::Mutex;

        #[derive(Clone, Default)]
        struct Buffer(Arc<Mutex<Vec<u8>>>);
        impl Write for Buffer {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let buffer = Buffer::default();
        let logger = Arc::new(Logger::to_writer(
            LogFormat::Json,
            LogLevel::Info,
            Box::new(buffer.clone()),
        ));
        let registry = SessionRegistry::new(2, Duration::from_secs(600), None);
        let state = Arc::new(AppState::with_logger(registry, logger));
        let sink = ServerTraceSink::new(Arc::clone(&state));
        sink.record(RequestTrace {
            id: "shed-9".into(),
            method: "GET".into(),
            path: "/sessions".into(),
            route: "",
            status: 503,
            shed: true,
            started: std::time::Instant::now(),
            total_us: 42,
            spans: vec![Span {
                name: "queue_wait",
                start_us: 0,
                dur_us: 42,
                parent: None,
            }],
        });
        let raw = String::from_utf8(buffer.0.lock().unwrap().clone()).unwrap();
        assert!(raw.contains("\"request_id\":\"shed-9\""), "{raw}");
        assert!(raw.contains("\"route\":\"shed\""), "{raw}");
        assert!(raw.contains("\"status\":503"), "{raw}");
        assert!(raw.contains("\"shed\":true"), "{raw}");
    }
}
