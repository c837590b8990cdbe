//! Per-request tracing: ids, span trees, tail sampling, and exports.
//!
//! Every request travelling through the reactor carries an
//! [`ActiveTrace`]: a cheap cloneable handle the I/O layer and the
//! request handler both stamp stage spans into — parse, admission-queue wait, dispatch, handler
//! (with the seeker's `core::trace` phases nested inside), serialize,
//! and buffered write/flush. When the response's last byte reaches the
//! socket the trace is finalized into a [`RequestTrace`] and handed to a
//! [`TraceSink`].
//!
//! The production sink chain ends in a [`TraceSampler`]: a lock-light
//! *tail* sampler that decides which traces to keep only after seeing
//! how a request ended — the slowest within a rolling window, plus every
//! errored and shed request (bounded). A relaxed atomic latency floor
//! lets the overwhelming majority of fast, healthy requests return
//! without touching the mutex, which is what keeps tracing affordable at
//! thousands of connections.
//!
//! Retained traces export two ways, both consumed by
//! `GET /debug/traces`:
//!
//! * [`chrome_trace_json`] — Chrome trace-event JSON, loadable in
//!   `chrome://tracing` or Perfetto; each request is a row of `ph: "X"`
//!   complete events on its own `tid`.
//! * [`folded_stacks`] — collapsed `route;stage` lines for flamegraph
//!   tooling, aggregated across the retained set.
//!
//! Stage names live in the [`SPANS`] registry, mirroring the Prometheus
//! `SERIES` table in `viewseeker-server`: the `span-registry` vslint rule
//! checks each name is defined exactly once, actually emitted, and
//! documented in DESIGN.md and README.md.

use std::sync::atomic::{AtomicBool, AtomicU16, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// One pipeline stage a request can spend time in.
#[derive(Debug, Clone, Copy)]
pub struct SpanDef {
    /// Stable stage name, used in traces, logs, and metric labels.
    pub name: &'static str,
    /// What the stage covers.
    pub help: &'static str,
}

/// Registry of every request-pipeline stage name. The vslint
/// `span-registry` rule enforces that each name is defined once here,
/// emitted by non-test code, and documented in DESIGN.md and README.md.
/// (The seeker's `core::trace` phase names appear *nested* under
/// `handler` and are governed by `TracePhase`, not this table.)
pub static SPANS: [SpanDef; 6] = [
    SpanDef {
        name: "parse",
        help: "first byte of the request on the wire until it parses",
    },
    SpanDef {
        name: "queue_wait",
        help: "time parked in the admission queue awaiting a worker slot",
    },
    SpanDef {
        name: "dispatch",
        help: "dequeue until a worker thread picks the job up",
    },
    SpanDef {
        name: "handler",
        help: "the request handler itself (seeker phases nest inside)",
    },
    SpanDef {
        name: "serialize",
        help: "rendering the response body to JSON",
    },
    SpanDef {
        name: "write",
        help: "handler completion until the last response byte is flushed",
    },
];

/// Longest accepted client-supplied `X-Request-Id`.
pub const MAX_REQUEST_ID_LEN: usize = 64;

/// One timed stage within a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Stage name from [`SPANS`] (or a nested `core::trace` phase name).
    pub name: &'static str,
    /// Microseconds from the trace start to this span's start.
    pub start_us: u64,
    /// Span duration, microseconds.
    pub dur_us: u64,
    /// Enclosing stage, for nested spans (`Some("handler")` for seeker
    /// phases and serialization); `None` for top-level pipeline stages.
    pub parent: Option<&'static str>,
}

/// A finished request trace: the span tree plus identity and outcome.
#[derive(Debug, Clone)]
pub struct RequestTrace {
    /// Request id (honored from `X-Request-Id` or generated).
    pub id: String,
    /// Request method.
    pub method: String,
    /// Request path.
    pub path: String,
    /// Route label the server resolved, `""` when the request never
    /// reached a handler (shed, or rejected during parse).
    pub route: &'static str,
    /// Response status.
    pub status: u16,
    /// Whether admission control shed the request.
    pub shed: bool,
    /// When the request's first byte arrived (aligns traces on a shared
    /// timeline at export).
    pub started: Instant,
    /// First byte in to last byte flushed, microseconds.
    pub total_us: u64,
    /// The recorded spans, in completion order.
    pub spans: Vec<Span>,
}

impl RequestTrace {
    /// Sum of the top-level stage durations. Within instrumentation
    /// overhead (a handful of `Instant::now` reads and channel hops) of
    /// [`RequestTrace::total_us`].
    #[must_use]
    pub fn stage_sum_us(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.dur_us)
            .fold(0u64, u64::saturating_add)
    }

    /// The route label for metrics/logs: the resolved route, or a
    /// synthetic bucket for requests that never reached a handler.
    #[must_use]
    pub fn route_label(&self) -> &'static str {
        if !self.route.is_empty() {
            self.route
        } else if self.shed {
            "shed"
        } else {
            "rejected"
        }
    }
}

/// One top-level stage slot. `seq` is 0 until the stage is recorded;
/// afterwards it holds a 1-based recording-order sequence number (the
/// `Release` store that publishes `start_us`/`dur_us`).
#[derive(Debug, Default)]
struct StageCell {
    seq: AtomicU64,
    start_us: AtomicU64,
    dur_us: AtomicU64,
}

/// Worker-side trace state. The mutex guarding it is taken by the worker
/// thread (`record_nested`, `set_route`, `stages_us`) and never by the
/// reactor: `finish` uses `try_lock`, which cannot block the tick path.
#[derive(Debug, Default)]
struct WorkerState {
    route: &'static str,
    nested: Vec<Span>,
}

#[derive(Debug)]
struct ActiveShared {
    /// Immutable after `start` — readable from any thread without a lock.
    id: String,
    method: String,
    path: String,
    status: AtomicU16,
    shed: AtomicBool,
    /// Recording-order counter for the stage slots.
    next_seq: AtomicU64,
    /// One slot per [`SPANS`] stage, written lock-free from whichever
    /// thread completes the stage.
    stages: [StageCell; SPANS.len()],
    worker: Mutex<WorkerState>,
}

/// The live handle for a request being traced. Cloning shares the
/// underlying trace; the reactor thread and a worker thread stamp spans
/// into the same tree from opposite ends of the pipeline.
///
/// Everything the reactor touches (`record`, `set_status`, `mark_shed`,
/// `id`, `finish`) is lock-free — a mutex shared with a worker here
/// would let one slow handler stall every connection at once, and the
/// `blocking-in-reactor` vslint rule enforces that it stays that way.
/// Only worker-side extras (nested seeker phases, the resolved route)
/// live behind a mutex.
#[derive(Debug, Clone)]
pub struct ActiveTrace {
    started: Instant,
    shared: Arc<ActiveShared>,
}

impl ActiveTrace {
    /// Starts a trace for a request whose first byte arrived at
    /// `started`. `client_id` is the raw `X-Request-Id` value, honored
    /// when well-formed (see [`sanitize_request_id`]), else a process-
    /// unique id is generated.
    #[must_use]
    pub fn start(client_id: Option<&str>, method: &str, path: &str, started: Instant) -> Self {
        let id = client_id
            .and_then(sanitize_request_id)
            .unwrap_or_else(next_request_id);
        Self {
            started,
            shared: Arc::new(ActiveShared {
                id,
                method: method.to_owned(),
                path: path.to_owned(),
                status: AtomicU16::new(0),
                shed: AtomicBool::new(false),
                next_seq: AtomicU64::new(0),
                stages: Default::default(),
                worker: Mutex::new(WorkerState::default()),
            }),
        }
    }

    /// A trace for a handler invoked outside any traced I/O path (unit
    /// tests, direct calls). Never reaches a sink.
    #[must_use]
    pub fn detached(method: &str, path: &str) -> Self {
        Self::start(None, method, path, Instant::now())
    }

    /// The worker-side state; see [`WorkerState`] for why the reactor
    /// never calls this.
    fn worker_lock(&self) -> MutexGuard<'_, WorkerState> {
        // A panicking recorder must not take tracing down with it; span
        // data is append-only so the state is structurally fine.
        self.shared
            .worker
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The request id.
    #[must_use]
    pub fn id(&self) -> String {
        self.shared.id.clone()
    }

    /// Records a top-level stage span running from `from` until now.
    /// `name` must be one of the [`SPANS`] stages (the `span-registry`
    /// lint pins every call site); anything else is dropped.
    pub fn record(&self, name: &'static str, from: Instant) {
        let Some(cell) = SPANS
            .iter()
            .position(|s| s.name == name)
            .and_then(|i| self.shared.stages.get(i))
        else {
            debug_assert!(false, "unknown stage {name}");
            return;
        };
        let start_us = us(from.saturating_duration_since(self.started));
        let dur_us = us(from.elapsed());
        cell.start_us.store(start_us, Ordering::Relaxed);
        cell.dur_us.store(dur_us, Ordering::Relaxed);
        let seq = self.shared.next_seq.fetch_add(1, Ordering::Relaxed) + 1;
        cell.seq.store(seq, Ordering::Release);
    }

    /// Records a span nested under `handler` that ended just now and ran
    /// for `duration` — the shape `core::trace` phase reports arrive in.
    /// Worker-thread only (takes the worker mutex).
    pub fn record_nested(&self, name: &'static str, duration: Duration) {
        let dur_us = us(duration);
        let end_us = us(self.started.elapsed());
        self.worker_lock().nested.push(Span {
            name,
            start_us: end_us.saturating_sub(dur_us),
            dur_us,
            parent: Some("handler"),
        });
    }

    /// The stage slots recorded so far, as spans in recording order.
    fn stage_spans(&self) -> Vec<Span> {
        let mut recorded: Vec<(u64, Span)> = SPANS
            .iter()
            .zip(&self.shared.stages)
            .filter_map(|(def, cell)| {
                let seq = cell.seq.load(Ordering::Acquire);
                (seq > 0).then(|| {
                    (
                        seq,
                        Span {
                            name: def.name,
                            start_us: cell.start_us.load(Ordering::Relaxed),
                            dur_us: cell.dur_us.load(Ordering::Relaxed),
                            parent: None,
                        },
                    )
                })
            })
            .collect();
        recorded.sort_by_key(|&(seq, _)| seq);
        recorded.into_iter().map(|(_, span)| span).collect()
    }

    /// The spans recorded so far as `(name, dur_us)` pairs, stages in
    /// recording order followed by nested spans — what an access log
    /// emitted mid-pipeline can know (later stages like `write` have not
    /// happened yet). Worker-thread only (takes the worker mutex).
    #[must_use]
    pub fn stages_us(&self) -> Vec<(&'static str, u64)> {
        let mut out: Vec<(&'static str, u64)> = self
            .stage_spans()
            .iter()
            .map(|s| (s.name, s.dur_us))
            .collect();
        out.extend(self.worker_lock().nested.iter().map(|s| (s.name, s.dur_us)));
        out
    }

    /// Sets the route label the server resolved. Worker-thread only
    /// (takes the worker mutex).
    pub fn set_route(&self, route: &'static str) {
        self.worker_lock().route = route;
    }

    /// Sets the response status.
    pub fn set_status(&self, status: u16) {
        self.shared.status.store(status, Ordering::Relaxed);
    }

    /// Marks the request shed by admission control.
    pub fn mark_shed(&self) {
        self.shared.shed.store(true, Ordering::Relaxed);
    }

    /// Finalizes into a [`RequestTrace`], with `total_us` measured from
    /// the first byte to now. The handle stays usable, but callers
    /// finalize exactly once, at last-byte-flushed.
    ///
    /// Runs on the reactor thread, so the worker state is read with
    /// `try_lock`: by last-byte-flushed the worker finished with this
    /// request long ago, so contention means a *different* request's
    /// recorder holds the lock — never wait for it. On the (theoretical)
    /// miss the trace ships without route/nested spans rather than
    /// stalling the tick loop.
    #[must_use]
    pub fn finish(&self) -> RequestTrace {
        let total_us = us(self.started.elapsed());
        let mut spans = self.stage_spans();
        let (route, nested) = match self.shared.worker.try_lock() {
            Ok(worker) => (worker.route, worker.nested.clone()),
            Err(std::sync::TryLockError::Poisoned(poisoned)) => {
                let worker = poisoned.into_inner();
                (worker.route, worker.nested.clone())
            }
            Err(std::sync::TryLockError::WouldBlock) => ("", Vec::new()),
        };
        spans.extend(nested);
        RequestTrace {
            id: self.shared.id.clone(),
            method: self.shared.method.clone(),
            path: self.shared.path.clone(),
            route,
            status: self.shared.status.load(Ordering::Relaxed),
            shed: self.shared.shed.load(Ordering::Relaxed),
            started: self.started,
            total_us,
            spans,
        }
    }
}

/// Whole saturating microseconds.
fn us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

static NEXT_REQUEST_ID: AtomicU64 = AtomicU64::new(0);

/// A process-unique request id (`r-<hex>`).
#[must_use]
pub fn next_request_id() -> String {
    format!(
        "r-{:08x}",
        NEXT_REQUEST_ID.fetch_add(1, Ordering::Relaxed) + 1
    )
}

/// Accepts a client-supplied request id when it is 1–64 chars of
/// `[A-Za-z0-9._-]` — safe to echo into headers, logs, and JSON without
/// escaping surprises. Anything else is ignored (a fresh id is used).
#[must_use]
pub fn sanitize_request_id(raw: &str) -> Option<String> {
    let trimmed = raw.trim();
    let ok = !trimmed.is_empty()
        && trimmed.len() <= MAX_REQUEST_ID_LEN
        && trimmed
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'));
    ok.then(|| trimmed.to_owned())
}

/// Where finished traces go. The server installs a sink that feeds the
/// tail sampler, stage histograms, and (for requests that never reached
/// a handler) the access log.
pub trait TraceSink: Send + Sync + std::fmt::Debug {
    /// Accepts one finished trace.
    fn record(&self, trace: RequestTrace);
}

/// Traces kept in the slowest-set per window by default.
pub const DEFAULT_SLOW_CAPACITY: usize = 64;
/// Errored (and separately, shed) traces kept per window by default.
pub const DEFAULT_ERROR_CAPACITY: usize = 32;
/// Records per rolling window by default.
pub const DEFAULT_WINDOW: u64 = 4096;

#[derive(Debug, Default)]
struct Generation {
    slow: Vec<RequestTrace>,
    errored: Vec<RequestTrace>,
    shed: Vec<RequestTrace>,
}

#[derive(Debug, Default)]
struct SamplerInner {
    seen_in_window: u64,
    cur: Generation,
    prev: Generation,
}

/// Lock-light tail sampler: keeps the slowest requests per rolling
/// window plus bounded sets of errored and shed requests, spanning the
/// current and previous window so a fresh rotation never empties
/// `/debug/traces`.
///
/// The fast path is one relaxed atomic load: a healthy request slower
/// than none of the retained set returns without locking. The floor is
/// conservative (it only rises when the slow set is full, and resets on
/// rotation), so the slowest request of a window is never skipped.
#[derive(Debug)]
pub struct TraceSampler {
    slow_capacity: usize,
    error_capacity: usize,
    window: u64,
    /// Admission floor: healthy traces strictly faster than this cannot
    /// enter the slow set, so they skip the lock entirely.
    floor_us: AtomicU64,
    recorded: AtomicU64,
    inner: Mutex<SamplerInner>,
}

impl Default for TraceSampler {
    fn default() -> Self {
        Self::new(
            DEFAULT_SLOW_CAPACITY,
            DEFAULT_ERROR_CAPACITY,
            DEFAULT_WINDOW,
        )
    }
}

impl TraceSampler {
    /// A sampler keeping the `slow_capacity` slowest plus
    /// `error_capacity` errored and shed traces per `window` records.
    #[must_use]
    pub fn new(slow_capacity: usize, error_capacity: usize, window: u64) -> Self {
        Self {
            slow_capacity: slow_capacity.max(1),
            error_capacity: error_capacity.max(1),
            window: window.max(1),
            floor_us: AtomicU64::new(0),
            recorded: AtomicU64::new(0),
            inner: Mutex::new(SamplerInner::default()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, SamplerInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Total traces offered to the sampler (kept or not).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Traces currently retained across both windows (before id dedup).
    #[must_use]
    pub fn retained(&self) -> usize {
        let inner = self.lock();
        [&inner.cur, &inner.prev]
            .iter()
            .map(|g| g.slow.len() + g.errored.len() + g.shed.len())
            .sum()
    }

    /// The retained traces, deduplicated by id, slowest first.
    #[must_use]
    pub fn snapshot(&self) -> Vec<RequestTrace> {
        let inner = self.lock();
        let mut out: Vec<RequestTrace> = Vec::new();
        for generation in [&inner.cur, &inner.prev] {
            for trace in generation
                .slow
                .iter()
                .chain(&generation.errored)
                .chain(&generation.shed)
            {
                if !out.iter().any(|t| t.id == trace.id) {
                    out.push(trace.clone());
                }
            }
        }
        drop(inner);
        out.sort_by(|a, b| b.total_us.cmp(&a.total_us).then(a.id.cmp(&b.id)));
        out
    }
}

impl TraceSink for TraceSampler {
    fn record(&self, trace: RequestTrace) {
        self.recorded.fetch_add(1, Ordering::Relaxed);
        let interesting = trace.shed || trace.status >= 400;
        // Fast path: healthy and beneath the slow-set floor — the trace
        // could not be retained, so skip the lock. `<` (not `<=`) keeps
        // the invariant that a window's maximum-latency trace always
        // passes: the floor never exceeds the slow set's minimum.
        if !interesting && trace.total_us < self.floor_us.load(Ordering::Relaxed) {
            return;
        }
        let mut inner = self.lock();
        inner.seen_in_window += 1;
        if inner.seen_in_window >= self.window {
            inner.seen_in_window = 0;
            inner.prev = std::mem::take(&mut inner.cur);
            // New window: everything qualifies again until the set fills.
            self.floor_us.store(0, Ordering::Relaxed);
        }
        if trace.shed {
            bounded_push(&mut inner.cur.shed, trace.clone(), self.error_capacity);
        } else if trace.status >= 400 {
            bounded_push(&mut inner.cur.errored, trace.clone(), self.error_capacity);
        }
        // The slow set admits every outcome: an errored request can also
        // be the slowest, and keeping it here preserves it past the
        // bounded FIFO above.
        if inner.cur.slow.len() < self.slow_capacity {
            inner.cur.slow.push(trace);
            if inner.cur.slow.len() == self.slow_capacity {
                // The set just filled: from here on, only traces at or
                // above its minimum can displace anything.
                let floor = inner.cur.slow.iter().map(|t| t.total_us).min().unwrap_or(0);
                self.floor_us.store(floor, Ordering::Relaxed);
            }
            return;
        }
        let min = inner
            .cur
            .slow
            .iter()
            .enumerate()
            .min_by_key(|(_, t)| t.total_us)
            .map(|(i, t)| (i, t.total_us));
        if let Some((index, min_us)) = min {
            if trace.total_us > min_us {
                if let Some(slot) = inner.cur.slow.get_mut(index) {
                    *slot = trace;
                }
            }
            let new_floor = inner.cur.slow.iter().map(|t| t.total_us).min().unwrap_or(0);
            self.floor_us.store(new_floor, Ordering::Relaxed);
        }
    }
}

fn bounded_push(list: &mut Vec<RequestTrace>, trace: RequestTrace, capacity: usize) {
    if list.len() >= capacity {
        list.remove(0); // oldest out; capacity is small (≤ dozens)
    }
    list.push(trace);
}

/// Escapes `s` for embedding inside a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders traces as Chrome trace-event JSON (the `traceEvents` array
/// format `chrome://tracing` and Perfetto load). Each request gets its
/// own `tid`; timestamps are microseconds relative to the earliest
/// retained request, so concurrent requests align on one timeline.
#[must_use]
pub fn chrome_trace_json(traces: &[RequestTrace]) -> String {
    let epoch = traces.iter().map(|t| t.started).min();
    let mut events: Vec<String> = Vec::new();
    for (index, trace) in traces.iter().enumerate() {
        let tid = index + 1;
        let base = epoch.map_or(0, |e| us(trace.started.saturating_duration_since(e)));
        events.push(format!(
            "{{\"name\":\"{} {}\",\"cat\":\"request\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":1,\"tid\":{},\"args\":{{\"request_id\":\"{}\",\"route\":\"{}\",\
             \"status\":{},\"shed\":{}}}}}",
            json_escape(&trace.method),
            json_escape(&trace.path),
            base,
            trace.total_us,
            tid,
            json_escape(&trace.id),
            trace.route_label(),
            trace.status,
            trace.shed,
        ));
        for span in &trace.spans {
            let parent = span.parent.unwrap_or("");
            events.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"stage\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"request_id\":\"{}\",\"parent\":\"{}\"}}}}",
                span.name,
                base.saturating_add(span.start_us),
                span.dur_us,
                tid,
                json_escape(&trace.id),
                parent,
            ));
        }
    }
    format!("{{\"traceEvents\":[{}]}}", events.join(","))
}

/// Renders traces as folded-stack lines (`route;stage dur_us`), the
/// input format of flamegraph tooling. Durations aggregate across the
/// retained set; `handler` lines carry its self time (total minus the
/// nested seeker phases), so stack totals are not double-counted.
#[must_use]
pub fn folded_stacks(traces: &[RequestTrace]) -> String {
    let mut stacks: Vec<(String, u64)> = Vec::new();
    let mut bump = |stack: String, dur: u64| {
        if let Some(entry) = stacks.iter_mut().find(|(s, _)| *s == stack) {
            entry.1 = entry.1.saturating_add(dur);
        } else {
            stacks.push((stack, dur));
        }
    };
    for trace in traces {
        let route = trace.route_label();
        let nested_us: u64 = trace
            .spans
            .iter()
            .filter(|s| s.parent.is_some())
            .map(|s| s.dur_us)
            .fold(0u64, u64::saturating_add);
        for span in &trace.spans {
            match span.parent {
                Some(parent) => bump(format!("{route};{parent};{}", span.name), span.dur_us),
                None if span.name == "handler" => {
                    bump(
                        format!("{route};handler"),
                        span.dur_us.saturating_sub(nested_us),
                    );
                }
                None => bump(format!("{route};{}", span.name), span.dur_us),
            }
        }
    }
    stacks.sort();
    let mut out = String::new();
    for (stack, dur) in stacks {
        out.push_str(&stack);
        out.push(' ');
        out.push_str(&dur.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(id: &str, total_us: u64, status: u16, shed: bool) -> RequestTrace {
        RequestTrace {
            id: id.to_owned(),
            method: "GET".to_owned(),
            path: "/x".to_owned(),
            route: if shed || status == 431 { "" } else { "next" },
            status,
            shed,
            started: Instant::now(),
            total_us,
            spans: vec![
                Span {
                    name: "parse",
                    start_us: 0,
                    dur_us: 5,
                    parent: None,
                },
                Span {
                    name: "handler",
                    start_us: 5,
                    dur_us: total_us.saturating_sub(5),
                    parent: None,
                },
            ],
        }
    }

    #[test]
    fn active_trace_records_spans_and_outcome() {
        let t0 = Instant::now();
        let t = ActiveTrace::start(Some("client-1"), "GET", "/sessions/s1/next", t0);
        t.record("parse", t0);
        t.record_nested("materialization", Duration::from_micros(40));
        t.set_route("next");
        t.set_status(200);
        let done = t.finish();
        assert_eq!(done.id, "client-1");
        assert_eq!(done.route, "next");
        assert_eq!(done.status, 200);
        assert!(!done.shed);
        assert_eq!(done.spans.len(), 2);
        let nested = done.spans.get(1).unwrap();
        assert_eq!(nested.parent, Some("handler"));
        assert_eq!(nested.dur_us, 40);
        assert!(done.total_us >= done.spans.first().unwrap().dur_us);
        assert_eq!(done.stage_sum_us(), done.spans.first().unwrap().dur_us);
    }

    #[test]
    fn request_ids_are_honored_sanitized_or_generated() {
        assert_eq!(
            sanitize_request_id("abc-123_X.y").as_deref(),
            Some("abc-123_X.y")
        );
        assert_eq!(
            sanitize_request_id("  trimmed  ").as_deref(),
            Some("trimmed")
        );
        assert_eq!(sanitize_request_id(""), None);
        assert_eq!(sanitize_request_id("has space"), None);
        assert_eq!(sanitize_request_id("newline\ninjection"), None);
        assert_eq!(sanitize_request_id(&"a".repeat(65)), None);
        let a = next_request_id();
        let b = next_request_id();
        assert_ne!(a, b);
        assert!(a.starts_with("r-"), "{a}");
        let t = ActiveTrace::start(Some("x\r\ny"), "GET", "/", Instant::now());
        assert!(t.id().starts_with("r-"), "bad client id must be replaced");
    }

    #[test]
    fn sampler_keeps_slowest_and_all_interesting() {
        let sampler = TraceSampler::new(4, 4, 10_000);
        for n in 0..100u64 {
            sampler.record(trace(&format!("ok-{n}"), n, 200, false));
        }
        sampler.record(trace("err-1", 1, 500, false));
        sampler.record(trace("shed-1", 2, 503, true));
        let kept = sampler.snapshot();
        let ids: Vec<&str> = kept.iter().map(|t| t.id.as_str()).collect();
        for want in ["ok-99", "ok-98", "ok-97", "ok-96", "err-1", "shed-1"] {
            assert!(ids.contains(&want), "missing {want}: {ids:?}");
        }
        assert!(!ids.contains(&"ok-50"), "fast healthy traces roll out");
        assert_eq!(sampler.recorded(), 102);
        // Slowest first.
        assert_eq!(kept.first().map(|t| t.id.as_str()), Some("ok-99"));
    }

    #[test]
    fn sampler_floor_skips_fast_healthy_traces_without_losing_the_max() {
        let sampler = TraceSampler::new(2, 2, 10_000);
        sampler.record(trace("a", 100, 200, false));
        sampler.record(trace("b", 200, 200, false));
        assert_eq!(sampler.floor_us.load(Ordering::Relaxed), 100);
        sampler.record(trace("c", 50, 200, false)); // fast path, skipped
        sampler.record(trace("d", 300, 200, false)); // evicts "a"
        let ids: Vec<String> = sampler.snapshot().iter().map(|t| t.id.clone()).collect();
        assert_eq!(ids, ["d", "b"]);
        assert_eq!(sampler.floor_us.load(Ordering::Relaxed), 200);
    }

    #[test]
    fn window_rotation_preserves_the_previous_generation() {
        let sampler = TraceSampler::new(8, 8, 4);
        for n in 0..4u64 {
            sampler.record(trace(&format!("w1-{n}"), 1000 + n, 200, false));
        }
        // The 4th record rotated; record one in the new window.
        sampler.record(trace("w2-0", 5, 200, false));
        let ids: Vec<String> = sampler.snapshot().iter().map(|t| t.id.clone()).collect();
        assert!(ids.contains(&"w2-0".to_owned()), "{ids:?}");
        assert!(
            ids.contains(&"w1-3".to_owned()),
            "previous window retained: {ids:?}"
        );
        assert!(sampler.retained() <= 2 * (8 + 8 + 8));
    }

    #[test]
    fn chrome_trace_json_golden_shape() {
        let t = trace("req-7", 105, 200, false);
        let json = chrome_trace_json(std::slice::from_ref(&t));
        let expected = concat!(
            "{\"traceEvents\":[",
            "{\"name\":\"GET /x\",\"cat\":\"request\",\"ph\":\"X\",\"ts\":0,\"dur\":105,",
            "\"pid\":1,\"tid\":1,\"args\":{\"request_id\":\"req-7\",\"route\":\"next\",",
            "\"status\":200,\"shed\":false}},",
            "{\"name\":\"parse\",\"cat\":\"stage\",\"ph\":\"X\",\"ts\":0,\"dur\":5,",
            "\"pid\":1,\"tid\":1,\"args\":{\"request_id\":\"req-7\",\"parent\":\"\"}},",
            "{\"name\":\"handler\",\"cat\":\"stage\",\"ph\":\"X\",\"ts\":5,\"dur\":100,",
            "\"pid\":1,\"tid\":1,\"args\":{\"request_id\":\"req-7\",\"parent\":\"\"}}]}",
        );
        assert_eq!(json, expected);
    }

    #[test]
    fn chrome_trace_json_escapes_hostile_paths() {
        let mut t = trace("req-8", 10, 200, false);
        t.path = "/quote\"back\\slash\nnewline".to_owned();
        let json = chrome_trace_json(std::slice::from_ref(&t));
        assert!(json.contains("/quote\\\"back\\\\slash\\nnewline"), "{json}");
        // Still a single well-formed JSON object per event: every quote
        // inside string values is escaped.
        assert!(!json.contains("slash\n"), "raw newline leaked: {json}");
    }

    #[test]
    fn folded_stacks_aggregate_and_subtract_nested_time() {
        let mut t = trace("req-9", 100, 200, false);
        t.spans.push(Span {
            name: "materialization",
            start_us: 10,
            dur_us: 30,
            parent: Some("handler"),
        });
        let folded = folded_stacks(&[t.clone(), t]);
        let mut lines: Vec<&str> = folded.lines().collect();
        lines.sort_unstable();
        assert_eq!(
            lines,
            [
                "next;handler 130",                // 2 × (95 − 30) self time
                "next;handler;materialization 60", // 2 × 30
                "next;parse 10",                   // 2 × 5
            ]
        );
    }

    #[test]
    fn sampler_is_safe_under_concurrent_recording() {
        let sampler = Arc::new(TraceSampler::new(16, 8, 1_000_000));
        std::thread::scope(|scope| {
            for thread in 0..4u64 {
                let sampler = Arc::clone(&sampler);
                scope.spawn(move || {
                    for n in 0..500u64 {
                        let latency = (n * 7919 + thread * 104_729) % 10_000;
                        sampler.record(trace(&format!("t{thread}-{n}"), latency, 200, false));
                    }
                });
            }
        });
        assert_eq!(sampler.recorded(), 2000);
        let kept = sampler.snapshot();
        assert!(kept.len() <= 16);
        // The globally slowest trace always survives: the floor can never
        // exceed the slow set's minimum, which is bounded by the max.
        let max = (0..4u64)
            .flat_map(|t| (0..500u64).map(move |n| (n * 7919 + t * 104_729) % 10_000))
            .max()
            .unwrap_or(0);
        assert_eq!(kept.first().map(|t| t.total_us), Some(max));
    }
}
