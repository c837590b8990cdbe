//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Spans stay in memory and are written when the traced run ends, as Chrome
//! trace-event JSON — the format `GET /debug/traces?format=chrome` already
//! uses, so one viewer opens both. A span names the span that caused it
//! (`parent`); spans of one request share its request id. Because the
//! in-process pass replays inner calls after the outer one rather than
//! inside it, a parent is a logical cause, not an enclosing interval:
//! self time is a span's duration minus the sum of its children's.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    /// Metric-style name, e.g. `server.handle.create`.
    pub name: String,
    /// Microseconds since the tracer's epoch.
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<SpanId>,
    /// The `X-Request-Id` the span belongs to.
    pub request: String,
    /// When the request was due, for wire spans of an open-loop schedule.
    pub due_us: Option<f64>,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }

    /// The crate the span's name starts with.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

/// What the spans of one name add up to.
#[derive(Debug, Clone, Default)]
pub struct NameTotal {
    pub sum_us: f64,
    pub count: usize,
    /// Total duration of the direct children of these spans.
    pub children_us: f64,
}

impl NameTotal {
    pub fn mean_us(&self) -> f64 {
        self.sum_us / self.count.max(1) as f64
    }

    pub fn self_us(&self) -> f64 {
        (self.sum_us - self.children_us).max(0.0)
    }

    pub fn mean_self_us(&self) -> f64 {
        self.self_us() / self.count.max(1) as f64
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn us(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    pub fn record(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        request: &str,
    ) -> SpanId {
        self.spans.push(Span {
            name: name.to_owned(),
            start_us: self.us(start),
            end_us: self.us(end),
            parent,
            request: request.to_owned(),
            due_us: None,
        });
        self.spans.len() - 1
    }

    /// A client-side span of one request on the wire: due, sent, done.
    pub fn record_wire(
        &mut self,
        name: &str,
        due: Instant,
        sent: Instant,
        done: Instant,
        request: &str,
    ) {
        let id = self.record(name, sent, done, None, request);
        self.spans[id].due_us = Some(self.us(due));
    }

    /// Times `work` as a span and returns its result with the span's id.
    pub fn time<T>(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        request: &str,
        work: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let start = Instant::now();
        let value = work();
        let end = Instant::now();
        (value, self.record(name, start, end, parent, request))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Totals per span name. Self time is taken on these totals — a name's
    /// total duration minus the total of its direct children, not below
    /// zero — because a child replayed after its parent can run longer than
    /// it did inside it; clamping instance by instance would count that
    /// noise as time.
    pub fn totals(&self) -> BTreeMap<String, NameTotal> {
        let mut totals: BTreeMap<String, NameTotal> = BTreeMap::new();
        for span in &self.spans {
            let entry = totals.entry(span.name.clone()).or_default();
            entry.sum_us += span.duration_us();
            entry.count += 1;
            if let Some(parent) = span.parent {
                totals
                    .entry(self.spans[parent].name.clone())
                    .or_default()
                    .children_us += span.duration_us();
            }
        }
        totals
    }

    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"{\"traceEvents\":[")?;
        for (id, span) in self.spans.iter().enumerate() {
            if id > 0 {
                out.write_all(b",")?;
            }
            let parent = span
                .parent
                .map_or_else(String::new, |p| self.spans[p].name.clone());
            let due = span
                .due_us
                .map_or_else(String::new, |d| format!(",\"due_us\":{d:.1}"));
            // Wire spans sit on one row, in-process spans on another.
            let tid = if span.due_us.is_some() { 1 } else { 2 };
            write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.1},\"dur\":{:.1},\
                 \"pid\":1,\"tid\":{tid},\"args\":{{\"request_id\":\"{}\",\"parent\":\"{}\"{due}}}}}",
                span.name,
                span.layer(),
                span.start_us,
                span.duration_us(),
                span.request,
                parent,
            )?;
        }
        out.write_all(b"]}")?;
        out.flush()
    }
}
