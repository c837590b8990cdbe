//! End-to-end test of per-request tracing, a full-stack correlation run:
//! a request tagged with a known `X-Request-Id` is retrieved from
//! `GET /debug/traces`, its span tree accounts for the request's wall
//! time, and the same id links the access-log line and the
//! `viewseeker_request_stage_seconds` histograms.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use viewseeker_server::{LogFormat, LogLevel, Logger, Router};

/// Content-Length-framed client call over a persistent connection, with
/// optional extra headers (e.g. `X-Request-Id`). Returns the status, the
/// response's `X-Request-Id` (if any), and the body.
fn call(
    stream: &TcpStream,
    reader: &mut BufReader<TcpStream>,
    method: &str,
    path: &str,
    extra: &str,
    body: &str,
) -> (u16, Option<String>, String) {
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\n{extra}Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    (&*stream).write_all(request.as_bytes()).expect("send");

    let mut line = String::new();
    reader.read_line(&mut line).expect("status line");
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad response: {line:?}"));
    let mut content_length = 0usize;
    let mut request_id = None;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header).expect("header");
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        let lower = header.to_ascii_lowercase();
        if let Some(v) = lower.strip_prefix("content-length:") {
            content_length = v.trim().parse().expect("length");
        }
        if let Some(v) = lower.strip_prefix("x-request-id:") {
            // Preserve the original casing from the raw header.
            request_id = Some(header[header.len() - v.len()..].trim().to_owned());
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("body");
    (status, request_id, String::from_utf8(body).expect("utf8"))
}

fn json_field<'a>(body: &'a str, key: &str) -> &'a str {
    let needle = format!("\"{key}\":");
    let start = body
        .find(&needle)
        .unwrap_or_else(|| panic!("no {key:?} in {body}"))
        + needle.len();
    let rest = &body[start..];
    let end = rest
        .char_indices()
        .find(|(i, c)| *c == ',' || *c == '}' || *c == ']' && !rest[..*i].ends_with('\\'))
        .map_or(rest.len(), |(i, _)| i);
    rest[..end].trim_matches('"')
}

/// A shared in-memory sink for capturing the server's access log.
#[derive(Clone, Default)]
struct LogBuffer(Arc<Mutex<Vec<u8>>>);

impl Write for LogBuffer {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A request's stage events in a parsed Chrome trace, as
/// `(name, parent, dur_us)`; top-level stages have an empty parent.
fn spans_of(events: &[serde_json::Value], tid: u64) -> Vec<(&str, &str, u64)> {
    events
        .iter()
        .filter(|e| {
            e.get("cat").and_then(|c| c.as_str()) == Some("stage")
                && e.get("tid").and_then(serde_json::Value::as_u64) == Some(tid)
        })
        .map(|e| {
            (
                e.get("name").and_then(|n| n.as_str()).unwrap_or(""),
                e.get("args")
                    .and_then(|a| a.get("parent"))
                    .and_then(|p| p.as_str())
                    .unwrap_or(""),
                e.get("dur")
                    .and_then(serde_json::Value::as_u64)
                    .unwrap_or(0),
            )
        })
        .collect()
}

/// Sum of the durations of a request's top-level stage events.
fn top_level_stage_sum(events: &[serde_json::Value], tid: u64) -> u64 {
    spans_of(events, tid)
        .iter()
        .filter(|(_, parent, _)| parent.is_empty())
        .map(|&(_, _, dur)| dur)
        .sum()
}

/// The request event tagged with `request_id` in a parsed Chrome trace.
fn request_event<'a>(events: &'a [serde_json::Value], request_id: &str) -> &'a serde_json::Value {
    events
        .iter()
        .find(|e| {
            e.get("cat").and_then(|c| c.as_str()) == Some("request")
                && e.get("args")
                    .and_then(|a| a.get("request_id"))
                    .and_then(|v| v.as_str())
                    == Some(request_id)
        })
        .unwrap_or_else(|| panic!("request {request_id} not in /debug/traces"))
}

/// Full-stack correlation: one tagged request is retrievable from
/// `/debug/traces` with a span tree accounting for its wall time, and
/// its id appears in the access log and its route in the per-stage
/// histograms.
#[test]
fn tagged_request_is_correlated_across_traces_log_and_metrics() {
    // Assemble the stack by hand so the access log writes to a buffer
    // this test can read back.
    let buffer = LogBuffer::default();
    let logger = Arc::new(Logger::to_writer(
        LogFormat::Json,
        LogLevel::Info,
        Box::new(buffer.clone()),
    ));
    let catalog = viewseeker_catalog::Catalog::in_memory(64 << 20);
    let registry = viewseeker_server::SessionRegistry::with_catalog(
        8,
        Duration::from_secs(600),
        None,
        Arc::new(catalog),
    );
    let state = Arc::new(viewseeker_server::AppState::with_logger(registry, logger));
    let queue_depth = state.metrics.counters().queue_depth_handle();
    let net = Arc::clone(&state.net);
    let sink: Arc<dyn viewseeker_net::TraceSink> = Arc::new(
        viewseeker_server::trace::ServerTraceSink::new(Arc::clone(&state)),
    );
    let handle = viewseeker_net::serve_event(
        "127.0.0.1:0",
        viewseeker_net::EventConfig {
            workers: 2,
            ..viewseeker_net::EventConfig::default()
        },
        Arc::new(Router::new(state)),
        net,
        queue_depth,
        sink,
    )
    .expect("bind");

    let stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    const CREATE_TAG: &str = "e2e-trace-create";
    let spec = "{\"dataset\": \"diab\", \"rows\": 600, \"seed\": 7, \"query\": \"a0 = 'a0_v0'\"}";
    let (status, _, body) = call(
        &stream,
        &mut reader,
        "POST",
        "/sessions",
        &format!("X-Request-Id: {CREATE_TAG}\r\n"),
        spec,
    );
    assert_eq!(status, 201, "{body}");
    let session = json_field(&body, "id").to_owned();

    // Feedback rounds so the model is fitted before `recommend`.
    for score in [0.9, 0.1, 0.7] {
        let (status, _, body) = call(
            &stream,
            &mut reader,
            "GET",
            &format!("/sessions/{session}/next?m=1"),
            "",
            "",
        );
        assert_eq!(status, 200, "{body}");
        let view = json_field(&body, "id").to_owned();
        let (status, _, body) = call(
            &stream,
            &mut reader,
            "POST",
            &format!("/sessions/{session}/feedback"),
            "",
            &format!("{{\"view\": {view}, \"score\": {score}}}"),
        );
        assert_eq!(status, 200, "{body}");
    }

    // The injected "slow" request: recommend is the heaviest endpoint in
    // the script, tagged with a client-chosen id the server must echo.
    const TAG: &str = "e2e-trace-slow";
    let (status, echoed, body) = call(
        &stream,
        &mut reader,
        "GET",
        &format!("/sessions/{session}/recommend?k=3"),
        &format!("X-Request-Id: {TAG}\r\n"),
        "",
    );
    assert_eq!(status, 200, "{body}");
    assert_eq!(echoed.as_deref(), Some(TAG), "id must be echoed");

    // 1) /debug/traces: the tagged request's trace is retained (the
    // sampler keeps every request here — far fewer than its capacity).
    let (status, _, chrome) = call(
        &stream,
        &mut reader,
        "GET",
        "/debug/traces?format=chrome",
        "",
        "",
    );
    assert_eq!(status, 200, "{chrome}");
    let parsed: serde_json::Value = serde_json::parse_value(&chrome).expect("chrome trace parses");
    let events: Vec<serde_json::Value> = match parsed
        .get("traceEvents")
        .cloned()
        .expect("traceEvents array")
    {
        serde_json::Value::Array(items) => items,
        other => panic!("traceEvents not an array: {other:?}"),
    };
    let request = request_event(&events, TAG);
    assert_eq!(
        request
            .get("args")
            .and_then(|a| a.get("route"))
            .and_then(|v| v.as_str()),
        Some("GET /sessions/:id/recommend")
    );

    // 2) Its span tree accounts for the wall time: the top-level stages
    // (parse, queue_wait, dispatch, handler, write) sum to the total
    // minus only instrumentation gaps, bounded generously for CI.
    let tid = request
        .get("tid")
        .and_then(serde_json::Value::as_u64)
        .expect("tid");
    let total_us = request
        .get("dur")
        .and_then(serde_json::Value::as_u64)
        .expect("dur");
    let stage_sum = top_level_stage_sum(&events, tid);
    assert!(
        stage_sum <= total_us,
        "stages ({stage_sum}us) exceed wall time ({total_us}us)"
    );
    assert!(
        total_us - stage_sum <= 10_000,
        "unaccounted gap {}us exceeds instrumentation overhead",
        total_us - stage_sum
    );
    let stage_names: Vec<&str> = spans_of(&events, tid)
        .into_iter()
        .filter(|(_, parent, _)| parent.is_empty())
        .map(|(name, _, _)| name)
        .collect();
    for required in ["parse", "handler", "write"] {
        assert!(
            stage_names.contains(&required),
            "missing {required}: {stage_names:?}"
        );
    }

    // The session's create trace nests its offline phases under `handler`.
    let create_tid = request_event(&events, CREATE_TAG)
        .get("tid")
        .and_then(serde_json::Value::as_u64)
        .expect("tid");
    let create_spans = spans_of(&events, create_tid);
    for phase in ["view_space_gen", "materialization", "feature_extraction"] {
        assert!(
            create_spans
                .iter()
                .any(|&(name, parent, _)| name == phase && parent == "handler"),
            "create trace lacks {phase} under handler: {create_spans:?}"
        );
    }

    // The seeker's phases are disjoint, so in every retained trace the
    // spans nested under `handler` add up to no more than `handler`.
    for event in events
        .iter()
        .filter(|e| e.get("cat").and_then(|c| c.as_str()) == Some("request"))
    {
        let tid = event
            .get("tid")
            .and_then(serde_json::Value::as_u64)
            .expect("tid");
        let spans = spans_of(&events, tid);
        let handler: u64 = spans
            .iter()
            .filter(|&&(name, parent, _)| name == "handler" && parent.is_empty())
            .map(|&(_, _, dur)| dur)
            .sum();
        let nested: u64 = spans
            .iter()
            .filter(|&&(_, parent, _)| parent == "handler")
            .map(|&(_, _, dur)| dur)
            .sum();
        assert!(
            nested <= handler,
            "nested spans ({nested}us) exceed handler ({handler}us): {spans:?}"
        );
    }

    // The folded export aggregates the same stages per route.
    let (status, _, folded) = call(
        &stream,
        &mut reader,
        "GET",
        "/debug/traces?format=folded",
        "",
        "",
    );
    assert_eq!(status, 200, "{folded}");
    assert!(
        folded.contains("GET /sessions/:id/recommend;handler"),
        "{folded}"
    );

    // 3) The access-log line for the tagged request carries the same id.
    let raw = String::from_utf8(buffer.0.lock().unwrap().clone()).expect("utf8 log");
    let line = raw
        .lines()
        .find(|l| l.contains(&format!("\"request_id\":\"{TAG}\"")))
        .unwrap_or_else(|| panic!("no access-log line for {TAG}: {raw}"));
    assert!(
        line.contains("\"route\":\"GET /sessions/:id/recommend\""),
        "{line}"
    );
    assert!(line.contains("\"status\":200"), "{line}");

    // 4) The per-stage histograms gained samples for the same route.
    let (status, _, metrics) = call(&stream, &mut reader, "GET", "/metrics", "", "");
    assert_eq!(status, 200);
    assert!(
        metrics.contains(
            "viewseeker_request_stage_seconds_count{route=\"GET /sessions/:id/recommend\",stage=\"handler\"}"
        ),
        "{metrics}"
    );

    handle.shutdown();
}
