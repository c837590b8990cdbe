//! End-to-end test over real HTTP: one server, many concurrent client
//! threads, each driving the full interactive loop (create → next-views →
//! feedback ×n → recommend → snapshot → restore) through actual TCP
//! sockets. Verifies session isolation, eviction-snapshot fidelity, and the
//! `/healthz` metrics contract.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use viewseeker_server::{serve_app, LogFormat, LogLevel, ServerConfig};

/// Minimal HTTP/1.1 client: one connection per request, returns
/// `(status, body)`.
fn call(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("send");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("receive");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad response: {raw:?}"));
    let payload = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .unwrap_or_default();
    (status, payload)
}

/// Pulls `"key":<value>` out of a flat JSON object without a parser
/// (values this test reads are numbers and simple strings).
fn json_field<'a>(body: &'a str, key: &str) -> &'a str {
    let needle = format!("\"{key}\":");
    let start = body
        .find(&needle)
        .unwrap_or_else(|| panic!("no {key:?} in {body}"))
        + needle.len();
    let rest = &body[start..];
    let end = rest
        .char_indices()
        .find(|(i, c)| (*c == ',' || *c == '}' || *c == ']') && !rest[..*i].ends_with('\\'))
        .map_or(rest.len(), |(i, _)| i);
    rest[..end].trim_matches('"')
}

fn spec(seed: u64) -> String {
    format!(
        "{{\"dataset\": \"diab\", \"rows\": 800, \"seed\": {seed}, \"query\": \"a0 = 'a0_v0'\"}}"
    )
}

/// One client's full interactive loop; returns `(session_id, top1_view)`.
fn drive_session(addr: SocketAddr, seed: u64, labels: &[f64]) -> (String, String) {
    let (status, body) = call(addr, "POST", "/sessions", &spec(seed));
    assert_eq!(status, 201, "{body}");
    let id = json_field(&body, "id").to_owned();

    for score in labels {
        let (status, body) = call(addr, "GET", &format!("/sessions/{id}/next?m=1"), "");
        assert_eq!(status, 200, "{body}");
        let view = json_field(&body, "id").to_owned();
        let (status, body) = call(
            addr,
            "POST",
            &format!("/sessions/{id}/feedback"),
            &format!("{{\"view\": {view}, \"score\": {score}}}"),
        );
        assert_eq!(status, 200, "{body}");
    }

    let (status, body) = call(addr, "GET", &format!("/sessions/{id}/recommend?k=3"), "");
    assert_eq!(status, 200, "{body}");
    let top1 = json_field(&body, "id").to_owned();
    (id, top1)
}

#[test]
fn concurrent_sessions_full_loop_over_http() {
    let dir = std::env::temp_dir().join(format!("vs-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let handle = serve_app(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 4,
        max_sessions: 32,
        ttl: Duration::from_secs(600),
        snapshot_dir: Some(dir.clone()),
        data_dir: None,
        catalog_mem_budget: 64 << 20,
        log_format: LogFormat::Text,
        log_level: LogLevel::Off,
        ..Default::default()
    })
    .expect("bind");
    let addr = handle.addr();

    // --- 8 concurrent clients, each with its own session and distinct
    // feedback; all drive the loop at the same time over real sockets. ---
    let outcomes: Vec<(u64, String, String)> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..8u64)
            .map(|client| {
                s.spawn(move || {
                    // Distinct label sequences per client.
                    let labels: Vec<f64> = (0..4)
                        .map(|i| ((client + 1) as f64 * (i + 1) as f64 * 0.031) % 1.0)
                        .collect();
                    let (id, top1) = drive_session(addr, client % 3, &labels);
                    (client, id, top1)
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("client"))
            .collect()
    });

    // Sessions are isolated: every client got a distinct id...
    let mut ids: Vec<&str> = outcomes.iter().map(|(_, id, _)| id.as_str()).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 8, "expected 8 distinct sessions: {outcomes:?}");
    // ...and each holds exactly its own 4 labels.
    for (_, id, _) in &outcomes {
        let (status, body) = call(addr, "GET", &format!("/sessions/{id}"), "");
        assert_eq!(status, 200, "{body}");
        assert_eq!(json_field(&body, "labels"), "4", "{body}");
    }

    // --- snapshot → delete → restore round trip over HTTP ---
    let (_, id, top1) = &outcomes[0];
    let (status, snapshot_body) = call(addr, "POST", &format!("/sessions/{id}/snapshot"), "");
    assert_eq!(status, 200, "{snapshot_body}");
    let (status, _) = call(addr, "DELETE", &format!("/sessions/{id}"), "");
    assert_eq!(status, 200);
    let (status, body) = call(addr, "POST", "/sessions/restore", &snapshot_body);
    assert_eq!(status, 201, "{body}");
    assert_eq!(json_field(&body, "id"), id, "{body}");
    assert_eq!(json_field(&body, "labels"), "4", "{body}");
    // The restored session ranks views exactly as the original did.
    let (status, body) = call(addr, "GET", &format!("/sessions/{id}/recommend?k=3"), "");
    assert_eq!(status, 200, "{body}");
    assert_eq!(&json_field(&body, "id").to_owned(), top1, "{body}");

    // --- healthz: per-endpoint counts and latency percentiles ---
    let (status, body) = call(addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"status\":\"ok\""), "{body}");
    for route in [
        "POST /sessions",
        "GET /sessions/:id/next",
        "POST /sessions/:id/feedback",
        "GET /sessions/:id/recommend",
    ] {
        assert!(body.contains(route), "missing {route} in {body}");
    }
    for field in ["\"count\":", "\"p50_us\":", "\"p90_us\":", "\"p99_us\":"] {
        assert!(body.contains(field), "missing {field} in {body}");
    }
    // 8 clients × 4 labels = 32 feedback calls were counted.
    let feedback_section = body
        .split("POST /sessions/:id/feedback")
        .nth(1)
        .expect("feedback section");
    assert_eq!(json_field(feedback_section, "count"), "32", "{body}");

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Reads a single-sample series value from a Prometheus scrape.
fn scrape_value(scrape: &str, series: &str) -> f64 {
    scrape
        .lines()
        .find_map(|line| line.strip_prefix(series)?.trim().parse().ok())
        .unwrap_or_else(|| panic!("no series {series:?} in scrape:\n{scrape}"))
}

#[test]
fn metrics_counters_move_across_the_session_lifecycle() {
    let dir = std::env::temp_dir().join(format!("vs-e2e-metrics-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let handle = serve_app(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        max_sessions: 1, // the second create evicts the first
        ttl: Duration::from_secs(600),
        snapshot_dir: Some(dir.clone()),
        data_dir: None,
        catalog_mem_budget: 64 << 20,
        log_format: LogFormat::Text,
        log_level: LogLevel::Off,
        ..Default::default()
    })
    .expect("bind");
    let addr = handle.addr();

    let (status, before) = call(addr, "GET", "/metrics", "");
    assert_eq!(status, 200, "{before}");
    assert_eq!(
        scrape_value(&before, "viewseeker_sessions_created_total "),
        0.0
    );
    assert_eq!(
        scrape_value(&before, "viewseeker_feedback_labels_total "),
        0.0
    );

    // create → feedback ×3 → recommend, then a second create that evicts
    // (and therefore snapshots) the first session, then restore it.
    let (first, _) = drive_session(addr, 7, &[0.9, 0.2, 0.6]);
    let (_second, _) = drive_session(addr, 8, &[0.5]);
    let (status, body) = call(addr, "POST", &format!("/sessions/{first}/restore"), "");
    assert_eq!(status, 201, "{body}");

    let (status, after) = call(addr, "GET", "/metrics", "");
    assert_eq!(status, 200, "{after}");
    assert_eq!(
        scrape_value(&after, "viewseeker_sessions_created_total "),
        2.0
    );
    assert_eq!(
        scrape_value(&after, "viewseeker_feedback_labels_total "),
        4.0
    );
    // Both creations' victims: first evicted by the second create, second
    // evicted by the restore (cap = 1).
    assert_eq!(
        scrape_value(&after, "viewseeker_sessions_evicted_total "),
        2.0
    );
    assert!(scrape_value(&after, "viewseeker_snapshots_total{outcome=\"ok\"} ") >= 2.0);
    assert_eq!(
        scrape_value(&after, "viewseeker_restores_total{outcome=\"ok\"} "),
        1.0
    );
    assert_eq!(scrape_value(&after, "viewseeker_active_sessions "), 1.0);
    assert_eq!(
        scrape_value(
            &after,
            "viewseeker_requests_total{route=\"POST /sessions\"} "
        ),
        2.0
    );

    // The latency histogram carries the full exposition triple for a route
    // this test exercised, with a cumulative +Inf bucket matching _count.
    let feedback_count = scrape_value(
        &after,
        "viewseeker_request_duration_seconds_count{route=\"POST /sessions/:id/feedback\"} ",
    );
    assert_eq!(feedback_count, 4.0);
    let inf_bucket = scrape_value(
        &after,
        "viewseeker_request_duration_seconds_bucket{route=\"POST /sessions/:id/feedback\",le=\"+Inf\"} ",
    );
    assert_eq!(inf_bucket, feedback_count);
    assert!(
        scrape_value(
            &after,
            "viewseeker_request_duration_seconds_sum{route=\"POST /sessions/:id/feedback\"} ",
        ) > 0.0
    );

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn eviction_over_http_is_restorable_with_identical_weights() {
    let dir = std::env::temp_dir().join(format!("vs-e2e-evict-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let handle = serve_app(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        max_sessions: 1, // every create evicts the previous session
        ttl: Duration::from_secs(600),
        snapshot_dir: Some(dir.clone()),
        data_dir: None,
        catalog_mem_budget: 64 << 20,
        log_format: LogFormat::Text,
        log_level: LogLevel::Off,
        ..Default::default()
    })
    .expect("bind");
    let addr = handle.addr();

    let (first, _) = drive_session(addr, 1, &[0.9, 0.2, 0.6]);
    // Capture the live session's weights via its snapshot endpoint.
    let (status, before) = call(addr, "POST", &format!("/sessions/{first}/snapshot"), "");
    assert_eq!(status, 200, "{before}");
    let weights_before = before
        .split("\"learned_weights\":")
        .nth(1)
        .expect("weights")
        .to_owned();

    // A second create evicts the first session (cap = 1)...
    let (second, _) = drive_session(addr, 2, &[0.5]);
    assert_ne!(first, second);
    let (status, body) = call(addr, "GET", &format!("/sessions/{first}"), "");
    assert_eq!(status, 404, "{body}");
    assert!(body.contains("restore"), "{body}");

    // ...which evicts the *second* when the first is restored from disk;
    // the restored weights are bit-identical (JSON renders f64 exactly).
    let (status, body) = call(addr, "POST", &format!("/sessions/{first}/restore"), "");
    assert_eq!(status, 201, "{body}");
    assert_eq!(json_field(&body, "labels"), "3", "{body}");
    let (status, after) = call(addr, "POST", &format!("/sessions/{first}/snapshot"), "");
    assert_eq!(status, 200, "{after}");
    let weights_after = after
        .split("\"learned_weights\":")
        .nth(1)
        .expect("weights")
        .to_owned();
    assert_eq!(weights_before, weights_after);

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Bodies nested 10 000 deep — a query of 10 000 `NOT`s, a JSON document
/// of 10 000 arrays — are `400`s, and the same server process answers
/// the next request. Unbounded recursive descent overflows a worker's
/// stack on either and aborts the process.
#[test]
fn deeply_nested_bodies_are_400s_and_the_server_survives() {
    let handle = serve_app(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        log_level: LogLevel::Off,
        ..Default::default()
    })
    .expect("bind");
    let addr = handle.addr();
    let query = format!(
        "{{\"dataset\": \"diab\", \"rows\": 200, \"query\": \"{}a0 = 'a0_v0'\"}}",
        "NOT ".repeat(10_000)
    );
    let arrays = format!("{}{}", "[".repeat(10_000), "]".repeat(10_000));
    for body in [query, arrays] {
        let (status, reply) = call(addr, "POST", "/sessions", &body);
        assert_eq!(status, 400, "{reply}");
        assert!(reply.contains("deeper than 128"), "{reply}");
    }
    let (status, body) = call(addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "{body}");
    handle.shutdown();
}

/// `Connection: close` is honored on error responses too: the header is
/// echoed and the socket ends, so a client reading to EOF returns.
#[test]
fn connection_close_is_honored_on_errors() {
    let handle = serve_app(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        log_level: LogLevel::Off,
        ..Default::default()
    })
    .expect("bind");
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .write_all(b"GET /nope HTTP/1.1\r\nConnection: close\r\n\r\n")
        .expect("send");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read to EOF");
    assert!(raw.starts_with("HTTP/1.1 404"), "{raw}");
    assert!(raw.contains("Connection: close"), "{raw}");
    handle.shutdown();
}
