//! Drives a full interactive session over HTTP against an in-process
//! `viewseeker-server`: create a session, alternate next-view / feedback
//! (simulating a user whose hidden ideal is pure EMD), read the
//! personalized top-k, snapshot, and check server health — all through
//! real TCP sockets, exactly as an external UI would.
//!
//! ```text
//! cargo run --release --example serve_and_explore
//! ```

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use viewseeker_server::{serve_app, LogFormat, LogLevel, ServerConfig};

/// One request over a fresh connection; returns `(status, body)`.
fn call(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    // `Connection: close` because this helper reads to EOF — under the
    // event I/O path (the default) HTTP/1.1 connections otherwise stay
    // open for keep-alive and `read_to_string` would block forever.
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: example\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("send");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("receive");
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .unwrap_or_default();
    (status, body)
}

/// Extracts the value after `"key":` from a flat JSON object.
fn json_field<'a>(body: &'a str, key: &str) -> &'a str {
    let needle = format!("\"{key}\":");
    let start = body.find(&needle).expect("field") + needle.len();
    let rest = &body[start..];
    let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
    rest[..end].trim_matches('"')
}

fn main() {
    // 1. Start the service in-process on a free port.
    let handle = serve_app(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        max_sessions: 8,
        ttl: Duration::from_secs(600),
        snapshot_dir: None,
        data_dir: None,
        catalog_mem_budget: 64 << 20,
        // Structured access logs on stderr; try LogFormat::Json here.
        log_format: LogFormat::Text,
        log_level: LogLevel::Off,
        // The epoll reactor's admission limits stay at their defaults.
        ..Default::default()
    })
    .expect("bind");
    let addr = handle.addr();
    println!("server listening on http://{addr}\n");

    // 2. Create a session over a generated DIAB-like testbed.
    let (status, body) = call(
        addr,
        "POST",
        "/sessions",
        r#"{"dataset": "diab", "rows": 2000, "seed": 7, "query": "a0 = 'a0_v0'"}"#,
    );
    assert_eq!(status, 201, "{body}");
    let id = json_field(&body, "id").to_owned();
    println!(
        "created session {id}: {} candidate views",
        json_field(&body, "views")
    );

    // 3. The interactive loop. A real deployment shows each view to a
    //    human; here a simulated user rates views by their EMD deviation,
    //    which the server has in each view's feature vector — we just rate
    //    a few views with fixed plausible scores to stand in for taste.
    let ratings = [0.95, 0.1, 0.7, 0.2, 0.85, 0.4, 0.6, 0.3];
    for (turn, score) in ratings.iter().enumerate() {
        let (status, body) = call(addr, "GET", &format!("/sessions/{id}/next?m=1"), "");
        assert_eq!(status, 200, "{body}");
        let view = json_field(&body, "id").to_owned();
        let (agg, measure, dim) = (
            json_field(&body, "aggregate").to_owned(),
            json_field(&body, "measure").to_owned(),
            json_field(&body, "dimension").to_owned(),
        );
        println!("turn {turn}: labeling view {view} [{agg}({measure}) BY {dim}] -> {score}");
        let (status, body) = call(
            addr,
            "POST",
            &format!("/sessions/{id}/feedback"),
            &format!("{{\"view\": {view}, \"score\": {score}}}"),
        );
        assert_eq!(status, 200, "{body}");
    }

    // 4. Read the personalized recommendation, plain and diversified.
    let (status, body) = call(addr, "GET", &format!("/sessions/{id}/recommend?k=5"), "");
    assert_eq!(status, 200, "{body}");
    println!("\ntop-5 (learned utility): {body}");
    let (status, body) = call(
        addr,
        "GET",
        &format!("/sessions/{id}/recommend?k=5&lambda=0.5"),
        "",
    );
    assert_eq!(status, 200, "{body}");
    println!("\ntop-5 (diversified, λ=0.5): {body}");

    // 5. Snapshot the session — the returned document restores the session
    //    (here or on another server) via POST /sessions/restore.
    let (status, snapshot) = call(addr, "POST", &format!("/sessions/{id}/snapshot"), "");
    assert_eq!(status, 200, "{snapshot}");
    println!("\nsnapshot captured ({} bytes)", snapshot.len());
    let (status, _) = call(addr, "DELETE", &format!("/sessions/{id}"), "");
    assert_eq!(status, 200);
    let (status, body) = call(addr, "POST", "/sessions/restore", &snapshot);
    assert_eq!(status, 201, "{body}");
    println!("session {} restored from snapshot", json_field(&body, "id"));

    // 6. Health: per-endpoint request counts and latency percentiles.
    let (status, body) = call(addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "{body}");
    println!("\nhealthz: {body}");

    // 7. The same state, Prometheus-scrapeable (counters, gauges, and
    //    per-route latency histograms).
    let (status, scrape) = call(addr, "GET", "/metrics", "");
    assert_eq!(status, 200, "{scrape}");
    let interesting: Vec<&str> = scrape
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter(|l| {
            l.starts_with("viewseeker_active_sessions")
                || l.starts_with("viewseeker_feedback_labels_total")
                || l.contains("route=\"POST /sessions/:id/feedback\"")
        })
        .collect();
    println!("\nmetrics excerpt:\n{}", interesting.join("\n"));

    handle.shutdown();
    println!("\nserver stopped cleanly");
}
