//! End-to-end tests for the sharded session tier: deterministic
//! consistent-hash routing over real HTTP, live migration on
//! `POST /cluster/rebalance` with bit-identical snapshots, the merged
//! `GET /cluster` status, and peer forwarding (including the
//! peer-down → `503 + Retry-After` contract).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use viewseeker_server::{serve_app, LogFormat, LogLevel, ServerConfig};

/// Minimal HTTP/1.1 client: one connection per request, returns
/// `(status, headers, body)`.
fn call_full(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String, String) {
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
    let (head, payload) = raw
        .split_once("\r\n\r\n")
        .map(|(h, b)| (h.to_owned(), b.to_owned()))
        .unwrap_or_default();
    (status, head, payload)
}

fn call(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let (status, _, payload) = call_full(addr, method, path, body);
    (status, payload)
}

/// Pulls `"key":<value>` out of a flat JSON object without a parser.
fn json_field<'a>(body: &'a str, key: &str) -> &'a str {
    let needle = format!("\"{key}\":");
    let start = body
        .find(&needle)
        .unwrap_or_else(|| panic!("no {key:?} in {body}"))
        + needle.len();
    let rest = body[start..].trim_start();
    let end = rest
        .char_indices()
        .find(|(_, c)| matches!(c, ',' | '}' | ']'))
        .map_or(rest.len(), |(i, _)| i);
    rest[..end].trim().trim_matches('"')
}

fn spec(seed: u64) -> String {
    format!(
        "{{\"dataset\": \"diab\", \"rows\": 300, \"seed\": {seed}, \"query\": \"a0 = 'a0_v0'\"}}"
    )
}

fn config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 4,
        max_sessions: 64,
        ttl: Duration::from_secs(600),
        snapshot_dir: None,
        data_dir: None,
        catalog_mem_budget: 64 << 20,
        log_format: LogFormat::Text,
        log_level: LogLevel::Off,
        ..Default::default()
    }
}

/// Creates a session through `addr` and gives it `labels` rounds of
/// feedback; returns the session id.
fn seed_session(addr: SocketAddr, seed: u64, labels: &[f64]) -> String {
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
    id
}

#[test]
fn sharded_routing_is_deterministic_and_rebalance_migrates_live_sessions() {
    let handle = serve_app(&ServerConfig {
        shards: 2,
        ..config()
    })
    .expect("bind");
    let addr = handle.addr();

    // The merged /healthz reports the cluster shape.
    let (status, health) = call(addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "{health}");
    assert_eq!(json_field(&health, "shard_count"), "2", "{health}");
    assert_eq!(json_field(&health, "shard_id"), "0", "{health}");

    // Seed live sessions with real feedback so migration carries learned
    // estimator state, not blank sessions.
    let ids: Vec<String> = (0..6u64)
        .map(|i| seed_session(addr, i % 3, &[0.9, 0.2, 0.7]))
        .collect();

    // Deterministic routing: the same id answers correctly on every
    // request. A misroute would land on the shard that doesn't own the
    // session and 404.
    for id in &ids {
        for _ in 0..3 {
            let (status, body) = call(addr, "GET", &format!("/sessions/{id}"), "");
            assert_eq!(status, 200, "{body}");
            assert_eq!(json_field(&body, "id"), id, "{body}");
        }
    }

    // /cluster sees both local members and all sessions.
    let (status, cluster) = call(addr, "GET", "/cluster", "");
    assert_eq!(status, 200, "{cluster}");
    assert!(cluster.contains("\"local-0\""), "{cluster}");
    assert!(cluster.contains("\"local-1\""), "{cluster}");
    assert_eq!(json_field(&cluster, "local_shards"), "2", "{cluster}");
    assert_eq!(json_field(&cluster, "rebalancing"), "false", "{cluster}");

    // Capture each session's snapshot before the move; the restored
    // session must reproduce it bit for bit (estimators are a pure
    // function of the replayed labels).
    let before: Vec<String> = ids
        .iter()
        .map(|id| {
            let (status, body) = call(addr, "POST", &format!("/sessions/{id}/snapshot"), "");
            assert_eq!(status, 200, "{body}");
            body
        })
        .collect();

    // Hammer one session while the rebalance runs: every answer must be
    // a correct 200 or a retryable 503, never an error or a
    // wrong-session body.
    let probe_id = ids.first().expect("ids").clone();
    let (shed_seen, rebalance_body) = std::thread::scope(|s| {
        let probe = s.spawn({
            let probe_id = probe_id.clone();
            move || {
                let mut shed = 0u32;
                for _ in 0..60 {
                    let (status, head, body) =
                        call_full(addr, "GET", &format!("/sessions/{probe_id}"), "");
                    match status {
                        200 => assert_eq!(json_field(&body, "id"), probe_id, "{body}"),
                        503 => {
                            assert!(head.contains("Retry-After:"), "{head}");
                            shed += 1;
                        }
                        other => panic!("dropped request: {other} {body}"),
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                shed
            }
        });
        let (status, body) = call(addr, "POST", "/cluster/rebalance", "{\"shards\": 1}");
        assert_eq!(status, 200, "{body}");
        (probe.join().expect("probe thread"), body)
    });
    // Sessions that lived on local-1 moved to local-0 (how many is up to
    // the ring, but a 6-session spread landing all on one member is
    // vanishingly unlikely).
    let migrated: u64 = json_field(&rebalance_body, "migrated")
        .parse()
        .expect("count");
    assert!(migrated >= 1, "{rebalance_body}");
    assert_eq!(
        json_field(&rebalance_body, "errors"),
        "0",
        "{rebalance_body}"
    );
    // The probe may or may not have overlapped the shed window; either
    // way it never saw a dropped request (the panic above).
    let _ = shed_seen;

    // Every session survived the move with bit-identical snapshots.
    for (id, old) in ids.iter().zip(&before) {
        let (status, body) = call(addr, "POST", &format!("/sessions/{id}/snapshot"), "");
        assert_eq!(status, 200, "{body}");
        assert_eq!(&body, old, "snapshot changed across migration for {id}");
    }

    // /cluster reflects the new shape and the migration counters.
    let (status, cluster) = call(addr, "GET", "/cluster", "");
    assert_eq!(status, 200, "{cluster}");
    assert_eq!(json_field(&cluster, "local_shards"), "1", "{cluster}");
    let migrated_ok: u64 = json_field(&cluster, "migrated_ok").parse().expect("count");
    assert_eq!(migrated_ok, migrated, "{cluster}");
    assert_eq!(json_field(&cluster, "migrated_err"), "0", "{cluster}");

    // Growing back redistributes onto both shards and stays lossless.
    let (status, body) = call(addr, "POST", "/cluster/rebalance", "{\"shards\": 2}");
    assert_eq!(status, 200, "{body}");
    for (id, old) in ids.iter().zip(&before) {
        let (status, body) = call(addr, "POST", &format!("/sessions/{id}/snapshot"), "");
        assert_eq!(status, 200, "{body}");
        assert_eq!(&body, old, "snapshot changed across re-grow for {id}");
    }

    // Out-of-range targets are rejected without touching anything.
    let (status, body) = call(addr, "POST", "/cluster/rebalance", "{\"shards\": 9}");
    assert_eq!(status, 400, "{body}");
    let (status, body) = call(addr, "POST", "/cluster/rebalance", "{}");
    assert_eq!(status, 400, "{body}");

    handle.shutdown();
}

#[test]
fn peer_topology_forwards_by_ring_owner_and_sheds_when_the_peer_dies() {
    // B: a plain single-shard server; A: fronts the ring {local-0, B}.
    let peer_handle = serve_app(&config()).expect("bind peer");
    let peer_addr = peer_handle.addr();
    let handle = serve_app(&ServerConfig {
        peers: vec![peer_addr.to_string()],
        ..config()
    })
    .expect("bind router");
    let addr = handle.addr();

    let (status, cluster) = call(addr, "GET", "/cluster", "");
    assert_eq!(status, 200, "{cluster}");
    assert!(cluster.contains("\"local-0\""), "{cluster}");
    assert!(
        cluster.contains(&format!("\"peer-{peer_addr}\"")),
        "{cluster}"
    );

    // Create sessions through A until the ring has placed at least one
    // on each member (20 tries make an all-on-one-member spread
    // astronomically unlikely).
    let mut ids = Vec::new();
    for i in 0..20u64 {
        ids.push(seed_session(addr, i % 3, &[0.8]));
        let (_, sessions) = call(peer_addr, "GET", "/sessions", "");
        if sessions.contains("\"id\"") && ids.iter().any(|id| sessions.contains(id.as_str())) {
            break;
        }
    }
    let (_, peer_sessions) = call(peer_addr, "GET", "/sessions", "");
    let remote_id = ids
        .iter()
        .find(|id| peer_sessions.contains(id.as_str()))
        .expect("no session landed on the peer")
        .clone();

    // The peer-owned session answers through A (forwarded), and the
    // merged /sessions view includes it.
    let (status, body) = call(addr, "GET", &format!("/sessions/{remote_id}"), "");
    assert_eq!(status, 200, "{body}");
    assert_eq!(json_field(&body, "id"), remote_id, "{body}");
    let (status, merged) = call(addr, "GET", "/sessions", "");
    assert_eq!(status, 200, "{merged}");
    assert!(merged.contains(remote_id.as_str()), "{merged}");

    let (status, cluster) = call(addr, "GET", "/cluster", "");
    assert_eq!(status, 200, "{cluster}");
    let forwarded: u64 = json_field(&cluster, "forwarded").parse().expect("count");
    assert!(forwarded >= 1, "{cluster}");

    // Kill the peer: its sessions now answer 503 + Retry-After through
    // A — a retryable shed, never a connection error — and /cluster
    // marks the member down.
    peer_handle.shutdown();
    let (status, head, _) = call_full(addr, "GET", &format!("/sessions/{remote_id}"), "");
    assert_eq!(status, 503, "{head}");
    assert!(head.contains("Retry-After:"), "{head}");
    let (status, cluster) = call(addr, "GET", "/cluster", "");
    assert_eq!(status, 200, "{cluster}");
    assert!(cluster.contains("\"up\":false"), "{cluster}");

    handle.shutdown();
}

#[test]
fn graceful_shutdown_drains_local_sessions_to_the_peers() {
    let peer_handle = serve_app(&config()).expect("bind peer");
    let peer_addr = peer_handle.addr();
    let handle = serve_app(&ServerConfig {
        peers: vec![peer_addr.to_string()],
        ..config()
    })
    .expect("bind router");
    let addr = handle.addr();

    // Place sessions through A; at least one stays local over 8 tries.
    let ids: Vec<String> = (0..8u64)
        .map(|i| seed_session(addr, i % 3, &[0.6]))
        .collect();
    let snapshots: Vec<(String, String)> = ids
        .iter()
        .map(|id| {
            let (status, body) = call(addr, "POST", &format!("/sessions/{id}/snapshot"), "");
            assert_eq!(status, 200, "{body}");
            (id.clone(), body)
        })
        .collect();

    // Graceful shutdown migrates every local session to the peer ring.
    handle.shutdown();

    // All sessions — wherever they lived — are now on B, states intact.
    for (id, old) in &snapshots {
        let (status, body) = call(peer_addr, "POST", &format!("/sessions/{id}/snapshot"), "");
        assert_eq!(status, 200, "session {id} lost in drain: {body}");
        assert_eq!(&body, old, "snapshot changed across drain for {id}");
    }

    peer_handle.shutdown();
}
