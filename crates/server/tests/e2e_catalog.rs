//! End-to-end test for the dataset catalog over real HTTP: upload a CSV,
//! run the full interactive loop against it, verify the delete-with-live-
//! sessions refcount guard, and check the catalog series in the
//! Prometheus scrape. A second server over the same `--data-dir` proves
//! the VSC2 store survives restarts.

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

/// Pulls `"key":<value>` out of a flat JSON object without a parser.
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

fn scrape_value(scrape: &str, series: &str) -> f64 {
    scrape
        .lines()
        .find_map(|line| line.strip_prefix(series)?.trim().parse().ok())
        .unwrap_or_else(|| panic!("no series {series:?} in scrape:\n{scrape}"))
}

/// A small sales table with enough structure for views to differ: three
/// categorical regions, three products, a numeric-dimension age, and a
/// measure whose distribution shifts with the region.
fn sales_csv(rows: usize) -> String {
    let mut csv = String::from("region,product,n_age,m_sales\n");
    for i in 0..rows {
        let region = ["west", "east", "north"][i % 3];
        let product = ["widget", "gadget"][i % 2];
        let age = 20 + (i * 7) % 50;
        let sales = match region {
            "west" => 100.0 + (i % 13) as f64 * 9.0,
            "east" => 40.0 + (i % 7) as f64 * 2.0,
            _ => 70.0 + (i % 5) as f64 * 4.0,
        };
        csv.push_str(&format!("{region},{product},{age},{sales:.1}\n"));
    }
    csv
}

fn server(data_dir: &std::path::Path) -> viewseeker_server::AppHandle {
    serve_app(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        max_sessions: 8,
        ttl: Duration::from_secs(600),
        snapshot_dir: None,
        data_dir: Some(data_dir.to_path_buf()),
        catalog_mem_budget: 64 << 20,
        log_format: LogFormat::Text,
        log_level: LogLevel::Off,
        ..Default::default()
    })
    .expect("bind")
}

/// The append path end-to-end: rows appended under live sessions are
/// folded into their aggregates (the absorbed session agrees with a fresh
/// session built over the grown table), the append is durable as VSC2,
/// and a restart cold-starts from the mapped store with identical bodies.
#[test]
fn append_under_live_sessions_and_mmap_cold_start() {
    let dir = std::env::temp_dir().join(format!("vs-e2e-append-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let handle = server(&dir);
    let addr = handle.addr();

    let csv = sales_csv(240);
    let (status, _) = call(addr, "POST", "/datasets/sales", &csv);
    assert_eq!(status, 201);

    // A live session built before the append, with no feedback yet.
    let (status, body) = call(
        addr,
        "POST",
        "/sessions",
        r#"{"dataset": "sales", "query": "region = 'west'"}"#,
    );
    assert_eq!(status, 201, "{body}");
    let live = json_field(&body, "id").to_owned();

    // Append 12 fresh rows (header required, same schema).
    let mut tail = String::from("region,product,n_age,m_sales\n");
    for i in 0..12 {
        let region = ["west", "east"][i % 2];
        tail.push_str(&format!(
            "{region},widget,{},{:.1}\n",
            30 + i,
            500.0 + i as f64
        ));
    }
    let (status, body) = call(addr, "POST", "/datasets/sales/rows", &tail);
    assert_eq!(status, 200, "{body}");
    assert_eq!(json_field(&body, "appended"), "12");
    assert_eq!(json_field(&body, "total_rows"), "252");
    assert_eq!(json_field(&body, "sessions_updated"), "1");
    let (status, body) = call(addr, "GET", "/datasets/sales", "");
    assert_eq!(status, 200);
    assert_eq!(json_field(&body, "rows"), "252");

    // Appending a schema mismatch is a client error and changes nothing.
    let (status, _) = call(addr, "POST", "/datasets/sales/rows", "bogus\n1\n");
    assert_eq!(status, 400);

    // The live session absorbed the new rows: with no labels on either
    // side, its next-view ranking must agree with a session built from
    // scratch over the grown table.
    let (status, body) = call(
        addr,
        "POST",
        "/sessions",
        r#"{"dataset": "sales", "query": "region = 'west'"}"#,
    );
    assert_eq!(status, 201, "{body}");
    let fresh = json_field(&body, "id").to_owned();
    let (status, live_next) = call(addr, "GET", &format!("/sessions/{live}/next?m=1"), "");
    assert_eq!(status, 200, "{live_next}");
    let (status, fresh_next) = call(addr, "GET", &format!("/sessions/{fresh}/next?m=1"), "");
    assert_eq!(status, 200, "{fresh_next}");
    assert_eq!(
        json_field(&live_next, "id"),
        json_field(&fresh_next, "id"),
        "absorbed session ranks differently than a fresh session over the grown table"
    );
    // Feedback and recommend both run over the absorbed (grown) table.
    for score in [0.9, 0.2, 0.7] {
        let (status, body) = call(addr, "GET", &format!("/sessions/{live}/next?m=1"), "");
        assert_eq!(status, 200, "{body}");
        let view = json_field(&body, "id").to_owned();
        let (status, body) = call(
            addr,
            "POST",
            &format!("/sessions/{live}/feedback"),
            &format!("{{\"view\": {view}, \"score\": {score}}}"),
        );
        assert_eq!(status, 200, "{body}");
    }
    let (status, body) = call(addr, "GET", &format!("/sessions/{live}/recommend?k=2"), "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("FROM sales"), "{body}");

    // Appends upgraded the store to VSC2 on disk, and the scrape carries
    // the append/pruning counters.
    let manifest = std::fs::read_to_string(dir.join("sales").join("manifest.json")).unwrap();
    assert!(manifest.contains("\"format\": \"VSC2\""), "{manifest}");
    let (status, scrape) = call(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert_eq!(scrape_value(&scrape, "viewseeker_append_rows_total "), 12.0);
    assert!(
        scrape.contains("viewseeker_catalog_rowgroups_scanned_total "),
        "{scrape}"
    );

    // Restart over the same directory: the VSC2 store cold-starts (numeric
    // columns mapped, not decoded) and serves byte-identical dataset
    // bodies and a working session.
    let (status, before) = call(addr, "GET", "/datasets/sales", "");
    assert_eq!(status, 200);
    handle.shutdown();
    let handle = server(&dir);
    let addr = handle.addr();
    let (status, after) = call(addr, "GET", "/datasets/sales", "");
    assert_eq!(status, 200);
    assert_eq!(before, after, "cold start changed the dataset body");
    let (status, body) = call(
        addr,
        "POST",
        "/sessions",
        r#"{"dataset": "sales", "query": "region = 'west'"}"#,
    );
    assert_eq!(status, 201, "{body}");
    let id = json_field(&body, "id").to_owned();
    let (status, body) = call(addr, "GET", &format!("/sessions/{id}/next?m=1"), "");
    assert_eq!(status, 200, "{body}");

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn csv_upload_session_loop_delete_guard_and_metrics() {
    let dir = std::env::temp_dir().join(format!("vs-e2e-catalog-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let handle = server(&dir);
    let addr = handle.addr();

    // --- Upload: raw CSV body, no multipart. ---
    let csv = sales_csv(240);
    let (status, body) = call(addr, "POST", "/datasets/sales", &csv);
    assert_eq!(status, 201, "{body}");
    assert_eq!(json_field(&body, "name"), "sales");
    assert_eq!(json_field(&body, "rows"), "240");
    let checksum = json_field(&body, "checksum").to_owned();
    assert_eq!(checksum.len(), 16, "{checksum}");

    // Duplicate name is a conflict; bad names are client errors.
    let (status, body) = call(addr, "POST", "/datasets/sales", &csv);
    assert_eq!(status, 409, "{body}");
    let (status, _) = call(addr, "POST", "/datasets/bad%20name", &csv);
    assert_eq!(status, 400);
    let (status, _) = call(addr, "POST", "/datasets/diab", &csv);
    assert_eq!(status, 400, "reserved generator name must be rejected");

    // --- Listing and detail. ---
    let (status, body) = call(addr, "GET", "/datasets", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"name\":\"sales\""), "{body}");
    let (status, body) = call(addr, "GET", "/datasets/sales", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"resident_bytes\":"), "{body}");
    // region has 3 distinct values; the schema convention mapped the
    // columns as promised.
    assert!(
        body.contains(
            r#"{"name":"region","kind":"categorical","role":"dimension","cardinality":3}"#
        ),
        "{body}"
    );
    assert!(
        body.contains(r#"{"name":"m_sales","kind":"numeric","role":"measure""#),
        "{body}"
    );
    let (status, _) = call(addr, "GET", "/datasets/ghost", "");
    assert_eq!(status, 404);

    // --- Two sessions over the uploaded dataset drive the full loop. ---
    let mut sessions = Vec::new();
    for _ in 0..2 {
        let (status, body) = call(
            addr,
            "POST",
            "/sessions",
            r#"{"dataset": "sales", "query": "region = 'west'"}"#,
        );
        assert_eq!(status, 201, "{body}");
        sessions.push(json_field(&body, "id").to_owned());
    }
    for id in &sessions {
        for score in [0.9, 0.2, 0.7] {
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
        assert!(body.contains("\"sql\":"), "{body}");
        assert!(body.contains("FROM sales"), "{body}");
    }

    // Asking a stored dataset for generator parameters is a client error.
    let (status, body) = call(
        addr,
        "POST",
        "/sessions",
        r#"{"dataset": "sales", "rows": 100}"#,
    );
    assert_eq!(status, 400, "{body}");

    // --- Refcount guard: live sessions hold the table. ---
    let (status, body) = call(addr, "DELETE", "/datasets/sales", "");
    assert_eq!(status, 409, "{body}");
    for id in &sessions {
        let (status, _) = call(addr, "DELETE", &format!("/sessions/{id}"), "");
        assert_eq!(status, 200);
    }

    // --- Catalog series in the Prometheus scrape. ---
    let (status, scrape) = call(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    // Both session creates resolved "sales" from memory.
    assert!(
        scrape_value(&scrape, "viewseeker_catalog_hits_total ") >= 2.0,
        "{scrape}"
    );
    assert!(
        scrape.contains("viewseeker_catalog_misses_total "),
        "{scrape}"
    );
    assert!(
        scrape_value(&scrape, "viewseeker_catalog_resident_bytes ") > 0.0,
        "{scrape}"
    );
    assert_eq!(
        scrape_value(&scrape, "viewseeker_catalog_datasets{state=\"known\"} "),
        1.0,
        "{scrape}"
    );

    // --- Restart over the same data dir: the VSC2 store survives. ---
    handle.shutdown();
    let handle = server(&dir);
    let addr = handle.addr();
    let (status, body) = call(addr, "GET", "/datasets/sales", "");
    assert_eq!(status, 200, "{body}");
    assert_eq!(json_field(&body, "checksum"), checksum);
    // A fresh session works straight from the reloaded store.
    let (status, body) = call(
        addr,
        "POST",
        "/sessions",
        r#"{"dataset": "sales", "query": "region = 'west'"}"#,
    );
    assert_eq!(status, 201, "{body}");

    // --- With no live sessions holding it, delete now succeeds. ---
    let id = json_field(&body, "id").to_owned();
    let (status, _) = call(addr, "DELETE", &format!("/sessions/{id}"), "");
    assert_eq!(status, 200);
    let (status, body) = call(addr, "DELETE", "/datasets/sales", "");
    assert_eq!(status, 200, "{body}");
    let (status, _) = call(addr, "GET", "/datasets/sales", "");
    assert_eq!(status, 404);
    assert!(
        !dir.join("sales").exists(),
        "dataset directory must be removed from disk"
    );

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
