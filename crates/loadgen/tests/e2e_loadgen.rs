//! Smoke end-to-end: loadgen against a real in-process server on the
//! event I/O path. The bar here is correctness, not throughput — every
//! response must frame cleanly (zero protocol errors) and full sessions
//! must complete.

use std::time::Duration;

use viewseeker_server::{serve_app, LogFormat, LogLevel, ServerConfig};

#[test]
fn loadgen_completes_sessions_with_zero_protocol_errors() {
    let handle = serve_app(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        max_sessions: 64,
        ttl: Duration::from_secs(600),
        snapshot_dir: None,
        data_dir: None,
        catalog_mem_budget: 64 << 20,
        log_format: LogFormat::Text,
        log_level: LogLevel::Off,
        ..Default::default()
    })
    .expect("bind");

    let report = viewseeker_loadgen::run(&viewseeker_loadgen::Config {
        addr: handle.addr().to_string(),
        connections: 8,
        duration: Duration::from_secs(2),
        feedback_rounds: 1,
        ramp: Duration::from_millis(200),
    })
    .expect("load run");

    assert_eq!(report.protocol_errors, 0, "{}", report.to_json());
    assert_eq!(report.errors, 0, "{}", report.to_json());
    assert!(report.requests > 0, "{}", report.to_json());
    assert!(report.sessions > 0, "{}", report.to_json());
    assert!(report.p99_us >= report.p50_us, "{}", report.to_json());

    handle.shutdown();
}

#[test]
fn loadgen_refuses_a_dead_target() {
    // Port 9 on localhost: nothing listens there in the test environment.
    let err = viewseeker_loadgen::run(&viewseeker_loadgen::Config {
        addr: "127.0.0.1:9".into(),
        connections: 2,
        duration: Duration::from_millis(100),
        feedback_rounds: 0,
        ramp: Duration::ZERO,
    });
    assert!(err.is_err());
}
