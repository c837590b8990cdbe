//! `viewseeker-loadgen`: a closed-loop load generator for the ViewSeeker
//! HTTP service.
//!
//! Each of N concurrent keep-alive connections replays the interactive
//! session mix end to end — create → (next → feedback) × k → recommend →
//! delete — then immediately starts a fresh session, until the configured
//! duration elapses. "Closed-loop" means a connection never has more than
//! one request in flight: the next request is issued only after the
//! previous response is fully parsed, so offered load adapts to server
//! latency instead of queueing unboundedly inside the client.
//!
//! The client rides the same building blocks as the server's reactor:
//! [`viewseeker_net::sys::Poller`] for readiness, the incremental
//! [`viewseeker_net::http1`] parser for framing, and the log-linear
//! [`viewseeker_net::hist::Histogram`] for latency quantiles. A `503`
//! answer (admission-control shedding) is counted and the request is
//! retried on the same connection; it is not a protocol error. Protocol
//! errors — truncated frames, unparseable responses, unexpected EOF
//! mid-response — are what the differential/bench harness asserts to be
//! zero.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use viewseeker_net::hist::Histogram;
use viewseeker_net::http1::{parse_response, ParsedResponse};
use viewseeker_net::sys::{Interest, Poller};

/// Scores the simulated user assigns across feedback rounds (cycled).
const SCORES: &[&str] = &["0.9", "0.1", "0.7", "0.4", "0.8"];

/// Session-create spec template; `{seed}` varies per connection+session so
/// concurrent sessions exercise distinct seeker states.
const DATASET: &str = "diab";
const ROWS: usize = 200;
const QUERY: &str = "a0 = 'a0_v0'";

/// Load-run parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// Target server address (`host:port`).
    pub addr: String,
    /// Concurrent keep-alive connections.
    pub connections: usize,
    /// How long to keep the loop running.
    pub duration: Duration,
    /// Feedback rounds per session (the `k` in the mix).
    pub feedback_rounds: usize,
    /// Linear connection ramp: client `i` of `n` connects `ramp * i / n`
    /// into the run instead of all connections up front (`--ramp`; zero
    /// keeps the old everything-at-once behavior).
    pub ramp: Duration,
}

/// Latency summary for one step of the session mix.
#[derive(Debug, Clone, PartialEq)]
pub struct EndpointStats {
    /// Step name: `create`, `next`, `feedback`, `recommend`, or `delete`.
    pub endpoint: &'static str,
    /// Responses received for this step (any status).
    pub count: u64,
    /// Median latency, microseconds.
    pub p50_us: u64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: u64,
    /// Worst observed latency, microseconds.
    pub max_us: u64,
}

/// Aggregate results of one load run.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Connections that were actually established.
    pub connections: usize,
    /// Wall-clock run length in seconds.
    pub duration_secs: f64,
    /// Configured connection ramp in seconds (zero = no ramp).
    pub ramp_secs: f64,
    /// Responses received (any status).
    pub requests: u64,
    /// Full sessions completed (create through delete).
    pub sessions: u64,
    /// Non-2xx, non-503 responses.
    pub errors: u64,
    /// Framing/transport failures: unparseable responses, EOF
    /// mid-response, connect failures mid-run.
    pub protocol_errors: u64,
    /// `503 Service Unavailable` responses (admission-control sheds).
    pub shed: u64,
    /// Connections re-established after a server-initiated close.
    pub reconnects: u64,
    /// Completed requests per second.
    pub throughput_rps: f64,
    /// Median request latency, microseconds.
    pub p50_us: u64,
    /// 99th-percentile request latency, microseconds.
    pub p99_us: u64,
    /// Worst observed request latency, microseconds.
    pub max_us: u64,
    /// Responses whose echoed `X-Request-Id` differs from the one sent
    /// (expected 0 — every response path echoes the id).
    pub id_mismatches: u64,
    /// Per-step latency breakdown, in session-mix order.
    pub endpoints: Vec<EndpointStats>,
}

impl Report {
    /// Renders the report as a single JSON object (the `loadgen` CLI
    /// output and the `BENCH_net.json`/`BENCH_trace.json` payload).
    #[must_use]
    pub fn to_json(&self) -> String {
        let endpoints = self
            .endpoints
            .iter()
            .map(|e| {
                format!(
                    "\"{}\": {{\"count\": {}, \"p50_us\": {}, \"p99_us\": {}, \"max_us\": {}}}",
                    e.endpoint, e.count, e.p50_us, e.p99_us, e.max_us
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"connections\": {}, \"duration_secs\": {:.3}, \
             \"ramp_secs\": {:.3}, \"requests\": {}, \
             \"sessions\": {}, \"errors\": {}, \"protocol_errors\": {}, \
             \"shed\": {}, \"reconnects\": {}, \"throughput_rps\": {:.1}, \
             \"p50_us\": {}, \"p99_us\": {}, \"max_us\": {}, \
             \"id_mismatches\": {}, \"endpoints\": {{{endpoints}}}}}",
            self.connections,
            self.duration_secs,
            self.ramp_secs,
            self.requests,
            self.sessions,
            self.errors,
            self.protocol_errors,
            self.shed,
            self.reconnects,
            self.throughput_rps,
            self.p50_us,
            self.p99_us,
            self.max_us,
            self.id_mismatches,
        )
    }
}

/// Where a connection is in the session script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    Create,
    Next(usize),
    Feedback(usize),
    Recommend,
    Delete,
}

/// Step names in session-mix order, indexed by [`Step::index`].
const STEP_NAMES: [&str; 5] = ["create", "next", "feedback", "recommend", "delete"];

impl Step {
    /// Index into [`STEP_NAMES`] and the per-step histogram array.
    fn index(self) -> usize {
        match self {
            Step::Create => 0,
            Step::Next(_) => 1,
            Step::Feedback(_) => 2,
            Step::Recommend => 3,
            Step::Delete => 4,
        }
    }
}

/// One closed-loop connection's state machine.
struct Client {
    stream: TcpStream,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    written: usize,
    interest: Interest,
    step: Step,
    session: String,
    view: String,
    seed: u64,
    sent_at: Instant,
    /// A request is outstanding (response not yet parsed).
    awaiting: bool,
    /// Requests issued on this connection, for minting unique ids.
    issued: u64,
    /// The `X-Request-Id` sent with the outstanding request.
    request_id: String,
}

/// Mutable counters shared across the run loop.
#[derive(Default)]
struct Counters {
    requests: u64,
    sessions: u64,
    errors: u64,
    protocol_errors: u64,
    shed: u64,
    reconnects: u64,
    id_mismatches: u64,
}

/// Overall and per-step latency histograms.
struct Latency {
    total: Histogram,
    steps: [Histogram; 5],
}

impl Latency {
    fn new() -> Self {
        Self {
            total: Histogram::new(),
            steps: std::array::from_fn(|_| Histogram::new()),
        }
    }

    fn record(&mut self, step: Step, us: u64) {
        self.total.record(us);
        if let Some(hist) = self.steps.get_mut(step.index()) {
            hist.record(us);
        }
    }

    /// Per-step summaries in session-mix order, skipping steps never hit.
    fn endpoints(&self) -> Vec<EndpointStats> {
        STEP_NAMES
            .iter()
            .zip(&self.steps)
            .filter(|(_, hist)| hist.count() > 0)
            .map(|(name, hist)| EndpointStats {
                endpoint: name,
                count: hist.count(),
                p50_us: hist.quantile(0.50),
                p99_us: hist.quantile(0.99),
                max_us: hist.max_us(),
            })
            .collect()
    }
}

impl Client {
    fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Client {
            stream,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            written: 0,
            interest: Interest::READ,
            step: Step::Create,
            session: String::new(),
            view: String::new(),
            seed: 0,
            sent_at: Instant::now(),
            awaiting: false,
            issued: 0,
            request_id: String::new(),
        })
    }

    /// Queues the request for the current step.
    fn issue(&mut self) {
        let (method, path, body) = match self.step {
            Step::Create => (
                "POST",
                "/sessions".to_owned(),
                format!(
                    "{{\"dataset\": \"{DATASET}\", \"rows\": {ROWS}, \
                     \"seed\": {}, \"query\": \"{QUERY}\"}}",
                    self.seed
                ),
            ),
            Step::Next(_) => (
                "GET",
                format!("/sessions/{}/next?m=1", self.session),
                String::new(),
            ),
            Step::Feedback(i) => (
                "POST",
                format!("/sessions/{}/feedback", self.session),
                format!(
                    "{{\"view\": {}, \"score\": {}}}",
                    self.view,
                    SCORES[i % SCORES.len()]
                ),
            ),
            Step::Recommend => (
                "GET",
                format!("/sessions/{}/recommend?k=3", self.session),
                String::new(),
            ),
            Step::Delete => (
                "DELETE",
                format!("/sessions/{}", self.session),
                String::new(),
            ),
        };
        self.issued += 1;
        self.request_id = format!("lg-{:x}-{:x}", self.seed, self.issued);
        self.write_buf.extend_from_slice(
            format!(
                "{method} {path} HTTP/1.1\r\nHost: loadgen\r\n\
                 X-Request-Id: {}\r\nContent-Length: {}\r\n\r\n{body}",
                self.request_id,
                body.len()
            )
            .as_bytes(),
        );
        self.sent_at = Instant::now();
        self.awaiting = true;
    }

    /// Advances the script after a successful response; returns `true`
    /// when a full session just completed.
    fn advance(&mut self, body: &[u8], rounds: usize) -> bool {
        match self.step {
            Step::Create => {
                self.session = json_field(body, "id").unwrap_or_default();
                self.step = if rounds == 0 {
                    Step::Recommend
                } else {
                    Step::Next(0)
                };
            }
            Step::Next(i) => {
                self.view = json_field(body, "id").unwrap_or_default();
                self.step = Step::Feedback(i);
            }
            Step::Feedback(i) => {
                self.step = if i + 1 < rounds {
                    Step::Next(i + 1)
                } else {
                    Step::Recommend
                };
            }
            Step::Recommend => self.step = Step::Delete,
            Step::Delete => {
                self.seed = self.seed.wrapping_add(1_000_003);
                self.step = Step::Create;
                return true;
            }
        }
        false
    }

    fn wants_write(&self) -> bool {
        self.written < self.write_buf.len()
    }

    /// Writes as much of the pending request as the socket accepts.
    fn flush(&mut self) -> io::Result<()> {
        while self.wants_write() {
            let chunk = self.write_buf.get(self.written..).unwrap_or_default();
            match (&self.stream).write(chunk) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if !self.wants_write() {
            self.write_buf.clear();
            self.written = 0;
        }
        Ok(())
    }
}

/// When each of `connections` clients should connect, as offsets from the
/// run start: a linear spread over `ramp`, first client at zero. A zero
/// ramp yields all-zero offsets (everything connects immediately).
fn ramp_offsets(ramp: Duration, connections: usize) -> Vec<Duration> {
    (0..connections)
        .map(|i| ramp.mul_f64(i as f64 / connections as f64))
        .collect()
}

/// Extracts the first `"key": value` from a JSON body, stripping quotes —
/// enough to pull session and view ids out of known-shape responses
/// without a JSON parser.
fn json_field(body: &[u8], key: &str) -> Option<String> {
    let text = std::str::from_utf8(body).ok()?;
    let needle = format!("\"{key}\":");
    let start = text.find(&needle)? + needle.len();
    let rest = text.get(start..)?.trim_start();
    let end = rest
        .char_indices()
        .find(|(_, c)| matches!(c, ',' | '}' | ']'))
        .map_or(rest.len(), |(i, _)| i);
    Some(rest.get(..end)?.trim().trim_matches('"').to_owned())
}

/// Runs the closed loop and aggregates a [`Report`].
///
/// # Errors
///
/// Fails when the address does not resolve, when no connection can be
/// established at all, or when the platform lacks epoll (`Unsupported`).
pub fn run(config: &Config) -> io::Result<Report> {
    if config.connections == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "loadgen needs at least one connection",
        ));
    }
    let addr = config.addr.to_socket_addrs()?.next().ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, "address resolves to nothing")
    })?;

    let mut poller = Poller::new()?;
    let mut counters = Counters::default();
    let mut latency = Latency::new();

    // Ramp: connection `i` of `n` is established `ramp * i / n` into the
    // run (a zero ramp brings everything up before the first poll). The
    // clock starts before the ramp so throughput reflects the whole run.
    let started = Instant::now();
    let deadline = started + config.duration;
    let offsets = ramp_offsets(config.ramp, config.connections);
    let mut clients: Vec<Option<Client>> = Vec::with_capacity(config.connections);

    let mut events = Vec::new();
    let mut scratch = [0u8; 16 * 1024];
    loop {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        // Bring up every connection whose ramp slot has arrived.
        while let Some(&offset) = offsets.get(clients.len()) {
            if started + offset > now {
                break;
            }
            let i = clients.len();
            match Client::connect(addr) {
                Ok(mut client) => {
                    client.seed = i as u64;
                    client.issue();
                    client.interest = Interest::READ_WRITE;
                    poller.add(client.stream.as_raw_fd(), i as u64, client.interest)?;
                    clients.push(Some(client));
                }
                // The first connect failing means the server is not there
                // at all; later failures (fd limits, backlog overflow)
                // degrade the run instead of aborting it.
                Err(e) if i == 0 => return Err(e),
                Err(_) => {
                    counters.protocol_errors += 1;
                    clients.push(None);
                }
            }
        }
        // Sleep until the deadline or the next ramp slot, whichever is
        // sooner, so a long poll never delays a scheduled connect.
        let wake = offsets
            .get(clients.len())
            .map_or(deadline, |&offset| deadline.min(started + offset));
        let remaining = wake.saturating_duration_since(now);
        let timeout_ms = i32::try_from(remaining.as_millis().min(100))
            .unwrap_or(100)
            .max(1);
        events.clear();
        poller.wait(timeout_ms, &mut events)?;
        for &event in &events {
            let index = usize::try_from(event.token).unwrap_or(usize::MAX);
            let Some(slot) = clients.get_mut(index) else {
                continue;
            };
            let Some(client) = slot.as_mut() else {
                continue;
            };
            let mut failed = event.error;
            if !failed && event.writable && client.flush().is_err() {
                failed = true;
            }
            if !failed && event.readable {
                failed = read_and_step(
                    client,
                    &mut scratch,
                    config.feedback_rounds,
                    &mut counters,
                    &mut latency,
                );
            }
            if failed {
                counters.protocol_errors += u64::from(client.awaiting);
                reconnect(&poller, slot, index, addr, &mut counters);
            } else if let Some(client) = slot.as_mut() {
                let wanted = if client.wants_write() {
                    Interest::READ_WRITE
                } else {
                    Interest::READ
                };
                if wanted != client.interest {
                    client.interest = wanted;
                    let _ = poller.modify(client.stream.as_raw_fd(), event.token, wanted);
                }
            }
        }
    }

    let established = clients.iter().flatten().count();
    let elapsed = started.elapsed().as_secs_f64();
    Ok(Report {
        connections: established,
        duration_secs: elapsed,
        ramp_secs: config.ramp.as_secs_f64(),
        requests: counters.requests,
        sessions: counters.sessions,
        errors: counters.errors,
        protocol_errors: counters.protocol_errors,
        shed: counters.shed,
        reconnects: counters.reconnects,
        throughput_rps: if elapsed > 0.0 {
            counters.requests as f64 / elapsed
        } else {
            0.0
        },
        p50_us: latency.total.quantile(0.50),
        p99_us: latency.total.quantile(0.99),
        max_us: latency.total.max_us(),
        id_mismatches: counters.id_mismatches,
        endpoints: latency.endpoints(),
    })
}

/// Drains readable bytes and processes any complete responses. Returns
/// `true` when the connection is no longer usable.
fn read_and_step(
    client: &mut Client,
    scratch: &mut [u8],
    rounds: usize,
    counters: &mut Counters,
    latency: &mut Latency,
) -> bool {
    loop {
        match (&client.stream).read(scratch) {
            Ok(0) => {
                // EOF: either a clean server-side close between requests
                // (reconnect) or a truncation mid-response (protocol
                // error, counted by the caller via `awaiting`).
                return true;
            }
            Ok(n) => client
                .read_buf
                .extend_from_slice(scratch.get(..n).unwrap_or_default()),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return true,
        }
    }
    loop {
        match parse_response(&client.read_buf) {
            Ok(None) => return false,
            Ok(Some(parsed)) => {
                client.read_buf.drain(..parsed.consumed);
                if handle_response(client, &parsed, rounds, counters, latency) {
                    return true;
                }
            }
            Err(_) => {
                counters.protocol_errors += 1;
                client.awaiting = false;
                return true;
            }
        }
    }
}

/// Applies one parsed response to the state machine. Returns `true` when
/// the server asked to close the connection.
fn handle_response(
    client: &mut Client,
    parsed: &ParsedResponse,
    rounds: usize,
    counters: &mut Counters,
    latency: &mut Latency,
) -> bool {
    counters.requests += 1;
    client.awaiting = false;
    latency.record(
        client.step,
        u64::try_from(client.sent_at.elapsed().as_micros()).unwrap_or(u64::MAX),
    );
    if parsed.request_id.as_deref() != Some(client.request_id.as_str()) {
        counters.id_mismatches += 1;
    }
    if parsed.status == 503 {
        // Shed by admission control: retry the same step on the same
        // (still-alive) connection.
        counters.shed += 1;
    } else if parsed.status >= 300 {
        counters.errors += 1;
        // The session may be gone; restart the script from create.
        client.seed = client.seed.wrapping_add(1_000_003);
        client.step = Step::Create;
    } else if client.advance(&parsed.body, rounds) {
        counters.sessions += 1;
    }
    if parsed.keep_alive {
        client.issue();
        false
    } else {
        true
    }
}

/// Replaces a dead connection in place; on connect failure the slot is
/// abandoned for the rest of the run.
fn reconnect(
    poller: &Poller,
    slot: &mut Option<Client>,
    index: usize,
    addr: SocketAddr,
    counters: &mut Counters,
) {
    if let Some(old) = slot.take() {
        let _ = poller.remove(old.stream.as_raw_fd());
    }
    match Client::connect(addr) {
        Ok(mut client) => {
            client.seed = (index as u64).wrapping_add(counters.reconnects.wrapping_mul(7919));
            client.issue();
            client.interest = Interest::READ_WRITE;
            if poller
                .add(client.stream.as_raw_fd(), index as u64, client.interest)
                .is_ok()
            {
                counters.reconnects += 1;
                *slot = Some(client);
            }
        }
        Err(_) => counters.protocol_errors += 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_field_pulls_ids_out_of_known_shapes() {
        assert_eq!(
            json_field(br#"{"id": "s-12", "views": 40}"#, "id").as_deref(),
            Some("s-12")
        );
        assert_eq!(
            json_field(br#"{"id": 7, "rows": 200}"#, "id").as_deref(),
            Some("7")
        );
        assert_eq!(json_field(b"not json", "id"), None);
    }

    #[test]
    fn report_serializes_as_one_json_object() {
        let report = Report {
            connections: 8,
            duration_secs: 2.0,
            ramp_secs: 0.5,
            requests: 100,
            sessions: 10,
            errors: 0,
            protocol_errors: 0,
            shed: 3,
            reconnects: 0,
            throughput_rps: 50.0,
            p50_us: 800,
            p99_us: 2_000,
            max_us: 3_000,
            id_mismatches: 0,
            endpoints: vec![
                EndpointStats {
                    endpoint: "create",
                    count: 10,
                    p50_us: 900,
                    p99_us: 2_500,
                    max_us: 3_000,
                },
                EndpointStats {
                    endpoint: "next",
                    count: 30,
                    p50_us: 700,
                    p99_us: 1_500,
                    max_us: 1_800,
                },
            ],
        };
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"protocol_errors\": 0"), "{json}");
        assert!(json.contains("\"ramp_secs\": 0.500"), "{json}");
        assert!(json.contains("\"shed\": 3"), "{json}");
        assert!(json.contains("\"id_mismatches\": 0"), "{json}");
        assert!(
            json.contains(
                "\"next\": {\"count\": 30, \"p50_us\": 700, \"p99_us\": 1500, \"max_us\": 1800}"
            ),
            "{json}"
        );
    }

    #[test]
    fn per_step_latency_lands_in_the_right_bucket() {
        let mut latency = Latency::new();
        latency.record(Step::Create, 5_000);
        latency.record(Step::Next(0), 800);
        latency.record(Step::Next(1), 900);
        latency.record(Step::Delete, 100);
        let endpoints = latency.endpoints();
        let names: Vec<&str> = endpoints.iter().map(|e| e.endpoint).collect();
        assert_eq!(
            names,
            ["create", "next", "delete"],
            "mix order, gaps skipped"
        );
        let next = endpoints.iter().find(|e| e.endpoint == "next").unwrap();
        assert_eq!(next.count, 2);
        assert_eq!(next.max_us, 900);
        assert_eq!(latency.total.count(), 4);
    }

    #[test]
    fn ramp_offsets_spread_connects_linearly() {
        let offsets = ramp_offsets(Duration::from_secs(4), 4);
        assert_eq!(
            offsets,
            [
                Duration::ZERO,
                Duration::from_secs(1),
                Duration::from_secs(2),
                Duration::from_secs(3),
            ],
            "first client at zero, last one ramp-width/n before the end"
        );
        assert_eq!(
            ramp_offsets(Duration::ZERO, 3),
            [Duration::ZERO; 3],
            "zero ramp connects everything immediately"
        );
        assert!(ramp_offsets(Duration::from_secs(1), 0).is_empty());
    }

    #[test]
    fn script_advances_through_the_session_mix() {
        let mut client = Client {
            stream: TcpStream::connect(local_listener()).unwrap(),
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            written: 0,
            interest: Interest::READ,
            step: Step::Create,
            session: String::new(),
            view: String::new(),
            seed: 0,
            sent_at: Instant::now(),
            awaiting: false,
            issued: 0,
            request_id: String::new(),
        };
        assert!(!client.advance(br#"{"id": "s-1"}"#, 2));
        assert_eq!(client.step, Step::Next(0));
        assert_eq!(client.session, "s-1");
        assert!(!client.advance(br#"{"id": 4}"#, 2));
        assert_eq!(client.step, Step::Feedback(0));
        assert_eq!(client.view, "4");
        assert!(!client.advance(b"{}", 2));
        assert_eq!(client.step, Step::Next(1));
        assert!(!client.advance(br#"{"id": 9}"#, 2));
        assert!(!client.advance(b"{}", 2));
        assert_eq!(client.step, Step::Recommend);
        assert!(!client.advance(b"{}", 2));
        assert_eq!(client.step, Step::Delete);
        assert!(client.advance(b"{}", 2), "delete completes the session");
        assert_eq!(client.step, Step::Create);
    }

    fn local_listener() -> SocketAddr {
        // A throwaway listener so the state-machine test can hold a real
        // TcpStream without a server.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::mem::forget(listener);
        addr
    }
}
