//! One run of one workload: set-up, warm-up, the measured phases, the
//! restart check, and the metrics computed from them.

use std::collections::BTreeMap;
use std::io;
use std::time::{Duration, Instant};

use serde_json::{parse_value, Value};

use crate::reference::{self, Reference};
use crate::server::{BlockingClient, ScratchDir, ServerChild};
use crate::sysinfo;
use crate::trace::Tracer;
use crate::wire::{acknowledge, ms, Driver, GoldenRecord, Mode, Phase};
use crate::workload::{Kind, LiveInputs, Script, Workload};

/// Share of `--seconds` spent in the paced phase; the rest is the saturated
/// phase. The issue's 20 s + 10 s, scaled to the run length.
const PACED_SHARE: f64 = 2.0 / 3.0;
/// Untimed warm-up, as a share of `--seconds` (5 s against 30 s).
const WARMUP_SHARE: f64 = 1.0 / 6.0;
/// Set-up is repeated and its median reported: at least
/// [`MIN_SETUP_CYCLES`] times and until [`SETUP_FLOOR`] has been spent on it
/// (a set-up of milliseconds needs many samples), but no more than
/// [`MAX_SETUP_CYCLES`] times nor past [`SETUP_BUDGET`].
const MIN_SETUP_CYCLES: usize = 3;
const MAX_SETUP_CYCLES: usize = 40;
const SETUP_FLOOR: Duration = Duration::from_secs(1);
const SETUP_BUDGET: Duration = Duration::from_secs(5);
/// Restarts timed after the SIGKILL that ends every run: at least
/// [`MIN_REOPEN_CYCLES`], and more until [`REOPEN_FLOOR`] has been spent, up
/// to [`MAX_REOPEN_CYCLES`].
const MIN_REOPEN_CYCLES: usize = 3;
const MAX_REOPEN_CYCLES: usize = 31;
const REOPEN_FLOOR: Duration = Duration::from_secs(1);

/// The saturated phase of a workload whose times are scaled runs in
/// stretches of about this long, the reference kernel timed before, between
/// and after them while nothing is in flight: the host changes speed within
/// seconds, and a reference taken seconds away misses it.
const SATURATED_STRETCH: Duration = Duration::from_millis(500);
/// Passes of the reference kernel at each such point.
const PROBE_PASSES: usize = 2;

/// The end-to-end figures that follow the host's speed, in the order
/// `run_end_to_end` computes them, with their units.
const SCALED_FIGURES: [(&str, &str); 7] = [
    ("start_p50_ms", "ms"),
    ("start_tail_ms", "ms"),
    ("turn_p50_ms", "ms"),
    ("turn_tail_ms", "ms"),
    ("sessions_per_s", "1/s"),
    ("server_cpu_ms_per_session", "ms"),
    ("reopen_ms", "ms"),
];

/// A run is marked invalid above these: the generator ran late, or it took
/// so much CPU that the server was measured on less than it would have.
pub const MAX_SEND_LAG_MS: f64 = 1.0;
pub const MAX_CLIENT_CPU_SHARE: f64 = 0.7;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_owned(),
        value,
        unit,
    }
}

/// What one run found.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// The validity guards that tripped: the generator ran late, the client
    /// took the server's CPU, or (traced runs) a route fell outside the
    /// ledger. A run with any of them is not a measurement.
    pub tripped: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Every answer was right and the measurement is valid.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.tripped.is_empty()
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Nearest-rank percentile of `values` (sorted in place); 0 with no samples.
pub fn percentile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// A server that has been set up for a workload, and what setting it up
/// cost.
pub struct Ready {
    pub server: ServerChild,
    /// The data directory of a disk-backed server.
    pub data: Option<ScratchDir>,
    pub setup_s: f64,
    pub acknowledged: BTreeMap<String, (u64, String)>,
    /// Bytes of CSV sent and seconds spent in upload and append calls.
    pub ingest_bytes: u64,
    pub ingest_s: f64,
    /// Requests set-up made, and those that failed.
    pub attempted: u64,
    pub failures: Vec<String>,
}

fn expect_status(
    reply: &viewseeker_net::http1::ParsedResponse,
    status: u16,
    what: &str,
) -> Result<Value, String> {
    let text = String::from_utf8_lossy(&reply.body);
    if reply.status != status {
        return Err(format!("{what}: status {} — {text}", reply.status));
    }
    parse_value(&text).map_err(|e| format!("{what}: reply is not JSON: {e}"))
}

/// Starts one session (create, then the first `next`) and deletes it.
pub fn prime_session(client: &mut BlockingClient, spec: &str) -> Result<(), String> {
    let io_err = |e: io::Error| format!("priming session: {e}");
    let reply = client
        .request("POST", "/sessions", spec.as_bytes())
        .map_err(io_err)?;
    let created = expect_status(&reply, 201, "create")?;
    let id = created
        .get("id")
        .and_then(Value::as_str)
        .ok_or("create reply has no id")?
        .to_owned();
    let reply = client
        .request("GET", &format!("/sessions/{id}/next?m=1"), b"")
        .map_err(io_err)?;
    expect_status(&reply, 200, "first next")?;
    let reply = client
        .request("DELETE", &format!("/sessions/{id}"), b"")
        .map_err(io_err)?;
    expect_status(&reply, 200, "delete")?;
    Ok(())
}

/// One set-up: start the server, upload what the workload stores, and touch
/// every dataset its sessions use, so generation and first loads are paid
/// here and not in the measured phases.
pub fn set_up(script: &Script, inputs: Option<&LiveInputs>) -> io::Result<Ready> {
    let began = Instant::now();
    let data = match inputs {
        Some(_) => Some(ScratchDir::create("data")?),
        None => None,
    };
    let server = ServerChild::spawn(data.as_ref().map(ScratchDir::path))?;
    let mut client = BlockingClient::connect(server.addr())?;
    let mut ready = Ready {
        server,
        data,
        setup_s: 0.0,
        acknowledged: BTreeMap::new(),
        ingest_bytes: 0,
        ingest_s: 0.0,
        attempted: 0,
        failures: Vec::new(),
    };
    for body in inputs.map_or(&[][..], |i| &i.setup) {
        let sent = Instant::now();
        let reply = client.request("POST", &body.path, &body.bytes)?;
        ready.ingest_s += sent.elapsed().as_secs_f64();
        ready.ingest_bytes += body.bytes.len() as u64;
        ready.attempted += 1;
        let status = if body.path.ends_with("/rows") {
            200
        } else {
            201
        };
        let acked = expect_status(&reply, status, &body.path)
            .and_then(|value| acknowledge(&mut ready.acknowledged, body, &value));
        if let Err(message) = acked {
            ready.failures.push(message);
        }
    }
    for spec in script.priming_specs() {
        ready.attempted += 3;
        if let Err(message) = prime_session(&mut client, &spec) {
            ready.failures.push(message);
        }
    }
    ready.setup_s = began.elapsed().as_secs_f64();
    Ok(ready)
}

/// Connections the load generator opens: at most `nproc`, and two suffice.
fn connections() -> usize {
    sysinfo::nproc().min(2)
}

/// `GET /metrics` at the three points a traced run reads the server's own
/// series: around the phase latencies are read from, and at the end.
pub struct Scrapes {
    pub before: String,
    pub after_latency: String,
    pub end: String,
}

/// What the wire saw of one set-up server: warm-up, paced phase, saturated
/// phase. Given a tracer, it adds one client span per request and the
/// scrapes; it is otherwise the same measurement.
pub struct Measured {
    pub warmup_s: f64,
    /// Absent for the workload that has no paced phase.
    pub paced: Option<Phase>,
    pub saturated: Phase,
    /// Server-process CPU seconds over the paced and saturated phases.
    pub server_cpu_s: f64,
    /// The same, and the session requests answered in the saturated phase,
    /// at the box's nominal speed.
    pub server_cpu_scaled_s: f64,
    pub saturated_ops_scaled: f64,
    /// Seconds of CPU the hypervisor withheld from the guest over them.
    pub steal_s: f64,
    pub rss_peak_mb: f64,
    pub acknowledged: BTreeMap<String, (u64, String)>,
    pub golden: Option<GoldenRecord>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub tracer: Option<Tracer>,
    pub scrapes: Option<Scrapes>,
}

impl Measured {
    /// The phase latencies are read from: the paced one, or without it the
    /// closed loop that runs for the whole time.
    pub fn latency(&self) -> &Phase {
        self.paced.as_ref().unwrap_or(&self.saturated)
    }

    fn phases(&self) -> impl Iterator<Item = &Phase> {
        self.paced.iter().chain(std::iter::once(&self.saturated))
    }

    /// Bytes of the session replies answered in the measured phases.
    pub fn response_bytes(&self) -> u64 {
        self.phases().map(|p| p.response_bytes).sum()
    }

    /// Sessions' worth of requests answered in the measured phases.
    pub fn sessions(&self, workload: &Workload) -> f64 {
        self.phases().map(|p| p.ops).sum::<u64>() as f64 / workload.ops_per_session() as f64
    }
}

/// Share of `--seconds` the traced run's serial segment lasts.
const SERIAL_SHARE: f64 = 0.2;
/// Sessions held open for `core.session_rss_kb`: the server's default
/// `max_sessions`, or as many as fit in [`RSS_BUDGET`] (at least four).
const RSS_SESSIONS: usize = 32;
const RSS_BUDGET: Duration = Duration::from_millis(1_500);

/// Starts sessions and leaves them open, then reads how much the server's
/// resident set grew per session. Measured on a server whose heap the run
/// has already warmed, which is the state sessions are held in.
pub fn held_session_rss_kb(ready: &Ready, script: &Script) -> io::Result<f64> {
    let mut client = BlockingClient::connect(ready.server.addr())?;
    let pid = ready.server.pid();
    let before = sysinfo::rss_kb(pid).unwrap_or(0.0);
    let began = Instant::now();
    let mut held = 0usize;
    while held < RSS_SESSIONS && (held < 4 || began.elapsed() < RSS_BUDGET) {
        let spec = script.session(held as u64).spec;
        let reply = client.request("POST", "/sessions", spec.as_bytes())?;
        if reply.status != 201 {
            return Err(io::Error::other(format!(
                "holding a session open: status {}",
                reply.status
            )));
        }
        held += 1;
    }
    let after = sysinfo::rss_kb(pid).unwrap_or(0.0);
    Ok((after - before).max(0.0) / held as f64)
}

/// What the server's own series said around the serial segment, and what
/// the checker found in it.
pub struct Serial {
    pub before: String,
    pub after: String,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

/// The traced run's ledger segment: the script's sessions from the first
/// again, closed loop on one connection, so that the server, like the
/// in-process replay it is compared with, handles one request at a time and
/// handles the same sessions. (Against the paced phase, where two sessions'
/// scans overlap, `live-table`'s in-process `create` read 0.72 to 0.80 of
/// the server's.) No appends go out in it.
pub fn serial_segment(ready: &Ready, script: &Script, seconds: f64) -> io::Result<Serial> {
    let mut scraper = BlockingClient::connect(ready.server.addr())?;
    let mut scrape = || -> io::Result<String> {
        let reply = scraper.request("GET", "/metrics", b"")?;
        Ok(String::from_utf8_lossy(&reply.body).into_owned())
    };
    let mut driver = Driver::connect(ready.server.addr(), 1, script, &[])?;
    let before = scrape()?;
    driver.run_phase(
        Mode::Closed,
        Duration::from_secs_f64(seconds * SERIAL_SHARE),
    )?;
    let after = scrape()?;
    Ok(Serial {
        before,
        after,
        attempted: driver.attempted,
        failed: driver.failed,
        failures: std::mem::take(&mut driver.failures),
    })
}

/// Drives a set-up server through the untimed closed-loop warm-up and the
/// measured phases.
pub fn measure(
    ready: &Ready,
    script: &Script,
    inputs: Option<&LiveInputs>,
    seconds: f64,
    tracer: Option<Tracer>,
) -> io::Result<Measured> {
    let traced = tracer.is_some();
    let workload = script.workload();
    let appends = inputs.map_or(&[][..], |i| &i.appends);
    let mut driver = Driver::connect(ready.server.addr(), connections(), script, appends)?;
    driver.acknowledged = ready.acknowledged.clone();
    let warmup_began = Instant::now();
    driver.run_phase(
        Mode::Closed,
        Duration::from_secs_f64(seconds * WARMUP_SHARE),
    )?;
    let warmup_s = warmup_began.elapsed().as_secs_f64();
    // The server refines sampled views on a wall-clock budget, so the ids it
    // shows there depend on timing and no replay can reproduce them.
    if workload.kind != Kind::ExploreSampled {
        driver.arm_golden();
    }
    let mut scraper = match traced {
        true => Some(BlockingClient::connect(ready.server.addr())?),
        false => None,
    };
    let mut scrape = || -> io::Result<String> {
        match scraper.as_mut() {
            Some(client) => {
                let reply = client.request("GET", "/metrics", b"")?;
                Ok(String::from_utf8_lossy(&reply.body).into_owned())
            }
            None => Ok(String::new()),
        }
    };
    driver.tracer = tracer;

    let pid = ready.server.pid();
    let before = scrape()?;
    let cpu_now = || sysinfo::cpu_seconds(pid).unwrap_or(0.0);
    let cpu_before = cpu_now();
    let steal_before = sysinfo::steal_seconds().unwrap_or(0.0);
    // Without a paced phase the closed loop runs for the whole time.
    let (paced, closed_share) = match workload.paced_rate {
        Some(rate) => {
            let length = Duration::from_secs_f64(seconds * PACED_SHARE);
            let mut paced = Phase {
                reference: vec![driver.probe(PROBE_PASSES)],
                ..Phase::default()
            };
            paced.absorb(driver.run_phase(Mode::Paced { rate }, length)?);
            paced.reference.push(driver.probe(PROBE_PASSES));
            (Some(paced), 1.0 - PACED_SHARE)
        }
        None => (None, 1.0),
    };
    let after_paced = scrape()?;
    let cpu_between = cpu_now();
    let paced_cpu_s = cpu_between - cpu_before;
    // The CPU seconds and the requests answered, each stretch's taken to the
    // box's nominal speed by the readings at its two ends (a count falls on
    // a slow host, so there the factor divides). The paced phase's CPU
    // seconds accrue evenly over it, as its readings do.
    let mut server_cpu_scaled_s = paced_cpu_s
        * paced
            .as_ref()
            .map_or(1.0, |p| reference::scale_over(&p.reference));
    let mut saturated_ops_scaled = 0.0;
    let closed = Duration::from_secs_f64(seconds * closed_share);
    let stretches = match workload.host_scaled {
        true => (closed.as_secs_f64() / SATURATED_STRETCH.as_secs_f64())
            .round()
            .max(1.0) as u32,
        false => 1,
    };
    let mut saturated = Phase {
        reference: vec![driver.probe(PROBE_PASSES)],
        ..Phase::default()
    };
    for _ in 0..stretches {
        let cpu_began = cpu_now();
        let stretch = driver.run_phase(Mode::Closed, closed / stretches)?;
        let cpu_s = cpu_now() - cpu_began;
        let ends = [
            saturated.reference[saturated.reference.len() - 1],
            driver.probe(PROBE_PASSES),
        ];
        let scale = reference::scale_over(&ends);
        server_cpu_scaled_s += cpu_s * scale;
        saturated_ops_scaled += stretch.ops as f64 / scale;
        saturated.absorb(stretch);
        saturated.reference.push(ends[1]);
    }
    let server_cpu_s = cpu_now() - cpu_before;
    let steal_s = sysinfo::steal_seconds().unwrap_or(0.0) - steal_before;
    let rss_peak_mb = sysinfo::rss_peak_mb(pid).unwrap_or(f64::NAN);
    let end = scrape()?;

    Ok(Measured {
        warmup_s,
        scrapes: traced.then(|| Scrapes {
            before,
            after_latency: if paced.is_some() {
                after_paced
            } else {
                end.clone()
            },
            end,
        }),
        paced,
        saturated,
        server_cpu_s,
        server_cpu_scaled_s,
        saturated_ops_scaled,
        steal_s,
        rss_peak_mb,
        acknowledged: driver.acknowledged.clone(),
        golden: driver.golden.take(),
        attempted: driver.attempted,
        failed: driver.failed,
        failures: std::mem::take(&mut driver.failures),
        tracer: driver.tracer.take(),
    })
}

/// Repeats set-up and keeps the last server. Returns it with every cycle's
/// set-up seconds.
fn set_up_repeatedly(
    script: &Script,
    inputs: Option<&LiveInputs>,
) -> io::Result<(Ready, Vec<f64>)> {
    let began = Instant::now();
    let mut setups = Vec::new();
    loop {
        let ready = set_up(script, inputs)?;
        setups.push(ready.setup_s);
        let spent = began.elapsed();
        let enough = setups.len() >= MIN_SETUP_CYCLES && spent >= SETUP_FLOOR;
        if enough || setups.len() == MAX_SETUP_CYCLES || spent >= SETUP_BUDGET {
            return Ok((ready, setups));
        }
        // Dropping `ready` kills that server and removes its data directory.
    }
}

/// The timed restarts, as measured and each at the box's nominal speed by
/// the reference passes before and after it.
struct Reopened {
    ms: Vec<f64>,
    scaled_ms: Vec<f64>,
}

/// After the server was SIGKILLed: restart it the way it was started, on the
/// same data directory if it had one, and time process spawn to the first
/// successful session start on the workload's main dataset. A disk-backed
/// server must also still hold every stored table exactly as the last upload
/// or append it acknowledged left it.
fn reopen_and_verify(
    script: &Script,
    data: Option<&ScratchDir>,
    acknowledged: &BTreeMap<String, (u64, String)>,
    outcome: &mut Outcome,
) -> io::Result<Reopened> {
    let main_spec = script
        .priming_specs()
        .pop()
        .ok_or_else(|| io::Error::other("the workload has no priming spec"))?;
    let began = Instant::now();
    let mut reopen_ms = Vec::new();
    let mut scaled_ms = Vec::new();
    let reference = Reference::new();
    let mut pass_before = reference.pass_ms();
    for cycle in 0..MAX_REOPEN_CYCLES {
        if cycle >= MIN_REOPEN_CYCLES && began.elapsed() >= REOPEN_FLOOR {
            break;
        }
        let server = ServerChild::spawn(data.map(ScratchDir::path))?;
        let mut client = BlockingClient::connect(server.addr())?;
        outcome.attempted += 3;
        match prime_session(&mut client, &main_spec) {
            Ok(()) => reopen_ms.push(ms(server.spawned().elapsed())),
            Err(message) => {
                outcome.failed += 1;
                outcome.failures.push(format!("after SIGKILL: {message}"));
            }
        }
        if cycle == 0 && data.is_some() {
            let reply = client.request("GET", "/datasets", b"")?;
            let stored = expect_status(&reply, 200, "GET /datasets").unwrap_or(Value::Null);
            let mut matching = 0;
            for (name, (rows, checksum)) in acknowledged {
                outcome.attempted += 1;
                let found = stored.as_array().and_then(|all| {
                    all.iter()
                        .find(|d| d.get("name").and_then(Value::as_str) == Some(name.as_str()))
                });
                let found_rows = found.and_then(|d| d.get("rows")).and_then(Value::as_u64);
                let found_sum = found
                    .and_then(|d| d.get("checksum"))
                    .and_then(Value::as_str);
                if found_rows == Some(*rows) && found_sum == Some(checksum.as_str()) {
                    matching += 1;
                } else {
                    outcome.failed += 1;
                    outcome.failures.push(format!(
                        "after SIGKILL {name} has rows {found_rows:?} checksum {found_sum:?}; \
                         the last acknowledged write said {rows} / {checksum}"
                    ));
                }
            }
            outcome.notes.push(format!(
                "restart check: {matching} of {} stored tables match their last acknowledged write",
                acknowledged.len()
            ));
        }
        server.kill();
        let pass_after = reference.pass_ms();
        if reopen_ms.len() > scaled_ms.len() {
            let scale = reference::scale_over(&[(0.0, pass_before), (0.0, pass_after)]);
            scaled_ms.extend(reopen_ms.last().map(|ms| ms * scale));
        }
        pass_before = pass_after;
    }
    Ok(Reopened {
        ms: reopen_ms,
        scaled_ms,
    })
}

/// The validity guards of the load generator, on the phase latencies are
/// read from.
pub struct GeneratorCheck {
    pub send_lag_tail_ms: f64,
    /// The same over the starts that fell due during a scan; not gated.
    pub send_lag_in_scan_tail_ms: f64,
    pub client_cpu_share: f64,
    pub tripped: Vec<String>,
}

/// The send lag's tail: its p99 where ten samples lie beyond it, as the
/// rule for every percentile here has it, else its p95, else its p90. (The
/// three or four largest of 350 lags are what the box's freezes make them.)
fn lag_tail(lags: &mut [f64]) -> (f64, f64) {
    let q = [0.99, 0.95]
        .into_iter()
        .find(|q| lags.len() as f64 * (1.0 - q) >= 10.0)
        .unwrap_or(0.90);
    (q, percentile(lags, q))
}

pub fn check_generator(
    workload: &Workload,
    measured: &Measured,
    notes: &mut Vec<String>,
) -> GeneratorCheck {
    let latency = measured.latency();
    let mut lags = latency.lags_ms.clone();
    let (q, lag) = lag_tail(&mut lags);
    let mut scan_lags = latency.scan_lags_ms.clone();
    let (scan_q, scan_lag) = lag_tail(&mut scan_lags);
    let client_share = latency.client_cpu_s / latency.wall_s.max(1e-9);
    let mut tripped = Vec::new();
    if let Some(rate) = workload.paced_rate {
        notes.push(format!(
            "paced phase: {rate} starts/s over {} connections; {} starts found every connection busy, \
             {} fell due during a scan (send lag p{:.0} {scan_lag:.3} ms, not gated), {} otherwise: \
             bench.send_lag_tail_ms = {lag:.4} (p{:.0}, limit {MAX_SEND_LAG_MS}); \
             bench.client_cpu_share = {client_share:.3} (limit {MAX_CLIENT_CPU_SHARE}); \
             the host withheld {:.2} s of CPU",
            connections(),
            latency.starts_queued,
            scan_lags.len(),
            scan_q * 100.0,
            lags.len(),
            q * 100.0,
            measured.steal_s
        ));
        if lag > MAX_SEND_LAG_MS {
            tripped.push(format!(
                "bench.send_lag_tail_ms = {lag:.3} > {MAX_SEND_LAG_MS}: the generator ran late"
            ));
        }
    }
    if client_share > MAX_CLIENT_CPU_SHARE {
        tripped.push(format!(
            "bench.client_cpu_share = {client_share:.3} > {MAX_CLIENT_CPU_SHARE}: the client took the server's CPU"
        ));
    }
    GeneratorCheck {
        send_lag_tail_ms: lag,
        send_lag_in_scan_tail_ms: scan_lag,
        client_cpu_share: client_share,
        tripped,
    }
}

/// The figures only one workload can report, which the contract's uniform
/// end-to-end set therefore cannot carry. Every run of such a workload
/// prints them; the traced run reports them as `wire.*` and
/// `catalog.disk_bytes_per_row`. Each is 0 where it does not apply.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkloadFigures {
    pub append_p50_ms: f64,
    pub appends: usize,
    pub ingest_mb_per_s: f64,
    pub refined_views_per_s: f64,
    pub refined_per_turn: f64,
    pub disk_bytes_per_row: f64,
}

pub fn workload_figures(ready: &Ready, measured: &Measured) -> WorkloadFigures {
    let mut appends: Vec<f64> = measured
        .phases()
        .flat_map(|p| p.appends_ms.iter().copied())
        .collect();
    let append_bytes: u64 = measured.phases().map(|p| p.append_bytes).sum();
    let ingest_s = ready.ingest_s + appends.iter().sum::<f64>() / 1e3;
    let saturated = &measured.saturated;
    // The stored tables alone, each in the directory of its name: datasets
    // the server generated and persisted on request are not counted.
    let disk_bytes_per_row = match &ready.data {
        Some(dir) => {
            let stored = &measured.acknowledged;
            let rows: u64 = stored.values().map(|(rows, _)| rows).sum();
            let bytes: u64 = stored
                .keys()
                .map(|name| sysinfo::dir_bytes(&dir.path().join(name)))
                .sum();
            bytes as f64 / rows.max(1) as f64
        }
        None => 0.0,
    };
    WorkloadFigures {
        appends: appends.len(),
        append_p50_ms: percentile(&mut appends, 0.5),
        ingest_mb_per_s: if ingest_s > 0.0 {
            (ready.ingest_bytes + append_bytes) as f64 / 1e6 / ingest_s
        } else {
            0.0
        },
        refined_views_per_s: saturated.refined_views as f64 / saturated.wall_s,
        refined_per_turn: saturated.refined_views as f64 / saturated.turns.max(1) as f64,
        disk_bytes_per_row,
    }
}

/// Replays the run's golden session in-process and records the verdict.
pub fn check_golden(
    workload: &Workload,
    golden: Option<&GoldenRecord>,
    inputs: Option<&LiveInputs>,
    outcome: &mut Outcome,
) {
    match golden {
        Some(record) => {
            outcome.attempted += 1;
            match crate::golden::replay(record, inputs) {
                Ok(()) => outcome.notes.push(format!(
                    "golden session: {} next ids and {} recommend lists match the in-process replay",
                    record.next_ids.len(),
                    record.recommend_ids.len()
                )),
                Err(message) => {
                    outcome.failed += 1;
                    outcome.failures.push(format!("golden session: {message}"));
                }
            }
        }
        None if workload.kind == Kind::ExploreSampled => outcome.notes.push(
            "golden session: not replayed — the server refines on a 200 ms wall-clock budget, \
             so the ids it shows depend on timing"
                .to_owned(),
        ),
        None => {
            outcome.attempted += 1;
            outcome.failed += 1;
            outcome
                .failures
                .push("golden session: no complete session was recorded".to_owned());
        }
    }
}

/// One line with the quantiles of a latency sample, so that the choice of
/// tail percentile can be re-derived from any run's report.
fn quantile_note(what: &str, values: &mut [f64]) -> String {
    let at = |values: &mut [f64], q| percentile(values, q);
    format!(
        "{what}: n={} p50={:.3} p75={:.3} p90={:.3} p95={:.3} p99={:.3} max={:.3} ms",
        values.len(),
        at(values, 0.50),
        at(values, 0.75),
        at(values, 0.90),
        at(values, 0.95),
        at(values, 0.99),
        at(values, 1.0),
    )
}

/// The untraced run: every end-to-end metric of one workload.
pub fn run_end_to_end(workload: Workload, seed: u64, seconds: f64) -> io::Result<Outcome> {
    let mut outcome = Outcome::default();
    let script = Script::new(workload, seed);
    let input_began = Instant::now();
    let inputs = match workload.kind {
        Kind::LiveTable => Some(LiveInputs::generate(seed).map_err(io::Error::other)?),
        _ => None,
    };
    let input_s = input_began.elapsed().as_secs_f64();

    let (ready, mut setups) = set_up_repeatedly(&script, inputs.as_ref())?;
    outcome.attempted += ready.attempted;
    outcome.failed += ready.failures.len() as u64;
    outcome.failures.extend(ready.failures.iter().cloned());
    let setup_cycles = setups.len();
    let setup_cycle_s = median(&mut setups);

    let measured = measure(&ready, &script, inputs.as_ref(), seconds, None)?;
    outcome.attempted += measured.attempted;
    outcome.failed += measured.failed;
    outcome.failures.extend(measured.failures.iter().cloned());
    outcome.tripped = check_generator(&workload, &measured, &mut outcome.notes).tripped;
    check_golden(
        &workload,
        measured.golden.as_ref(),
        inputs.as_ref(),
        &mut outcome,
    );
    let figures = workload_figures(&ready, &measured);

    // Every run ends with the server's death: SIGKILL, then restarts.
    let Ready { server, data, .. } = ready;
    server.kill();
    let mut reopened =
        reopen_and_verify(&script, data.as_ref(), &measured.acknowledged, &mut outcome)?;
    drop(data);

    let latency = measured.latency();
    let saturated = &measured.saturated;
    let mut starts = latency.starts_ms.clone();
    let mut turns = latency.turns_ms.clone();
    let mut session_turns = latency.session_turns_ms.clone();
    let start_tail = workload.start_tail(latency.wall_s);
    let turn_tail = workload.turn_tail(latency.wall_s);
    // Each figure as measured, and at the box's nominal speed: every sample
    // scaled by the reference readings nearest to it in time.
    let scaled_samples = |samples: &[f64], at: &[f64]| -> Vec<f64> {
        samples
            .iter()
            .zip(at)
            .map(|(ms, at)| ms * reference::scale_at(&latency.reference, *at))
            .collect()
    };
    let sessions = measured.sessions(&workload);
    let per_session = workload.ops_per_session() as f64;
    let as_measured = [
        percentile(&mut starts, 0.5),
        percentile(&mut starts, start_tail),
        percentile(&mut session_turns, 0.5),
        percentile(&mut turns, turn_tail),
        saturated.ops as f64 / per_session / saturated.wall_s,
        measured.server_cpu_s * 1e3 / sessions,
        median(&mut reopened.ms),
    ];
    let at_nominal_speed = [
        percentile(
            &mut scaled_samples(&latency.starts_ms, &latency.starts_at),
            0.5,
        ),
        percentile(
            &mut scaled_samples(&latency.starts_ms, &latency.starts_at),
            start_tail,
        ),
        percentile(
            &mut scaled_samples(&latency.session_turns_ms, &latency.session_turns_at),
            0.5,
        ),
        percentile(
            &mut scaled_samples(&latency.turns_ms, &latency.turns_at),
            turn_tail,
        ),
        measured.saturated_ops_scaled / per_session / saturated.wall_s,
        measured.server_cpu_scaled_s * 1e3 / sessions,
        median(&mut reopened.scaled_ms),
    ];
    let reported = match workload.host_scaled {
        true => at_nominal_speed,
        false => as_measured,
    };
    outcome.metrics = vec![
        metric("setup_s", input_s + setup_cycle_s + measured.warmup_s, "s"),
        metric("server_rss_peak_mb", measured.rss_peak_mb, "MiB"),
    ];
    outcome.metrics.extend(
        SCALED_FIGURES
            .iter()
            .zip(reported)
            .map(|((name, unit), value)| metric(name, value, unit)),
    );

    outcome.notes.push(match workload.host_scaled {
        true => {
            let mut passes: Vec<f64> = measured
                .phases()
                .flat_map(|p| p.reference.iter().map(|r| r.1))
                .collect();
            format!(
                "host speed: {} reference passes ({} ms nominal) took p10 {:.3}, p50 {:.3}, p90 \
                 {:.3} ms; as measured, before scaling by them: {}",
                passes.len(),
                reference::NOMINAL_MS,
                percentile(&mut passes, 0.1),
                percentile(&mut passes, 0.5),
                percentile(&mut passes, 0.9),
                SCALED_FIGURES
                    .iter()
                    .zip(as_measured)
                    .map(|((name, _), value)| format!("{name} {value:.4}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        }
        false => "host speed: not applied — on this workload the server works to a wall-clock \
                  budget, so its times do not follow the host's speed"
            .to_owned(),
    });
    let reopen = &mut reopened.ms;
    outcome.notes.push(format!(
        "set-up: input generation {input_s:.3} s + one cycle {setup_cycle_s:.4} s (median of \
         {setup_cycles}) + warm-up {:.3} s; {} restarts timed",
        measured.warmup_s,
        reopen.len()
    ));
    outcome.notes.push(format!(
        "start_tail_ms = p{:.0}, turn_tail_ms = p{:.0} (the higher of p90 and p75 that has 10 samples beyond it at this rate and length)",
        start_tail * 100.0,
        turn_tail * 100.0
    ));
    outcome.notes.push(quantile_note("starts", &mut starts));
    outcome.notes.push(quantile_note("turns", &mut turns));
    outcome.notes.push(quantile_note("restarts", reopen));
    let all_sessions: u64 = measured.phases().map(|p| p.sessions).sum();
    let shared: u64 = measured.phases().map(|p| p.shared_dq_sessions).sum();
    outcome.notes.push(format!(
        "sessions started in the measured phases: {all_sessions}, sharing their DQ with another: {:.3}",
        shared as f64 / all_sessions.max(1) as f64
    ));
    if figures.appends > 0 {
        outcome.notes.push(format!(
            "append_p50_ms = {:.3} ms ({} appends of 2 000 rows), ingest_mb_per_s = {:.3} MB/s, \
             disk_bytes_per_row = {:.3} B",
            figures.append_p50_ms,
            figures.appends,
            figures.ingest_mb_per_s,
            figures.disk_bytes_per_row
        ));
    }
    if figures.refined_views_per_s > 0.0 {
        outcome.notes.push(format!(
            "refined_views_per_s = {:.3} 1/s ({:.2} per turn)",
            figures.refined_views_per_s, figures.refined_per_turn
        ));
    }
    Ok(outcome)
}
