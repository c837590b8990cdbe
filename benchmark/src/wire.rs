//! The load generator: one thread, at most `nproc` keep-alive connections,
//! and a checker on every reply.
//!
//! Session *starts* are open-loop: in a paced phase they fall due on a fixed
//! schedule whatever the server is doing, and a start is timed from the
//! instant it was due, so a stalled server cannot hide the wait it imposes
//! on later arrivals. Inside a session the client waits for each reply
//! before sending the next request, as a user does. In a closed phase each
//! connection starts its next session the moment the last one ends.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use serde_json::{parse_value, Value};
use viewseeker_net::http1::{parse_response, ParsedResponse};
use viewseeker_net::sys::{Event, Interest, Poller};

use crate::reference::{Reading, Reference};
use crate::trace::Tracer;
use crate::workload::{CsvBody, Script, SessionPlan, APPEND_INTERVAL_SECS, RECOMMEND_K};

/// The paper's per-iteration budget `tl`: a turn that takes longer counts
/// as failed.
pub const TURN_LIMIT: Duration = Duration::from_secs(1);

/// Below this distance to the next due time the loop polls without
/// sleeping, because `epoll_wait` sleeps in whole milliseconds.
const SPIN_WINDOW: Duration = Duration::from_micros(1_200);
/// How long before a due time a clock sleep ends; the rest is polled. A
/// guest that has gone fully idle can wake a millisecond late.
const SLEEP_MARGIN: Duration = Duration::from_micros(1_500);
/// The reference kernel is timed in a gap between sessions at most this
/// often, and only when the next start is at least [`PROBE_ROOM`] away (it
/// takes two passes of a millisecond each).
const PROBE_EVERY: Duration = Duration::from_millis(100);
const PROBE_ROOM: Duration = Duration::from_millis(5);
/// A request in flight for longer than this is taken to be a scan that
/// occupies every core.
const LONG_REQUEST: Duration = Duration::from_millis(1);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    Create,
    FirstNext,
    Feedback(usize),
    Recommend(usize),
    Next(usize),
    Delete,
    /// Not part of a session: the run-time append of this chunk.
    Append(usize),
}

impl Step {
    fn route(self) -> &'static str {
        match self {
            Step::Create => "create",
            Step::FirstNext | Step::Next(_) => "next",
            Step::Feedback(_) => "feedback",
            Step::Recommend(_) => "recommend",
            Step::Delete => "delete",
            Step::Append(_) => "append",
        }
    }
}

/// The ids one session was shown, for the golden replay.
#[derive(Debug, Clone)]
pub struct GoldenRecord {
    pub plan: SessionPlan,
    /// The view each `next` returned, in order (first `next` included).
    pub next_ids: Vec<usize>,
    /// The ids each `recommend` returned.
    pub recommend_ids: Vec<Vec<usize>>,
}

/// What a busy connection is in the middle of: a session, or an append.
struct Live {
    /// Index of the session in the script.
    number: u64,
    plan: SessionPlan,
    due: Instant,
    step: Step,
    sent: Instant,
    turn_started: Instant,
    id: String,
    request_id: String,
    labelled: Vec<usize>,
    view: usize,
    pending_refinements: Option<u64>,
    /// Set once a reply failed its check: the session is torn down and
    /// contributes no further samples.
    broken: bool,
    golden: Option<GoldenRecord>,
    requests: u32,
    /// Milliseconds of the turns completed inside the phase window.
    turn_total_ms: f64,
    turns_timed: usize,
}

impl Live {
    fn new(number: u64, plan: SessionPlan, step: Step, due: Instant, now: Instant) -> Self {
        Self {
            number,
            plan,
            due,
            step,
            sent: now,
            turn_started: now,
            id: String::new(),
            request_id: String::new(),
            labelled: Vec::new(),
            view: 0,
            pending_refinements: None,
            broken: false,
            golden: None,
            requests: 0,
            turn_total_ms: 0.0,
            turns_timed: 0,
        }
    }
}

struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    wpos: usize,
    live: Option<Live>,
    /// When the connection last became free.
    idle_since: Instant,
}

/// How a phase offers load.
#[derive(Debug, Clone, Copy)]
pub enum Mode {
    /// Starts fall due every `1 / rate` seconds.
    Paced { rate: f64 },
    /// Each connection starts the next session when the last ends.
    Closed,
}

/// What one phase measured.
#[derive(Debug, Default, Clone)]
pub struct Phase {
    pub wall_s: f64,
    pub starts_ms: Vec<f64>,
    pub turns_ms: Vec<f64>,
    /// When each of those samples ended, on the clock of the reference
    /// readings.
    pub starts_at: Vec<f64>,
    pub turns_at: Vec<f64>,
    pub session_turns_at: Vec<f64>,
    /// Per session whose turns all fell inside the window, the mean of its
    /// turns. A session's turns differ — the first fits on one label, the
    /// last on all of them — so the turns of a run are several modes side
    /// by side and their median sits between two of them; every session has
    /// the same turns, so the median of this does not.
    pub session_turns_ms: Vec<f64>,
    /// Due time to first byte out, for the starts that found a connection
    /// free and no scan in flight when they fell due: how late the generator
    /// itself ran.
    pub lags_ms: Vec<f64>,
    /// The same for the starts that fell due during a scan on the other
    /// connection. With the server on every core the generator gets a core
    /// back only when a scan thread's slice ends, so these run late by the
    /// scheduler's doing; the wait is in the start's latency, which is
    /// timed from the due instant, and is not held against the generator.
    pub scan_lags_ms: Vec<f64>,
    /// Starts that fell due while every connection was busy, and so waited
    /// on the server rather than on the generator.
    pub starts_queued: u64,
    /// Session requests answered inside the phase window.
    pub ops: u64,
    pub appends_ms: Vec<f64>,
    pub append_bytes: u64,
    /// Views whose features were refined, read off the drop in
    /// `pending_refinements` between consecutive replies of a session.
    pub refined_views: u64,
    pub turns: u64,
    pub response_bytes: u64,
    pub sessions: u64,
    pub shared_dq_sessions: u64,
    pub client_cpu_s: f64,
    /// The reference kernel's readings, taken while no request was in
    /// flight during the phase or just around it, in time order.
    pub reference: Vec<Reading>,
}

impl Phase {
    /// Adds a later stretch of the same phase to this one.
    pub fn absorb(&mut self, other: Phase) {
        self.wall_s += other.wall_s;
        self.starts_ms.extend(other.starts_ms);
        self.turns_ms.extend(other.turns_ms);
        self.session_turns_ms.extend(other.session_turns_ms);
        self.starts_at.extend(other.starts_at);
        self.turns_at.extend(other.turns_at);
        self.session_turns_at.extend(other.session_turns_at);
        self.lags_ms.extend(other.lags_ms);
        self.scan_lags_ms.extend(other.scan_lags_ms);
        self.starts_queued += other.starts_queued;
        self.ops += other.ops;
        self.appends_ms.extend(other.appends_ms);
        self.append_bytes += other.append_bytes;
        self.refined_views += other.refined_views;
        self.turns += other.turns;
        self.response_bytes += other.response_bytes;
        self.sessions += other.sessions;
        self.shared_dq_sessions += other.shared_dq_sessions;
        self.client_cpu_s += other.client_cpu_s;
        self.reference.extend(other.reference);
    }
}

/// The load generator's state across phases.
pub struct Driver<'a> {
    addr: SocketAddr,
    poller: Poller,
    conns: Vec<Conn>,
    script: &'a Script,
    next_session: u64,
    appends: &'a [CsvBody],
    next_append: usize,
    append_due: Option<Instant>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the report.
    pub failures: Vec<String>,
    /// `(rows, checksum)` of each stored dataset as last acknowledged by an
    /// upload or append reply.
    pub acknowledged: BTreeMap<String, (u64, String)>,
    want_golden: bool,
    pub golden: Option<GoldenRecord>,
    pub tracer: Option<Tracer>,
    reference: Reference,
    /// Zero of the clock samples and reference readings are stamped on.
    epoch: Instant,
}

impl<'a> Driver<'a> {
    pub fn connect(
        addr: SocketAddr,
        connections: usize,
        script: &'a Script,
        appends: &'a [CsvBody],
    ) -> io::Result<Self> {
        let poller = Poller::new()?;
        let mut conns = Vec::new();
        for token in 0..connections {
            let stream = open(addr)?;
            poller.add(stream.as_raw_fd(), token as u64, Interest::READ)?;
            conns.push(Conn {
                stream,
                rbuf: Vec::new(),
                wbuf: Vec::new(),
                wpos: 0,
                live: None,
                idle_since: Instant::now(),
            });
        }
        Ok(Self {
            addr,
            poller,
            conns,
            script,
            next_session: 0,
            appends,
            next_append: 0,
            append_due: None,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            acknowledged: BTreeMap::new(),
            want_golden: false,
            golden: None,
            tracer: None,
            reference: Reference::new(),
            epoch: Instant::now(),
        })
    }

    /// One reading of the reference kernel, the mean of `passes` passes.
    /// Call it only between phases, when nothing is in flight.
    pub fn probe(&self, passes: usize) -> Reading {
        let total: f64 = (0..passes).map(|_| self.reference.pass_ms()).sum();
        (self.at(Instant::now()), total / passes as f64)
    }

    fn at(&self, instant: Instant) -> f64 {
        instant.saturating_duration_since(self.epoch).as_secs_f64()
    }

    /// Asks the next eligible session to record the ids it is shown.
    pub fn arm_golden(&mut self) {
        self.want_golden = true;
    }

    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(message);
        }
    }

    /// Runs one phase: starts are offered for `duration`, and the phase ends
    /// when the sessions then in flight have.
    pub fn run_phase(&mut self, mode: Mode, duration: Duration) -> io::Result<Phase> {
        let mut phase = Phase::default();
        let cpu_before = crate::sysinfo::cpu_seconds(std::process::id());
        let begin = Instant::now();
        let end = begin + duration;
        let interval = match mode {
            Mode::Paced { rate } => Some(Duration::from_secs_f64(1.0 / rate)),
            Mode::Closed => None,
        };
        let mut next_due = begin;
        if !self.appends.is_empty() && self.append_due.is_none() {
            self.append_due = Some(begin + Duration::from_secs_f64(APPEND_INTERVAL_SECS));
        }
        let mut events: Vec<Event> = Vec::new();
        let mut probed = begin;
        loop {
            let now = Instant::now();
            let stopping = now >= end;
            // Hand work to idle connections.
            for index in 0..self.conns.len() {
                if self.conns[index].live.is_some() || stopping {
                    continue;
                }
                // In a paced phase a start that is due goes out before an
                // append that is due: writing the append's body takes long
                // enough to make the start late.
                let start_due = interval.is_some() && next_due <= now;
                if let Some(due) = self.append_due.filter(|due| *due <= now && !start_due) {
                    if self.next_append < self.appends.len() {
                        self.append_due = Some(due + Duration::from_secs_f64(APPEND_INTERVAL_SECS));
                        self.start_append(index, due, now)?;
                        continue;
                    }
                    self.append_due = None;
                }
                let due = match interval {
                    Some(step) if next_due <= now => {
                        let due = next_due;
                        next_due += step;
                        due
                    }
                    Some(_) => continue,
                    None => now,
                };
                self.start_session(index, due, now, &mut phase)?;
            }
            let busy = self.conns.iter().any(|c| c.live.is_some());
            if stopping && !busy {
                break;
            }
            // Sleep until a socket is ready or, with a connection free to
            // take it, the next start falls due.
            let idle = self.conns.iter().any(|c| c.live.is_none());
            let wake = match interval {
                Some(_) if idle && !stopping => {
                    let mut wake = next_due.min(end);
                    if let Some(due) = self.append_due {
                        wake = wake.min(due);
                    }
                    Some(wake)
                }
                _ => None,
            };
            events.clear();
            match wake.map(|at| at.saturating_duration_since(now)) {
                // Nothing is in flight and the server is idle: time the
                // reference kernel, if it is its turn and there is room.
                Some(left) if !busy && left > PROBE_ROOM && now - probed >= PROBE_EVERY => {
                    phase
                        .reference
                        .push((self.at(now), self.reference.pass_ms()));
                    probed = Instant::now();
                    continue;
                }
                // Nothing is in flight, so nothing can arrive: sleep on the
                // clock, which is finer than `epoll_wait`'s milliseconds.
                Some(left) if !busy && left > SLEEP_MARGIN => {
                    std::thread::sleep(left - SLEEP_MARGIN);
                    continue;
                }
                Some(left) if left > SPIN_WINDOW => {
                    let whole_ms = (left - SPIN_WINDOW).as_millis().max(1);
                    self.poller
                        .wait(i32::try_from(whole_ms).unwrap_or(1_000), &mut events)?;
                }
                // The last stretch before a due time is polled. Yielding on
                // an empty poll lets a server thread queued behind this one
                // run at once instead of waiting out a scheduler slice — but
                // not during a scan, when a yield hands a scan thread this
                // core for a whole slice.
                Some(_) => {
                    if self.poller.wait(0, &mut events)? == 0 && !self.scan_in_flight(now) {
                        std::thread::yield_now();
                    }
                }
                None => {
                    self.poller.wait(100, &mut events)?;
                }
            }
            for &event in &events {
                let index = event.token as usize;
                if event.writable {
                    self.flush(index)?;
                }
                if event.readable || event.error {
                    self.read_replies(index, end, &mut phase)?;
                }
            }
        }
        // The phase counts what was answered inside its window.
        phase.wall_s = duration.as_secs_f64();
        let cpu_after = crate::sysinfo::cpu_seconds(std::process::id());
        phase.client_cpu_s = match (cpu_before, cpu_after) {
            (Some(before), Some(after)) => after - before,
            _ => 0.0,
        };
        Ok(phase)
    }

    fn start_session(
        &mut self,
        index: usize,
        due: Instant,
        now: Instant,
        phase: &mut Phase,
    ) -> io::Result<()> {
        let number = self.next_session;
        self.next_session += 1;
        let plan = self.script.session(number);
        phase.sessions += 1;
        if plan.shared_dq {
            phase.shared_dq_sessions += 1;
        }
        let golden = (self.want_golden && !plan.on_growing_table).then(|| GoldenRecord {
            plan: plan.clone(),
            next_ids: Vec::new(),
            recommend_ids: Vec::new(),
        });
        if golden.is_some() {
            self.want_golden = false;
        }
        let mut live = Live::new(number, plan, Step::Create, due, now);
        live.golden = golden;
        self.conns[index].live = Some(live);
        let was_free = self.conns[index].idle_since <= due;
        let during_scan = self.scan_in_flight(now);
        self.send_step(index)?;
        match &self.conns[index].live {
            Some(live) if was_free => {
                let lag = ms(live.sent.saturating_duration_since(due));
                if during_scan {
                    phase.scan_lags_ms.push(lag);
                } else {
                    phase.lags_ms.push(lag);
                }
            }
            _ => phase.starts_queued += 1,
        }
        Ok(())
    }

    /// Whether a request has been in flight for longer than
    /// [`LONG_REQUEST`]: the server is then in a scan on every core.
    fn scan_in_flight(&self, now: Instant) -> bool {
        self.conns
            .iter()
            .filter_map(|c| c.live.as_ref())
            .any(|l| now.saturating_duration_since(l.sent) > LONG_REQUEST)
    }

    fn start_append(&mut self, index: usize, due: Instant, now: Instant) -> io::Result<()> {
        let step = Step::Append(self.next_append);
        self.next_append += 1;
        self.conns[index].live = Some(Live::new(0, SessionPlan::default(), step, due, now));
        self.send_step(index)
    }

    /// Writes the request of the connection's current step.
    fn send_step(&mut self, index: usize) -> io::Result<()> {
        let appends = self.appends;
        let conn = &mut self.conns[index];
        let Some(live) = conn.live.as_mut() else {
            return Ok(());
        };
        live.requests += 1;
        live.request_id = match live.step {
            Step::Append(chunk) => format!("b-append{chunk}"),
            _ => format!("b-s{}-{}", live.number, live.requests),
        };
        let id = &live.id;
        let (method, path, body): (&str, String, Cow<'_, [u8]>) = match live.step {
            Step::Create => (
                "POST",
                "/sessions".to_owned(),
                live.plan.spec.as_bytes().into(),
            ),
            Step::FirstNext | Step::Next(_) => {
                ("GET", format!("/sessions/{id}/next?m=1"), Cow::default())
            }
            Step::Feedback(turn) => {
                let body = format!(
                    "{{\"view\":{},\"score\":{}}}",
                    live.view, live.plan.scores[turn]
                );
                (
                    "POST",
                    format!("/sessions/{id}/feedback"),
                    body.into_bytes().into(),
                )
            }
            Step::Recommend(_) => (
                "GET",
                format!("/sessions/{id}/recommend?k={RECOMMEND_K}"),
                Cow::default(),
            ),
            Step::Delete => ("DELETE", format!("/sessions/{id}"), Cow::default()),
            Step::Append(chunk) => {
                let chunk = &appends[chunk];
                ("POST", chunk.path.clone(), chunk.bytes.as_slice().into())
            }
        };
        let request = request_bytes(method, &path, &live.request_id, &body);
        conn.wbuf = request;
        conn.wpos = 0;
        self.attempted += 1;
        let sent = Instant::now();
        if let Some(live) = self.conns[index].live.as_mut() {
            live.sent = sent;
            if matches!(live.step, Step::Feedback(_)) {
                live.turn_started = sent;
            }
        }
        self.flush(index)
    }

    /// Writes as much of the pending request as the socket takes.
    fn flush(&mut self, index: usize) -> io::Result<()> {
        let conn = &mut self.conns[index];
        while conn.wpos < conn.wbuf.len() {
            match conn.stream.write(&conn.wbuf[conn.wpos..]) {
                Ok(0) => return Err(io::Error::other("socket accepted zero bytes")),
                Ok(n) => conn.wpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    return self.poller.modify(
                        conn.stream.as_raw_fd(),
                        index as u64,
                        Interest::READ_WRITE,
                    );
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if !conn.wbuf.is_empty() {
            conn.wbuf.clear();
            conn.wpos = 0;
            self.poller
                .modify(conn.stream.as_raw_fd(), index as u64, Interest::READ)?;
        }
        Ok(())
    }

    fn read_replies(&mut self, index: usize, end: Instant, phase: &mut Phase) -> io::Result<()> {
        let mut chunk = [0u8; 32 * 1024];
        loop {
            let conn = &mut self.conns[index];
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    if conn.live.is_some() {
                        self.fail("server closed the connection mid-session".to_owned());
                    }
                    return self.reconnect(index);
                }
                Ok(n) => conn.rbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    self.fail(format!("read error: {e}"));
                    return self.reconnect(index);
                }
            }
        }
        loop {
            let parsed = parse_response(&self.conns[index].rbuf);
            match parsed {
                Ok(Some(reply)) => {
                    self.conns[index].rbuf.drain(..reply.consumed);
                    self.on_reply(index, &reply, end, phase)?;
                }
                Ok(None) => return Ok(()),
                Err(e) => {
                    self.fail(format!("unparseable reply: {e}"));
                    return self.reconnect(index);
                }
            }
        }
    }

    fn reconnect(&mut self, index: usize) -> io::Result<()> {
        let conn = &mut self.conns[index];
        let _ = self.poller.remove(conn.stream.as_raw_fd());
        conn.stream = open(self.addr)?;
        conn.rbuf.clear();
        conn.wbuf.clear();
        conn.wpos = 0;
        conn.live = None;
        conn.idle_since = Instant::now();
        self.poller
            .add(conn.stream.as_raw_fd(), index as u64, Interest::READ)
    }

    /// Checks one reply and moves its session to the next step.
    fn on_reply(
        &mut self,
        index: usize,
        reply: &ParsedResponse,
        end: Instant,
        phase: &mut Phase,
    ) -> io::Result<()> {
        let now = Instant::now();
        let Some(mut live) = self.conns[index].live.take() else {
            self.fail("reply on an idle connection".to_owned());
            return Ok(());
        };
        let in_window = now < end;
        if let Some(tracer) = self.tracer.as_mut() {
            let name = format!("wire.{}", live.step.route());
            tracer.record_wire(
                &name,
                live.due.min(live.sent),
                live.sent,
                now,
                &live.request_id,
            );
        }
        let checked = check_reply(&mut live, reply);
        let in_session = !matches!(live.step, Step::Append(_));
        if in_session {
            phase.response_bytes += reply.body.len() as u64;
        }
        let next = match checked {
            Err(message) => {
                // The delete that tears down an already broken session may
                // fail without being counted twice.
                if !(live.broken && live.step == Step::Delete) {
                    self.fail(format!(
                        "{} {}: {message}",
                        live.request_id,
                        live.step.route()
                    ));
                }
                // Tear the session down if the server knows it.
                if live.id.is_empty() || live.step == Step::Delete {
                    None
                } else {
                    live.broken = true;
                    Some(Step::Delete)
                }
            }
            Ok(value) => {
                if in_session && in_window && !live.broken {
                    phase.ops += 1;
                }
                let turns = live.plan.scores.len();
                match live.step {
                    Step::Create => Some(Step::FirstNext),
                    Step::FirstNext => {
                        if in_window && !live.broken {
                            phase
                                .starts_ms
                                .push(ms(now.saturating_duration_since(live.due)));
                            phase.starts_at.push(self.at(now));
                        }
                        (turns > 0)
                            .then_some(Step::Feedback(0))
                            .or(Some(Step::Delete))
                    }
                    Step::Feedback(turn) => {
                        let pending = value.get("pending_refinements").and_then(Value::as_u64);
                        if let (Some(before), Some(after)) = (live.pending_refinements, pending) {
                            if in_window {
                                phase.refined_views += before.saturating_sub(after);
                            }
                        }
                        live.pending_refinements = pending;
                        Some(Step::Recommend(turn))
                    }
                    Step::Recommend(turn) => Some(Step::Next(turn)),
                    Step::Next(turn) => {
                        let took = now.saturating_duration_since(live.turn_started);
                        if took > TURN_LIMIT {
                            self.fail(format!(
                                "{}: turn took {:.0} ms, over the {} ms budget",
                                live.request_id,
                                ms(took),
                                TURN_LIMIT.as_millis()
                            ));
                        }
                        if in_window && !live.broken {
                            phase.turns_ms.push(ms(took));
                            phase.turns_at.push(self.at(now));
                            phase.turns += 1;
                            live.turn_total_ms += ms(took);
                            live.turns_timed += 1;
                        }
                        if turn + 1 < turns {
                            Some(Step::Feedback(turn + 1))
                        } else {
                            if live.turns_timed == turns {
                                phase
                                    .session_turns_ms
                                    .push(live.turn_total_ms / turns as f64);
                                phase.session_turns_at.push(self.at(now));
                            }
                            Some(Step::Delete)
                        }
                    }
                    Step::Delete => None,
                    Step::Append(chunk) => {
                        let chunk = &self.appends[chunk];
                        phase
                            .appends_ms
                            .push(ms(now.saturating_duration_since(live.due)));
                        phase.append_bytes += chunk.bytes.len() as u64;
                        if let Err(message) = acknowledge(&mut self.acknowledged, chunk, &value) {
                            self.fail(message);
                        }
                        None
                    }
                }
            }
        };
        // Past the end of the phase a session is cut short: its current
        // request has been answered, and only the delete remains.
        let next = match next {
            Some(step) if !in_window && step != Step::Delete && !live.id.is_empty() => {
                Some(Step::Delete)
            }
            other => other,
        };
        match next {
            Some(step) => {
                live.step = step;
                self.conns[index].live = Some(live);
                self.send_step(index)
            }
            None => {
                self.conns[index].idle_since = now;
                if let Some(golden) = live.golden.take() {
                    if !live.broken && golden.next_ids.len() == live.plan.scores.len() + 1 {
                        self.golden = Some(golden);
                    } else {
                        // Cut short by the end of a phase: record another.
                        self.want_golden = true;
                    }
                }
                Ok(())
            }
        }
    }
}

/// Records what an upload or append reply acknowledged for its dataset.
pub fn acknowledge(
    acknowledged: &mut BTreeMap<String, (u64, String)>,
    chunk: &CsvBody,
    reply: &Value,
) -> Result<(), String> {
    let rows = reply
        .get("total_rows")
        .or_else(|| reply.get("rows"))
        .and_then(Value::as_u64);
    let checksum = reply.get("checksum").and_then(Value::as_str);
    let (Some(rows), Some(checksum)) = (rows, checksum) else {
        return Err(format!("{}: reply names no rows/checksum", chunk.path));
    };
    let expected = acknowledged.get(&chunk.dataset).map_or(0, |(r, _)| *r) + chunk.rows as u64;
    if rows != expected {
        return Err(format!(
            "{}: server reports {rows} rows, {expected} were sent",
            chunk.path
        ));
    }
    acknowledged.insert(chunk.dataset.clone(), (rows, checksum.to_owned()));
    Ok(())
}

/// The response checker: status, echoed request id, and what the body must
/// say at this step. Returns the parsed body.
fn check_reply(live: &mut Live, reply: &ParsedResponse) -> Result<Value, String> {
    let expected_status = if live.step == Step::Create { 201 } else { 200 };
    if reply.status != expected_status {
        return Err(format!(
            "status {} (expected {expected_status}): {}",
            reply.status,
            String::from_utf8_lossy(&reply.body)
        ));
    }
    if reply.request_id.as_deref() != Some(live.request_id.as_str()) {
        return Err(format!(
            "X-Request-Id echoed as {:?}, sent {:?}",
            reply.request_id, live.request_id
        ));
    }
    let text = std::str::from_utf8(&reply.body).map_err(|_| "body is not UTF-8".to_owned())?;
    let value = parse_value(text).map_err(|e| format!("body is not JSON: {e}"))?;
    match live.step {
        Step::Create => {
            let id = value.get("id").and_then(Value::as_str).unwrap_or_default();
            if id.is_empty() {
                return Err("create reply has no id".to_owned());
            }
            live.id = id.to_owned();
            let views = value.get("views").and_then(Value::as_u64);
            if views != Some(live.plan.expect_views as u64) {
                return Err(format!(
                    "views = {views:?}, expected {}",
                    live.plan.expect_views
                ));
            }
            if value.get("labels").and_then(Value::as_u64) != Some(0) {
                return Err("a new session already has labels".to_owned());
            }
            live.pending_refinements = value.get("pending_refinements").and_then(Value::as_u64);
        }
        Step::FirstNext | Step::Next(_) => {
            let ids = view_ids(&value)?;
            let [view] = ids.as_slice() else {
                return Err(format!("next?m=1 returned {} views", ids.len()));
            };
            if *view >= live.plan.expect_views {
                return Err(format!("next returned view {view}, outside the view space"));
            }
            if live.labelled.contains(view) {
                return Err(format!(
                    "next returned view {view}, which is already labelled"
                ));
            }
            live.view = *view;
            if let Some(golden) = live.golden.as_mut() {
                golden.next_ids.push(*view);
            }
        }
        Step::Feedback(turn) => {
            let labels = value.get("labels").and_then(Value::as_u64);
            if labels != Some(turn as u64 + 1) {
                return Err(format!("labels = {labels:?} after turn {}", turn + 1));
            }
            live.labelled.push(live.view);
        }
        Step::Recommend(_) => {
            let ids = view_ids(&value)?;
            let mut distinct = ids.clone();
            distinct.sort_unstable();
            distinct.dedup();
            if ids.len() != RECOMMEND_K || distinct.len() != RECOMMEND_K {
                return Err(format!(
                    "recommend?k={RECOMMEND_K} returned {} ids, {} distinct",
                    ids.len(),
                    distinct.len()
                ));
            }
            if let Some(golden) = live.golden.as_mut() {
                golden.recommend_ids.push(ids);
            }
        }
        Step::Delete => {
            if value.get("deleted") != Some(&Value::Bool(true)) {
                return Err("delete reply does not say deleted".to_owned());
            }
        }
        Step::Append(_) => {}
    }
    Ok(value)
}

fn view_ids(value: &Value) -> Result<Vec<usize>, String> {
    let items = value
        .as_array()
        .ok_or_else(|| "reply is not a list of views".to_owned())?;
    items
        .iter()
        .map(|item| {
            item.get("id")
                .and_then(Value::as_u64)
                .map(|id| id as usize)
                .ok_or_else(|| "view without an id".to_owned())
        })
        .collect()
}

/// The bytes of one request as the benchmark sends it, on the wire and to
/// the in-process parser alike.
pub fn request_bytes(method: &str, path: &str, request_id: &str, body: &[u8]) -> Vec<u8> {
    let mut request = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nX-Request-Id: {request_id}\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    request.extend_from_slice(body);
    request
}

fn open(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_nonblocking(true)?;
    Ok(stream)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
