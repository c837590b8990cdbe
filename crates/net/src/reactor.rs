//! The event loop: a single reactor thread multiplexing every connection
//! through one [`Poller`], plus a worker pool handling requests off a
//! channel.
//!
//! # Tick anatomy
//!
//! Each loop tick: wait for readiness (bounded by the nearest admission
//! deadline) → drain the waker pipe → apply worker completions → shed or
//! dispatch from the admission queue → accept (bounded by
//! [`EventConfig::accept_budget`]) → per-connection reads (bounded by
//! [`EventConfig::read_budget`], parsing pipelined requests as they
//! complete) → per-connection writes (bounded by
//! [`EventConfig::write_budget`]). Level-triggered epoll makes the budgets
//! safe: readiness left on the table is simply reported again next tick,
//! so one slow or floody client costs everyone at most a bounded slice of
//! each tick, never the loop.
//!
//! # Admission control
//!
//! Parsed requests enter a FIFO admission queue rather than going straight
//! to the workers. At most [`EventConfig::max_inflight`] requests are with
//! the workers at once; the rest wait, and any request that waits longer
//! than [`EventConfig::queue_deadline`] is shed with
//! `503 Service Unavailable` + `Retry-After` (connection kept alive, so a
//! backing-off client reuses its socket). Overload therefore degrades into
//! fast explicit rejections with bounded memory — never an unbounded queue
//! or a hung accept backlog.
//!
//! # Ordering
//!
//! Workers complete in any order; [`crate::conn::Conn`] re-orders
//! responses by per-connection sequence number before they reach the
//! socket, which is what makes pipelining safe.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel;

use crate::conn::Conn;
use crate::http1::{self, Handler, Request, Response};
use crate::stats::NetStats;
use crate::sys::{Interest, Poller};
use crate::trace::{ActiveTrace, TraceSink};

/// Token for the listening socket.
const LISTENER: u64 = 0;
/// Token for the waker pipe's read end.
const WAKER: u64 = 1;
/// First token handed to an accepted connection.
const FIRST_CONN: u64 = 2;

/// Tuning knobs for the reactor. [`EventConfig::default`] is sized for
/// the CI box; every field exists to bound something.
#[derive(Debug, Clone)]
pub struct EventConfig {
    /// Worker threads handling requests.
    pub workers: usize,
    /// Max requests dispatched to workers at once; beyond this, requests
    /// wait in the admission queue.
    pub max_inflight: usize,
    /// Max time a request may wait in the admission queue before being
    /// shed with `503`.
    pub queue_deadline: Duration,
    /// `Retry-After` seconds advertised on shed responses.
    pub retry_after_secs: u32,
    /// Max connections accepted per tick.
    pub accept_budget: usize,
    /// Max bytes read from one connection per tick.
    pub read_budget: usize,
    /// Max bytes written to one connection per tick.
    pub write_budget: usize,
    /// Max pipelined requests parsed-but-unanswered per connection;
    /// beyond this the connection's reads pause (kernel backpressure).
    pub max_pipeline: usize,
}

impl Default for EventConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            max_inflight: 256,
            queue_deadline: Duration::from_millis(500),
            retry_after_secs: 1,
            accept_budget: 128,
            read_budget: 64 * 1024,
            write_budget: 64 * 1024,
            max_pipeline: 64,
        }
    }
}

/// A running reactor: loop thread + worker pool, stoppable.
pub struct EventHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    waker: UnixStream,
    loop_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl EventHandle {
    /// The bound address (useful with port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the loop, drains in-flight work, and joins every thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        let _ = (&self.waker).write(&[1]);
        if let Some(t) = self.loop_thread.take() {
            let _ = t.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for EventHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A request travelling to the workers and its routing info back.
struct Job {
    token: u64,
    seq: u64,
    keep_alive: bool,
    request: Request,
    trace: ActiveTrace,
    /// When the reactor handed the job to the worker channel (the
    /// `dispatch` span runs from here to worker pickup).
    dispatched: Instant,
}

/// A worker's finished response.
struct Completion {
    token: u64,
    seq: u64,
    keep_alive: bool,
    response: Response,
    trace: ActiveTrace,
    /// When the handler returned (the `write` span starts here).
    finished_at: Instant,
}

/// A parsed request waiting for a worker slot.
struct Queued {
    token: u64,
    seq: u64,
    keep_alive: bool,
    request: Request,
    trace: ActiveTrace,
    enqueued: Instant,
}

/// A request whose response is (or is about to be) in the write buffer;
/// its trace finalizes once the buffer drains past its sequence number.
struct PendingFinish {
    seq: u64,
    trace: ActiveTrace,
    write_start: Instant,
}

/// Binds `addr` and serves `handler` on the event reactor until
/// [`EventHandle::shutdown`]. `stats` is scraped by the caller (the
/// server's `/metrics` endpoint); `queue_depth` mirrors the admission
/// queue length (pending-dispatch count); `sink` receives every
/// finished [`crate::trace::RequestTrace`] — including sheds and parse
/// rejections — once the response's last byte is flushed.
///
/// # Errors
///
/// Propagates bind/epoll setup failure; on non-Linux platforms, fails
/// with [`io::ErrorKind::Unsupported`].
pub fn serve_event<H: Handler>(
    addr: impl ToSocketAddrs,
    config: EventConfig,
    handler: Arc<H>,
    stats: Arc<NetStats>,
    queue_depth: Arc<AtomicU64>,
    sink: Arc<dyn TraceSink>,
) -> io::Result<EventHandle> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let local = listener.local_addr()?;

    let poller = Poller::new()?;
    poller.add(listener.as_raw_fd(), LISTENER, Interest::READ)?;

    let (wake_rx, wake_tx) = UnixStream::pair()?;
    wake_rx.set_nonblocking(true)?;
    wake_tx.set_nonblocking(true)?;
    poller.add(wake_rx.as_raw_fd(), WAKER, Interest::READ)?;

    let shutdown = Arc::new(AtomicBool::new(false));
    let (job_tx, job_rx) = channel::unbounded::<Job>();
    let (done_tx, done_rx) = channel::unbounded::<Completion>();

    let mut workers = Vec::with_capacity(config.workers.max(1));
    for i in 0..config.workers.max(1) {
        let job_rx = job_rx.clone();
        let done_tx = done_tx.clone();
        let handler = Arc::clone(&handler);
        let waker = wake_tx.try_clone()?;
        workers.push(
            std::thread::Builder::new()
                .name(format!("vs-net-worker-{i}"))
                .spawn(move || {
                    // recv() errors once the loop drops the sender — exit.
                    while let Ok(job) = job_rx.recv() {
                        job.trace.record("dispatch", job.dispatched);
                        let handler_start = Instant::now();
                        let mut response = handler.handle_traced(&job.request, &job.trace);
                        job.trace.record("handler", handler_start);
                        job.trace.set_status(response.status);
                        response.request_id = Some(job.trace.id());
                        let _ = done_tx.send(Completion {
                            token: job.token,
                            seq: job.seq,
                            keep_alive: job.keep_alive,
                            response,
                            trace: job.trace,
                            finished_at: Instant::now(),
                        });
                        // Nonblocking wake; a full pipe still wakes the loop.
                        let _ = (&waker).write(&[1]);
                    }
                })?,
        );
    }
    drop(job_rx);
    drop(done_tx);

    let loop_shutdown = Arc::clone(&shutdown);
    let loop_thread = std::thread::Builder::new()
        .name("vs-net-loop".into())
        .spawn(move || {
            let mut reactor = Reactor {
                listener,
                poller,
                wake_rx,
                conns: HashMap::new(),
                next_token: FIRST_CONN,
                admission: VecDeque::new(),
                inflight: 0,
                config,
                stats,
                queue_depth,
                job_tx,
                done_rx,
                sink,
            };
            reactor.run(&loop_shutdown);
        })?;

    Ok(EventHandle {
        addr: local,
        shutdown,
        waker: wake_tx,
        loop_thread: Some(loop_thread),
        workers,
    })
}

/// One connection plus the interest set currently registered for it,
/// cached to skip redundant `epoll_ctl` calls.
struct Entry {
    conn: Conn,
    interest: Interest,
    /// When the first unparsed byte of the in-progress request arrived;
    /// the next parsed request's trace (and its `parse` span) starts
    /// here. `None` while the read buffer holds no request prefix.
    first_byte: Option<Instant>,
    /// Traces awaiting last-byte-flushed finalization, in seq order.
    finalizing: Vec<PendingFinish>,
}

struct Reactor {
    listener: TcpListener,
    poller: Poller,
    wake_rx: UnixStream,
    conns: HashMap<u64, Entry>,
    next_token: u64,
    admission: VecDeque<Queued>,
    /// Requests currently with the workers.
    inflight: usize,
    config: EventConfig,
    stats: Arc<NetStats>,
    /// Mirrors `admission.len()` for the Prometheus gauge.
    queue_depth: Arc<AtomicU64>,
    job_tx: channel::Sender<Job>,
    done_rx: channel::Receiver<Completion>,
    /// Receives every finished request trace.
    sink: Arc<dyn TraceSink>,
}

impl Reactor {
    fn run(&mut self, shutdown: &AtomicBool) {
        let mut events = Vec::new();
        while !shutdown.load(Ordering::SeqCst) {
            events.clear();
            if self.poller.wait(self.timeout_ms(), &mut events).is_err() {
                break; // epoll itself failed; nothing recoverable
            }
            let tick_start = Instant::now();
            let mut busy = false;

            for event in events.clone() {
                match event.token {
                    LISTENER => busy |= self.accept_burst(),
                    WAKER => self.drain_waker(),
                    token => {
                        if event.error {
                            self.close(token);
                            busy = true;
                            continue;
                        }
                        if event.readable {
                            busy |= self.readable(token);
                        }
                        if event.writable {
                            busy |= self.writable(token);
                        }
                    }
                }
            }
            busy |= self.apply_completions();
            busy |= self.shed_and_dispatch();
            self.publish_queue_depth();

            if busy {
                let us = u64::try_from(tick_start.elapsed().as_micros()).unwrap_or(u64::MAX);
                self.stats.record_tick(us);
            }
        }
        // Dropping `job_tx` (with self) retires the workers; the handle
        // joins them after the loop thread exits.
    }

    /// Epoll timeout: the nearest admission deadline, else a 200 ms
    /// heartbeat (shed checks and shutdown polling need an upper bound).
    fn timeout_ms(&self) -> i32 {
        let heartbeat = 200u128;
        let ms = match self.admission.front() {
            Some(q) => {
                let waited = q.enqueued.elapsed();
                self.config
                    .queue_deadline
                    .saturating_sub(waited)
                    .as_millis()
                    .min(heartbeat)
            }
            None => heartbeat,
        };
        i32::try_from(ms).unwrap_or(200)
    }

    fn publish_queue_depth(&self) {
        self.queue_depth
            .store(self.admission.len() as u64, Ordering::Relaxed);
    }

    /// Accepts up to `accept_budget` connections.
    fn accept_burst(&mut self) -> bool {
        let mut accepted_any = false;
        for _ in 0..self.config.accept_budget {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue; // kernel refused; drop the socket
                    }
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .poller
                        .add(stream.as_raw_fd(), token, Interest::READ)
                        .is_err()
                    {
                        continue;
                    }
                    self.conns.insert(
                        token,
                        Entry {
                            conn: Conn::new(stream),
                            interest: Interest::READ,
                            first_byte: None,
                            finalizing: Vec::new(),
                        },
                    );
                    self.stats.accepted.fetch_add(1, Ordering::Relaxed);
                    self.stats.active.fetch_add(1, Ordering::Relaxed);
                    accepted_any = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break, // transient (EMFILE etc.); retry next tick
            }
        }
        accepted_any
    }

    fn drain_waker(&mut self) {
        let mut sink = [0u8; 256];
        while let Ok(n) = (&self.wake_rx).read(&mut sink) {
            if n < sink.len() {
                break;
            }
        }
    }

    /// Reads from `token` under the tick budget and parses what arrived.
    fn readable(&mut self, token: u64) -> bool {
        let Some(entry) = self.conns.get_mut(&token) else {
            return false;
        };
        if entry.conn.closing || entry.conn.inflight >= self.config.max_pipeline {
            return false;
        }
        let mut budget = self.config.read_budget;
        let mut chunk = [0u8; 8192];
        let mut did_read = false;
        let mut saw_wouldblock = false;
        loop {
            if budget == 0 {
                break;
            }
            let want = budget.min(chunk.len());
            let result = match chunk.get_mut(..want) {
                Some(dst) => entry.conn.stream.read(dst),
                None => entry.conn.stream.read(&mut chunk),
            };
            match result {
                Ok(0) => {
                    // Peer half-closed: no more requests will arrive.
                    // Finish what is queued, then drop the connection.
                    entry.conn.closing = true;
                    break;
                }
                Ok(n) => {
                    did_read = true;
                    budget = budget.saturating_sub(n);
                    if entry.first_byte.is_none() {
                        entry.first_byte = Some(Instant::now());
                    }
                    entry
                        .conn
                        .read_buf
                        .extend_from_slice(chunk.get(..n).unwrap_or_default());
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    saw_wouldblock = true;
                    break;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(token);
                    return true;
                }
            }
        }
        let parsed_any = self.parse_conn(token);
        if let Some(entry) = self.conns.get_mut(&token) {
            if saw_wouldblock && !entry.conn.read_buf.is_empty() {
                // Socket drained mid-request: the request is split across
                // reads and the loop will resume it when more bytes land.
                self.stats.read_stalls.fetch_add(1, Ordering::Relaxed);
            }
            if entry.conn.finished() {
                self.close(token);
            } else {
                self.update_interest(token);
            }
        }
        did_read || parsed_any
    }

    /// Parses every complete pipelined request sitting in `token`'s read
    /// buffer (up to `max_pipeline`) into the admission queue.
    fn parse_conn(&mut self, token: u64) -> bool {
        let mut parsed_any = false;
        loop {
            let Some(entry) = self.conns.get_mut(&token) else {
                return parsed_any;
            };
            if entry.conn.closing
                || entry.conn.inflight >= self.config.max_pipeline
                || entry.conn.read_buf.is_empty()
            {
                return parsed_any;
            }
            match http1::parse_request(&entry.conn.read_buf) {
                Ok(Some(parsed)) => {
                    entry.conn.read_buf.drain(..parsed.consumed);
                    let started = entry.first_byte.take().unwrap_or_else(Instant::now);
                    if !entry.conn.read_buf.is_empty() {
                        // A pipelined successor's bytes are already here;
                        // its parse clock starts now, not at this
                        // request's first byte.
                        entry.first_byte = Some(Instant::now());
                    }
                    let trace = ActiveTrace::start(
                        parsed.request.header("x-request-id"),
                        &parsed.request.method,
                        &parsed.request.path,
                        started,
                    );
                    trace.record("parse", started);
                    let seq = entry.conn.assign_seq();
                    self.admission.push_back(Queued {
                        token,
                        seq,
                        keep_alive: parsed.keep_alive,
                        request: parsed.request,
                        trace,
                        enqueued: Instant::now(),
                    });
                    parsed_any = true;
                }
                Ok(None) => return parsed_any,
                Err(e) => {
                    // The byte stream is unrecoverable: answer in order
                    // (after any pipelined predecessors) and close. The
                    // rejection is traced too — 400/431/413 responses
                    // carry a request id and reach the sink's logs.
                    let started = entry.first_byte.take().unwrap_or_else(Instant::now);
                    let trace = ActiveTrace::start(None, "-", "-", started);
                    trace.record("parse", started);
                    trace.set_status(e.status());
                    let mut response = e.to_response();
                    response.request_id = Some(trace.id());
                    let seq = entry.conn.assign_seq();
                    entry.conn.complete(seq, response, false);
                    entry.conn.closing = true;
                    entry.finalizing.push(PendingFinish {
                        seq,
                        trace,
                        write_start: Instant::now(),
                    });
                    return true;
                }
            }
        }
    }

    /// Writes buffered response bytes under the tick budget.
    fn writable(&mut self, token: u64) -> bool {
        let Some(entry) = self.conns.get_mut(&token) else {
            return false;
        };
        let mut budget = self.config.write_budget;
        let mut wrote = false;
        loop {
            if entry.conn.pending().is_empty() || budget == 0 {
                break;
            }
            match entry.conn.write_some(budget) {
                Ok(0) => {
                    self.close(token);
                    return true;
                }
                Ok(n) => {
                    wrote = true;
                    budget = budget.saturating_sub(n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.stats.write_stalls.fetch_add(1, Ordering::Relaxed);
                    break;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Early client disconnect mid-response (EPIPE/reset):
                    // discard the connection, never the loop.
                    self.close(token);
                    return true;
                }
            }
        }
        if entry.conn.wants_write() && budget == 0 {
            self.stats.write_stalls.fetch_add(1, Ordering::Relaxed);
        }
        self.finalize_flushed(token);
        let finished = self.conns.get(&token).is_some_and(|e| e.conn.finished());
        if finished {
            self.close(token);
        } else {
            self.update_interest(token);
        }
        wrote
    }

    /// Finalizes every trace whose response bytes have fully reached the
    /// socket: the in-order flush cursor has passed its sequence number
    /// and the write buffer is drained. The `write` span runs from
    /// handler completion (or shed/reject decision) to this moment.
    fn finalize_flushed(&mut self, token: u64) {
        let sink = Arc::clone(&self.sink);
        let Some(entry) = self.conns.get_mut(&token) else {
            return;
        };
        if entry.conn.wants_write() || entry.finalizing.is_empty() {
            return;
        }
        let flushed = entry.conn.flushed_seq();
        let mut index = 0;
        while index < entry.finalizing.len() {
            if entry.finalizing.get(index).is_some_and(|p| p.seq < flushed) {
                let p = entry.finalizing.remove(index);
                p.trace.record("write", p.write_start);
                sink.record(p.trace.finish());
            } else {
                index += 1;
            }
        }
    }

    /// Applies every completion the workers produced, re-parsing any
    /// connection whose pipeline slot freed up.
    fn apply_completions(&mut self) -> bool {
        let mut any = false;
        while let Ok(done) = self.done_rx.try_recv() {
            any = true;
            self.inflight = self.inflight.saturating_sub(1);
            let Some(entry) = self.conns.get_mut(&done.token) else {
                continue; // connection died while the worker ran
            };
            entry
                .conn
                .complete(done.seq, done.response, done.keep_alive);
            entry.finalizing.push(PendingFinish {
                seq: done.seq,
                trace: done.trace,
                write_start: done.finished_at,
            });
            // A freed pipeline slot may unblock buffered requests.
            self.parse_conn(done.token);
            // Flush eagerly: most responses fit the socket buffer, so this
            // saves a tick of latency over waiting for EPOLLOUT.
            self.writable(done.token);
            if let Some(_entry) = self.conns.get_mut(&done.token) {
                self.update_interest(done.token);
            }
        }
        any
    }

    /// Sheds expired queue entries, then dispatches while worker slots
    /// remain.
    fn shed_and_dispatch(&mut self) -> bool {
        let mut any = false;
        // FIFO queue: the front is always the oldest entry.
        while let Some(front) = self.admission.front() {
            if front.enqueued.elapsed() < self.config.queue_deadline {
                break;
            }
            let Some(q) = self.admission.pop_front() else {
                break;
            };
            any = true;
            self.stats.shed.fetch_add(1, Ordering::Relaxed);
            let retry = self.config.retry_after_secs;
            if let Some(entry) = self.conns.get_mut(&q.token) {
                q.trace.record("queue_wait", q.enqueued);
                q.trace.mark_shed();
                q.trace.set_status(503);
                let mut response = Response::unavailable(retry);
                response.request_id = Some(q.trace.id());
                // Shed keeps the connection: a backing-off client reuses
                // its socket after Retry-After.
                entry.conn.complete(q.seq, response, q.keep_alive);
                entry.finalizing.push(PendingFinish {
                    seq: q.seq,
                    trace: q.trace,
                    write_start: Instant::now(),
                });
                self.writable(q.token);
            }
        }
        while self.inflight < self.config.max_inflight {
            let Some(q) = self.admission.pop_front() else {
                break;
            };
            any = true;
            if !self.conns.contains_key(&q.token) {
                continue; // connection died while queued
            }
            q.trace.record("queue_wait", q.enqueued);
            if self
                .job_tx
                .send(Job {
                    token: q.token,
                    seq: q.seq,
                    keep_alive: q.keep_alive,
                    request: q.request,
                    trace: q.trace,
                    dispatched: Instant::now(),
                })
                .is_ok()
            {
                self.inflight += 1;
            }
        }
        any
    }

    /// Syncs the registered interest set with what the connection wants.
    fn update_interest(&mut self, token: u64) {
        let Some(entry) = self.conns.get_mut(&token) else {
            return;
        };
        let want = Interest {
            // Pause reads while closing or while the pipeline cap is hit;
            // level-triggered epoll would otherwise spin on readability.
            readable: !entry.conn.closing && entry.conn.inflight < self.config.max_pipeline,
            writable: entry.conn.wants_write(),
        };
        if want != entry.interest {
            let fd = entry.conn.stream.as_raw_fd();
            if self.poller.modify(fd, token, want).is_ok() {
                entry.interest = want;
            }
        }
    }

    /// Deregisters and drops a connection, finalizing any traces still
    /// waiting on a flush (their `write` span ends at the close — the
    /// honest duration when the peer vanished mid-response).
    fn close(&mut self, token: u64) {
        if let Some(entry) = self.conns.remove(&token) {
            let _ = self.poller.remove(entry.conn.stream.as_raw_fd());
            self.stats.active.fetch_sub(1, Ordering::Relaxed);
            for p in entry.finalizing {
                p.trace.record("write", p.write_start);
                self.sink.record(p.trace.finish());
            }
        }
    }
}

#[cfg(test)]
#[cfg(target_os = "linux")]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpStream;

    /// Echoes the path; sleeps when the path asks for it, so tests can
    /// force out-of-order completion.
    struct Echo;
    impl Handler for Echo {
        fn handle(&self, request: &Request) -> Response {
            if let Some(ms) = request.query_param("sleep_ms") {
                std::thread::sleep(Duration::from_millis(ms.parse().unwrap_or(0)));
            }
            Response::json(format!("{{\"path\": {:?}}}", request.path))
        }
    }

    /// Captures every finalized trace for assertions.
    #[derive(Debug, Default)]
    struct CaptureSink {
        traces: std::sync::Mutex<Vec<crate::trace::RequestTrace>>,
    }

    impl TraceSink for CaptureSink {
        fn record(&self, trace: crate::trace::RequestTrace) {
            self.traces.lock().unwrap().push(trace);
        }
    }

    impl CaptureSink {
        fn take(&self) -> Vec<crate::trace::RequestTrace> {
            self.traces.lock().unwrap().clone()
        }

        fn wait_for(&self, count: usize) -> Vec<crate::trace::RequestTrace> {
            let deadline = Instant::now() + Duration::from_secs(2);
            while self.take().len() < count && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
            self.take()
        }
    }

    fn start(config: EventConfig) -> (EventHandle, Arc<NetStats>, Arc<CaptureSink>) {
        let stats = Arc::new(NetStats::new());
        let depth = Arc::new(AtomicU64::new(0));
        let sink = Arc::new(CaptureSink::default());
        let handle = serve_event(
            "127.0.0.1:0",
            config,
            Arc::new(Echo),
            Arc::clone(&stats),
            depth,
            Arc::clone(&sink) as Arc<dyn TraceSink>,
        )
        .unwrap();
        (handle, stats, sink)
    }

    fn read_one_response(reader: &mut BufReader<TcpStream>) -> (u16, String, Vec<String>) {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let status: u16 = line.split_whitespace().nth(1).unwrap().parse().unwrap();
        let mut headers = Vec::new();
        let mut content_length = 0usize;
        loop {
            let mut h = String::new();
            reader.read_line(&mut h).unwrap();
            let h = h.trim_end().to_owned();
            if h.is_empty() {
                break;
            }
            if let Some(v) = h.to_ascii_lowercase().strip_prefix("content-length:") {
                content_length = v.trim().parse().unwrap();
            }
            headers.push(h);
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).unwrap();
        (status, String::from_utf8(body).unwrap(), headers)
    }

    #[test]
    fn keep_alive_serves_sequential_requests_on_one_socket() {
        let (handle, stats, _) = start(EventConfig::default());
        let stream = TcpStream::connect(handle.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        for i in 0..3 {
            (&stream)
                .write_all(format!("GET /r{i} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
                .unwrap();
            let (status, body, headers) = read_one_response(&mut reader);
            assert_eq!(status, 200);
            assert!(body.contains(&format!("/r{i}")), "{body}");
            assert!(
                headers.iter().any(|h| h == "Connection: keep-alive"),
                "{headers:?}"
            );
        }
        drop(stream);
        assert_eq!(
            NetStats::get(&stats.accepted),
            1,
            "one socket, three requests"
        );
        handle.shutdown();
    }

    #[test]
    fn pipelined_requests_answer_in_order_despite_slow_first() {
        let (handle, _, _) = start(EventConfig::default());
        let stream = TcpStream::connect(handle.addr()).unwrap();
        // First request sleeps; the second would finish first without
        // reordering.
        (&stream)
            .write_all(
                b"GET /slow?sleep_ms=150 HTTP/1.1\r\nHost: x\r\n\r\nGET /fast HTTP/1.1\r\nHost: x\r\n\r\n",
            )
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let (_, first, _) = read_one_response(&mut reader);
        let (_, second, _) = read_one_response(&mut reader);
        assert!(first.contains("/slow"), "{first}");
        assert!(second.contains("/fast"), "{second}");
        handle.shutdown();
    }

    #[test]
    fn byte_at_a_time_request_completes() {
        let (handle, _, _) = start(EventConfig::default());
        let stream = TcpStream::connect(handle.addr()).unwrap();
        for &b in b"GET /dribble HTTP/1.1\r\nHost: x\r\n\r\n" {
            (&stream).write_all(&[b]).unwrap();
            (&stream).flush().unwrap();
        }
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let (status, body, _) = read_one_response(&mut reader);
        assert_eq!(status, 200);
        assert!(body.contains("/dribble"), "{body}");
        handle.shutdown();
    }

    #[test]
    fn connection_close_is_honored_and_socket_ends() {
        let (handle, _, _) = start(EventConfig::default());
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream
            .write_all(b"GET /bye HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap(); // EOF proves close
        assert!(out.contains("Connection: close"), "{out}");
        assert!(out.contains("/bye"), "{out}");
        handle.shutdown();
    }

    #[test]
    fn concurrent_connections_are_answered_across_the_pool() {
        // `max_inflight` sits above the 256 sockets of the second input, so
        // admission control is not what this test exercises.
        let config = EventConfig {
            workers: 4,
            max_inflight: 512,
            ..EventConfig::default()
        };
        let (handle, stats, _) = start(config);
        let addr = handle.addr();
        // Twice as many clients as workers, released together, each on its
        // own connection: every one gets its own answer.
        let gate = std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            for i in 0..8 {
                let gate = &gate;
                s.spawn(move || {
                    let mut stream = TcpStream::connect(addr).unwrap();
                    gate.wait();
                    let request =
                        format!("GET /ping/{i}?sleep_ms=20 HTTP/1.1\r\nConnection: close\r\n\r\n");
                    stream.write_all(request.as_bytes()).unwrap();
                    let mut out = String::new();
                    stream.read_to_string(&mut out).unwrap();
                    assert!(out.starts_with("HTTP/1.1 200"), "{out}");
                    assert!(out.contains(&format!("/ping/{i}")), "{out}");
                });
            }
        });
        // Second input: many sockets opened from one thread and all held
        // open at once. Each round puts a request on every socket before
        // reading any answer, so the reactor holds 256 live keep-alive
        // connections with a request in flight on each.
        let mut held: Vec<_> = (0..256)
            .map(|_| BufReader::new(TcpStream::connect(addr).unwrap()))
            .collect();
        for round in 0..2 {
            for (i, reader) in held.iter().enumerate() {
                let request = format!("GET /held/{i}/{round} HTTP/1.1\r\nHost: x\r\n\r\n");
                reader.get_ref().write_all(request.as_bytes()).unwrap();
            }
            for (i, reader) in held.iter_mut().enumerate() {
                let (status, body, headers) = read_one_response(reader);
                assert_eq!(status, 200, "socket {i} round {round}: {body}");
                assert!(body.contains(&format!("\"/held/{i}/{round}\"")), "{body}");
                assert!(
                    headers.iter().any(|h| h == "Connection: keep-alive"),
                    "{headers:?}"
                );
            }
        }
        assert_eq!(NetStats::get(&stats.accepted), 8 + 256);
        assert_eq!(NetStats::get(&stats.shed), 0);
        handle.shutdown();
    }

    #[test]
    fn overload_sheds_503_with_retry_after_and_keeps_the_connection() {
        let config = EventConfig {
            workers: 1,
            max_inflight: 1,
            queue_deadline: Duration::from_millis(50),
            ..EventConfig::default()
        };
        let (handle, stats, _) = start(config);
        // One slow request occupies the only worker slot...
        let blocker = TcpStream::connect(handle.addr()).unwrap();
        (&blocker)
            .write_all(b"GET /block?sleep_ms=600 HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        std::thread::sleep(Duration::from_millis(50));
        // ...so this one exceeds the queue deadline and gets shed.
        let victim = TcpStream::connect(handle.addr()).unwrap();
        (&victim)
            .write_all(b"GET /shed HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut reader = BufReader::new(victim.try_clone().unwrap());
        let (status, body, headers) = read_one_response(&mut reader);
        assert_eq!(status, 503, "{body}");
        assert!(
            headers.iter().any(|h| h.starts_with("Retry-After:")),
            "{headers:?}"
        );
        assert!(
            headers.iter().any(|h| h == "Connection: keep-alive"),
            "shed must not burn the socket: {headers:?}"
        );
        assert!(NetStats::get(&stats.shed) >= 1);
        // The shed connection still works once load clears.
        let mut blocker_reader = BufReader::new(blocker.try_clone().unwrap());
        let (status, _, _) = read_one_response(&mut blocker_reader);
        assert_eq!(status, 200);
        (&victim)
            .write_all(b"GET /after HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let (status, body, _) = read_one_response(&mut reader);
        assert_eq!(status, 200);
        assert!(body.contains("/after"), "{body}");
        handle.shutdown();
    }

    #[test]
    fn oversized_headers_get_431_and_close() {
        let (handle, _, _) = start(EventConfig::default());
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let mut raw = b"GET / HTTP/1.1\r\nX-Pad: ".to_vec();
        raw.extend(std::iter::repeat_n(b'a', http1::MAX_HEADER_BYTES + 10));
        raw.extend_from_slice(b"\r\n\r\n");
        stream.write_all(&raw).unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 431"), "{out}");
        assert!(out.contains("Connection: close"), "{out}");
        handle.shutdown();
    }

    #[test]
    fn early_disconnect_mid_response_is_survived() {
        let (handle, stats, _) = start(EventConfig::default());
        for _ in 0..5 {
            let stream = TcpStream::connect(handle.addr()).unwrap();
            (&stream)
                .write_all(b"GET /gone?sleep_ms=30 HTTP/1.1\r\nHost: x\r\n\r\n")
                .unwrap();
            drop(stream); // gone before the worker answers
        }
        // The loop must still serve a healthy client afterwards.
        std::thread::sleep(Duration::from_millis(120));
        let stream = TcpStream::connect(handle.addr()).unwrap();
        (&stream)
            .write_all(b"GET /alive HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let (status, body, _) = read_one_response(&mut reader);
        assert_eq!(status, 200);
        assert!(body.contains("/alive"), "{body}");
        assert_eq!(NetStats::get(&stats.accepted), 6);
        // All five dead connections were reaped.
        let deadline = Instant::now() + Duration::from_secs(2);
        while NetStats::get(&stats.active) > 1 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(NetStats::get(&stats.active) <= 1);
        handle.shutdown();
    }

    #[test]
    fn shutdown_joins_cleanly_with_open_connections() {
        let (handle, _, _) = start(EventConfig::default());
        let _idle = TcpStream::connect(handle.addr()).unwrap();
        handle.shutdown();
    }

    #[test]
    fn requests_are_traced_end_to_end_with_id_echo() {
        let (handle, _, sink) = start(EventConfig::default());
        let stream = TcpStream::connect(handle.addr()).unwrap();
        (&stream)
            .write_all(b"GET /traced HTTP/1.1\r\nX-Request-Id: my-id-1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let (status, _, headers) = read_one_response(&mut reader);
        assert_eq!(status, 200);
        assert!(
            headers.iter().any(|h| h == "X-Request-Id: my-id-1"),
            "honored id must echo: {headers:?}"
        );
        let traces = sink.wait_for(1);
        let trace = traces.first().expect("one finalized trace");
        assert_eq!(trace.id, "my-id-1");
        assert_eq!(
            (trace.method.as_str(), trace.path.as_str()),
            ("GET", "/traced")
        );
        assert_eq!(trace.status, 200);
        let names: Vec<&str> = trace.spans.iter().map(|s| s.name).collect();
        for stage in ["parse", "queue_wait", "dispatch", "handler", "write"] {
            assert!(names.contains(&stage), "missing {stage}: {names:?}");
        }
        assert!(
            trace.stage_sum_us() <= trace.total_us,
            "stages {} cannot exceed wall {}",
            trace.stage_sum_us(),
            trace.total_us
        );
        handle.shutdown();
    }

    #[test]
    fn shed_and_parse_reject_traces_reach_the_sink() {
        let config = EventConfig {
            workers: 1,
            max_inflight: 1,
            queue_deadline: Duration::from_millis(50),
            ..EventConfig::default()
        };
        let (handle, _, sink) = start(config);
        let blocker = TcpStream::connect(handle.addr()).unwrap();
        (&blocker)
            .write_all(b"GET /block?sleep_ms=400 HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let victim = TcpStream::connect(handle.addr()).unwrap();
        (&victim)
            .write_all(b"GET /shed HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut reader = BufReader::new(victim.try_clone().unwrap());
        let (status, _, headers) = read_one_response(&mut reader);
        assert_eq!(status, 503);
        assert!(
            headers.iter().any(|h| h.starts_with("X-Request-Id: ")),
            "shed responses carry an id: {headers:?}"
        );
        let mut garbage = TcpStream::connect(handle.addr()).unwrap();
        garbage.write_all(b"garbage\r\n\r\n").unwrap();
        let mut out = String::new();
        garbage.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 400"), "{out}");
        assert!(out.contains("Connection: close"), "{out}");
        assert!(out.contains("X-Request-Id: "), "{out}");

        // Sink sees: the shed (503, shed flag, queue_wait span) and the
        // reject (400, parse span) — plus the blocker once it flushes.
        let traces = sink.wait_for(2);
        let shed = traces.iter().find(|t| t.shed).expect("shed trace recorded");
        assert_eq!(shed.status, 503);
        assert!(shed.spans.iter().any(|s| s.name == "queue_wait"));
        let reject = traces
            .iter()
            .find(|t| t.status == 400)
            .expect("parse-reject trace recorded");
        assert!(reject.spans.iter().any(|s| s.name == "parse"));
        assert_eq!(reject.route_label(), "rejected");
        handle.shutdown();
    }
}
