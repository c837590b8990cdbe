//! The sharded session tier: a consistent-hash router in front of N
//! [`Router`]s (local shards) and M remote peers speaking the same HTTP
//! protocol.
//!
//! Session ids are placed on a [`HashRing`] whose members are the local
//! shards (`local-0` …) followed by the configured peers (`peer-<addr>`).
//! Because members are keyed by *name*, every process that agrees on the
//! member list computes identical placements with no coordination — a
//! router can sit in front of plain `serve` processes and they will agree
//! on which sessions the router sends them.
//!
//! Three route families exist:
//!
//! * **Intercepted** — `GET /cluster`, `POST /cluster/rebalance`, and (in
//!   sharded mode) the merged `GET /healthz` / `GET /metrics` /
//!   `GET /sessions`, answered here from all shards' state.
//! * **Session-scoped** — routed by the id's ring owner: executed on the
//!   owning shard's worker pool, or forwarded to the owning peer over the
//!   pooled [`Peer`] client. A down peer answers `503 + Retry-After`,
//!   never a connection error.
//! * **Everything else** (datasets, debug, 404s) — delegated inline to
//!   shard 0, whose catalog and trace sampler are shared by all shards.
//!
//! `POST /cluster/rebalance {"shards": M}` shrinks or grows the *active*
//! local shard set (within the count built at startup) and live-migrates
//! misplaced sessions through the existing snapshot→restore→delete path.
//! During the move the router answers session traffic with
//! `503 + Retry-After: 1` — a client that retries never sees an error or
//! a wrong-session answer, and snapshot/restore replay makes the migrated
//! estimator weights bit-identical.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};
use std::thread;
use std::time::Duration;

use crossbeam::channel;
use serde::Serialize;
use viewseeker_cluster::{ClusterStats, HashRing, Peer};
use viewseeker_core::trace::Stopwatch;
use viewseeker_net::http1::{Handler, Request, Response};

use crate::api::{self, AppState};
use crate::error::ServerError;
use crate::registry::{PersistedSession, SessionSpec};
use crate::router::Router;

/// How long a forwarded request may take end to end (connect + write +
/// read) before the peer is declared unreachable for this request.
const FORWARD_TIMEOUT: Duration = Duration::from_secs(30);

/// `Retry-After` seconds for responses shed during rebalance or when the
/// owning peer is down.
const RETRY_AFTER_SECS: u32 = 1;

/// Where a ring member lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Target {
    /// Index into the local shard list.
    Local(usize),
    /// Index into the peer list.
    Peer(usize),
}

/// The ring plus the facts needed to translate a member index into a
/// [`Target`]. Swapped atomically on rebalance.
struct RingState {
    ring: HashRing,
    /// Member names in ring order: `local-0..local-{active-1}` then
    /// `peer-<addr>` per peer.
    names: Vec<String>,
    /// Active local shards (`<=` the shard count built at startup).
    active: usize,
}

impl RingState {
    fn build(active: usize, peers: &[Peer]) -> Self {
        let mut names: Vec<String> = (0..active).map(|i| format!("local-{i}")).collect();
        names.extend(peers.iter().map(|p| format!("peer-{}", p.addr())));
        Self {
            ring: HashRing::new(&names),
            names,
            active,
        }
    }

    fn target_for(&self, key: &str) -> (usize, Target) {
        let member = self.ring.shard_for(key);
        let target = if member < self.active {
            Target::Local(member)
        } else {
            Target::Peer(member - self.active)
        };
        (member, target)
    }

    fn members(&self) -> Vec<(String, bool)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i < self.active))
            .collect()
    }
}

/// One shard's worker pool: a fixed thread set draining a channel of
/// owned requests. The pool is the shard's lock domain — every handler
/// that touches the shard's registry runs on these threads, so one
/// shard's slow materialization cannot occupy another shard's workers.
struct ShardPool {
    tx: Option<channel::Sender<Job>>,
    /// Jobs accepted into the channel (monotonic).
    submitted: AtomicU64,
    /// Jobs whose handler completed, paired with a condvar for
    /// [`ShardPool::settle`].
    finished: Arc<(Mutex<u64>, Condvar)>,
    threads: Vec<thread::JoinHandle<()>>,
}

struct Job {
    request: Request,
    reply: channel::Sender<Response>,
}

impl ShardPool {
    fn new(router: Arc<Router>, workers: usize) -> Self {
        let (tx, rx) = channel::unbounded::<Job>();
        let finished = Arc::new((Mutex::new(0u64), Condvar::new()));
        let threads = (0..workers.max(1))
            .map(|_| {
                let rx = rx.clone();
                let router = Arc::clone(&router);
                let finished = Arc::clone(&finished);
                thread::spawn(move || {
                    while let Ok(job) = rx.recv() {
                        let response = router.handle(&job.request);
                        let (count, signal) = &*finished;
                        {
                            let mut done = count.lock().unwrap_or_else(PoisonError::into_inner);
                            *done += 1;
                            signal.notify_all();
                        }
                        let _ = job.reply.send(response);
                    }
                })
            })
            .collect();
        Self {
            tx: Some(tx),
            submitted: AtomicU64::new(0),
            finished,
            threads,
        }
    }

    /// Queues `request` on the shard's pool, returning the channel the
    /// response will arrive on. Splitting submission from the blocking
    /// receive lets the caller submit while holding the ring read lock
    /// (so a rebalance's [`ShardPool::settle`] sees the job) without
    /// holding that lock for the request's whole lifetime.
    fn submit(&self, request: Request) -> Option<channel::Receiver<Response>> {
        let (reply_tx, reply_rx) = channel::bounded(1);
        let tx = self.tx.as_ref()?;
        tx.send(Job {
            request,
            reply: reply_tx,
        })
        .ok()?;
        self.submitted.fetch_add(1, Ordering::SeqCst);
        Some(reply_rx)
    }

    /// Runs `request` on the shard's pool and blocks for the response.
    fn execute(&self, request: Request) -> Response {
        match self.submit(request) {
            Some(reply_rx) => reply_rx
                .recv()
                .unwrap_or_else(|_| Response::unavailable(RETRY_AFTER_SECS)),
            None => Response::unavailable(RETRY_AFTER_SECS),
        }
    }

    /// Blocks until every job submitted before this call has completed.
    /// Jobs submitted afterwards are not waited for, so a busy shard
    /// cannot stall a rebalance indefinitely.
    fn settle(&self) {
        let goal = self.submitted.load(Ordering::SeqCst);
        let (count, signal) = &*self.finished;
        let mut done = count.lock().unwrap_or_else(PoisonError::into_inner);
        while *done < goal {
            let (next, _) = signal
                .wait_timeout(done, Duration::from_millis(20))
                .unwrap_or_else(PoisonError::into_inner);
            done = next;
        }
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        self.tx.take();
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

/// `GET /cluster` response body.
#[derive(Debug, Clone, Serialize)]
struct ClusterStatus {
    members: Vec<MemberStatus>,
    local_shards: usize,
    peers: Vec<String>,
    forwarded: u64,
    forward_errors: u64,
    migrated_ok: u64,
    migrated_err: u64,
    rebalancing: bool,
}

/// One ring member in the `GET /cluster` report.
#[derive(Debug, Clone, Serialize)]
struct MemberStatus {
    name: String,
    local: bool,
    routed: u64,
    sessions: u64,
    /// `false` for a peer whose `/healthz` probe failed just now; always
    /// `true` for local shards.
    up: bool,
}

/// The consistent-hash front door. Implements [`Handler`], so either I/O
/// path serves it exactly like a plain [`Router`].
pub struct ShardRouter {
    shards: Vec<Arc<Router>>,
    pools: Vec<ShardPool>,
    peers: Vec<Peer>,
    state0: Arc<AppState>,
    stats: Arc<ClusterStats>,
    ring: RwLock<RingState>,
    /// Serializes rebalance/drain; session traffic answers 503 while set.
    rebalancing: AtomicBool,
    rebalance_lock: Mutex<()>,
    next_id: AtomicU64,
    /// Single local shard and no peers: delegate everything inline with
    /// full trace fidelity; no pools, no forwarding, no id injection.
    thin: bool,
}

impl ShardRouter {
    /// Builds the router over `shards` (all active initially) and
    /// `peer_addrs`. `workers_per_shard` sizes each shard's pool in
    /// sharded mode.
    ///
    /// # Errors
    ///
    /// `shards` must be non-empty.
    pub fn new(
        shards: Vec<Arc<Router>>,
        peer_addrs: &[String],
        workers_per_shard: usize,
    ) -> Result<Self, ServerError> {
        let state0 = shards
            .first()
            .map(|r| Arc::clone(r.state()))
            .ok_or_else(|| ServerError::Internal("shard router needs >= 1 shard".into()))?;
        let peers: Vec<Peer> = peer_addrs.iter().map(|a| Peer::new(a.clone())).collect();
        let thin = shards.len() == 1 && peers.is_empty();
        let pools = if thin {
            Vec::new()
        } else {
            shards
                .iter()
                .map(|r| ShardPool::new(Arc::clone(r), workers_per_shard))
                .collect()
        };
        let ring = RingState::build(shards.len(), &peers);
        let stats = Arc::clone(&state0.cluster);
        stats.set_members(&ring.members());
        Ok(Self {
            shards,
            pools,
            peers,
            state0,
            stats,
            ring: RwLock::new(ring),
            rebalancing: AtomicBool::new(false),
            rebalance_lock: Mutex::new(()),
            next_id: AtomicU64::new(1),
            thin,
        })
    }

    /// The cluster counters (shared with every shard's [`AppState`]).
    #[must_use]
    pub fn stats(&self) -> &Arc<ClusterStats> {
        &self.stats
    }

    /// The local shard routers, for tests and embedding code.
    #[must_use]
    pub fn shards(&self) -> &[Arc<Router>] {
        &self.shards
    }

    fn ring_read(&self) -> std::sync::RwLockReadGuard<'_, RingState> {
        self.ring.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Refreshes the per-local-shard session gauges.
    fn refresh_session_gauges(&self) -> usize {
        let active = self.ring_read().active;
        let mut total = 0usize;
        for (i, shard) in self.shards.iter().enumerate() {
            let n = shard.state().registry.len();
            total += n;
            if i < active {
                self.stats.set_sessions(i, n as u64);
            }
        }
        total
    }

    /// Wraps an intercepted route: times it, records the route histogram,
    /// and stamps the trace (delegated routes get all three from the
    /// inner [`Router`] instead).
    fn observe(
        &self,
        route: &'static str,
        trace: &viewseeker_net::ActiveTrace,
        body: impl FnOnce() -> Response,
    ) -> Response {
        let start = Stopwatch::start();
        let response = body();
        trace.set_route(route);
        trace.set_status(response.status);
        self.state0.metrics.record(route, start.elapsed());
        response
    }

    fn error_response(error: &ServerError) -> Response {
        Response::with_status(
            error.status(),
            format!("{{\"error\": {:?}}}", error.message()),
        )
    }

    // ---- intercepted routes ------------------------------------------

    fn cluster_status(&self) -> Response {
        self.refresh_session_gauges();
        let active = self.ring_read().active;
        let mut members: Vec<MemberStatus> = self
            .stats
            .members_snapshot()
            .into_iter()
            .map(|m| MemberStatus {
                name: m.name,
                local: m.local,
                routed: m.routed,
                sessions: m.sessions,
                up: true,
            })
            .collect();
        // Probe each peer's /healthz for its live session count; a failed
        // probe marks the member down but never fails the status call.
        for (offset, peer) in self.peers.iter().enumerate() {
            let Some(member) = members.get_mut(active + offset) else {
                continue;
            };
            match peer.request("GET", "/healthz", b"", None, Duration::from_secs(2)) {
                Ok(reply) if reply.status == 200 => {
                    let body = String::from_utf8_lossy(&reply.body).into_owned();
                    let sessions = serde_json::parse_value(&body)
                        .ok()
                        .and_then(|v| v.get("sessions").and_then(serde::Value::as_u64));
                    if let Some(n) = sessions {
                        member.sessions = n;
                        self.stats.set_sessions(active + offset, n);
                    }
                }
                _ => member.up = false,
            }
        }
        let status = ClusterStatus {
            members,
            local_shards: active,
            peers: self.peers.iter().map(|p| p.addr().to_owned()).collect(),
            forwarded: ClusterStats::get(&self.stats.forwarded),
            forward_errors: ClusterStats::get(&self.stats.forward_errors),
            migrated_ok: ClusterStats::get(&self.stats.migrated_ok),
            migrated_err: ClusterStats::get(&self.stats.migrated_err),
            rebalancing: self.rebalancing.load(Ordering::SeqCst),
        };
        match serde_json::to_string(&status) {
            Ok(body) => Response::json(body),
            Err(e) => Self::error_response(&ServerError::Internal(format!(
                "serializing cluster status: {e}"
            ))),
        }
    }

    fn merged_healthz(&self) -> Response {
        let mut sessions = 0usize;
        let mut evicted = Vec::new();
        for shard in &self.shards {
            match shard.state().registry.sweep_expired() {
                Ok(ids) => evicted.extend(ids),
                Err(e) => return Self::error_response(&e),
            }
            sessions += shard.state().registry.len();
        }
        let state = self.state0.as_ref();
        let health = api::Health {
            status: "ok".to_owned(),
            uptime_secs: state.started.elapsed().as_secs(),
            sessions,
            evicted,
            shard_id: state.runtime.shard_id,
            shard_count: state.runtime.shard_count,
            endpoints: state.metrics.report(),
        };
        match serde_json::to_string(&health) {
            Ok(body) => Response::json(body),
            Err(e) => {
                Self::error_response(&ServerError::Internal(format!("serializing health: {e}")))
            }
        }
    }

    fn merged_metrics(&self) -> Response {
        let total = self.refresh_session_gauges();
        Response::prometheus(api::metrics_text_with_sessions(&self.state0, total))
    }

    fn merged_sessions(&self) -> Response {
        let mut listings = Vec::new();
        for shard in &self.shards {
            listings.extend(api::list_sessions(shard.state()));
        }
        let mut items = match serde_json::to_value(&listings) {
            serde::Value::Array(items) => items,
            other => vec![other],
        };
        // Peers list their own sessions; an unreachable peer's sessions
        // are simply absent from the merged view (GET /cluster marks it
        // down).
        for peer in &self.peers {
            let Ok(reply) = peer.request("GET", "/sessions", b"", None, Duration::from_secs(5))
            else {
                continue;
            };
            if reply.status != 200 {
                continue;
            }
            let body = String::from_utf8_lossy(&reply.body).into_owned();
            if let Ok(serde::Value::Array(remote)) = serde_json::parse_value(&body) {
                items.extend(remote);
            }
        }
        Response::json(serde_json::render_compact(&serde::Value::Array(items)))
    }

    // ---- rebalance and migration -------------------------------------

    fn rebalance(&self, request: &Request) -> Response {
        let body = match request.body_text() {
            Ok(b) => b,
            Err(e) => return Self::error_response(&ServerError::from(e)),
        };
        let shards = serde_json::parse_value(body)
            .ok()
            .and_then(|v| v.get("shards").and_then(serde::Value::as_u64));
        let Some(shards) = shards else {
            return Self::error_response(&ServerError::BadRequest(
                "rebalance body must be {\"shards\": N}".into(),
            ));
        };
        let want = usize::try_from(shards).unwrap_or(usize::MAX);
        if want < 1 || want > self.shards.len() {
            return Self::error_response(&ServerError::BadRequest(format!(
                "shards must be 1..={} (built at startup), got {want}",
                self.shards.len()
            )));
        }
        let _serial = self
            .rebalance_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        // Flag and swap under the ring write lock: a session request
        // either saw the old ring and already queued its job (it checks
        // the flag and submits under the read lock), or acquires the read
        // lock after this block and sheds. No request can read one ring
        // and execute against the other.
        {
            // vslint::allow(lock-order): rebalance_lock is the outer lock by
            // design — it serializes whole rebalances, and `ring` is only ever
            // taken inside it (or alone, by readers); the order is acyclic.
            let mut ring = self.ring.write().unwrap_or_else(PoisonError::into_inner);
            self.rebalancing.store(true, Ordering::SeqCst);
            *ring = RingState::build(want, &self.peers);
            self.stats.set_members(&ring.members());
        }
        // Wait out every already-queued request so snapshots observe
        // settled sessions.
        for pool in &self.pools {
            pool.settle();
        }
        let (ok, err) = self.migrate_misplaced();
        self.rebalancing.store(false, Ordering::SeqCst);
        self.refresh_session_gauges();
        Response::json(format!(
            "{{\"shards\": {want}, \"migrated\": {ok}, \"errors\": {err}}}"
        ))
    }

    /// Moves every local session whose ring owner is not the shard it
    /// lives on. Returns `(moved, errors)`.
    fn migrate_misplaced(&self) -> (u64, u64) {
        let mut moves: Vec<(String, usize, Target)> = Vec::new();
        {
            let ring = self.ring_read();
            for (i, shard) in self.shards.iter().enumerate() {
                for (id, _, _, _) in shard.state().registry.describe() {
                    let (_, target) = ring.target_for(&id);
                    if target != Target::Local(i) {
                        moves.push((id, i, target));
                    }
                }
            }
        }
        let (mut ok, mut err) = (0u64, 0u64);
        for (id, from, target) in moves {
            match self.migrate_one(&id, from, target) {
                Ok(()) => {
                    ok += 1;
                    self.stats.migrated_ok.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => {
                    err += 1;
                    self.stats.migrated_err.fetch_add(1, Ordering::Relaxed);
                    self.state0.logger.error(
                        "session_migration_failed",
                        &[
                            ("session", crate::log::s(&id)),
                            ("error", crate::log::s(e.message())),
                        ],
                    );
                }
            }
        }
        (ok, err)
    }

    /// Snapshot → restore → delete for one session. Estimators are a pure
    /// function of the replayed labels, so the restored weights are
    /// bit-identical to the source (the registry's restore tests pin
    /// this).
    fn migrate_one(&self, id: &str, from: usize, target: Target) -> Result<(), ServerError> {
        let source = self
            .shards
            .get(from)
            .ok_or_else(|| ServerError::Internal(format!("no shard {from}")))?
            .state();
        let entry = source
            .registry
            .peek(id)
            .ok_or_else(|| ServerError::NotFound(format!("session {id} vanished mid-move")))?;
        let persisted = {
            let seeker = entry.seeker_lock()?;
            PersistedSession {
                id: entry.id.clone(),
                spec: entry.spec.clone(),
                snapshot: viewseeker_core::SessionSnapshot::from_seeker(&seeker),
                dataset_name: Some(entry.dataset_name.clone()),
                dataset_checksum: Some(entry.dataset_checksum()),
            }
        };
        drop(entry);
        match target {
            Target::Local(to) => {
                let destination = self
                    .shards
                    .get(to)
                    .ok_or_else(|| ServerError::Internal(format!("no shard {to}")))?
                    .state();
                destination.registry.restore(&persisted)?;
            }
            Target::Peer(p) => {
                let peer = self
                    .peers
                    .get(p)
                    .ok_or_else(|| ServerError::Internal(format!("no peer {p}")))?;
                let body = serde_json::to_string(&persisted)
                    .map_err(|e| ServerError::Internal(format!("serializing snapshot: {e}")))?;
                let reply = peer
                    .request(
                        "POST",
                        "/sessions/restore",
                        body.as_bytes(),
                        None,
                        FORWARD_TIMEOUT,
                    )
                    .map_err(|e| ServerError::Io(format!("peer {}: {e}", peer.addr())))?;
                if reply.status != 201 {
                    return Err(ServerError::Internal(format!(
                        "peer {} refused session {id}: {} {}",
                        peer.addr(),
                        reply.status,
                        String::from_utf8_lossy(&reply.body)
                    )));
                }
            }
        }
        source.registry.remove(id)
    }

    /// Pushes every local session onto the peer ring — the graceful-
    /// shutdown drain. No-op without peers. Returns `(moved, errors)`.
    pub fn drain_to_peers(&self) -> (u64, u64) {
        if self.peers.is_empty() {
            return (0, 0);
        }
        let _serial = self
            .rebalance_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        {
            // vslint::allow(lock-order): same acyclic rebalance_lock → ring
            // order as `rebalance` above.
            let mut ring = self.ring.write().unwrap_or_else(PoisonError::into_inner);
            self.rebalancing.store(true, Ordering::SeqCst);
            *ring = RingState::build(0, &self.peers);
            self.stats.set_members(&ring.members());
        }
        for pool in &self.pools {
            pool.settle();
        }
        let moved = self.migrate_misplaced();
        self.rebalancing.store(false, Ordering::SeqCst);
        moved
    }

    // ---- session routing ---------------------------------------------

    fn mint_id(&self) -> String {
        format!("cs{}", self.next_id.fetch_add(1, Ordering::SeqCst))
    }

    fn shedding(&self) -> bool {
        self.rebalancing.load(Ordering::SeqCst)
    }

    fn shed(&self, route: &'static str, trace: &viewseeker_net::ActiveTrace) -> Response {
        self.observe(route, trace, || Response::unavailable(RETRY_AFTER_SECS))
    }

    /// Executes `request` on the owning local shard's pool, stamping the
    /// outer trace (the inner router records metrics and the access log
    /// on the pool thread).
    fn dispatch_local(
        &self,
        shard: usize,
        request: Request,
        route: &'static str,
        trace: &viewseeker_net::ActiveTrace,
    ) -> Response {
        let response = match self.pools.get(shard) {
            Some(pool) => pool.execute(request),
            None => match self.shards.get(shard) {
                Some(router) => router.handle(&request),
                None => Self::error_response(&ServerError::Internal(format!("no shard {shard}"))),
            },
        };
        trace.set_route(route);
        trace.set_status(response.status);
        response
    }

    /// Forwards `request` to peer `p`, translating transport failure into
    /// `503 + Retry-After` (the client retries; it never sees a broken
    /// connection because of a dead peer).
    fn forward(
        &self,
        p: usize,
        request: &Request,
        body: &[u8],
        route: &'static str,
        trace: &viewseeker_net::ActiveTrace,
    ) -> Response {
        let Some(peer) = self.peers.get(p) else {
            return self.observe(route, trace, || {
                Self::error_response(&ServerError::Internal(format!("no peer {p}")))
            });
        };
        let start = Stopwatch::start();
        let target = encode_target(&request.path, &request.query);
        let result = peer.request(
            &request.method,
            &target,
            body,
            request.header("x-request-id"),
            FORWARD_TIMEOUT,
        );
        let elapsed = start.elapsed();
        let response = match result {
            Ok(reply) => {
                self.stats.forwarded.fetch_add(1, Ordering::Relaxed);
                self.stats
                    .record_forward(u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX));
                Response {
                    status: reply.status,
                    body: String::from_utf8_lossy(&reply.body).into_owned(),
                    content_type: "application/json",
                    retry_after: reply.retry_after,
                    request_id: None,
                }
            }
            Err(e) => {
                self.stats.forward_errors.fetch_add(1, Ordering::Relaxed);
                self.state0.logger.warn(
                    "peer_forward_failed",
                    &[
                        ("peer", crate::log::s(peer.addr())),
                        ("error", crate::log::s(&e.to_string())),
                    ],
                );
                Response::unavailable(RETRY_AFTER_SECS)
            }
        };
        trace.set_route(route);
        trace.set_status(response.status);
        response
    }

    /// Routes a request owning session id `key` to its ring member. The
    /// rebalance-shed check, the ring lookup, and (for local targets) the
    /// pool submission all happen under one ring read guard: a request
    /// either queues against the ring it read — and a rebalance's
    /// `settle()` waits it out before migrating — or it observes the
    /// rebalance flag and sheds. It can never read one ring and execute
    /// against another.
    fn route_by_id(
        &self,
        key: &str,
        request: Request,
        route: &'static str,
        trace: &viewseeker_net::ActiveTrace,
    ) -> Response {
        enum Dispatch {
            /// Queued on a local pool; block for the reply without the lock.
            Queued(channel::Receiver<Response>),
            /// Answered inline (no pool for the shard — the fallback path).
            Done(Response),
            /// Owned by a peer; forward without the lock (blocking I/O).
            Forward(usize, Request),
        }
        let dispatch = {
            let ring = self.ring_read();
            if self.shedding() {
                return self.shed(route, trace);
            }
            let (member, target) = ring.target_for(key);
            self.stats.bump_routed(member);
            match target {
                Target::Local(shard) => match self.pools.get(shard) {
                    Some(pool) => match pool.submit(request) {
                        Some(reply_rx) => Dispatch::Queued(reply_rx),
                        None => Dispatch::Done(Response::unavailable(RETRY_AFTER_SECS)),
                    },
                    None => Dispatch::Done(match self.shards.get(shard) {
                        Some(router) => router.handle(&request),
                        None => Self::error_response(&ServerError::Internal(format!(
                            "no shard {shard}"
                        ))),
                    }),
                },
                Target::Peer(p) => Dispatch::Forward(p, request),
            }
        };
        match dispatch {
            Dispatch::Queued(reply_rx) => {
                let response = reply_rx
                    .recv()
                    .unwrap_or_else(|_| Response::unavailable(RETRY_AFTER_SECS));
                trace.set_route(route);
                trace.set_status(response.status);
                response
            }
            Dispatch::Done(response) => {
                trace.set_route(route);
                trace.set_status(response.status);
                response
            }
            Dispatch::Forward(p, request) => {
                let body = request.body.clone();
                self.forward(p, &request, &body, route, trace)
            }
        }
    }

    /// `POST /sessions`: mint an id (honoring one the client set), inject
    /// it into the spec, and route by it — so the session is born on its
    /// ring owner and every later request for the id lands there.
    fn route_create(&self, request: &Request, trace: &viewseeker_net::ActiveTrace) -> Response {
        const ROUTE: &str = "POST /sessions";
        if self.shedding() {
            return self.shed(ROUTE, trace);
        }
        let spec: Option<SessionSpec> = request
            .body_text()
            .ok()
            .and_then(|b| serde_json::from_str(b).ok());
        let Some(mut spec) = spec else {
            // Unparseable spec: let shard 0 produce the canonical 400.
            return self.dispatch_local(0, request.clone(), ROUTE, trace);
        };
        let id = spec.id.clone().unwrap_or_else(|| self.mint_id());
        spec.id = Some(id.clone());
        let Ok(body) = serde_json::to_string(&spec) else {
            return self.dispatch_local(0, request.clone(), ROUTE, trace);
        };
        let mut rewritten = request.clone();
        rewritten.body = body.into_bytes();
        self.route_by_id(&id, rewritten, ROUTE, trace)
    }

    /// `POST /sessions/restore`: route by the persisted id so the session
    /// revives on its ring owner.
    fn route_restore(&self, request: &Request, trace: &viewseeker_net::ActiveTrace) -> Response {
        const ROUTE: &str = "POST /sessions/restore";
        if self.shedding() {
            return self.shed(ROUTE, trace);
        }
        let id = request
            .body_text()
            .ok()
            .and_then(|b| serde_json::parse_value(b).ok())
            .and_then(|v| {
                v.get("id")
                    .and_then(serde::Value::as_str)
                    .map(str::to_owned)
            });
        let Some(id) = id else {
            return self.dispatch_local(0, request.clone(), ROUTE, trace);
        };
        self.route_by_id(&id, request.clone(), ROUTE, trace)
    }
}

/// The metrics label for a session-scoped route, mirroring
/// [`Router`]'s labels (the id segment normalizes to `:id`).
fn session_route_label(method: &str, tail: &[&str]) -> &'static str {
    match (method, tail) {
        ("GET", []) => "GET /sessions/:id",
        ("DELETE", []) => "DELETE /sessions/:id",
        ("GET", ["next"]) => "GET /sessions/:id/next",
        ("POST", ["feedback"]) => "POST /sessions/:id/feedback",
        ("GET", ["recommend"]) => "GET /sessions/:id/recommend",
        ("POST", ["snapshot"]) => "POST /sessions/:id/snapshot",
        ("POST", ["restore"]) => "POST /sessions/:id/restore",
        _ => "unmatched",
    }
}

/// Percent-encodes one path segment or query component (the parser
/// decoded them; the forwarded wire form must round-trip).
fn encode_component(out: &mut String, raw: &str) {
    for byte in raw.bytes() {
        match byte {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'.' | b'_' | b'~' => {
                out.push(char::from(byte));
            }
            other => {
                let _ = std::fmt::Write::write_fmt(out, format_args!("%{other:02X}"));
            }
        }
    }
}

/// Rebuilds the request target (`/path?k=v`) from the decoded path and
/// query pairs.
fn encode_target(path: &str, query: &[(String, String)]) -> String {
    let mut out = String::with_capacity(path.len() + 16);
    for segment in path.split('/') {
        if segment.is_empty() {
            continue;
        }
        out.push('/');
        encode_component(&mut out, segment);
    }
    if out.is_empty() {
        out.push('/');
    }
    for (i, (key, value)) in query.iter().enumerate() {
        out.push(if i == 0 { '?' } else { '&' });
        encode_component(&mut out, key);
        out.push('=');
        encode_component(&mut out, value);
    }
    out
}

impl Handler for ShardRouter {
    fn handle(&self, request: &Request) -> Response {
        let trace = viewseeker_net::ActiveTrace::detached(&request.method, &request.path);
        self.handle_traced(request, &trace)
    }

    fn handle_traced(&self, request: &Request, trace: &viewseeker_net::ActiveTrace) -> Response {
        let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
        let method = request.method.as_str();
        match (method, segments.as_slice()) {
            ("GET", ["cluster"]) => self.observe("GET /cluster", trace, || self.cluster_status()),
            ("POST", ["cluster", "rebalance"]) => {
                self.observe("POST /cluster/rebalance", trace, || self.rebalance(request))
            }
            _ if self.thin => {
                if let (_, ["sessions", ..]) = (method, segments.as_slice()) {
                    self.stats.bump_routed(0);
                }
                if let ("GET", ["metrics"]) = (method, segments.as_slice()) {
                    self.refresh_session_gauges();
                }
                match self.shards.first() {
                    Some(router) => router.handle_traced(request, trace),
                    None => Self::error_response(&ServerError::Internal("no shards".into())),
                }
            }
            ("GET", ["healthz"]) => self.observe("GET /healthz", trace, || self.merged_healthz()),
            ("GET", ["metrics"]) => self.observe("GET /metrics", trace, || self.merged_metrics()),
            ("GET", ["sessions"]) => {
                self.observe("GET /sessions", trace, || self.merged_sessions())
            }
            ("POST", ["sessions"]) => self.route_create(request, trace),
            ("POST", ["sessions", "restore"]) => self.route_restore(request, trace),
            (_, ["sessions", id, tail @ ..]) => {
                let route = session_route_label(method, tail);
                if self.shedding() {
                    return self.shed(route, trace);
                }
                let key = (*id).to_owned();
                self.route_by_id(&key, request.clone(), route, trace)
            }
            // Datasets, debug, and unmatched paths: shard 0 shares the
            // catalog and trace sampler with every local shard, so it
            // answers for the whole process.
            _ => match self.shards.first() {
                Some(router) => router.handle_traced(request, trace),
                None => Self::error_response(&ServerError::Internal("no shards".into())),
            },
        }
    }
}
