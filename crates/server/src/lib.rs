//! `viewseeker-server`: a multi-session recommendation service over the
//! interactive loop.
//!
//! The paper frames ViewSeeker as an *interactive tool*: a user session
//! alternates "show me candidate views" with 0–1 feedback until the learned
//! utility stabilizes. This crate lifts that loop behind a small HTTP/1.1 +
//! JSON service so many users (or experiment harnesses) can run concurrent
//! sessions against one process:
//!
//! * I/O is the `viewseeker-net` epoll reactor and its incremental
//!   HTTP/1.1 parser (`viewseeker_net::http1`); this crate supplies the
//!   [`viewseeker_net::http1::Handler`] it serves.
//! * [`router`] — method/path dispatch with per-endpoint latency metrics.
//! * [`registry`] — the concurrent session table: `RwLock` map of
//!   per-session `Mutex<OwnedSeeker>` entries, with a max-session cap and
//!   TTL/LRU eviction that snapshots evictees to disk (restorable, since
//!   estimators are a pure function of the replayed labels).
//! * [`api`] — the endpoint bodies and JSON types.
//! * [`metrics`] — request histograms ([`viewseeker_net::hist`]) +
//!   lifecycle counters for `/healthz`.
//! * [`prometheus`] — text exposition (format 0.0.4) for `GET /metrics`.
//! * [`log`] — structured JSON/text access and lifecycle event logs.
//! * [`trace`] — request-tracing glue: the thread-local trace scope, the
//!   seeker-phase tee, and the sink feeding `/debug/traces`.
//! * [`error`] — one error type with its HTTP status mapping.
//!
//! # In-process quickstart
//!
//! ```
//! use std::time::Duration;
//! use viewseeker_server::{serve_app, LogFormat, LogLevel, ServerConfig};
//!
//! let config = ServerConfig {
//!     addr: "127.0.0.1:0".into(),
//!     workers: 2,
//!     max_sessions: 8,
//!     ttl: Duration::from_secs(600),
//!     snapshot_dir: None,
//!     data_dir: None,
//!     catalog_mem_budget: 64 << 20,
//!     log_format: LogFormat::Text,
//!     log_level: LogLevel::Off,
//!     max_inflight: 256,
//!     queue_deadline_ms: 500,
//!     shards: 1,
//!     peers: Vec::new(),
//! };
//! let handle = serve_app(&config).unwrap();
//! let addr = handle.addr(); // POST http://{addr}/sessions etc.
//! handle.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod cluster;
pub mod error;
pub mod log;
pub mod metrics;
pub mod prometheus;
pub mod registry;
pub mod router;
pub mod trace;

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

pub use api::AppState;
pub use cluster::ShardRouter;
pub use error::ServerError;
pub use log::{LogFormat, LogLevel, Logger};
pub use registry::{PersistedSession, SessionRegistry, SessionSpec};
pub use router::Router;

/// Startup knobs for [`serve_app`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// Bind address, e.g. `"127.0.0.1:7878"` (port 0 picks a free port).
    pub addr: String,
    /// Worker pool size.
    pub workers: usize,
    /// Max live sessions before LRU eviction.
    pub max_sessions: usize,
    /// Idle time after which a session becomes evictable.
    pub ttl: Duration,
    /// Where evicted/snapshotted sessions are written (`None` = don't
    /// persist).
    pub snapshot_dir: Option<PathBuf>,
    /// Dataset catalog directory (`--data-dir`): imported CSVs are stored
    /// here in the VSC2 columnar format and survive restarts. `None` keeps
    /// the catalog memory-only.
    pub data_dir: Option<PathBuf>,
    /// Byte budget for the catalog's in-memory table cache
    /// (`--catalog-mem-budget`); disk-backed tables beyond it are LRU
    /// evicted and reloaded on demand.
    pub catalog_mem_budget: u64,
    /// Shape of access/event log lines (`--log-format json|text`).
    pub log_format: LogFormat,
    /// Minimum severity written to stderr (`--log-level`).
    pub log_level: LogLevel,
    /// Max requests dispatched to the worker pool at once
    /// (`--max-inflight`); excess requests wait in the admission queue.
    pub max_inflight: usize,
    /// Max milliseconds a request may wait in the admission queue before
    /// being shed with `503 + Retry-After` (`--queue-deadline-ms`).
    pub queue_deadline_ms: u64,
    /// Local session shards (`serve --shards N`; default 1). Above 1,
    /// requests are consistent-hash routed by session id onto per-shard
    /// registries, each with its own worker pool and lock domain.
    pub shards: usize,
    /// Remote peers (`serve --peer host:port`, repeatable) speaking the
    /// same HTTP protocol. Sessions whose ring owner is a peer are
    /// forwarded; on graceful shutdown local sessions drain to the peers.
    pub peers: Vec<String>,
}

/// A running server: the `addr`/`shutdown` surface the CLI and tests need.
pub struct AppHandle {
    event: viewseeker_net::EventHandle,
    /// Shutdown first drains local sessions to the router's peers.
    router: Arc<cluster::ShardRouter>,
}

impl AppHandle {
    /// The bound address (useful with port 0).
    #[must_use]
    pub fn addr(&self) -> std::net::SocketAddr {
        self.event.addr()
    }

    /// Stops serving, drains in-flight work, and joins every thread. A
    /// peered deployment first migrates local sessions to its peers (the
    /// graceful drain, a no-op without peers), so a rolling restart loses
    /// no session state.
    pub fn shutdown(self) {
        self.router.drain_to_peers();
        self.event.shutdown();
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7878".into(),
            workers: 4,
            max_sessions: 32,
            ttl: Duration::from_secs(1_800),
            snapshot_dir: None,
            data_dir: None,
            catalog_mem_budget: 512 << 20,
            log_format: LogFormat::Text,
            log_level: LogLevel::Info,
            max_inflight: 256,
            queue_deadline_ms: 500,
            shards: 1,
            peers: Vec::new(),
        }
    }
}

/// Builds the catalog + registry + router and starts serving.
///
/// # Errors
///
/// Propagates catalog-directory, TCP bind, and epoll setup failures.
pub fn serve_app(config: &ServerConfig) -> std::io::Result<AppHandle> {
    let catalog = Arc::new(match &config.data_dir {
        Some(dir) => viewseeker_catalog::Catalog::open(dir, config.catalog_mem_budget)
            .map_err(|e| std::io::Error::other(format!("opening catalog: {e}")))?,
        None => viewseeker_catalog::Catalog::in_memory(config.catalog_mem_budget),
    });
    let shard_count = config.shards.max(1);
    let max_sessions_per_shard = config.max_sessions.div_ceil(shard_count);
    let make_registry = || {
        SessionRegistry::with_catalog(
            max_sessions_per_shard,
            config.ttl,
            config.snapshot_dir.clone(),
            Arc::clone(&catalog),
        )
    };
    let logger = Logger::stderr(config.log_format, config.log_level);
    let mut state0 = AppState::with_logger(make_registry(), logger);
    state0.runtime = api::RuntimeInfo {
        shard_id: 0,
        shard_count,
    };
    let state0 = Arc::new(state0);
    let queue_depth = state0.metrics.counters().queue_depth_handle();
    let net = Arc::clone(&state0.net);
    let sink = Arc::new(trace::ServerTraceSink::new(Arc::clone(&state0)));
    let mut shard_routers = vec![Arc::new(Router::new(Arc::clone(&state0)))];
    for shard_id in 1..shard_count {
        let state = Arc::new(state0.sibling(make_registry(), shard_id));
        shard_routers.push(Arc::new(Router::new(state)));
    }
    let router = Arc::new(
        cluster::ShardRouter::new(
            shard_routers,
            &config.peers,
            config.workers.div_ceil(shard_count),
        )
        .map_err(|e| std::io::Error::other(format!("building shard router: {e}")))?,
    );
    let event_config = viewseeker_net::EventConfig {
        workers: config.workers,
        max_inflight: config.max_inflight,
        queue_deadline: Duration::from_millis(config.queue_deadline_ms),
        ..viewseeker_net::EventConfig::default()
    };
    let event = viewseeker_net::serve_event(
        config.addr.as_str(),
        event_config,
        Arc::clone(&router),
        net,
        queue_depth,
        sink,
    )?;
    Ok(AppHandle { event, router })
}
