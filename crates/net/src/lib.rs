//! `viewseeker-net`: the event-driven network core.
//!
//! A non-blocking readiness reactor (epoll on Linux) drives per-connection
//! HTTP/1.1 state machines — accept → incremental read/parse (with
//! pipelining) → dispatch to a worker pool → buffered ordered write →
//! keep-alive reuse — with bounded accept/read/write budgets per tick so
//! one slow client cannot starve the loop, and admission control
//! (max-inflight + queue-deadline shedding answered with
//! `503 Service Unavailable` and `Retry-After`) so overload degrades into
//! fast, explicit rejections instead of unbounded queues.
//!
//! * [`sys`] — the raw epoll syscall surface. **The only module in the
//!   workspace allowed to contain `unsafe`** (enforced by the vslint
//!   `forbid-unsafe` rule); everything above it consumes a safe
//!   [`sys::Poller`] API.
//! * [`http1`] — the incremental HTTP/1.1 parser and encoder: tolerant of
//!   partial reads and split CRLFs, strict about oversized header blocks
//!   (`431`) and bodies (`413`).
//! * [`hist`] — the log-linear latency histogram, used here for
//!   loop-tick timing and by `viewseeker-server` for per-route and
//!   per-stage latencies.
//! * [`stats`] — the `viewseeker_net_*` counter/gauge/histogram state the
//!   server's Prometheus exporter scrapes.
//! * [`conn`] — the per-connection state machine: buffered reads, parsed
//!   request sequencing, out-of-order completion reordering, buffered
//!   writes, keep-alive bookkeeping.
//! * [`reactor`] — the event loop itself plus the worker dispatch pool
//!   and the admission queue.
//! * [`trace`] — per-request tracing: ids (honored or generated
//!   `X-Request-Id`), span trees stamped across the pipeline stages, the
//!   lock-light tail sampler behind `GET /debug/traces`, and the Chrome
//!   trace-event / folded-stack exporters.
//!
//! This crate is deliberately protocol-only: it knows nothing about
//! sessions, datasets, or JSON. `viewseeker-server` mounts its `Router`
//! behind [`http1::Handler`] and serves it on this reactor.

// The one sanctioned hole in the workspace-wide `forbid(unsafe_code)`
// policy: `deny` here (instead of `forbid`) so the `sys` module alone can
// opt back in with a scoped `allow`. The vslint `forbid-unsafe` rule
// checks this exact arrangement: this root must carry `deny(unsafe_code)`
// and no file outside `crates/net/src/sys.rs` may contain an `unsafe`
// token.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod conn;
pub mod hist;
pub mod http1;
pub mod reactor;
pub mod stats;
#[allow(unsafe_code)]
pub mod sys;
pub mod trace;

pub use http1::{Handler, Request, Response};
pub use reactor::{serve_event, EventConfig, EventHandle};
pub use stats::NetStats;
pub use trace::{ActiveTrace, RequestTrace, TraceSampler, TraceSink};
