//! `viewseeker-cluster`: the sharded session tier.
//!
//! Sessions are bit-identically snapshot/restorable and datasets are
//! content-checksummed, which makes a session a *movable* unit of state.
//! This crate supplies the three protocol-free building blocks the server
//! composes into a shard router in front of its `SessionRegistry`:
//!
//! * [`ring`] — a deterministic consistent-hash ring over named members.
//!   Session ids hash onto ring points; adding or removing one member
//!   remaps only ~1/N of the key space, and the mapping is a pure
//!   function of the member names (identical across threads, processes,
//!   and restarts — there is no gossip and nothing to converge).
//! * [`peer`] — a forwarding client for remote members speaking the
//!   existing HTTP/1.1 protocol: non-blocking sockets driven by the
//!   [`viewseeker_net::sys::Poller`] readiness machinery the reactor
//!   uses, with keep-alive reuse, a bounded per-request deadline, and a
//!   one-shot retry on stale cached connections.
//! * [`stats`] — the `viewseeker_cluster_*` counter/gauge/histogram state
//!   (routed/forwarded/migrated counts, per-shard session gauges,
//!   forward-latency histogram) that the server's Prometheus exporter
//!   scrapes.
//!
//! Like `viewseeker-net`, this crate is deliberately policy-free: it
//! knows nothing about sessions, JSON, or the route table. The server's
//! `ShardRouter` decides *what* to route and migrate; this crate answers
//! *where* (ring), *how* (peer), and *how it went* (stats).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod peer;
pub mod ring;
pub mod stats;

pub use peer::{Peer, PeerError, PeerResponse};
pub use ring::HashRing;
pub use stats::ClusterStats;
