//! Process-wide observability state: per-route latency histograms plus the
//! lifecycle counters and gauges scraped by `GET /metrics` and summarized
//! by `/healthz`.
//!
//! Latencies go into fixed-layout log-linear histograms
//! ([`viewseeker_net::hist::Histogram`]) — bounded memory per route, mergeable
//! across scrapes, and quantiles within 12.5% of exact — replacing the old
//! 2,048-sample ring whose percentiles degraded under bursty traffic and
//! whose samples could not be aggregated without a sort.
//!
//! Every lock acquisition recovers from poisoning: a panicking handler
//! thread must not take `/healthz` and `/metrics` down with it (the worst
//! case is one lost observation from the panicking thread).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use serde::Serialize;

use viewseeker_net::hist::Histogram;

/// Monotonic lifecycle counters and gauges, shared between the registry
/// (which increments them), the HTTP layer (queue depth), and the exporters
/// (which read them). All relaxed atomics — these are statistics, not
/// synchronization.
#[derive(Debug, Default)]
pub struct Counters {
    /// Sessions created via `POST /sessions`.
    pub sessions_created: AtomicU64,
    /// Sessions evicted (LRU capacity or TTL sweep).
    pub sessions_evicted: AtomicU64,
    /// Snapshots successfully written to disk.
    pub snapshots_ok: AtomicU64,
    /// Snapshot attempts that failed.
    pub snapshots_failed: AtomicU64,
    /// Sessions successfully restored (from a request body or disk).
    pub restores_ok: AtomicU64,
    /// Restore attempts that failed.
    pub restores_failed: AtomicU64,
    /// Feedback labels ingested across all sessions.
    pub feedback_labels: AtomicU64,
    /// Logical scans issued by offline view materialization, summed over
    /// every session built (created or restored). The fused executor makes
    /// this grow by 1–2 per session; naive grows it by ~3·|views|.
    pub materialize_scans: AtomicU64,
    /// Rows read by offline view materialization, summed over sessions.
    pub materialize_rows: AtomicU64,
    /// Wall-clock microseconds spent in offline view materialization,
    /// summed over sessions.
    pub materialize_us: AtomicU64,
    /// Row groups visited while evaluating session `DQ` predicates through
    /// zone maps, summed over session builds and append absorptions.
    pub rowgroups_scanned: AtomicU64,
    /// Row groups the zone maps excluded from those evaluations without
    /// reading a value.
    pub rowgroups_pruned: AtomicU64,
    /// Gauge: connections accepted but not yet picked up by a worker.
    queue_depth: Arc<AtomicU64>,
}

impl Counters {
    /// Relaxed-increments `counter` by one.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Relaxed-increments `counter` by `n` (for quantities like scan and
    /// row totals that grow by more than one per event).
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Relaxed read of `counter`.
    #[must_use]
    pub fn read(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    /// The shared worker-queue-depth gauge, for handing to the HTTP accept
    /// loop (which increments it per queued connection; workers decrement).
    #[must_use]
    pub fn queue_depth_handle(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.queue_depth)
    }

    /// Current worker-queue depth.
    #[must_use]
    pub fn queue_depth(&self) -> u64 {
        self.queue_depth.load(Ordering::Relaxed)
    }
}

/// A point-in-time summary of one endpoint, as reported by `/healthz`.
/// Percentiles come from the route's bucketed histogram (within one bucket
/// width — ≤ 12.5% — of exact); `count` and `max_us` are exact.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EndpointReport {
    /// Normalized route label, e.g. `"GET /sessions/:id/next"`.
    pub route: String,
    /// Total requests handled since startup.
    pub count: u64,
    /// Median latency, microseconds.
    pub p50_us: u64,
    /// 90th-percentile latency, microseconds.
    pub p90_us: u64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: u64,
    /// Maximum latency since startup, microseconds.
    pub max_us: u64,
}

/// Thread-safe request metrics keyed by normalized route, plus the shared
/// process counters.
#[derive(Debug, Default)]
pub struct Metrics {
    endpoints: Mutex<HashMap<&'static str, Histogram>>,
    /// Per-`(route, stage)` pipeline-stage latencies, fed by the trace
    /// sink behind `viewseeker_request_stage_seconds`.
    stages: Mutex<HashMap<(&'static str, &'static str), Histogram>>,
    counters: Arc<Counters>,
}

impl Metrics {
    /// Creates an empty metrics table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The shared lifecycle counters.
    #[must_use]
    pub fn counters(&self) -> &Arc<Counters> {
        &self.counters
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<&'static str, Histogram>> {
        // Recover from poison: a handler panic must not break /healthz.
        self.endpoints
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Records one request against `route`.
    pub fn record(&self, route: &'static str, latency: Duration) {
        let us = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
        self.lock().entry(route).or_default().record(us);
    }

    /// Summarizes every endpoint seen so far, sorted by route label.
    #[must_use]
    pub fn report(&self) -> Vec<EndpointReport> {
        let endpoints = self.lock();
        let mut out: Vec<EndpointReport> = endpoints
            .iter()
            .map(|(route, hist)| EndpointReport {
                route: (*route).to_owned(),
                count: hist.count(),
                p50_us: hist.quantile(0.50),
                p90_us: hist.quantile(0.90),
                p99_us: hist.quantile(0.99),
                max_us: hist.max_us(),
            })
            .collect();
        out.sort_by(|a, b| a.route.cmp(&b.route));
        out
    }

    /// A snapshot of every route's histogram, sorted by route label, for
    /// the Prometheus exporter.
    #[must_use]
    pub fn histograms(&self) -> Vec<(String, Histogram)> {
        let endpoints = self.lock();
        let mut out: Vec<(String, Histogram)> = endpoints
            .iter()
            .map(|(route, hist)| ((*route).to_owned(), hist.clone()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    fn stages_lock(
        &self,
    ) -> std::sync::MutexGuard<'_, HashMap<(&'static str, &'static str), Histogram>> {
        self.stages.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records one pipeline-stage duration against `(route, stage)`.
    /// Both labels come from static registries (route table, `SPANS`,
    /// `TracePhase`), so cardinality stays bounded.
    pub fn record_stage(&self, route: &'static str, stage: &'static str, us: u64) {
        self.stages_lock()
            .entry((route, stage))
            .or_default()
            .record(us);
    }

    /// A snapshot of every `(route, stage)` histogram, sorted by route
    /// then stage, for the Prometheus exporter.
    #[must_use]
    pub fn stage_histograms(&self) -> Vec<(String, String, Histogram)> {
        let stages = self.stages_lock();
        let mut out: Vec<(String, String, Histogram)> = stages
            .iter()
            .map(|((route, stage), hist)| ((*route).to_owned(), (*stage).to_owned(), hist.clone()))
            .collect();
        out.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
        out
    }
}

impl Serialize for Metrics {
    fn to_value(&self) -> serde::Value {
        self.report().to_value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_reports_per_route() {
        let m = Metrics::new();
        for i in 0..10 {
            m.record("GET /healthz", Duration::from_micros(100 + i));
        }
        m.record("POST /sessions", Duration::from_millis(5));
        let report = m.report();
        assert_eq!(report.len(), 2);
        let health = report.iter().find(|r| r.route == "GET /healthz").unwrap();
        assert_eq!(health.count, 10);
        // Bucketed quantiles: within one bucket width above the exact
        // values, which all land in [96, 112) at this magnitude.
        assert!(health.p50_us >= 100 && health.p50_us <= 112, "{health:?}");
        assert_eq!(health.max_us, 109);
        let create = report.iter().find(|r| r.route == "POST /sessions").unwrap();
        assert_eq!(create.count, 1);
        assert!(create.p50_us >= 5_000 && create.p50_us < 5_000 + 5_000 / 8);
    }

    #[test]
    fn memory_is_bounded_regardless_of_observations() {
        let m = Metrics::new();
        for i in 0..10_000u64 {
            m.record("r", Duration::from_micros(i));
        }
        let report = m.report();
        assert_eq!(report[0].count, 10_000);
        assert_eq!(report[0].max_us, 9_999);
        let hists = m.histograms();
        assert_eq!(hists.len(), 1);
        assert_eq!(hists[0].1.count(), 10_000);
    }

    #[test]
    fn survives_a_poisoned_lock() {
        let m = Arc::new(Metrics::new());
        m.record("r", Duration::from_micros(5));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = m2.endpoints.lock().unwrap();
            panic!("poison the metrics lock");
        })
        .join();
        // The satellite fix: record/report recover instead of panicking.
        m.record("r", Duration::from_micros(7));
        let report = m.report();
        assert_eq!(report[0].count, 2);
    }

    #[test]
    fn stage_histograms_key_on_route_and_stage() {
        let m = Metrics::new();
        m.record_stage("GET /sessions/:id/next", "handler", 900);
        m.record_stage("GET /sessions/:id/next", "parse", 12);
        m.record_stage("shed", "queue_wait", 450);
        let stages = m.stage_histograms();
        let keys: Vec<(&str, &str)> = stages
            .iter()
            .map(|(route, stage, _)| (route.as_str(), stage.as_str()))
            .collect();
        assert_eq!(
            keys,
            [
                ("GET /sessions/:id/next", "handler"),
                ("GET /sessions/:id/next", "parse"),
                ("shed", "queue_wait"),
            ]
        );
        assert_eq!(stages[0].2.count(), 1);
        assert_eq!(stages[0].2.max_us(), 900);
    }

    #[test]
    fn counters_accumulate() {
        let c = Counters::default();
        Counters::bump(&c.sessions_created);
        Counters::bump(&c.sessions_created);
        Counters::bump(&c.feedback_labels);
        Counters::add(&c.materialize_rows, 3_000);
        Counters::add(&c.materialize_rows, 800);
        assert_eq!(Counters::read(&c.sessions_created), 2);
        assert_eq!(Counters::read(&c.feedback_labels), 1);
        assert_eq!(Counters::read(&c.materialize_rows), 3_800);
        let depth = c.queue_depth_handle();
        depth.fetch_add(3, Ordering::Relaxed);
        assert_eq!(c.queue_depth(), 3);
    }
}
