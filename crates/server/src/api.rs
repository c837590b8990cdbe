//! Endpoint implementations: JSON request/response types plus the handlers
//! the router dispatches to. Handlers return plain data; HTTP concerns
//! (status codes, serialization) live in [`crate::router`].

use std::sync::Arc;
use std::time::Instant;

use serde::{Deserialize, Serialize};
use viewseeker_catalog::{Catalog, DatasetDetail, DatasetSummary};
use viewseeker_core::{SeekerPhase, ViewId};

use crate::error::ServerError;
use crate::log::Logger;
use crate::metrics::{Counters, EndpointReport, Metrics};
use crate::registry::{PersistedSession, SessionEntry, SessionRegistry, SessionSpec};

/// Shared state behind every handler.
pub struct AppState {
    /// The session table.
    pub registry: SessionRegistry,
    /// The dataset catalog shared by every session (same instance the
    /// registry resolves specs against).
    pub catalog: Arc<Catalog>,
    /// Request histograms and lifecycle counters.
    pub metrics: Metrics,
    /// The structured event/access logger.
    pub logger: Arc<Logger>,
    /// Reactor counters behind the `viewseeker_net_*` series. All-zero
    /// when no listener runs (in-process use, tests).
    pub net: Arc<viewseeker_net::NetStats>,
    /// The tail sampler retaining the slowest/errored/shed request
    /// traces, exported by `GET /debug/traces`.
    pub traces: Arc<viewseeker_net::TraceSampler>,
    /// Server start time, for the uptime report.
    pub started: Instant,
}

impl AppState {
    /// Bundles a registry with fresh metrics and a disabled logger (the
    /// embedded/test default; [`crate::serve_app`] wires a real one).
    #[must_use]
    pub fn new(registry: SessionRegistry) -> Self {
        Self::with_logger(registry, Logger::disabled())
    }

    /// Bundles a registry with fresh metrics and the given logger, wiring
    /// the registry's lifecycle events into both.
    #[must_use]
    pub fn with_logger(mut registry: SessionRegistry, logger: Arc<Logger>) -> Self {
        let metrics = Metrics::new();
        registry.attach_observability(Arc::clone(metrics.counters()), Arc::clone(&logger));
        let catalog = Arc::clone(registry.catalog());
        Self {
            registry,
            catalog,
            metrics,
            logger,
            net: Arc::new(viewseeker_net::NetStats::new()),
            traces: Arc::new(viewseeker_net::TraceSampler::default()),
            // vslint::allow(wall-clock): process start time, reported only
            // as the /metrics uptime gauge.
            started: Instant::now(),
        }
    }
}

fn phase_name(phase: SeekerPhase) -> &'static str {
    match phase {
        SeekerPhase::ColdStart => "cold_start",
        SeekerPhase::Active => "active",
    }
}

/// One view in a response: definition, SQL rendering, optional score.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ViewInfo {
    /// Index into the session's view space.
    pub id: usize,
    /// Group-by dimension.
    pub dimension: String,
    /// Aggregated measure.
    pub measure: String,
    /// Aggregate function name.
    pub aggregate: String,
    /// Bin count for numeric dimensions.
    pub bins: Option<usize>,
    /// The SQL query this view stands for (over the target subset).
    pub sql: String,
    /// Predicted utility, when the estimator is fitted.
    pub score: Option<f64>,
}

fn view_info(
    entry: &SessionEntry,
    seeker: &viewseeker_core::OwnedSeeker,
    id: ViewId,
    score: Option<f64>,
) -> Result<ViewInfo, ServerError> {
    let def = seeker.view_space().def(id)?;
    let where_clause = entry.spec.query.clone().filter(|q| q.trim() != "*");
    Ok(ViewInfo {
        id: id.index(),
        dimension: def.dimension.clone(),
        measure: def.measure.clone(),
        aggregate: def.aggregate.to_string(),
        bins: def.bins,
        sql: def.to_sql(&entry.spec.dataset, where_clause.as_deref()),
        score,
    })
}

/// Cumulative time spent in one trace phase of a session.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PhaseTotalInfo {
    /// Phase name (`"refinement"`, `"estimator_fit"`, ...).
    pub phase: String,
    /// Spans recorded for this phase.
    pub count: u64,
    /// Total microseconds across those spans.
    pub total_us: u64,
}

/// Response of `POST /sessions`, `POST /sessions/:id/restore`, and
/// `GET /sessions/:id`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SessionInfo {
    /// The session's handle for all later calls.
    pub id: String,
    /// Size of the enumerated view space.
    pub views: usize,
    /// Labels submitted so far.
    pub labels: usize,
    /// `"cold_start"` or `"active"`.
    pub phase: String,
    /// Views whose features are still rough (α-sampling not yet refined).
    pub pending_refinements: usize,
    /// Interactive iterations completed (`next_views` calls).
    pub iterations: u64,
    /// Total wall-clock spent in incremental refinement, microseconds —
    /// the convergence cost the paper hides in user think-time (§3.3).
    pub refinement_time_us: u64,
    /// Cumulative per-phase span totals from the session's tracer, in
    /// phase execution order.
    pub phase_totals: Vec<PhaseTotalInfo>,
}

fn session_info(entry: &SessionEntry) -> Result<SessionInfo, ServerError> {
    let seeker = entry.seeker_lock()?;
    Ok(SessionInfo {
        id: entry.id.clone(),
        views: seeker.view_space().len(),
        labels: seeker.label_count(),
        phase: phase_name(seeker.phase()).to_owned(),
        pending_refinements: seeker.pending_refinements(),
        iterations: seeker.iteration_count(),
        refinement_time_us: u64::try_from(seeker.refinement_time().as_micros()).unwrap_or(u64::MAX),
        phase_totals: entry
            .recorder
            .phase_totals()
            .into_iter()
            .map(|(phase, total)| PhaseTotalInfo {
                phase: phase.name().to_owned(),
                count: total.count,
                total_us: total.total_us,
            })
            .collect(),
    })
}

/// Creates a session from a [`SessionSpec`] body.
///
/// # Errors
///
/// Bad spec, bad query, or seeker initialization failure.
pub fn create_session(state: &AppState, body: &str) -> Result<SessionInfo, ServerError> {
    let spec: SessionSpec = serde_json::from_str(body)
        .map_err(|e| ServerError::BadRequest(format!("bad session spec: {e}")))?;
    let entry = state.registry.create(spec)?;
    session_info(&entry)
}

/// Lists every live session.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SessionListing {
    /// Session id.
    pub id: String,
    /// Labels submitted so far.
    pub labels: usize,
    /// `"cold_start"` or `"active"`.
    pub phase: String,
    /// Seconds since the session was last used.
    pub idle_secs: u64,
}

/// `GET /sessions`.
#[must_use]
pub fn list_sessions(state: &AppState) -> Vec<SessionListing> {
    state
        .registry
        .describe()
        .into_iter()
        .map(|(id, labels, phase, idle)| SessionListing {
            id,
            labels,
            phase: phase.to_owned(),
            idle_secs: idle.as_secs(),
        })
        .collect()
}

/// `GET /sessions/:id`.
///
/// # Errors
///
/// Unknown session.
pub fn get_session(state: &AppState, id: &str) -> Result<SessionInfo, ServerError> {
    let entry = state.registry.get(id)?;
    session_info(&entry)
}

/// `GET /sessions/:id/next?m=` — the next views to label (Algorithm 1,
/// line 6).
///
/// # Errors
///
/// Unknown session or estimator errors.
pub fn next_views(state: &AppState, id: &str, m: usize) -> Result<Vec<ViewInfo>, ServerError> {
    let entry = state.registry.get(id)?;
    let mut seeker = entry.seeker_lock()?;
    let ids = seeker.next_views(m)?;
    ids.into_iter()
        .map(|v| view_info(&entry, &seeker, v, None))
        .collect()
}

/// Body of `POST /sessions/:id/feedback`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeedbackBody {
    /// View index being labeled.
    pub view: usize,
    /// The user's 0–1 utility judgement.
    pub score: f64,
}

/// `POST /sessions/:id/feedback` — label one view and refit.
///
/// # Errors
///
/// Unknown session/view, repeated label, score outside `[0, 1]`.
pub fn feedback(state: &AppState, id: &str, body: &str) -> Result<SessionInfo, ServerError> {
    let parsed: FeedbackBody = serde_json::from_str(body)
        .map_err(|e| ServerError::BadRequest(format!("bad feedback body: {e}")))?;
    let entry = state.registry.get(id)?;
    entry
        .seeker_lock()?
        .submit_feedback(ViewId::from_index(parsed.view), parsed.score)?;
    Counters::bump(&state.metrics.counters().feedback_labels);
    session_info(&entry)
}

/// `GET /sessions/:id/recommend?k=&lambda=` — the current top-k (diverse
/// when `lambda` is given).
///
/// # Errors
///
/// Unknown session, or no labels submitted yet (409).
pub fn recommend(
    state: &AppState,
    id: &str,
    k: usize,
    lambda: Option<f64>,
) -> Result<Vec<ViewInfo>, ServerError> {
    let entry = state.registry.get(id)?;
    let seeker = entry.seeker_lock()?;
    let ids = match lambda {
        Some(l) => seeker.recommend_diverse(k, l),
        None => seeker.recommend(k),
    }?;
    let scores = seeker.predicted_scores()?;
    ids.into_iter()
        .map(|v| {
            let score = scores.get(v.index()).copied().ok_or_else(|| {
                ServerError::Internal(format!(
                    "recommended view {} has no predicted score (matrix has {})",
                    v.index(),
                    scores.len()
                ))
            })?;
            view_info(&entry, &seeker, v, Some(score))
        })
        .collect()
}

/// `POST /sessions/:id/snapshot` — snapshot the session (and persist it to
/// the snapshot directory when one is configured). The session stays live.
///
/// # Errors
///
/// Unknown session or persistence failure.
pub fn snapshot(state: &AppState, id: &str) -> Result<PersistedSession, ServerError> {
    let entry = state.registry.get(id)?;
    state.registry.persist(&entry)?;
    let seeker = entry.seeker_lock()?;
    Ok(PersistedSession {
        id: entry.id.clone(),
        spec: entry.spec.clone(),
        snapshot: viewseeker_core::SessionSnapshot::from_seeker(&seeker),
        dataset_name: Some(entry.dataset_name.clone()),
        dataset_checksum: Some(entry.dataset_checksum()),
    })
}

/// `POST /sessions/restore` (body = a [`PersistedSession`]) or
/// `POST /sessions/:id/restore` (reload the evicted session from disk).
///
/// # Errors
///
/// Missing snapshot, id collision with a live session, replay failure.
pub fn restore(state: &AppState, id: Option<&str>, body: &str) -> Result<SessionInfo, ServerError> {
    let entry = match id {
        Some(id) => state.registry.restore_from_disk(id)?,
        None => {
            let persisted: PersistedSession = serde_json::from_str(body)
                .map_err(|e| ServerError::BadRequest(format!("bad snapshot body: {e}")))?;
            state.registry.restore(&persisted)?
        }
    };
    session_info(&entry)
}

/// `DELETE /sessions/:id`.
///
/// # Errors
///
/// Unknown session.
pub fn delete_session(state: &AppState, id: &str) -> Result<(), ServerError> {
    state.registry.remove(id)
}

/// `POST /datasets/:name` — register the raw CSV body as a named dataset
/// in the catalog (persisted to the data directory when one is
/// configured). The whole body is the file; no multipart framing.
///
/// # Errors
///
/// Invalid/reserved name, duplicate name, unparseable CSV, empty table,
/// or storage failure.
pub fn upload_dataset(
    state: &AppState,
    name: &str,
    body: &[u8],
) -> Result<DatasetSummary, ServerError> {
    let entry = state.catalog.import_csv_bytes(name, body)?;
    state.logger.info(
        "dataset_imported",
        &[
            ("dataset", crate::log::s(&entry.name)),
            ("checksum", crate::log::s(&entry.checksum)),
        ],
    );
    summary_of(state, &entry.name)
}

/// `POST /datasets/:name/rows` response: what grew and which live
/// sessions were brought up to date.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AppendInfo {
    /// The dataset appended to.
    pub dataset: String,
    /// Rows this request appended.
    pub appended: u64,
    /// Rows in the dataset after the append.
    pub total_rows: u64,
    /// Content digest of the grown table, lowercase hex.
    pub checksum: String,
    /// Live sessions over this dataset that absorbed the new rows.
    pub sessions_updated: usize,
    /// Of those, how many folded the tail into retained fused aggregates
    /// (the rest re-materialized).
    pub sessions_merged: usize,
}

/// `POST /datasets/:name/rows` — append the raw CSV body (header row
/// required, columns matching the dataset's schema) to an existing
/// dataset, durably (atomic manifest swap when the catalog is
/// disk-backed), then fold the new rows into every live session built
/// over the dataset.
///
/// # Errors
///
/// Unknown/reserved name, schema mismatch, unparseable or empty CSV, or
/// storage failure. Per-session absorption failures are logged, not
/// surfaced: the append itself is already durable.
pub fn append_dataset(
    state: &AppState,
    name: &str,
    body: &[u8],
) -> Result<AppendInfo, ServerError> {
    let outcome = state.catalog.append_csv_bytes(name, body)?;
    let updated = state.registry.absorb_append(&outcome.entry);
    let merged = updated.iter().filter(|(_, m)| *m).count();
    state.logger.info(
        "dataset_appended",
        &[
            ("dataset", crate::log::s(&outcome.entry.name)),
            ("appended_rows", crate::log::n(outcome.appended)),
            ("total_rows", crate::log::n(outcome.total_rows)),
            ("sessions_updated", crate::log::n(updated.len() as u64)),
        ],
    );
    Ok(AppendInfo {
        dataset: outcome.entry.name.clone(),
        appended: outcome.appended,
        total_rows: outcome.total_rows,
        checksum: outcome.entry.checksum.clone(),
        sessions_updated: updated.len(),
        sessions_merged: merged,
    })
}

fn summary_of(state: &AppState, name: &str) -> Result<DatasetSummary, ServerError> {
    state
        .catalog
        .list()
        .into_iter()
        .find(|d| d.name == name)
        .ok_or_else(|| ServerError::Internal(format!("dataset {name} vanished after import")))
}

/// `GET /datasets` — every dataset the catalog knows, sorted by name.
#[must_use]
pub fn list_datasets(state: &AppState) -> Vec<DatasetSummary> {
    state.catalog.list()
}

/// `GET /datasets/:name` — schema, row count, resident bytes, and
/// per-column cardinality (loads the table if it is not cached).
///
/// # Errors
///
/// Unknown dataset or storage failure.
pub fn get_dataset(state: &AppState, name: &str) -> Result<DatasetDetail, ServerError> {
    Ok(state.catalog.describe(name)?)
}

/// `DELETE /datasets/:name` — drop the dataset from cache and disk.
/// Refuses (409) while any session still holds the table.
///
/// # Errors
///
/// Unknown dataset, live references, or storage failure.
pub fn delete_dataset(state: &AppState, name: &str) -> Result<(), ServerError> {
    state.catalog.delete(name)?;
    state
        .logger
        .info("dataset_deleted", &[("dataset", crate::log::s(name))]);
    Ok(())
}

/// `GET /healthz` response.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Health {
    /// Always `"ok"` when the server can answer at all.
    pub status: String,
    /// Seconds since startup.
    pub uptime_secs: u64,
    /// Live session count (after the TTL sweep).
    pub sessions: usize,
    /// Sessions evicted by this probe's TTL sweep.
    pub evicted: Vec<String>,
    /// Per-endpoint request counts and latency percentiles (quantiles from
    /// the bucketed histograms behind `GET /metrics`).
    pub endpoints: Vec<EndpointReport>,
}

/// `GET /healthz` — liveness plus metrics; opportunistically sweeps
/// TTL-expired sessions.
///
/// # Errors
///
/// Eviction persistence failure.
pub fn healthz(state: &AppState) -> Result<Health, ServerError> {
    let evicted = state.registry.sweep_expired()?;
    Ok(Health {
        status: "ok".to_owned(),
        uptime_secs: state.started.elapsed().as_secs(),
        sessions: state.registry.len(),
        evicted,
        endpoints: state.metrics.report(),
    })
}

/// `GET /metrics` — the whole process state in Prometheus text exposition
/// format (version 0.0.4).
#[must_use]
pub fn metrics_text(state: &AppState) -> String {
    crate::prometheus::render(
        state.started.elapsed().as_secs_f64(),
        state.registry.len(),
        state.metrics.counters(),
        &state.metrics.histograms(),
        &state.metrics.stage_histograms(),
        &state.catalog.stats(),
        &state.net,
    )
}

/// `GET /debug/traces?format=chrome|folded&n=N` — the tail-sampled slow/
/// errored/shed request traces, as Chrome trace-event JSON (Perfetto- and
/// `chrome://tracing`-loadable, the default) or folded flamegraph stacks.
/// `n` limits to the N slowest (0 = everything retained).
///
/// # Errors
///
/// Unknown `format` value.
pub fn debug_traces(
    state: &AppState,
    format: &str,
    limit: usize,
) -> Result<viewseeker_net::http1::Response, ServerError> {
    let mut kept = state.traces.snapshot();
    if limit > 0 {
        kept.truncate(limit);
    }
    match format {
        "chrome" => Ok(viewseeker_net::http1::Response::json(
            viewseeker_net::trace::chrome_trace_json(&kept),
        )),
        "folded" => Ok(viewseeker_net::http1::Response::text(
            viewseeker_net::trace::folded_stacks(&kept),
        )),
        other => Err(ServerError::BadRequest(format!(
            "unknown trace format {other:?} (chrome|folded)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn state() -> AppState {
        AppState::new(SessionRegistry::new(4, Duration::from_secs(600), None))
    }

    fn make_session(state: &AppState) -> String {
        create_session(
            state,
            r#"{"dataset": "diab", "rows": 800, "seed": 5, "query": "a0 = 'a0_v0'"}"#,
        )
        .unwrap()
        .id
    }

    #[test]
    fn full_loop_over_the_api_layer() {
        let state = state();
        let id = make_session(&state);
        assert_eq!(get_session(&state, &id).unwrap().labels, 0);

        // recommend before any feedback is a 409, not a 500
        let err = recommend(&state, &id, 5, None).unwrap_err();
        assert_eq!(err.status(), 409);

        for score in [0.9, 0.1, 0.7, 0.4] {
            let next = next_views(&state, &id, 1).unwrap();
            assert_eq!(next.len(), 1);
            assert!(next[0].sql.contains("GROUP BY"));
            let body = format!("{{\"view\": {}, \"score\": {score}}}", next[0].id);
            feedback(&state, &id, &body).unwrap();
        }
        let info = get_session(&state, &id).unwrap();
        assert_eq!(info.labels, 4);

        let top = recommend(&state, &id, 5, None).unwrap();
        assert_eq!(top.len(), 5);
        assert!(top[0].score.unwrap() >= top[4].score.unwrap());
        let diverse = recommend(&state, &id, 5, Some(0.5)).unwrap();
        assert_eq!(diverse.len(), 5);

        let persisted = snapshot(&state, &id).unwrap();
        assert_eq!(persisted.snapshot.labels.len(), 4);
        delete_session(&state, &id).unwrap();
        let restored = restore(&state, None, &serde_json::to_string(&persisted).unwrap()).unwrap();
        assert_eq!(restored.id, id);
        assert_eq!(restored.labels, 4);
    }

    #[test]
    fn bad_bodies_are_400s() {
        let state = state();
        assert_eq!(create_session(&state, "{").unwrap_err().status(), 400);
        assert_eq!(
            create_session(&state, r#"{"dataset": "nope"}"#)
                .unwrap_err()
                .status(),
            400
        );
        let id = make_session(&state);
        assert_eq!(feedback(&state, &id, "nope").unwrap_err().status(), 400);
        assert_eq!(
            feedback(&state, &id, r#"{"view": 0, "score": 7.5}"#)
                .unwrap_err()
                .status(),
            400
        );
        assert_eq!(
            feedback(&state, "ghost", r#"{"view": 0, "score": 0.5}"#)
                .unwrap_err()
                .status(),
            404
        );
    }

    #[test]
    fn session_info_exposes_convergence_cost_and_counters_move() {
        let state = state();
        let id = make_session(&state);
        assert_eq!(
            Counters::read(&state.metrics.counters().sessions_created),
            1
        );

        for score in [0.9, 0.1, 0.8] {
            let next = next_views(&state, &id, 1).unwrap();
            let body = format!("{{\"view\": {}, \"score\": {score}}}", next[0].id);
            feedback(&state, &id, &body).unwrap();
        }
        let info = get_session(&state, &id).unwrap();
        assert_eq!(info.iterations, 3);
        assert_eq!(info.labels, 3);
        // Default spec has alpha = 1.0: no refinement work to account.
        assert_eq!(info.refinement_time_us, 0);
        let fit = info
            .phase_totals
            .iter()
            .find(|p| p.phase == "estimator_fit")
            .unwrap();
        assert!(fit.count >= 3, "{fit:?}");
        assert_eq!(Counters::read(&state.metrics.counters().feedback_labels), 3);

        let text = metrics_text(&state);
        assert!(
            text.contains("viewseeker_feedback_labels_total 3"),
            "{text}"
        );
        assert!(
            text.contains("viewseeker_sessions_created_total 1"),
            "{text}"
        );
        assert!(text.contains("viewseeker_active_sessions 1"), "{text}");
    }

    #[test]
    fn debug_traces_renders_both_formats_and_rejects_unknown() {
        use viewseeker_net::trace::{Span, TraceSink};

        let state = state();
        state.traces.record(viewseeker_net::RequestTrace {
            id: "slow-1".into(),
            method: "GET".into(),
            path: "/sessions/s1/next".into(),
            route: "GET /sessions/:id/next",
            status: 200,
            shed: false,
            started: Instant::now(),
            total_us: 900,
            spans: vec![Span {
                name: "handler",
                start_us: 0,
                dur_us: 880,
                parent: None,
            }],
        });
        let chrome = debug_traces(&state, "chrome", 0).unwrap();
        assert_eq!(chrome.status, 200);
        assert!(chrome.body.contains("\"traceEvents\""), "{}", chrome.body);
        assert!(
            chrome.body.contains("\"request_id\":\"slow-1\""),
            "{}",
            chrome.body
        );
        let folded = debug_traces(&state, "folded", 0).unwrap();
        assert!(
            folded.body.contains("GET /sessions/:id/next;handler 880"),
            "{}",
            folded.body
        );
        assert_eq!(folded.content_type, "text/plain; charset=utf-8");
        assert_eq!(debug_traces(&state, "svg", 0).unwrap_err().status(), 400);
    }

    #[test]
    fn healthz_reports_metrics_and_sessions() {
        let state = state();
        let _id = make_session(&state);
        state
            .metrics
            .record("GET /healthz", Duration::from_micros(50));
        let health = healthz(&state).unwrap();
        assert_eq!(health.status, "ok");
        assert_eq!(health.sessions, 1);
        assert_eq!(health.endpoints.len(), 1);
        assert_eq!(health.endpoints[0].count, 1);
    }
}
