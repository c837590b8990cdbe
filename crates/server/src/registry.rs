//! The session registry: named, concurrent, capacity-bounded interactive
//! sessions.
//!
//! Concurrency model: the registry map lives under an `RwLock` (reads for
//! lookup, writes for create/evict/remove), and every session is
//! single-writer behind its own `Mutex<OwnedSeeker>` — two requests to the
//! *same* session serialize, requests to *different* sessions proceed in
//! parallel, and no request holds the registry lock while the (potentially
//! slow) seeker work runs.
//!
//! Capacity: at most `max_sessions` live sessions. A session idle past
//! `ttl` is evictable; when the cap is hit the least-recently-used session
//! is evicted even if fresh. Eviction is not data loss: the session is
//! snapshotted (labels + spec) to `snapshot_dir` first, and
//! [`SessionRegistry::restore_from_disk`] rebuilds it bit-identically —
//! the estimators are a pure function of the replayed labels.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};
use viewseeker_catalog::{Catalog, CatalogError, DatasetEntry};
use viewseeker_core::persist::SessionSnapshot;
use viewseeker_core::trace::{Recorder, Tracer};
use viewseeker_core::{OwnedSeeker, Seeker, ViewSeekerConfig};
use viewseeker_dataset::SelectQuery;

use crate::error::ServerError;
use crate::log::{n, s, Logger};
use crate::metrics::Counters;

/// Everything needed to (re)build a session's world deterministically: the
/// named generated dataset and the view-space configuration. Doubles as the
/// `POST /sessions` request body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionSpec {
    /// Requested session id. `None` (the wire default — older clients
    /// never send the key) lets the registry mint `s<n>`; the cluster
    /// shard router sets it so an id's consistent-hash owner is decided
    /// *before* the session exists, and so a forwarded create lands on a
    /// plain peer server under the router-chosen id. Validated to 1–64
    /// chars of `[A-Za-z0-9_-]`.
    pub id: Option<String>,
    /// Named dataset: `"diab"` or `"syn"`.
    pub dataset: String,
    /// Row count (default: 3000).
    pub rows: Option<usize>,
    /// Generator seed (default: 11).
    pub seed: Option<u64>,
    /// Target query: `"*"` or a SQL WHERE expression
    /// (e.g. `"a0 = 'a0_v0'"`). Default: `"*"`.
    pub query: Option<String>,
    /// α partial-data ratio in `(0, 1]` (default: 1.0 = exact features).
    pub alpha: Option<f64>,
    /// Dimensions excluded from the view space.
    pub exclude: Option<Vec<String>>,
    /// Bin configurations for numeric dimensions.
    pub bins: Option<Vec<usize>>,
}

impl SessionSpec {
    /// A minimal spec for `dataset` with every knob defaulted.
    #[must_use]
    pub fn named(dataset: &str) -> Self {
        Self {
            id: None,
            dataset: dataset.to_owned(),
            rows: None,
            seed: None,
            query: None,
            alpha: None,
            exclude: None,
            bins: None,
        }
    }

    /// Resolves the spec's dataset through `catalog`: `"diab"`/`"syn"` are
    /// materialized from the generators (once — later specs with the same
    /// parameters share the cached table), anything else is looked up as a
    /// catalog dataset name (uploaded CSV or pre-imported table). Identical
    /// specs resolve to pointer-equal `Arc<Table>`s.
    ///
    /// # Errors
    ///
    /// [`ServerError::BadRequest`] for an unknown dataset name, generator
    /// rejection, or `rows`/`seed` given with a stored (non-generated)
    /// dataset.
    pub fn resolve_dataset(&self, catalog: &Catalog) -> Result<DatasetEntry, ServerError> {
        match self.dataset.as_str() {
            kind @ ("diab" | "syn") => {
                let rows = self.rows.unwrap_or(3_000);
                let seed = self.seed.unwrap_or(11);
                catalog
                    .materialize_generated(kind, rows, seed)
                    .map_err(|e| ServerError::BadRequest(format!("dataset generation: {e}")))
            }
            name => {
                if self.rows.is_some() || self.seed.is_some() {
                    return Err(ServerError::BadRequest(format!(
                        "rows/seed only apply to generated datasets, not {name:?}"
                    )));
                }
                catalog.get(name).map_err(|e| match e {
                    CatalogError::NotFound(_) => ServerError::BadRequest(format!(
                        "unknown dataset {name:?} (expected \"diab\", \"syn\", or an \
                         uploaded dataset name)"
                    )),
                    other => other.into(),
                })
            }
        }
    }

    /// Parses the spec's query string, a SQL WHERE clause (absent, empty
    /// or `*` selects every row).
    ///
    /// # Errors
    ///
    /// [`ServerError::BadRequest`] for unparseable SQL.
    pub fn build_query(&self) -> Result<SelectQuery, ServerError> {
        let raw = self.query.as_deref().unwrap_or("*").trim();
        let predicate = viewseeker_dataset::sql::parse_where(raw)
            .map_err(|e| ServerError::BadRequest(format!("bad query {raw:?}: {e}")))?;
        Ok(SelectQuery::new(predicate))
    }

    /// Translates the spec's knobs onto a default [`ViewSeekerConfig`].
    ///
    /// # Errors
    ///
    /// None at present — range checks run in [`ViewSeekerConfig::validate`]
    /// at session construction; the `Result` is the signature callers
    /// already handle.
    pub fn build_config(&self) -> Result<ViewSeekerConfig, ServerError> {
        let mut config = ViewSeekerConfig::default();
        if let Some(alpha) = self.alpha {
            config.alpha = alpha;
        }
        if let Some(exclude) = &self.exclude {
            config.excluded_dimensions = exclude.clone();
        }
        if let Some(bins) = &self.bins {
            config.bin_configs = bins.clone();
        }
        Ok(config)
    }

    /// Builds the full session over a table already resolved from the
    /// catalog: the seeker shares the catalog's `Arc<Table>` rather than
    /// owning a private copy.
    ///
    /// # Errors
    ///
    /// Spec validation plus seeker initialization errors.
    pub fn build_seeker_on(
        &self,
        dataset: &DatasetEntry,
        tracer: Arc<dyn Tracer>,
    ) -> Result<OwnedSeeker, ServerError> {
        let query = self.build_query()?;
        Ok(Seeker::new_traced_with_zones(
            Arc::clone(&dataset.table),
            &query,
            self.build_config()?,
            Some(Arc::clone(&dataset.zones)),
            tracer,
        )?)
    }
}

/// What eviction writes to disk: the spec to rebuild the world plus the
/// snapshot to replay onto it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PersistedSession {
    /// The session's id at eviction time (restore keeps it).
    pub id: String,
    /// How to rebuild the table / query / config.
    pub spec: SessionSpec,
    /// The labels to replay.
    pub snapshot: SessionSnapshot,
    /// Catalog name the session's table resolved to (e.g.
    /// `gen-diab-r3000-s11` or an uploaded dataset name). `None` in
    /// snapshots written before the catalog existed.
    pub dataset_name: Option<String>,
    /// Content digest of that table at snapshot time, lowercase hex.
    /// Restore re-resolves the spec and refuses to replay labels onto a
    /// table whose digest no longer matches (the learned weights would
    /// silently describe different views).
    pub dataset_checksum: Option<String>,
}

/// One live session.
pub struct SessionEntry {
    /// The registry-assigned id.
    pub id: String,
    /// The spec the session was created from.
    pub spec: SessionSpec,
    /// The catalog name the spec's dataset resolved to.
    pub dataset_name: String,
    /// Content digest of the session's table, lowercase hex. Behind a lock
    /// because a dataset append retargets live sessions onto the grown
    /// table, whose digest differs; read it via
    /// [`SessionEntry::dataset_checksum`].
    dataset_checksum: Mutex<String>,
    /// The interactive session itself; lock to use.
    pub seeker: Mutex<OwnedSeeker>,
    /// The session's trace recorder (the seeker reports into it; readable
    /// without the seeker lock).
    pub recorder: Arc<Recorder>,
    last_used: Mutex<Instant>,
}

impl SessionEntry {
    /// The current content digest of the session's table. A poisoned lock
    /// is recovered: the guarded value is a plain `String`, structurally
    /// valid no matter where a panicking thread died.
    #[must_use]
    pub fn dataset_checksum(&self) -> String {
        self.dataset_checksum
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    fn set_dataset_checksum(&self, checksum: String) {
        *self
            .dataset_checksum
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = checksum;
    }

    /// The LRU clock. A poisoned clock lock is recovered: the guarded
    /// value is a plain `Instant`, structurally valid no matter where a
    /// panicking thread died.
    fn last_used(&self) -> MutexGuard<'_, Instant> {
        self.last_used
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn touch(&self) {
        // vslint::allow(wall-clock): the LRU recency clock decides only
        // *eviction* order, never recommendation output.
        *self.last_used() = Instant::now();
    }

    fn idle(&self) -> Duration {
        self.last_used().elapsed()
    }

    /// Locks the seeker, surfacing a poisoned lock as a typed 500 instead
    /// of a panic: unlike the registry map or the LRU clock, a seeker may
    /// genuinely be mid-mutation when its holder panics, so the state is
    /// not trusted.
    pub fn seeker_lock(&self) -> Result<MutexGuard<'_, OwnedSeeker>, ServerError> {
        self.seeker.lock().map_err(|_| {
            ServerError::Internal(format!(
                "session {:?} is unusable: a request holding its lock panicked",
                self.id
            ))
        })
    }
}

/// The concurrent, capacity-bounded session table.
pub struct SessionRegistry {
    sessions: RwLock<HashMap<String, Arc<SessionEntry>>>,
    next_id: AtomicU64,
    max_sessions: usize,
    ttl: Duration,
    snapshot_dir: Option<PathBuf>,
    catalog: Arc<Catalog>,
    counters: Arc<Counters>,
    logger: Arc<Logger>,
}

/// Cache budget of the private in-memory catalog behind
/// [`SessionRegistry::new`] (generated tables are pinned anyway; the budget
/// only bounds evictable disk-backed tables, of which an in-memory catalog
/// has none).
const DEFAULT_CATALOG_BUDGET: u64 = 512 << 20;

impl SessionRegistry {
    /// Creates a registry holding at most `max_sessions` sessions, evicting
    /// after `ttl` idle time, persisting evictees under `snapshot_dir`
    /// (`None` = evictees are dropped after an in-memory snapshot attempt).
    /// Datasets resolve through a private in-memory catalog; use
    /// [`SessionRegistry::with_catalog`] to share one (and get persistence).
    #[must_use]
    pub fn new(max_sessions: usize, ttl: Duration, snapshot_dir: Option<PathBuf>) -> Self {
        Self::with_catalog(
            max_sessions,
            ttl,
            snapshot_dir,
            Arc::new(Catalog::in_memory(DEFAULT_CATALOG_BUDGET)),
        )
    }

    /// [`SessionRegistry::new`] resolving datasets through `catalog` — the
    /// handle the HTTP dataset endpoints share, so a session spec naming an
    /// uploaded dataset finds it.
    #[must_use]
    pub fn with_catalog(
        max_sessions: usize,
        ttl: Duration,
        snapshot_dir: Option<PathBuf>,
        catalog: Arc<Catalog>,
    ) -> Self {
        Self {
            sessions: RwLock::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            max_sessions: max_sessions.max(1),
            ttl,
            snapshot_dir,
            catalog,
            counters: Arc::new(Counters::default()),
            logger: Logger::disabled(),
        }
    }

    /// The catalog sessions resolve their datasets through.
    #[must_use]
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// Connects the registry to the process-wide counters and the event
    /// logger. Called once by [`crate::api::AppState`] before serving; the
    /// defaults (private counters, disabled logger) keep standalone
    /// registries in tests silent.
    pub fn attach_observability(&mut self, counters: Arc<Counters>, logger: Arc<Logger>) {
        self.counters = counters;
        self.logger = logger;
    }

    /// Read-locks the session map. A poisoned lock is recovered:
    /// `HashMap` insert/remove either happened or didn't — a panicking
    /// holder can't leave the map half-mutated — so the data is valid
    /// and refusing service would only turn one failed request into a
    /// permanently dead registry.
    fn sessions_read(&self) -> RwLockReadGuard<'_, HashMap<String, Arc<SessionEntry>>> {
        self.sessions.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Write-locks the session map; same poison policy as
    /// [`SessionRegistry::sessions_read`].
    fn sessions_write(&self) -> RwLockWriteGuard<'_, HashMap<String, Arc<SessionEntry>>> {
        self.sessions
            .write()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of live sessions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sessions_read().len()
    }

    /// Whether no session is live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(id, label_count, phase, idle)` for every live session, for the
    /// listing endpoint.
    #[must_use]
    pub fn describe(&self) -> Vec<(String, usize, &'static str, Duration)> {
        // Clone the entries out so no session lock is taken while the
        // registry lock is held (vslint rule lock-order).
        let entries: Vec<Arc<SessionEntry>> = self.sessions_read().values().cloned().collect();
        let mut out: Vec<_> = entries
            .iter()
            .map(|e| match e.seeker.lock() {
                Ok(seeker) => {
                    let phase = match seeker.phase() {
                        viewseeker_core::SeekerPhase::ColdStart => "cold_start",
                        viewseeker_core::SeekerPhase::Active => "active",
                    };
                    (e.id.clone(), seeker.label_count(), phase, e.idle())
                }
                // A poisoned session still appears in the listing — hiding
                // it would make the id unkillable via the API.
                Err(_) => (e.id.clone(), 0, "poisoned", e.idle()),
            })
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Creates a session from `spec`, evicting if the cap requires it.
    ///
    /// # Errors
    ///
    /// Spec/seeker construction errors; eviction persistence errors.
    pub fn create(&self, mut spec: SessionSpec) -> Result<Arc<SessionEntry>, ServerError> {
        // A requested id (set by the cluster shard router, or by any
        // client that wants to pick its own handle) is honored after
        // validation; it is lifted out of the spec so stored specs and
        // snapshots stay canonical — the id lives on the entry.
        let requested = match spec.id.take() {
            Some(id) => {
                Self::validate_id(&id)?;
                if self.sessions_read().contains_key(&id) {
                    return Err(ServerError::Conflict(format!(
                        "session {id:?} is already live"
                    )));
                }
                Some(id)
            }
            None => None,
        };
        let dataset = spec.resolve_dataset(&self.catalog)?;
        let recorder = Recorder::shared();
        let seeker = spec.build_seeker_on(&dataset, Arc::clone(&recorder) as Arc<dyn Tracer>)?;
        let id = requested
            .unwrap_or_else(|| format!("s{}", self.next_id.fetch_add(1, Ordering::SeqCst)));
        let entry = self.insert(id, spec, &dataset, seeker, recorder)?;
        Counters::bump(&self.counters.sessions_created);
        let (views, scans) = entry.seeker.lock().map_or((0, 0), |sk| {
            (sk.view_space().len() as u64, sk.materialization().scans)
        });
        self.logger.info(
            "session_created",
            &[
                ("session", s(&entry.id)),
                ("dataset", s(&entry.dataset_name)),
                ("views", n(views)),
                ("materialize_scans", n(scans)),
            ],
        );
        Ok(entry)
    }

    /// Checks a client- or router-requested session id: 1–64 characters,
    /// ASCII alphanumerics plus `-` and `_` (the same alphabet
    /// [`SessionRegistry::snapshot_path`] preserves, so the id survives a
    /// persist/restore round trip unchanged).
    fn validate_id(id: &str) -> Result<(), ServerError> {
        let ok_chars = id
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_');
        if id.is_empty() || id.len() > 64 || !ok_chars {
            return Err(ServerError::BadRequest(format!(
                "bad session id {id:?}: expected 1-64 characters of [A-Za-z0-9_-]"
            )));
        }
        Ok(())
    }

    /// Creates a session by replaying `persisted` labels over a freshly
    /// rebuilt world. The persisted id is kept so clients can resume with
    /// the handle they already hold.
    ///
    /// # Errors
    ///
    /// Spec errors, snapshot/view-space mismatches, label replay errors.
    pub fn restore(&self, persisted: &PersistedSession) -> Result<Arc<SessionEntry>, ServerError> {
        let result = self.restore_inner(persisted);
        match &result {
            Ok(entry) => {
                Counters::bump(&self.counters.restores_ok);
                self.logger.info(
                    "session_restored",
                    &[
                        ("session", s(&entry.id)),
                        ("labels", n(persisted.snapshot.labels.len() as u64)),
                    ],
                );
            }
            Err(e) => {
                Counters::bump(&self.counters.restores_failed);
                self.logger.warn(
                    "session_restore_failed",
                    &[("session", s(&persisted.id)), ("error", s(e.message()))],
                );
            }
        }
        result
    }

    fn restore_inner(
        &self,
        persisted: &PersistedSession,
    ) -> Result<Arc<SessionEntry>, ServerError> {
        if self.sessions_read().contains_key(&persisted.id) {
            return Err(ServerError::Conflict(format!(
                "session {:?} is already live",
                persisted.id
            )));
        }
        let dataset = persisted.spec.resolve_dataset(&self.catalog)?;
        if let Some(expected) = &persisted.dataset_checksum {
            if *expected != dataset.checksum {
                return Err(ServerError::Conflict(format!(
                    "snapshot {} was taken against dataset digest {expected}, but {:?} \
                     now has digest {} — refusing to replay labels onto different data",
                    persisted.id, dataset.name, dataset.checksum
                )));
            }
        }
        let recorder = Recorder::shared();
        let mut seeker = persisted
            .spec
            .build_seeker_on(&dataset, Arc::clone(&recorder) as Arc<dyn Tracer>)?;
        persisted.snapshot.replay_onto(&mut seeker)?;
        self.insert(
            persisted.id.clone(),
            persisted.spec.clone(),
            &dataset,
            seeker,
            recorder,
        )
    }

    /// Reloads a previously evicted session from `snapshot_dir`.
    ///
    /// # Errors
    ///
    /// [`ServerError::NotFound`] when no snapshot file exists for `id`;
    /// restore errors otherwise.
    pub fn restore_from_disk(&self, id: &str) -> Result<Arc<SessionEntry>, ServerError> {
        let path = self
            .snapshot_path(id)
            .ok_or_else(|| ServerError::NotFound("no snapshot directory configured".into()))?;
        let json = std::fs::read_to_string(&path).map_err(|_| {
            ServerError::NotFound(format!("no snapshot on disk for session {id:?}"))
        })?;
        let persisted: PersistedSession = serde_json::from_str(&json)
            .map_err(|e| ServerError::Internal(format!("corrupt snapshot {path:?}: {e}")))?;
        self.restore(&persisted)
    }

    fn insert(
        &self,
        id: String,
        spec: SessionSpec,
        dataset: &DatasetEntry,
        seeker: OwnedSeeker,
        recorder: Arc<Recorder>,
    ) -> Result<Arc<SessionEntry>, ServerError> {
        // Account the offline materialization this build just paid for,
        // whichever path (create or restore) triggered it.
        let report = *seeker.materialization();
        Counters::add(&self.counters.materialize_scans, report.scans);
        Counters::add(&self.counters.materialize_rows, report.rows_scanned);
        Counters::add(&self.counters.materialize_us, report.duration_us);
        Counters::add(&self.counters.rowgroups_scanned, report.rowgroups_scanned);
        Counters::add(&self.counters.rowgroups_pruned, report.rowgroups_pruned);
        let entry = Arc::new(SessionEntry {
            id: id.clone(),
            spec,
            dataset_name: dataset.name.clone(),
            dataset_checksum: Mutex::new(dataset.checksum.clone()),
            seeker: Mutex::new(seeker),
            recorder,
            // vslint::allow(wall-clock): initializes the LRU recency clock,
            // which decides only eviction order.
            last_used: Mutex::new(Instant::now()),
        });
        let evicted = {
            let mut sessions = self.sessions_write();
            let mut evicted = Vec::new();
            while sessions.len() >= self.max_sessions {
                // The most-idle session loses; idle-time ties (coarse
                // clocks) break on the smaller id so the victim never
                // depends on hash iteration order.
                // vslint::allow(hash-iter): victim choice is a pure max
                // over (idle, id) — a total order, so iteration order
                // cannot change the winner.
                let victim = sessions
                    .values()
                    .map(|e| (e.idle(), e.id.clone()))
                    .max_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)))
                    .map(|(_, id)| id);
                let Some(victim) = victim else { break };
                evicted.extend(sessions.remove(&victim));
            }
            sessions.insert(id, Arc::clone(&entry));
            evicted
        };
        // Persist outside the registry lock: snapshotting locks the evicted
        // session and may touch the filesystem.
        for victim in evicted {
            Counters::bump(&self.counters.sessions_evicted);
            self.logger.info(
                "session_evicted",
                &[("session", s(&victim.id)), ("reason", s("capacity"))],
            );
            self.persist(&victim)?;
        }
        Ok(entry)
    }

    /// Looks a session up and refreshes its LRU clock.
    ///
    /// # Errors
    ///
    /// [`ServerError::NotFound`] for an unknown id (the error message points
    /// at `restore` when a disk snapshot exists).
    pub fn get(&self, id: &str) -> Result<Arc<SessionEntry>, ServerError> {
        let entry = self.sessions_read().get(id).cloned();
        match entry {
            Some(entry) => {
                entry.touch();
                Ok(entry)
            }
            None => {
                let hint = if self.snapshot_path(id).is_some_and(|p| p.exists()) {
                    " (evicted; POST /sessions/{id}/restore to reload it)"
                } else {
                    ""
                };
                Err(ServerError::NotFound(format!(
                    "unknown session {id:?}{hint}"
                )))
            }
        }
    }

    /// Looks a session up *without* refreshing its LRU clock — for
    /// observers (access logging, trace reads) that must not keep an
    /// otherwise-idle session alive.
    #[must_use]
    pub fn peek(&self, id: &str) -> Option<Arc<SessionEntry>> {
        self.sessions_read().get(id).cloned()
    }

    /// Removes a session without persisting it.
    ///
    /// # Errors
    ///
    /// [`ServerError::NotFound`] for an unknown id.
    pub fn remove(&self, id: &str) -> Result<(), ServerError> {
        self.sessions_write()
            .remove(id)
            .map(|_| self.logger.info("session_removed", &[("session", s(id))]))
            .ok_or_else(|| ServerError::NotFound(format!("unknown session {id:?}")))
    }

    /// Evicts every session idle longer than the TTL, persisting each.
    /// Returns the evicted ids. Called opportunistically by `/healthz`.
    ///
    /// # Errors
    ///
    /// Persistence errors (the sessions are already out of the map).
    pub fn sweep_expired(&self) -> Result<Vec<String>, ServerError> {
        let expired: Vec<Arc<SessionEntry>> = {
            let mut sessions = self.sessions_write();
            let victims: Vec<String> = sessions
                .values()
                .filter(|e| e.idle() > self.ttl)
                .map(|e| e.id.clone())
                .collect();
            victims
                .iter()
                .filter_map(|id| sessions.remove(id))
                .collect()
        };
        let mut ids = Vec::with_capacity(expired.len());
        for entry in &expired {
            Counters::bump(&self.counters.sessions_evicted);
            self.logger.info(
                "session_evicted",
                &[("session", s(&entry.id)), ("reason", s("ttl"))],
            );
            self.persist(entry)?;
            ids.push(entry.id.clone());
        }
        ids.sort();
        Ok(ids)
    }

    /// Folds a just-appended dataset into every live session built over it:
    /// each session either merges the appended tail into its retained fused
    /// aggregates (a tail-only scan) or re-materializes its view space on
    /// the grown table, then re-fits its estimators on the exact features —
    /// collected labels survive. Returns `(session_id, merged)` per updated
    /// session, sorted by id.
    ///
    /// A session whose absorption fails is logged and left on its previous
    /// table — the old `Arc<Table>` is still intact, so the session stays
    /// self-consistent, just behind the appended data.
    pub fn absorb_append(&self, dataset: &DatasetEntry) -> Vec<(String, bool)> {
        // Clone matching entries out so no session lock is taken while the
        // registry lock is held (vslint rule lock-order).
        let entries: Vec<Arc<SessionEntry>> = self
            .sessions_read()
            .values()
            .filter(|e| e.dataset_name == dataset.name)
            .cloned()
            .collect();
        let mut updated = Vec::new();
        for entry in entries {
            let result = entry.seeker_lock().and_then(|mut seeker| {
                Ok(seeker
                    .absorb_append(Arc::clone(&dataset.table), Some(Arc::clone(&dataset.zones)))?)
            });
            match result {
                Ok(report) => {
                    Counters::add(&self.counters.rowgroups_scanned, report.rowgroups_scanned);
                    Counters::add(&self.counters.rowgroups_pruned, report.rowgroups_pruned);
                    entry.set_dataset_checksum(dataset.checksum.clone());
                    self.logger.info(
                        "session_absorbed_append",
                        &[
                            ("session", s(&entry.id)),
                            ("dataset", s(&dataset.name)),
                            ("appended_rows", n(report.appended_rows)),
                            ("mode", s(if report.merged { "merged" } else { "rebuilt" })),
                            ("rows_scanned", n(report.rows_scanned)),
                        ],
                    );
                    updated.push((entry.id.clone(), report.merged));
                }
                Err(e) => {
                    self.logger.warn(
                        "session_absorb_append_failed",
                        &[
                            ("session", s(&entry.id)),
                            ("dataset", s(&dataset.name)),
                            ("error", s(e.message())),
                        ],
                    );
                }
            }
        }
        updated.sort();
        updated
    }

    /// Snapshots `entry` to the snapshot directory (no-op without one).
    ///
    /// # Errors
    ///
    /// Serialization or filesystem errors.
    pub fn persist(&self, entry: &SessionEntry) -> Result<(), ServerError> {
        let result = self.persist_inner(entry);
        match &result {
            Ok(true) => {
                Counters::bump(&self.counters.snapshots_ok);
                self.logger
                    .info("session_snapshot", &[("session", s(&entry.id))]);
            }
            Ok(false) => {} // no snapshot directory configured: a no-op
            Err(e) => {
                Counters::bump(&self.counters.snapshots_failed);
                self.logger.error(
                    "session_snapshot_failed",
                    &[("session", s(&entry.id)), ("error", s(e.message()))],
                );
            }
        }
        result.map(|_| ())
    }

    /// Returns whether a snapshot was actually written (`false` when no
    /// snapshot directory is configured).
    fn persist_inner(&self, entry: &SessionEntry) -> Result<bool, ServerError> {
        let Some(path) = self.snapshot_path(&entry.id) else {
            return Ok(false);
        };
        let seeker = entry.seeker_lock()?;
        let persisted = PersistedSession {
            id: entry.id.clone(),
            spec: entry.spec.clone(),
            snapshot: SessionSnapshot::from_seeker(&seeker),
            dataset_name: Some(entry.dataset_name.clone()),
            dataset_checksum: Some(entry.dataset_checksum()),
        };
        drop(seeker);
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let json = serde_json::to_string_pretty(&persisted)
            .map_err(|e| ServerError::Internal(format!("snapshot serialization: {e}")))?;
        std::fs::write(&path, json)?;
        Ok(true)
    }

    fn snapshot_path(&self, id: &str) -> Option<PathBuf> {
        // Ids are registry-generated (`s<n>`), but sanitize anyway since
        // restore takes the id from the URL.
        let safe: String = id
            .chars()
            .filter(|c| c.is_ascii_alphanumeric() || *c == '-' || *c == '_')
            .collect();
        self.snapshot_dir
            .as_ref()
            .map(|d| d.join(format!("{safe}.json")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SessionSpec {
        SessionSpec {
            rows: Some(800),
            seed: Some(5),
            query: Some("a0 = 'a0_v0'".into()),
            ..SessionSpec::named("diab")
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vs-registry-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn create_get_remove() {
        let registry = SessionRegistry::new(4, Duration::from_secs(60), None);
        let entry = registry.create(spec()).unwrap();
        assert_eq!(registry.len(), 1);
        let again = registry.get(&entry.id).unwrap();
        assert_eq!(again.id, entry.id);
        assert!(registry.get("nope").is_err());
        registry.remove(&entry.id).unwrap();
        assert!(registry.is_empty());
    }

    #[test]
    fn requested_id_is_honored() {
        let registry = SessionRegistry::new(4, Duration::from_secs(60), None);
        let entry = registry
            .create(SessionSpec {
                id: Some("shard-1_s42".into()),
                ..spec()
            })
            .unwrap();
        assert_eq!(entry.id, "shard-1_s42");
        assert_eq!(registry.get("shard-1_s42").unwrap().id, entry.id);
        // The id is lifted out of the stored spec.
        assert_eq!(entry.spec.id, None);
        // Minting continues independently for specs without an id.
        let minted = registry.create(spec()).unwrap();
        assert!(minted.id.starts_with('s'), "{}", minted.id);
    }

    #[test]
    fn duplicate_requested_id_is_a_conflict() {
        let registry = SessionRegistry::new(4, Duration::from_secs(60), None);
        let forced = SessionSpec {
            id: Some("dup".into()),
            ..spec()
        };
        registry.create(forced.clone()).unwrap();
        match registry.create(forced).map(|entry| entry.id.clone()) {
            Err(ServerError::Conflict(msg)) => assert!(msg.contains("dup"), "{msg}"),
            other => panic!("expected Conflict, got {other:?}"),
        }
    }

    #[test]
    fn bad_requested_ids_are_rejected() {
        let registry = SessionRegistry::new(4, Duration::from_secs(60), None);
        for bad in ["", "has space", "slash/y", "dot.y", &"x".repeat(65)] {
            let result = registry
                .create(SessionSpec {
                    id: Some((*bad).to_owned()),
                    ..spec()
                })
                .map(|entry| entry.id.clone());
            match result {
                Err(ServerError::BadRequest(_)) => {}
                other => panic!("id {bad:?}: expected BadRequest, got {other:?}"),
            }
        }
        assert!(registry.is_empty());
    }

    #[test]
    fn spec_json_without_id_parses_to_none() {
        let parsed: SessionSpec =
            serde_json::from_str(r#"{"dataset":"diab","rows":800,"seed":5,"query":null,"alpha":null,"exclude":null,"bins":null,"executor":null}"#)
                .unwrap();
        assert_eq!(parsed.id, None);
    }

    #[test]
    fn eviction_snapshots_and_restore_reproduces_weights() {
        let dir = tmp_dir("evict");
        let registry = SessionRegistry::new(1, Duration::from_secs(600), Some(dir.clone()));

        // The body names an executor, as clients of earlier releases did:
        // the key is unknown now and ignored like any other.
        let body =
            r#"{"dataset":"diab","rows":800,"seed":5,"query":"a0 = 'a0_v0'","executor":"shared"}"#;
        let from_body: SessionSpec = serde_json::from_str(body).unwrap();
        assert_eq!(from_body, spec());
        let first = registry.create(from_body).unwrap();
        let first_id = first.id.clone();
        let weights_before = {
            let mut seeker = first.seeker.lock().unwrap();
            for score in [0.9, 0.1, 0.6] {
                let v = seeker.next_views(1).unwrap()[0];
                seeker.submit_feedback(v, score).unwrap();
            }
            seeker.learned_weights().unwrap().to_vec()
        };
        drop(first);

        // Cap is 1: creating a second session evicts the first to disk.
        let second = registry.create(spec()).unwrap();
        assert_ne!(second.id, first_id);
        assert_eq!(registry.len(), 1);
        assert!(registry.get(&first_id).is_err());

        // Likewise a snapshot written by a release that pinned the executor
        // into the stored spec.
        let path = dir.join(format!("{first_id}.json"));
        let stored = std::fs::read_to_string(&path).unwrap();
        let pinned = stored.replacen("\"dataset\":", "\"executor\": \"shared\", \"dataset\":", 1);
        assert_ne!(pinned, stored);
        std::fs::write(&path, pinned).unwrap();

        let restored = registry.restore_from_disk(&first_id).unwrap();
        assert_eq!(restored.id, first_id);
        let seeker = restored.seeker.lock().unwrap();
        assert_eq!(seeker.label_count(), 3);
        let weights_after = seeker.learned_weights().unwrap();
        assert_eq!(weights_before.len(), weights_after.len());
        for (a, b) in weights_before.iter().zip(weights_after) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} != {b}");
        }
        drop(seeker);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ttl_sweep_evicts_idle_sessions() {
        let dir = tmp_dir("ttl");
        let registry = SessionRegistry::new(8, Duration::ZERO, Some(dir.clone()));
        let entry = registry.create(spec()).unwrap();
        let id = entry.id.clone();
        drop(entry);
        std::thread::sleep(Duration::from_millis(5));
        let evicted = registry.sweep_expired().unwrap();
        assert_eq!(evicted, vec![id.clone()]);
        assert!(registry.is_empty());
        // And it left a loadable snapshot behind.
        registry.restore_from_disk(&id).unwrap();
        assert_eq!(registry.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_specs_are_rejected() {
        let registry = SessionRegistry::new(2, Duration::from_secs(60), None);
        assert!(registry.create(SessionSpec::named("nope")).is_err());
        let bad_query = SessionSpec {
            query: Some("NOT ( VALID".into()),
            ..spec()
        };
        assert!(registry.create(bad_query).is_err());
        // rows/seed are generator knobs; naming a stored dataset with them
        // set is a contradiction, not something to silently ignore.
        let rows_on_stored = SessionSpec {
            rows: Some(100),
            ..SessionSpec::named("uploaded")
        };
        assert!(registry.create(rows_on_stored).is_err());
    }

    #[test]
    fn session_builds_feed_the_materialization_counters() {
        let registry = SessionRegistry::new(8, Duration::from_secs(60), None);
        registry.create(spec()).unwrap();
        assert!(Counters::read(&registry.counters.materialize_scans) >= 1);
        assert!(Counters::read(&registry.counters.materialize_rows) >= 800);
    }

    #[test]
    fn restore_shares_the_catalog_zone_maps_like_create() {
        let registry = SessionRegistry::new(4, Duration::from_secs(60), None);
        let dataset = spec().resolve_dataset(registry.catalog()).unwrap();
        let holders = || Arc::strong_count(&dataset.zones);
        let idle = holders();

        let entry = registry.create(spec()).unwrap();
        assert_eq!(holders(), idle + 1, "create borrows the catalog's zones");
        let persisted = PersistedSession {
            id: entry.id.clone(),
            spec: entry.spec.clone(),
            snapshot: SessionSnapshot::from_seeker(&entry.seeker.lock().unwrap()),
            dataset_name: Some(entry.dataset_name.clone()),
            dataset_checksum: Some(entry.dataset_checksum()),
        };
        registry.remove(&entry.id).unwrap();
        drop(entry);
        assert_eq!(holders(), idle);

        // A restore that built its own zone maps would leave the count
        // unchanged (and pay a `ZoneMaps::build` over the whole table).
        let restored = registry.restore(&persisted).unwrap();
        assert_eq!(holders(), idle + 1, "restore must not rebuild zone maps");
        let seeker = restored.seeker.lock().unwrap();
        assert!(Arc::ptr_eq(seeker.table_handle(), &dataset.table));
    }

    #[test]
    fn concurrent_sessions_with_one_spec_share_one_table_arc() {
        let registry = Arc::new(SessionRegistry::new(8, Duration::from_secs(60), None));
        let entries: Vec<_> = (0..4)
            .map(|_| {
                let registry = Arc::clone(&registry);
                std::thread::spawn(move || registry.create(spec()).unwrap())
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect();
        let first = entries[0].seeker.lock().unwrap().table_handle().clone();
        for entry in &entries[1..] {
            let seeker = entry.seeker.lock().unwrap();
            assert!(
                Arc::ptr_eq(&first, seeker.table_handle()),
                "sessions regenerated private tables instead of sharing the catalog's"
            );
        }
        // One materialization; the other three creates were cache hits.
        let stats = registry.catalog().stats();
        assert_eq!(stats.known_datasets, 1);
        assert!(stats.hits >= 3, "{stats:?}");
    }

    #[test]
    fn sessions_resolve_uploaded_catalog_datasets() {
        let registry = SessionRegistry::new(4, Duration::from_secs(60), None);
        let csv = b"city,n_age,m_sales\nNY,30,1.0\nLA,40,2.0\nNY,50,3.0\nSF,35,4.0\n";
        registry.catalog().import_csv_bytes("sales", csv).unwrap();
        let entry = registry.create(SessionSpec::named("sales")).unwrap();
        assert_eq!(entry.dataset_name, "sales");
        let seeker = entry.seeker.lock().unwrap();
        assert!(!seeker.view_space().is_empty());
        let shared = Arc::ptr_eq(
            seeker.table_handle(),
            &registry.catalog().get("sales").unwrap().table,
        );
        assert!(shared);
    }

    #[test]
    fn restore_refuses_a_checksum_mismatch() {
        let registry = SessionRegistry::new(4, Duration::from_secs(60), None);
        let entry = registry.create(spec()).unwrap();
        let snapshot = {
            let seeker = entry.seeker.lock().unwrap();
            SessionSnapshot::from_seeker(&seeker)
        };
        let persisted = PersistedSession {
            id: "ghost".into(),
            spec: spec(),
            snapshot,
            dataset_name: Some(entry.dataset_name.clone()),
            dataset_checksum: Some("00000000deadbeef".into()),
        };
        let err = registry.restore(&persisted).err().expect("must refuse");
        assert!(matches!(err, ServerError::Conflict(_)), "{err:?}");
        // With the true digest (or a pre-catalog snapshot without one) the
        // same restore succeeds.
        let ok = PersistedSession {
            id: "ghost".into(),
            dataset_checksum: Some(entry.dataset_checksum()),
            ..persisted.clone()
        };
        registry.restore(&ok).unwrap();
        registry.remove("ghost").unwrap();
        let legacy = PersistedSession {
            id: "ghost".into(),
            dataset_name: None,
            dataset_checksum: None,
            ..persisted
        };
        registry.restore(&legacy).unwrap();
    }

    #[test]
    fn legacy_snapshot_json_without_dataset_fields_still_parses() {
        // Snapshots written before the catalog have no dataset_name /
        // dataset_checksum keys; they must deserialize to None, not fail.
        let registry = SessionRegistry::new(4, Duration::from_secs(60), None);
        let entry = registry.create(spec()).unwrap();
        let snapshot = {
            let seeker = entry.seeker.lock().unwrap();
            SessionSnapshot::from_seeker(&seeker)
        };
        let mut value = serde_json::to_value(&PersistedSession {
            id: "old".into(),
            spec: spec(),
            snapshot,
            dataset_name: None,
            dataset_checksum: None,
        });
        if let serde_json::Value::Object(fields) = &mut value {
            fields.retain(|(k, _)| k != "dataset_name" && k != "dataset_checksum");
        }
        let json = serde_json::render_compact(&value);
        let parsed: PersistedSession = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed.dataset_name, None);
        assert_eq!(parsed.dataset_checksum, None);
        registry.restore(&parsed).unwrap();
    }
}
