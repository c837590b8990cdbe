//! Persistent dataset catalog for ViewSeeker.
//!
//! Every layer of the system resolves tables through a [`Catalog`] rather
//! than generating or parsing its own copy. The catalog combines:
//!
//! * **the VSC2 on-disk format** ([`vsc2`]) — compressed, zone-mapped row
//!   groups with per-chunk digests, zero-copy mmap cold starts ([`map`]),
//!   and an append-only growth path. It is the only stored format: a
//!   dataset directory either loads bit-identical to the table that was
//!   saved or is a typed [`CatalogError`];
//! * **content digests** ([`digest`]) — the table checksum every manifest
//!   and session snapshot persists;
//! * **ingestion** — [`Catalog::import_csv_bytes`] infers a schema by the
//!   `m_`/`n_` naming convention and parses the rows, while
//!   [`Catalog::materialize_generated`] runs the `diab`/`syn` generators
//!   once and persists the result; [`Catalog::append_rows`] grows an
//!   existing dataset in place, atomically;
//! * **a concurrent in-memory cache** — lookups hand out shared
//!   `Arc<Table>`s, so N sessions over one dataset hold one table. A byte
//!   budget bounds residency with LRU eviction; tables are charged at what
//!   they actually cost (owned heap bytes plus mapped file bytes — a
//!   zero-copy column's pages are charged at mapped size, not at the
//!   decoded-size estimate); hit/miss/eviction/bytes accounting feeds the
//!   Prometheus exposition.
//!
//! A catalog is either *persistent* ([`Catalog::open`] on a data
//! directory — every dataset is spilled to disk and can be evicted and
//! reloaded) or *in-memory* ([`Catalog::in_memory`] — datasets are pinned,
//! since eviction would destroy them).
//!
//! Consistency notes: one internal mutex serializes metadata operations and
//! disk loads. Loads are a few milliseconds (VSC2 cold starts are mmap
//! page-ins, not decodes), and serializing them is what guarantees two
//! concurrent `get`s of the same name return the *same* allocation rather
//! than racing to load twice.
//!
//! `unsafe` is confined to the [`map`] module (the mmap syscall surface);
//! the rest of the crate denies it, and the workspace lint enforces the
//! boundary statically.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod digest;
pub mod map;
pub mod vsc2;

mod cache;

use std::io::Cursor;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};

use serde::{Deserialize, Serialize};
use viewseeker_dataset::generate::{generate_diab, generate_syn, DiabConfig, SynConfig};
use viewseeker_dataset::schema::{AttributeRole, ColumnType};
use viewseeker_dataset::{DatasetError, Schema, Table, ZoneMaps};

use cache::LruCache;
use digest::{hex, table_checksum};

/// Errors produced by the catalog.
#[derive(Debug)]
pub enum CatalogError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// On-disk data failed validation (bad digest, truncation, bad JSON).
    Corrupt(String),
    /// No dataset with the given name.
    NotFound(String),
    /// A dataset with the given name already exists.
    Exists(String),
    /// The dataset name is empty, too long, or contains invalid characters.
    InvalidName(String),
    /// The name is reserved for generator-materialized datasets.
    Reserved(String),
    /// The dataset is still referenced by live sessions.
    InUse {
        /// Dataset name.
        name: String,
        /// Number of outside references keeping it alive.
        refs: usize,
    },
    /// CSV parsing or table construction failed.
    Dataset(String),
}

impl std::fmt::Display for CatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatalogError::Io(e) => write!(f, "io error: {e}"),
            CatalogError::Corrupt(msg) => write!(f, "corrupt dataset: {msg}"),
            CatalogError::NotFound(name) => write!(f, "dataset not found: {name}"),
            CatalogError::Exists(name) => write!(f, "dataset already exists: {name}"),
            CatalogError::InvalidName(name) => write!(
                f,
                "invalid dataset name {name:?} (use 1-64 of [A-Za-z0-9_-])"
            ),
            CatalogError::Reserved(name) => write!(
                f,
                "dataset name {name:?} is reserved for generated datasets"
            ),
            CatalogError::InUse { name, refs } => {
                write!(f, "dataset {name} is in use by {refs} reference(s)")
            }
            CatalogError::Dataset(msg) => write!(f, "dataset error: {msg}"),
        }
    }
}

impl std::error::Error for CatalogError {}

impl From<std::io::Error> for CatalogError {
    fn from(e: std::io::Error) -> Self {
        CatalogError::Io(e)
    }
}

impl From<DatasetError> for CatalogError {
    fn from(e: DatasetError) -> Self {
        CatalogError::Dataset(e.to_string())
    }
}

/// A resolved dataset: the shared table plus identifying metadata.
#[derive(Debug, Clone)]
pub struct DatasetEntry {
    /// Catalog name the table was resolved under.
    pub name: String,
    /// The shared table; clones of this handle are pointer-equal.
    pub table: Arc<Table>,
    /// Content digest ([`digest::table_checksum`]) as lowercase hex.
    pub checksum: String,
    /// Row-group zone maps for the table (from the VSC2 manifest when
    /// loaded from disk, built in-memory otherwise) — what the executor
    /// uses to skip row groups a predicate provably excludes.
    pub zones: Arc<ZoneMaps>,
}

/// The result of appending rows to a dataset.
#[derive(Debug, Clone)]
pub struct AppendOutcome {
    /// The dataset after the append (merged table, fresh zones/checksum).
    pub entry: DatasetEntry,
    /// Rows added by this append.
    pub appended: u64,
    /// Total rows after the append.
    pub total_rows: u64,
}

/// Schema of one column, as reported by listings.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ColumnSchema {
    /// Column name.
    pub name: String,
    /// `"categorical"` or `"numeric"`.
    pub kind: String,
    /// `"dimension"` or `"measure"`.
    pub role: String,
}

/// One dataset in a catalog listing.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DatasetSummary {
    /// Dataset name.
    pub name: String,
    /// Row count.
    pub rows: u64,
    /// Stored bytes: on-disk payload bytes when persisted, resident
    /// estimate for memory-only datasets.
    pub bytes: u64,
    /// Content digest, lowercase hex.
    pub checksum: String,
    /// Whether the table is currently resident in the cache.
    pub resident: bool,
    /// Per-column schema.
    pub columns: Vec<ColumnSchema>,
}

/// Full description of one dataset, including per-column cardinality.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DatasetDetail {
    /// Dataset name.
    pub name: String,
    /// Row count.
    pub rows: u64,
    /// What the table costs while resident: owned heap bytes plus mapped
    /// file bytes.
    pub resident_bytes: u64,
    /// Content digest, lowercase hex.
    pub checksum: String,
    /// Per-column schema and cardinality.
    pub columns: Vec<ColumnDetail>,
}

/// Schema plus cardinality of one column.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ColumnDetail {
    /// Column name.
    pub name: String,
    /// `"categorical"` or `"numeric"`.
    pub kind: String,
    /// `"dimension"` or `"measure"`.
    pub role: String,
    /// Distinct-value count.
    pub cardinality: u64,
}

/// A point-in-time snapshot of the catalog's accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CatalogStats {
    /// Lookups served from memory (cache or a live session's handle).
    pub hits: u64,
    /// Lookups that had to load from disk.
    pub misses: u64,
    /// Tables evicted under byte-budget pressure.
    pub evictions: u64,
    /// Bytes of tables currently resident (owned heap + mapped files).
    pub resident_bytes: u64,
    /// Number of tables currently resident.
    pub cached_datasets: u64,
    /// Number of datasets the catalog knows about (resident or not).
    pub known_datasets: u64,
    /// Rows appended via [`Catalog::append_rows`] since startup.
    pub append_rows: u64,
}

struct MetaEntry {
    rows: u64,
    bytes: u64,
    checksum: String,
    columns: Vec<ColumnSchema>,
}

/// Live-table side data: zone maps and the cache charge the table was
/// admitted with (so a re-share after eviction charges the same bytes).
struct Shape {
    zones: Arc<ZoneMaps>,
    charge: u64,
}

struct Inner {
    cache: LruCache,
    /// Weak handles to every table ever handed out; lets `get` re-share an
    /// evicted table a session still holds, and lets `delete` count live
    /// outside references.
    handles: std::collections::HashMap<String, Weak<Table>>,
    shapes: std::collections::HashMap<String, Shape>,
    meta: std::collections::BTreeMap<String, MetaEntry>,
}

/// A persistent, concurrent dataset store handing out shared `Arc<Table>`s.
pub struct Catalog {
    dir: Option<PathBuf>,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    append_rows: AtomicU64,
}

fn column_schemas(schema: &Schema) -> Vec<ColumnSchema> {
    schema
        .columns()
        .iter()
        .map(|m| ColumnSchema {
            name: m.name.clone(),
            kind: kind_str(m.column_type).to_owned(),
            role: role_str(m.role).to_owned(),
        })
        .collect()
}

fn kind_str(t: ColumnType) -> &'static str {
    match t {
        ColumnType::Categorical => "categorical",
        ColumnType::Numeric => "numeric",
    }
}

fn role_str(r: AttributeRole) -> &'static str {
    match r {
        AttributeRole::Dimension => "dimension",
        AttributeRole::Measure => "measure",
    }
}

/// Heap bytes actually owned by a table's columns (zero for mapped numeric
/// storage — those bytes are charged at mapped size by the loader).
fn table_owned_bytes(table: &Table) -> u64 {
    (0..table.schema().len())
        .map(|i| table.column(i).owned_bytes() as u64)
        .sum()
}

/// Validates a user-supplied dataset name: 1-64 characters drawn from
/// `[A-Za-z0-9_-]`. Keeps names safe as directory components.
///
/// # Errors
///
/// [`CatalogError::InvalidName`] otherwise.
pub fn validate_name(name: &str) -> Result<(), CatalogError> {
    let ok = !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-');
    if ok {
        Ok(())
    } else {
        Err(CatalogError::InvalidName(name.to_owned()))
    }
}

fn is_reserved(name: &str) -> bool {
    name == "diab" || name == "syn" || name.starts_with("gen-")
}

impl Catalog {
    /// An in-memory catalog: no persistence, every dataset pinned in cache.
    /// `mem_budget` still bounds what *evictable* tables may occupy, but
    /// memory-only datasets are never evicted (eviction would destroy them),
    /// so residency can exceed the budget.
    #[must_use]
    pub fn in_memory(mem_budget: u64) -> Self {
        Self {
            dir: None,
            inner: Mutex::new(Inner {
                cache: LruCache::new(mem_budget),
                handles: std::collections::HashMap::new(),
                shapes: std::collections::HashMap::new(),
                meta: std::collections::BTreeMap::new(),
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            append_rows: AtomicU64::new(0),
        }
    }

    /// Opens (creating if needed) a persistent catalog rooted at `dir`.
    /// Existing dataset directories are indexed by reading their manifests
    /// (once each); directories without a valid VSC2 manifest are ignored (a
    /// crashed save leaves exactly that, and so does any other format tag).
    ///
    /// # Errors
    ///
    /// [`CatalogError::Io`] when the directory cannot be created or read.
    pub fn open(dir: impl Into<PathBuf>, mem_budget: u64) -> Result<Self, CatalogError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut meta = std::collections::BTreeMap::new();
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            if !path.is_dir() {
                continue;
            }
            let name = match entry.file_name().into_string() {
                Ok(n) => n,
                Err(_) => continue,
            };
            let Some(indexed) = index_dataset_dir(&path) else {
                continue;
            };
            meta.insert(name, indexed);
        }
        Ok(Self {
            dir: Some(dir),
            inner: Mutex::new(Inner {
                cache: LruCache::new(mem_budget),
                handles: std::collections::HashMap::new(),
                shapes: std::collections::HashMap::new(),
                meta,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            append_rows: AtomicU64::new(0),
        })
    }

    /// The data directory, if this catalog is persistent.
    #[must_use]
    pub fn data_dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    fn dataset_dir(&self, name: &str) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| d.join(name))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A poisoned lock means another thread panicked mid-operation; the
        // catalog's state is still structurally valid (every mutation is a
        // single map/cache call), so keep serving.
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Registers `table` under `name`, persisting it as VSC2 when the
    /// catalog has a data directory, and caches it.
    ///
    /// # Errors
    ///
    /// [`CatalogError::InvalidName`] / [`CatalogError::Reserved`] for bad
    /// names, [`CatalogError::Exists`] for duplicates, [`CatalogError::Io`]
    /// on persistence failure.
    pub fn put(&self, name: &str, table: Table) -> Result<DatasetEntry, CatalogError> {
        validate_name(name)?;
        if is_reserved(name) {
            return Err(CatalogError::Reserved(name.to_owned()));
        }
        let mut inner = self.lock();
        if inner.meta.contains_key(name) {
            return Err(CatalogError::Exists(name.to_owned()));
        }
        self.store(&mut inner, name, table)
    }

    /// Parses `bytes` as CSV (schema inferred by the `m_`/`n_` header
    /// convention) and registers the result under `name`.
    ///
    /// # Errors
    ///
    /// [`CatalogError::Dataset`] for malformed CSV, plus everything
    /// [`Catalog::put`] returns.
    pub fn import_csv_bytes(&self, name: &str, bytes: &[u8]) -> Result<DatasetEntry, CatalogError> {
        let schema = viewseeker_dataset::csv::infer_schema(Cursor::new(bytes))?;
        let table = viewseeker_dataset::csv::read_csv(&schema, Cursor::new(bytes))?;
        if table.row_count() == 0 {
            return Err(CatalogError::Dataset("csv has a header but no rows".into()));
        }
        self.put(name, table)
    }

    /// Stores `table` under `name` (name already validated, duplicate policy
    /// already applied) with the lock held.
    fn store(
        &self,
        inner: &mut Inner,
        name: &str,
        table: Table,
    ) -> Result<DatasetEntry, CatalogError> {
        let checksum = hex(table_checksum(&table));
        let columns = column_schemas(table.schema());
        let rows = table.row_count() as u64;
        let (bytes, zones) = match self.dataset_dir(name) {
            Some(dir) => {
                let manifest = vsc2::save(&dir, &table, 0)?;
                let zones = manifest.zone_maps()?;
                (manifest.data_bytes(), zones)
            }
            None => (table_owned_bytes(&table), ZoneMaps::build(&table, 0)),
        };
        let charge = table_owned_bytes(&table);
        self.admit(
            inner,
            name,
            Arc::new(table),
            Arc::new(zones),
            charge,
            MetaEntry {
                rows,
                bytes,
                checksum: checksum.clone(),
                columns,
            },
        )
    }

    /// Inserts a resolved table into the cache, handle, shape, and meta
    /// maps, returning its entry. The single place residency is admitted;
    /// a table is evictable exactly when the catalog has a data directory
    /// to reload it from.
    fn admit(
        &self,
        inner: &mut Inner,
        name: &str,
        table: Arc<Table>,
        zones: Arc<ZoneMaps>,
        charge: u64,
        meta: MetaEntry,
    ) -> Result<DatasetEntry, CatalogError> {
        let checksum = meta.checksum.clone();
        let evicted = inner
            .cache
            .insert(name, Arc::clone(&table), charge, self.dir.is_some());
        self.evictions
            .fetch_add(evicted.len() as u64, Ordering::Relaxed);
        inner
            .handles
            .insert(name.to_owned(), Arc::downgrade(&table));
        inner.shapes.insert(
            name.to_owned(),
            Shape {
                zones: Arc::clone(&zones),
                charge,
            },
        );
        inner.meta.insert(name.to_owned(), meta);
        Ok(DatasetEntry {
            name: name.to_owned(),
            table,
            checksum,
            zones,
        })
    }

    /// Zone maps for `name`'s live `table`, from the shape map when
    /// present, rebuilt (and remembered) otherwise.
    fn zones_for(inner: &mut Inner, name: &str, table: &Table) -> Arc<ZoneMaps> {
        if let Some(shape) = inner.shapes.get(name) {
            if shape.zones.covers(table) {
                return Arc::clone(&shape.zones);
            }
        }
        let zones = Arc::new(ZoneMaps::build(table, 0));
        let charge = table_owned_bytes(table);
        inner.shapes.insert(
            name.to_owned(),
            Shape {
                zones: Arc::clone(&zones),
                charge,
            },
        );
        zones
    }

    /// Resolves `name` to its shared table: cache hit, a live handle some
    /// session still holds, or a VSC2 disk load — in that order. Two
    /// concurrent calls for the same name return pointer-equal `Arc`s.
    ///
    /// # Errors
    ///
    /// [`CatalogError::NotFound`] for unknown names, [`CatalogError::Io`] /
    /// [`CatalogError::Corrupt`] when the on-disk copy fails validation or
    /// its manifest carries a format tag other than [`vsc2::FORMAT`].
    pub fn get(&self, name: &str) -> Result<DatasetEntry, CatalogError> {
        let mut inner = self.lock();
        self.resolve(&mut inner, name)
    }

    fn resolve(&self, inner: &mut Inner, name: &str) -> Result<DatasetEntry, CatalogError> {
        if let Some(table) = inner.cache.get(name) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            let checksum = inner
                .meta
                .get(name)
                .map(|m| m.checksum.clone())
                .unwrap_or_else(|| hex(table_checksum(&table)));
            let zones = Self::zones_for(inner, name, &table);
            return Ok(DatasetEntry {
                name: name.to_owned(),
                table,
                checksum,
                zones,
            });
        }
        // Evicted but still alive in some session: re-share that allocation.
        if let Some(table) = inner.handles.get(name).and_then(Weak::upgrade) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            let zones = Self::zones_for(inner, name, &table);
            let charge = inner
                .shapes
                .get(name)
                .map_or_else(|| table_owned_bytes(&table), |s| s.charge);
            let evicted = inner
                .cache
                .insert(name, Arc::clone(&table), charge, self.dir.is_some());
            self.evictions
                .fetch_add(evicted.len() as u64, Ordering::Relaxed);
            let checksum = inner
                .meta
                .get(name)
                .map(|m| m.checksum.clone())
                .unwrap_or_else(|| hex(table_checksum(&table)));
            return Ok(DatasetEntry {
                name: name.to_owned(),
                table,
                checksum,
                zones,
            });
        }
        let Some(dir) = self.dataset_dir(name).filter(|d| vsc2::exists(d)) else {
            return Err(CatalogError::NotFound(name.to_owned()));
        };
        self.misses.fetch_add(1, Ordering::Relaxed);
        let loaded = vsc2::load(&dir)?;
        let charge = loaded.resident_bytes();
        let checksum = match inner.meta.get(name) {
            Some(m) => m.checksum.clone(),
            None => hex(table_checksum(&loaded.table)),
        };
        let meta = MetaEntry {
            rows: loaded.table.row_count() as u64,
            bytes: loaded.data_bytes,
            checksum,
            columns: column_schemas(loaded.table.schema()),
        };
        let table = Arc::new(loaded.table);
        self.admit(inner, name, table, Arc::new(loaded.zones), charge, meta)
    }

    /// Appends `chunk`'s rows to the existing dataset `name`.
    ///
    /// Persistent datasets grow in place via VSC2's append-only path (new
    /// row groups plus an atomic manifest swap, the manifest read once);
    /// memory-only datasets are merged in place. The merged table replaces
    /// the cached one — sessions holding the old `Arc` keep a consistent
    /// snapshot until they fold the appended rows in.
    ///
    /// # Errors
    ///
    /// [`CatalogError::NotFound`] for unknown names,
    /// [`CatalogError::Reserved`] for generated datasets (their contents
    /// are defined by their parameters), [`CatalogError::Dataset`] for
    /// schema mismatches or empty appends, [`CatalogError::Io`] /
    /// [`CatalogError::Corrupt`] on persistence failure.
    pub fn append_rows(&self, name: &str, chunk: Table) -> Result<AppendOutcome, CatalogError> {
        validate_name(name)?;
        if is_reserved(name) {
            return Err(CatalogError::Reserved(name.to_owned()));
        }
        if chunk.row_count() == 0 {
            return Err(CatalogError::Dataset("append carries no rows".into()));
        }
        let mut inner = self.lock();
        if !inner.meta.contains_key(name) {
            return Err(CatalogError::NotFound(name.to_owned()));
        }
        let current = self.resolve(&mut inner, name)?;
        let appended = chunk.row_count() as u64;
        let (table, zones, checksum, bytes) = match self.dataset_dir(name) {
            Some(dir) => {
                let manifest = vsc2::peek(&dir)?;
                let result = vsc2::append(&dir, &manifest, &current.table, &chunk)?;
                (
                    result.table,
                    result.zones,
                    result.manifest.table_checksum.clone(),
                    result.manifest.data_bytes(),
                )
            }
            None => {
                let merged = vsc2::merge_tables(&current.table, &chunk)?;
                let zones = ZoneMaps::build(&merged, 0);
                let checksum = hex(table_checksum(&merged));
                let bytes = table_owned_bytes(&merged);
                (merged, zones, checksum, bytes)
            }
        };
        let rows = table.row_count() as u64;
        let columns = column_schemas(table.schema());
        let charge = table_owned_bytes(&table);
        let entry = self.admit(
            &mut inner,
            name,
            Arc::new(table),
            Arc::new(zones),
            charge,
            MetaEntry {
                rows,
                bytes,
                checksum,
                columns,
            },
        )?;
        self.append_rows.fetch_add(appended, Ordering::Relaxed);
        Ok(AppendOutcome {
            entry,
            appended,
            total_rows: rows,
        })
    }

    /// Parses `bytes` as CSV against the dataset's existing schema (same
    /// header required) and appends the rows via [`Catalog::append_rows`].
    ///
    /// # Errors
    ///
    /// [`CatalogError::Dataset`] for malformed CSV or header mismatch,
    /// plus everything [`Catalog::append_rows`] returns.
    pub fn append_csv_bytes(
        &self,
        name: &str,
        bytes: &[u8],
    ) -> Result<AppendOutcome, CatalogError> {
        let schema = self.get(name)?.table.schema().clone();
        let chunk = viewseeker_dataset::csv::read_csv(&schema, Cursor::new(bytes))?;
        self.append_rows(name, chunk)
    }

    /// Runs the named generator (`"diab"` or `"syn"`) with the given
    /// parameters exactly once: the result is registered under the
    /// deterministic name `gen-<kind>-r<rows>-s<seed>` (and persisted when
    /// the catalog has a data directory), so later calls with the same
    /// parameters share the cached table.
    ///
    /// # Errors
    ///
    /// [`CatalogError::NotFound`] for unknown generator kinds;
    /// [`CatalogError::Dataset`] when generation fails.
    pub fn materialize_generated(
        &self,
        kind: &str,
        rows: usize,
        seed: u64,
    ) -> Result<DatasetEntry, CatalogError> {
        if kind != "diab" && kind != "syn" {
            return Err(CatalogError::NotFound(kind.to_owned()));
        }
        let name = format!("gen-{kind}-r{rows}-s{seed}");
        match self.get(&name) {
            Err(CatalogError::NotFound(_)) => {}
            other => return other,
        }
        // Hold the lock across generation so a concurrent materialization of
        // the same parameters waits and then hits the cache instead of
        // racing to a second allocation.
        let mut inner = self.lock();
        if let Some(table) = inner.cache.get(&name) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            let checksum = inner
                .meta
                .get(&name)
                .map(|m| m.checksum.clone())
                .unwrap_or_default();
            let zones = Self::zones_for(&mut inner, &name, &table);
            return Ok(DatasetEntry {
                name,
                table,
                checksum,
                zones,
            });
        }
        let table = match kind {
            "diab" => generate_diab(&DiabConfig::small(rows, seed))?,
            _ => generate_syn(&SynConfig::small(rows, seed))?,
        };
        self.store(&mut inner, &name, table)
    }

    /// Lists every known dataset, sorted by name.
    #[must_use]
    pub fn list(&self) -> Vec<DatasetSummary> {
        let inner = self.lock();
        inner
            .meta
            .iter()
            .map(|(name, m)| DatasetSummary {
                name: name.clone(),
                rows: m.rows,
                bytes: m.bytes,
                checksum: m.checksum.clone(),
                resident: inner.cache.contains(name),
                columns: m.columns.clone(),
            })
            .collect()
    }

    /// Describes one dataset, including per-column cardinality (computed
    /// from the resident table, loading it if necessary).
    ///
    /// # Errors
    ///
    /// Everything [`Catalog::get`] returns.
    pub fn describe(&self, name: &str) -> Result<DatasetDetail, CatalogError> {
        let entry = self.get(name)?;
        let table = &entry.table;
        let resident_bytes = {
            let inner = self.lock();
            inner
                .shapes
                .get(name)
                .map_or_else(|| table_owned_bytes(table), |s| s.charge)
        };
        let columns = table
            .schema()
            .columns()
            .iter()
            .enumerate()
            .map(|(i, m)| ColumnDetail {
                name: m.name.clone(),
                kind: kind_str(m.column_type).to_owned(),
                role: role_str(m.role).to_owned(),
                cardinality: table.column(i).cardinality() as u64,
            })
            .collect();
        Ok(DatasetDetail {
            name: entry.name,
            rows: table.row_count() as u64,
            resident_bytes,
            checksum: entry.checksum,
            columns,
        })
    }

    /// Deletes a dataset from the cache and (for persistent catalogs) from
    /// disk, unless live references outside the catalog still hold it.
    ///
    /// # Errors
    ///
    /// [`CatalogError::NotFound`] for unknown names, [`CatalogError::InUse`]
    /// when sessions still reference the table, [`CatalogError::Io`] when
    /// the on-disk copy cannot be removed.
    pub fn delete(&self, name: &str) -> Result<(), CatalogError> {
        let mut inner = self.lock();
        if !inner.meta.contains_key(name) {
            return Err(CatalogError::NotFound(name.to_owned()));
        }
        if let Some(table) = inner.handles.get(name).and_then(Weak::upgrade) {
            // Count strong refs that are NOT ours: subtract this temporary
            // upgrade and the cache's copy (if resident).
            let cached = usize::from(inner.cache.contains(name));
            let outside = Arc::strong_count(&table).saturating_sub(1 + cached);
            if outside > 0 {
                return Err(CatalogError::InUse {
                    name: name.to_owned(),
                    refs: outside,
                });
            }
        }
        inner.cache.remove(name);
        inner.handles.remove(name);
        inner.shapes.remove(name);
        inner.meta.remove(name);
        if let Some(dir) = self.dataset_dir(name) {
            if dir.exists() {
                std::fs::remove_dir_all(&dir)?;
            }
        }
        Ok(())
    }

    /// A snapshot of the catalog's counters and gauges.
    #[must_use]
    pub fn stats(&self) -> CatalogStats {
        let inner = self.lock();
        CatalogStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident_bytes: inner.cache.resident_bytes(),
            cached_datasets: inner.cache.len() as u64,
            known_datasets: inner.meta.len() as u64,
            append_rows: self.append_rows.load(Ordering::Relaxed),
        }
    }
}

/// Indexes one on-disk dataset directory from a single read of its
/// manifest, or `None` when that manifest is unreadable (bad JSON, a format
/// tag other than [`vsc2::FORMAT`], an inconsistent shape).
fn index_dataset_dir(path: &Path) -> Option<MetaEntry> {
    let manifest = vsc2::peek(path).ok()?;
    let schema = manifest.schema().ok()?;
    Some(MetaEntry {
        rows: manifest.rows,
        bytes: manifest.data_bytes(),
        checksum: manifest.table_checksum.clone(),
        columns: column_schemas(&schema),
    })
}

impl std::fmt::Debug for Catalog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("Catalog")
            .field("dir", &self.dir)
            .field("stats", &stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use viewseeker_dataset::{Column, Schema};

    fn demo_table(rows: usize) -> Table {
        let values: Vec<String> = (0..rows).map(|i| format!("v{}", i % 5)).collect();
        let schema = Schema::builder()
            .categorical_dimension("city")
            .measure("m_sales")
            .build()
            .unwrap();
        Table::new(
            schema,
            vec![
                Column::categorical_from_values(&values),
                Column::numeric((0..rows).map(|i| i as f64).collect()),
            ],
        )
        .unwrap()
    }

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("catalog-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn put_get_shares_one_allocation() {
        let catalog = Catalog::in_memory(1 << 20);
        let entry = catalog.put("sales", demo_table(10)).unwrap();
        let a = catalog.get("sales").unwrap();
        let b = catalog.get("sales").unwrap();
        assert!(Arc::ptr_eq(&a.table, &b.table));
        assert!(Arc::ptr_eq(&a.table, &entry.table));
        assert_eq!(a.checksum, entry.checksum);
        assert!(a.zones.covers(&a.table));
        let stats = catalog.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 0);
    }

    #[test]
    fn duplicate_and_reserved_names_rejected() {
        let catalog = Catalog::in_memory(1 << 20);
        catalog.put("sales", demo_table(5)).unwrap();
        assert!(matches!(
            catalog.put("sales", demo_table(5)),
            Err(CatalogError::Exists(_))
        ));
        for name in ["diab", "syn", "gen-diab-r10-s1"] {
            assert!(matches!(
                catalog.put(name, demo_table(5)),
                Err(CatalogError::Reserved(_))
            ));
        }
        assert!(matches!(
            catalog.put("../evil", demo_table(5)),
            Err(CatalogError::InvalidName(_))
        ));
        assert!(matches!(
            catalog.put("", demo_table(5)),
            Err(CatalogError::InvalidName(_))
        ));
    }

    #[test]
    fn csv_import_round_trips() {
        let catalog = Catalog::in_memory(1 << 20);
        let csv = b"region,n_age,m_profit\nwest,30,1.5\neast,40,2.5\nwest,50,3.5\n";
        let entry = catalog.import_csv_bytes("regions", csv).unwrap();
        assert_eq!(entry.table.row_count(), 3);
        assert_eq!(
            entry.table.schema().dimension_names(),
            vec!["region", "n_age"]
        );
        let detail = catalog.describe("regions").unwrap();
        assert_eq!(detail.rows, 3);
        assert_eq!(detail.columns[0].cardinality, 2);
        assert_eq!(detail.columns[1].cardinality, 3);
        assert!(matches!(
            catalog.import_csv_bytes("empty", b"a,m_b\n"),
            Err(CatalogError::Dataset(_))
        ));
    }

    #[test]
    fn persistent_catalog_survives_reopen() {
        let dir = tmp("reopen");
        let checksum = {
            let catalog = Catalog::open(&dir, 1 << 20).unwrap();
            catalog.put("sales", demo_table(20)).unwrap().checksum
        };
        let catalog = Catalog::open(&dir, 1 << 20).unwrap();
        let listed = catalog.list();
        assert_eq!(listed.len(), 1);
        assert_eq!(listed[0].name, "sales");
        assert_eq!(listed[0].rows, 20);
        assert!(!listed[0].resident);
        let entry = catalog.get("sales").unwrap();
        assert_eq!(entry.checksum, checksum);
        assert_eq!(catalog.stats().misses, 1);
        assert!(catalog.list()[0].resident);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A directory in the format this repository wrote before VSC2, built by
    /// hand (nothing can write one any more): the old manifest shape plus a
    /// junk block file.
    fn write_vsc1_fixture(dir: &Path) {
        std::fs::create_dir_all(dir).unwrap();
        std::fs::write(
            dir.join(vsc2::MANIFEST),
            r#"{"format":"VSC1","rows":2,"table_checksum":"0000000000000000","columns":[
                {"name":"m_sales","kind":"numeric","role":"measure",
                 "block":"col_000.blk","bytes":4,"checksum":"0000000000000000"}]}"#,
        )
        .unwrap();
        std::fs::write(dir.join("col_000.blk"), b"junk").unwrap();
    }

    #[test]
    fn vsc1_directory_is_a_typed_error_never_a_table() {
        let dir = tmp("vsc1");
        write_vsc1_fixture(&dir.join("before"));
        let catalog = Catalog::open(&dir, 1 << 20).unwrap();
        // Present at open: skipped like any unreadable manifest.
        assert!(catalog.list().is_empty());
        // Dropped in afterwards: `get` finds the manifest and must refuse it.
        write_vsc1_fixture(&dir.join("after"));
        for name in ["before", "after"] {
            match catalog.get(name) {
                Err(CatalogError::Corrupt(msg)) => {
                    assert!(msg.contains("unsupported format \"VSC1\""), "{msg}");
                }
                other => panic!("expected Corrupt for {name}, got {other:?}"),
            }
        }
        assert!(catalog.list().is_empty());
        assert_eq!(catalog.stats().cached_datasets, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_and_reload_counts() {
        let dir = tmp("evict");
        // Budget fits roughly one of the two tables.
        let catalog = Catalog::open(&dir, 600).unwrap();
        catalog.put("a", demo_table(30)).unwrap();
        catalog.put("b", demo_table(30)).unwrap();
        let stats = catalog.stats();
        assert_eq!(stats.evictions, 1, "a evicted when b arrived");
        assert_eq!(stats.cached_datasets, 1);
        // Reloading "a" from disk is a miss and evicts "b".
        let a = catalog.get("a").unwrap();
        assert_eq!(a.table.row_count(), 30);
        let stats = catalog.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.evictions, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn evicted_but_live_table_is_reshared_not_reloaded() {
        let dir = tmp("reshare");
        let catalog = Catalog::open(&dir, 600).unwrap();
        let a = catalog.get_or_put("a");
        catalog.put("b", demo_table(30)).unwrap(); // evicts "a"
        assert_eq!(catalog.stats().evictions, 1);
        // "a" is evicted, but we still hold it: get must return the same
        // allocation, not a fresh disk load.
        let again = catalog.get("a").unwrap();
        assert!(Arc::ptr_eq(&a, &again.table));
        assert_eq!(catalog.stats().misses, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    impl Catalog {
        /// Test helper: put `name` if missing and return its table handle.
        fn get_or_put(&self, name: &str) -> Arc<Table> {
            match self.get(name) {
                Ok(e) => e.table,
                Err(_) => self.put(name, demo_table(30)).unwrap().table,
            }
        }
    }

    #[test]
    fn delete_guards_live_references() {
        let catalog = Catalog::in_memory(1 << 20);
        let entry = catalog.put("sales", demo_table(5)).unwrap();
        let held = Arc::clone(&entry.table);
        drop(entry);
        match catalog.delete("sales") {
            Err(CatalogError::InUse { refs, .. }) => assert_eq!(refs, 1),
            other => panic!("expected InUse, got {other:?}"),
        }
        drop(held);
        catalog.delete("sales").unwrap();
        assert!(matches!(
            catalog.get("sales"),
            Err(CatalogError::NotFound(_))
        ));
        assert!(matches!(
            catalog.delete("sales"),
            Err(CatalogError::NotFound(_))
        ));
    }

    #[test]
    fn delete_removes_on_disk_copy() {
        let dir = tmp("delete");
        let catalog = Catalog::open(&dir, 1 << 20).unwrap();
        catalog.put("sales", demo_table(5)).unwrap();
        assert!(dir.join("sales").join(vsc2::MANIFEST).is_file());
        catalog.delete("sales").unwrap();
        assert!(!dir.join("sales").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn materialize_generated_is_idempotent_and_shared() {
        let catalog = Catalog::in_memory(64 << 20);
        let a = catalog.materialize_generated("diab", 500, 7).unwrap();
        let b = catalog.materialize_generated("diab", 500, 7).unwrap();
        assert!(Arc::ptr_eq(&a.table, &b.table));
        assert_eq!(a.name, "gen-diab-r500-s7");
        let c = catalog.materialize_generated("diab", 500, 8).unwrap();
        assert!(!Arc::ptr_eq(&a.table, &c.table));
        assert!(matches!(
            catalog.materialize_generated("nope", 10, 1),
            Err(CatalogError::NotFound(_))
        ));
        // syn works too.
        let s = catalog.materialize_generated("syn", 200, 3).unwrap();
        assert!(s.table.row_count() > 0);
    }

    #[test]
    fn materialized_generator_persists_to_disk() {
        let dir = tmp("gen");
        {
            let catalog = Catalog::open(&dir, 64 << 20).unwrap();
            catalog.materialize_generated("diab", 300, 9).unwrap();
        }
        let catalog = Catalog::open(&dir, 64 << 20).unwrap();
        let entry = catalog.materialize_generated("diab", 300, 9).unwrap();
        assert_eq!(entry.table.row_count(), 300);
        // Served from disk, not regenerated: the load shows up as a miss.
        assert_eq!(catalog.stats().misses, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_grows_dataset_and_survives_reload() {
        let dir = tmp("append");
        let catalog = Catalog::open(&dir, 64 << 20).unwrap();
        catalog.put("sales", demo_table(30)).unwrap();
        let outcome = catalog.append_rows("sales", demo_table(12)).unwrap();
        assert_eq!(outcome.appended, 12);
        assert_eq!(outcome.total_rows, 42);
        assert_eq!(outcome.entry.table.row_count(), 42);
        assert!(outcome.entry.zones.covers(&outcome.entry.table));
        assert_eq!(catalog.stats().append_rows, 12);
        drop(catalog);
        // Cold restart: the appended rows are on disk.
        let catalog = Catalog::open(&dir, 64 << 20).unwrap();
        let entry = catalog.get("sales").unwrap();
        assert_eq!(entry.table.row_count(), 42);
        assert_eq!(entry.checksum, outcome.entry.checksum);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_rejects_bad_targets_and_shapes() {
        let catalog = Catalog::in_memory(1 << 20);
        catalog.put("sales", demo_table(10)).unwrap();
        assert!(matches!(
            catalog.append_rows("missing", demo_table(5)),
            Err(CatalogError::NotFound(_))
        ));
        assert!(matches!(
            catalog.append_rows("gen-diab-r10-s1", demo_table(5)),
            Err(CatalogError::Reserved(_))
        ));
        // Different schema.
        let other = {
            let schema = Schema::builder().measure("m_other").build().unwrap();
            Table::new(schema, vec![Column::numeric(vec![1.0])]).unwrap()
        };
        assert!(matches!(
            catalog.append_rows("sales", other),
            Err(CatalogError::Dataset(_))
        ));
        // In-memory appends work.
        let outcome = catalog.append_rows("sales", demo_table(3)).unwrap();
        assert_eq!(outcome.total_rows, 13);
    }

    #[test]
    fn append_csv_uses_existing_schema() {
        let catalog = Catalog::in_memory(1 << 20);
        let csv = b"region,n_age,m_profit\nwest,30,1.5\neast,40,2.5\n";
        catalog.import_csv_bytes("regions", csv).unwrap();
        let outcome = catalog
            .append_csv_bytes("regions", b"region,n_age,m_profit\nnorth,25,9.5\n")
            .unwrap();
        assert_eq!(outcome.total_rows, 3);
        let detail = catalog.describe("regions").unwrap();
        assert_eq!(detail.columns[0].cardinality, 3, "dictionary grew");
        assert!(matches!(
            catalog.append_csv_bytes("regions", b"wrong,header\nx,1\n"),
            Err(CatalogError::Dataset(_))
        ));
    }

    #[test]
    fn mapped_tables_are_charged_at_mapped_size() {
        let dir = tmp("mapcharge");
        // High-entropy measure: stays raw-encoded, so the reload serves it
        // zero-copy from the mapping on Linux.
        let rows = 4096usize;
        let schema = Schema::builder().measure("m_noise").build().unwrap();
        let table = Table::new(
            schema,
            vec![Column::numeric(
                (0..rows).map(|i| (i as f64).sin() * 1e9).collect(),
            )],
        )
        .unwrap();
        {
            let catalog = Catalog::open(&dir, 64 << 20).unwrap();
            catalog.put("noise", table).unwrap();
        }
        let catalog = Catalog::open(&dir, 64 << 20).unwrap();
        let entry = catalog.get("noise").unwrap();
        let loaded = vsc2::load(&dir.join("noise")).unwrap();
        // Regression: the cache charge equals what the load actually costs
        // (owned heap + mapped file bytes), not a decoded-size estimate.
        assert_eq!(catalog.stats().resident_bytes, loaded.resident_bytes());
        if loaded.mapped_bytes > 0 {
            // The zero-copy column owns no heap; its charge is the file.
            let file_len = std::fs::metadata(dir.join("noise").join(vsc2::column_file(0)))
                .unwrap()
                .len();
            assert_eq!(loaded.mapped_bytes, file_len);
            assert_eq!(entry.table.column(0).owned_bytes(), 0);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
