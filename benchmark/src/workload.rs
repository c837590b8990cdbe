//! The four workloads: their fixed parameters, the session script each one
//! derives from `--seed`, and the CSV inputs of the disk-backed workload.
//!
//! Everything here is a pure function of the seed. The server receives only
//! the generated request bodies and CSV bytes.

use viewseeker_dataset::csv::write_csv;
use viewseeker_dataset::generate::{generate_diab, DiabConfig};
use viewseeker_dataset::{Column, RowSet, Schema, Table};

/// Default `--seed`; the numbers in `REPEATABILITY.md` use it.
pub const DEFAULT_SEED: u64 = 20_200_614;

/// Views a DIAB-shaped table enumerates: 7 dimensions x 8 measures x 5
/// aggregates.
pub const DIAB_VIEWS: usize = 280;
/// Views the SYN table enumerates: 5 numeric dimensions x 2 bin
/// configurations x 5 measures x 5 aggregates.
pub const SYN_VIEWS: usize = 250;
/// Views of the `events` table: DIAB's 280 plus the numeric dimension `n_t`
/// (2 bin configurations x 8 measures x 5 aggregates).
pub const EVENTS_VIEWS: usize = DIAB_VIEWS + 80;

/// `k` of every `GET .../recommend?k=`.
pub const RECOMMEND_K: usize = 5;

const DIAB_CARDINALITIES: [usize; 7] = [2, 3, 4, 5, 6, 8, 10];

const LOOP_SMALL_ROWS: usize = 200;
const LOOP_SMALL_DATASETS: u64 = 8;
const EXPLORE_EXACT_ROWS: usize = 100_000;
const EXPLORE_SAMPLED_ROWS: usize = 1_000_000;
const EXPLORE_SAMPLED_ALPHA: f64 = 0.1;

/// Stored DIAB-shaped tables of `live-table`, and their size.
pub const SMALL_TABLES: usize = 5;
pub const SMALL_TABLE_ROWS: usize = 40_000;
/// Rows of `events` when the measured phases begin: more than three
/// 65 536-row groups, so the table spans four.
pub const EVENTS_ROWS: usize = 200_000;
/// Largest CSV body sent in one request; the server refuses 16 MiB.
const UPLOAD_CHUNK_ROWS: usize = 50_000;
/// Rows per run-time append, one every [`APPEND_INTERVAL_SECS`].
pub const APPEND_ROWS: usize = 2_000;
pub const APPEND_INTERVAL_SECS: f64 = 2.0;
/// `live-table` starts come in blocks of this many: the last names a
/// never-seen generator seed, two go to `events`, seven to the small tables.
const LIVE_BLOCK: u64 = 10;
/// The skew over the five small tables, 10 : 5 : 3 : 3 : 2, spread out.
const SMALL_TABLE_CYCLE: [usize; 23] = [
    0, 1, 0, 2, 0, 3, 1, 0, 4, 0, 1, 2, 0, 3, 0, 1, 0, 2, 4, 0, 1, 3, 0,
];
/// Run-time append chunks generated up front.
const APPEND_CHUNKS: usize = 24;

/// Which workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    LoopSmall,
    ExploreExact,
    ExploreSampled,
    LiveTable,
}

/// One workload's fixed parameters.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub kind: Kind,
    pub name: &'static str,
    /// Interactive turns per session (start, then this many turns, then
    /// delete).
    pub turns: usize,
    /// Open-loop session starts per second in the paced phase — a literal,
    /// repeated in `BENCHMARK.json`, set so that the gap between starts is
    /// 2.5 to 4 times a session: when the two are about equal, whether
    /// consecutive sessions overlap flips with the host's speed, and the
    /// median start with it. `None`: both connections run back to back for
    /// the whole run.
    pub paced_rate: Option<f64>,
    /// Sessions per second the reference box completes where there is no
    /// paced rate; only the nominal sample counts below use it.
    closed_rate: f64,
    /// Whether the times of a run are scaled to the box's nominal speed by
    /// the reference kernel (`reference.rs`). Not where the server works to
    /// a wall-clock budget: those times do not follow the host's speed.
    pub host_scaled: bool,
    /// Highest percentile `turn_tail_ms` may use on this workload: lower
    /// than the highest there is only where that one's run-to-run spread was
    /// measured over the metric's bound, which `README.md` records.
    turn_tail_cap: f64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        kind: Kind::LoopSmall,
        name: "loop-small",
        turns: 3,
        paced_rate: Some(100.0),
        closed_rate: 0.0,
        host_scaled: true,
        turn_tail_cap: 0.90,
    },
    Workload {
        kind: Kind::ExploreExact,
        name: "explore-exact",
        turns: 10,
        paced_rate: Some(20.0),
        closed_rate: 0.0,
        host_scaled: true,
        turn_tail_cap: 0.90,
    },
    Workload {
        kind: Kind::ExploreSampled,
        name: "explore-sampled",
        turns: 8,
        paced_rate: None,
        closed_rate: 0.78,
        host_scaled: false,
        turn_tail_cap: 0.90,
    },
    Workload {
        kind: Kind::LiveTable,
        name: "live-table",
        turns: 3,
        paced_rate: Some(10.0),
        closed_rate: 0.0,
        host_scaled: true,
        // A turn either collides with another session's scan or does
        // not; on this workload p90 falls between the two.
        turn_tail_cap: 0.75,
    },
];

/// The percentiles a tail metric may be, highest first. p95 and p99 are
/// left out on every workload: the reference box freezes for 100 to 250 ms
/// about once a minute, one freeze puts that many milliseconds of arrivals
/// beyond any percentile, and in a 10 s phase they are more than half of
/// what lies beyond p95 (a quarter of a second is 2.5 % of the phase).
const TAIL_PERCENTILES: [f64; 2] = [0.90, 0.75];
/// Samples that must lie beyond a percentile for it to be reported.
const SAMPLES_BEYOND: f64 = 10.0;

/// The highest tail percentile, no higher than `cap`, with at least ten of
/// `samples` beyond it; the lowest tail percentile when none has.
fn tail_percentile(samples: f64, cap: f64) -> f64 {
    TAIL_PERCENTILES
        .into_iter()
        .find(|q| *q <= cap && samples * (1.0 - q) >= SAMPLES_BEYOND)
        .unwrap_or(0.75)
}

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// Requests one complete session sends: create, first `next`, three per
    /// turn, delete.
    pub fn ops_per_session(&self) -> usize {
        3 + 3 * self.turns
    }

    /// Percentile of `start_tail_ms` when latencies are sampled for
    /// `latency_seconds`: fixed by the nominal number of starts, not by the
    /// number a run happens to see, so that every run of a workload reports
    /// the same percentile.
    pub fn start_tail(&self, latency_seconds: f64) -> f64 {
        let starts = self.paced_rate.unwrap_or(self.closed_rate) * latency_seconds;
        tail_percentile(starts, 1.0)
    }

    /// Percentile of `turn_tail_ms`, likewise.
    pub fn turn_tail(&self, latency_seconds: f64) -> f64 {
        let starts = self.paced_rate.unwrap_or(self.closed_rate) * latency_seconds;
        tail_percentile(starts * self.turns as f64, self.turn_tail_cap)
    }
}

/// SplitMix64: a seedable generator small enough to read in one glance, so
/// the scripts do not depend on the vendored `rand` subset's stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// What one session sends and what its replies must say.
#[derive(Debug, Clone, Default)]
pub struct SessionPlan {
    /// `POST /sessions` body.
    pub spec: String,
    /// `views` the create reply must report.
    pub expect_views: usize,
    /// The 0-1 score fed back on each turn.
    pub scores: Vec<f64>,
    /// Whether another session of the run uses the same dataset and `DQ`.
    pub shared_dq: bool,
    /// Whether the session's table can grow while it is live (so a replay
    /// against a fixed copy of the table would not reproduce it).
    pub on_growing_table: bool,
    /// Whether the spec names a generated dataset no earlier session used,
    /// which a disk-backed catalog generates and persists on this request.
    pub fresh_dataset: bool,
}

/// The seeded session script of one workload.
#[derive(Debug, Clone)]
pub struct Script {
    workload: Workload,
    seed: u64,
    /// Seeds of the generated datasets, below 2^31 so they print the same
    /// everywhere.
    dataset_seed: u64,
    /// `explore-exact`: every two-attribute conjunction, shuffled.
    conjunctions: Vec<String>,
    /// `live-table`: `n_t` of the first row of the recent range.
    events_rows: usize,
}

impl Script {
    pub fn new(workload: Workload, seed: u64) -> Self {
        let mut rng = Rng::new(seed ^ 0x5C21_97A1);
        let dataset_seed = rng.below(1 << 31);
        let mut conjunctions = Vec::new();
        if workload.kind == Kind::ExploreExact {
            for (i, ci) in DIAB_CARDINALITIES.iter().enumerate() {
                for (j, cj) in DIAB_CARDINALITIES.iter().enumerate().skip(i + 1) {
                    for x in 0..*ci {
                        for y in 0..*cj {
                            conjunctions.push(format!("a{i} = 'a{i}_v{x}' AND a{j} = 'a{j}_v{y}'"));
                        }
                    }
                }
            }
            for k in (1..conjunctions.len()).rev() {
                conjunctions.swap(k, rng.below(k as u64 + 1) as usize);
            }
        }
        Self {
            workload,
            seed,
            dataset_seed,
            conjunctions,
            events_rows: EVENTS_ROWS,
        }
    }

    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// Specs that touch every dataset the script's sessions use, so set-up
    /// can make the server generate or load each once.
    pub fn priming_specs(&self) -> Vec<String> {
        match self.workload.kind {
            Kind::LoopSmall => (0..LOOP_SMALL_DATASETS)
                .map(|k| self.session(k).spec)
                .collect(),
            Kind::ExploreExact | Kind::ExploreSampled => vec![self.session(0).spec],
            Kind::LiveTable => {
                let mut specs: Vec<String> = (0..SMALL_TABLES)
                    .map(|k| format!("{{\"dataset\":\"t{k}\",\"query\":\"a0 = 'a0_v0'\"}}"))
                    .collect();
                specs.push(self.events_spec(0.95));
                specs
            }
        }
    }

    /// The plan of the `n`-th session started since the server came up.
    /// `n` counts across warm-up and measured phases, so no plan repeats
    /// unless the workload means it to.
    pub fn session(&self, n: u64) -> SessionPlan {
        let mut rng = Rng::new(self.seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ n);
        let scores = (0..self.workload.turns)
            .map(|_| (rng.unit() * 100.0).round() / 100.0)
            .collect();
        let mut plan = SessionPlan {
            expect_views: DIAB_VIEWS,
            scores,
            shared_dq: true,
            ..SessionPlan::default()
        };
        match self.workload.kind {
            Kind::LoopSmall => {
                let dataset = self.dataset_seed + n % LOOP_SMALL_DATASETS;
                let d = (n / LOOP_SMALL_DATASETS) % 7;
                plan.spec = format!(
                    "{{\"dataset\":\"diab\",\"rows\":{LOOP_SMALL_ROWS},\"seed\":{dataset},\
                     \"query\":\"a{d} = 'a{d}_v0'\"}}"
                );
            }
            Kind::ExploreExact => {
                let query = if n.is_multiple_of(2) {
                    let d = (n / 2) % 4;
                    format!("a{d} = 'a{d}_v0'")
                } else {
                    let k = (n / 2) as usize;
                    plan.shared_dq = k >= self.conjunctions.len();
                    self.conjunctions[k % self.conjunctions.len()].clone()
                };
                plan.spec = format!(
                    "{{\"dataset\":\"diab\",\"rows\":{EXPLORE_EXACT_ROWS},\"seed\":{},\
                     \"query\":\"{query}\"}}",
                    self.dataset_seed
                );
            }
            Kind::ExploreSampled => {
                let d = rng.below(5);
                let low = rng.below(60);
                plan.spec = format!(
                    "{{\"dataset\":\"syn\",\"rows\":{EXPLORE_SAMPLED_ROWS},\"seed\":{},\
                     \"query\":\"d{d} BETWEEN {low} AND {}\",\"alpha\":{EXPLORE_SAMPLED_ALPHA}}}",
                    self.dataset_seed,
                    low + 30
                );
                plan.expect_views = SYN_VIEWS;
                plan.shared_dq = false;
            }
            Kind::LiveTable => {
                // The mix is the same in every block of ten starts, so that
                // no seed draws a run with more of the 50 ms `events` starts
                // than another; the seed places them within the block.
                let block = n / LIVE_BLOCK;
                let slot = n % LIVE_BLOCK;
                let mut placing = Rng::new(self.seed.wrapping_mul(0x9E6C_63D0_676A_9A99) ^ block);
                let first = placing.below(LIVE_BLOCK - 1);
                let second = (first + 1 + placing.below(LIVE_BLOCK - 2)) % (LIVE_BLOCK - 1);
                if slot == LIVE_BLOCK - 1 {
                    // A generator seed this server has never seen: the
                    // catalog generates and persists it on the request path.
                    plan.spec = format!(
                        "{{\"dataset\":\"diab\",\"rows\":{LOOP_SMALL_ROWS},\"seed\":{},\
                         \"query\":\"a0 = 'a0_v0'\"}}",
                        self.dataset_seed + n
                    );
                    plan.shared_dq = false;
                    plan.fresh_dataset = true;
                } else if slot == first || slot == second {
                    plan.spec = self.events_spec(0.93 + 0.04 * rng.unit());
                    plan.expect_views = EVENTS_VIEWS;
                    plan.shared_dq = false;
                    plan.on_growing_table = true;
                } else {
                    // Which of the block's small-table starts this is.
                    let earlier = u64::from(first < slot) + u64::from(second < slot);
                    let k = (block * (LIVE_BLOCK - 3) + slot - earlier) as usize;
                    let table = SMALL_TABLE_CYCLE[k % SMALL_TABLE_CYCLE.len()];
                    let d = k % 7;
                    plan.spec =
                        format!("{{\"dataset\":\"t{table}\",\"query\":\"a{d} = 'a{d}_v0'\"}}");
                }
            }
        }
        plan
    }

    /// A session over `events` whose `DQ` is the most recent rows: `n_t` is
    /// the row's arrival index, so the range is selective and zone maps can
    /// skip the older row groups.
    fn events_spec(&self, from_share: f64) -> String {
        let from = (self.events_rows as f64 * from_share).floor();
        format!("{{\"dataset\":\"events\",\"query\":\"n_t >= {from}\"}}")
    }
}

/// One request of the disk-backed workload's set-up or append stream.
#[derive(Debug, Clone)]
pub struct CsvBody {
    /// `POST` target: `/datasets/<name>` or `/datasets/<name>/rows`.
    pub path: String,
    pub dataset: String,
    pub rows: usize,
    pub bytes: Vec<u8>,
}

/// The CSV inputs of `live-table`, written through `dataset::csv::write_csv`
/// on a schema renamed to the catalog convention.
#[derive(Debug, Clone)]
pub struct LiveInputs {
    /// Uploads and set-up appends, in order: five small tables, then
    /// `events` grown to [`EVENTS_ROWS`].
    pub setup: Vec<CsvBody>,
    /// Run-time appends to `events`, each [`APPEND_ROWS`] rows continuing
    /// the `n_t` order.
    pub appends: Vec<CsvBody>,
}

impl LiveInputs {
    pub fn generate(seed: u64) -> Result<Self, String> {
        let mut rng = Rng::new(seed ^ 0x11FE_7AB1);
        let mut setup = Vec::new();
        for k in 0..SMALL_TABLES {
            let table = generate_diab(&DiabConfig::small(SMALL_TABLE_ROWS, rng.below(1 << 31)))
                .map_err(|e| format!("generating t{k}: {e}"))?;
            let renamed = catalog_shaped(&table, None)?;
            setup.push(csv_body(
                format!("/datasets/t{k}"),
                format!("t{k}"),
                &renamed,
            )?);
        }
        let total = EVENTS_ROWS + APPEND_CHUNKS * APPEND_ROWS;
        let events = generate_diab(&DiabConfig::small(total, rng.below(1 << 31)))
            .map_err(|e| format!("generating events: {e}"))?;
        let mut appends = Vec::new();
        let mut from = 0;
        while from < total {
            let (to, run_time) = if from < EVENTS_ROWS {
                ((from + UPLOAD_CHUNK_ROWS).min(EVENTS_ROWS), false)
            } else {
                (from + APPEND_ROWS, true)
            };
            let slice = catalog_shaped(&slice_rows(&events, from, to)?, Some(from))?;
            let path = if from == 0 {
                "/datasets/events".to_owned()
            } else {
                "/datasets/events/rows".to_owned()
            };
            let body = csv_body(path, "events".to_owned(), &slice)?;
            if run_time {
                appends.push(body);
            } else {
                setup.push(body);
            }
            from = to;
        }
        Ok(Self { setup, appends })
    }
}

fn csv_body(path: String, dataset: String, table: &Table) -> Result<CsvBody, String> {
    Ok(CsvBody {
        path,
        dataset,
        rows: table.row_count(),
        bytes: csv_bytes(table)?,
    })
}

/// Rows `from..to` of `table`, as a table of their own.
pub fn slice_rows(table: &Table, from: usize, to: usize) -> Result<Table, String> {
    let ids: Vec<u32> = (from as u32..to as u32).collect();
    let rows = RowSet::from_sorted_ids(ids).map_err(|e| e.to_string())?;
    table.gather(&rows).map_err(|e| e.to_string())
}

/// Renames a generated table to the catalog's header convention — measures
/// `m_*`, numeric dimensions `n_*` — so `POST /datasets` infers the roles
/// the generator meant. With `arrival_from`, also adds the numeric
/// dimension `n_t`, the row's arrival index counted from that number, on
/// which the `events` table is sorted.
pub fn catalog_shaped(table: &Table, arrival_from: Option<usize>) -> Result<Table, String> {
    let mut builder = Schema::builder();
    let mut columns = Vec::new();
    let mut measures = Vec::new();
    for (i, meta) in table.schema().columns().iter().enumerate() {
        if !table.is_dimension(&meta.name) {
            measures.push((format!("m_{}", meta.name.trim_start_matches('m')), i));
        } else if table.column(i).is_categorical() {
            builder = builder.categorical_dimension(meta.name.clone());
            columns.push(table.column(i).clone());
        } else {
            builder = builder.numeric_dimension(format!("n_{}", meta.name));
            columns.push(table.column(i).clone());
        }
    }
    if let Some(from) = arrival_from {
        builder = builder.numeric_dimension("n_t");
        let arrivals = (from..from + table.row_count()).map(|r| r as f64).collect();
        columns.push(Column::numeric(arrivals));
    }
    for (name, i) in measures {
        builder = builder.measure(name);
        columns.push(table.column(i).clone());
    }
    let schema = builder.build().map_err(|e| e.to_string())?;
    Table::new(schema, columns).map_err(|e| e.to_string())
}

/// `table` as the CSV bytes `POST /datasets` takes.
pub fn csv_bytes(table: &Table) -> Result<Vec<u8>, String> {
    let mut bytes = Vec::new();
    write_csv(table, &mut bytes).map_err(|e| format!("writing csv: {e}"))?;
    Ok(bytes)
}
