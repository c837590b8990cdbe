//! The traced run: per-layer numbers measured from outside the program.
//!
//! Two passes over the same seeded script. The wire pass is the untraced
//! run's own measurement with one client span per request, and scrapes of
//! the series the server already exports around it. The in-process pass
//! feeds the identical request bytes through `http1::parse_request` →
//! `ShardRouter::handle` → `http1::encode_response`, and after each request
//! calls the `catalog`/`core`/`dataset`/`learn`/`stats` functions behind it
//! on the same spec, each call in a span whose parent is the span that
//! caused it. Self time is a span minus its children. The ledger check
//! then compares the in-process handler time of each route with the server's
//! own `handler` stage over a serial segment of the wire — the same sessions
//! again on one connection — with half of the in-process sessions replayed
//! just before that segment and half just after it, so that a host that
//! changes speed moves both sides.
//!
//! End-to-end metrics are never taken from this run.

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use crossbeam::channel;
use serde_json::{parse_value, Value};
use viewseeker_catalog::{Catalog, DatasetEntry};
use viewseeker_core::estimator::{UncertaintyEstimator, ViewUtilityEstimator};
use viewseeker_core::features::compute_features;
use viewseeker_core::viewgen::{
    bin_spec_for, materialize_all_fused_pruned, materialize_all_fused_with_stats, ViewData,
};
use viewseeker_core::{
    noop_tracer, FeatureMatrix, OwnedSeeker, ViewId, ViewSeekerConfig, ViewSpace,
};
use viewseeker_dataset::csv::read_csv;
use viewseeker_dataset::generate::{generate_diab, generate_syn, DiabConfig, SynConfig};
use viewseeker_dataset::sample::bernoulli_sample;
use viewseeker_dataset::{
    fused_group_by_all, fused_group_by_all_pruned, GroupRequest, RowSet, SelectQuery, Table,
    ZoneMaps,
};
use viewseeker_net::http1::{encode_response, parse_request, Handler, Request, Response};
use viewseeker_server::{AppState, Router, SessionRegistry, SessionSpec, ShardRouter};

use crate::run::{
    check_generator, check_golden, held_session_rss_kb, measure, median, metric, percentile,
    serial_segment, set_up, workload_figures, Metric, Outcome,
};
use crate::server::{out_dir, server_config, ScratchDir};
use crate::trace::{NameTotal, SpanId, Tracer};
use crate::wire::request_bytes;
use crate::workload::{
    catalog_shaped, csv_bytes, slice_rows, Kind, LiveInputs, Script, SessionPlan, Workload,
    APPEND_ROWS, RECOMMEND_K, SMALL_TABLE_ROWS,
};

/// Share of `--seconds` the in-process session replay may take, half of it
/// before the wire's serial segment and half after.
const REPLAY_SHARE: f64 = 0.3;
/// Sessions each half of the replay covers at least and at most.
const MIN_REPLAYS: usize = 1;
const MAX_REPLAYS: usize = 100;
/// Rows of the table the catalog and CSV kernels are timed on: the
/// workload's main table, or its head when it is larger.
const SAMPLE_ROWS: usize = 100_000;
/// Rows of the CSV body uploaded in-process by the workloads that store
/// nothing themselves.
const CHUNK_ROWS: usize = 40_000;
/// Each kernel outside the session replay is repeated until this much time
/// is spent on it or it has run this many times (at least once).
const KERNEL_BUDGET: Duration = Duration::from_millis(300);
const KERNEL_CALLS: usize = 200;

/// The ledger tolerance: a route's in-process handler time must be within
/// this of the server's own `handler` stage means on the wire.
const HANDLER_TOLERANCE: f64 = 0.25;
/// Routes that make up less of a session's handler time than this are
/// reported, not gated: a 40 µs `delete` after a 200 ms refinement misleads
/// nobody by being 15 µs off, and at that size it is.
const GATED_SHARE: f64 = 0.05;

const ROUTES: [(&str, &str); 5] = [
    ("create", "POST /sessions"),
    ("next", "GET /sessions/:id/next"),
    ("feedback", "POST /sessions/:id/feedback"),
    ("recommend", "GET /sessions/:id/recommend"),
    ("delete", "DELETE /sessions/:id"),
];

fn other(message: impl std::fmt::Display) -> io::Error {
    io::Error::other(message.to_string())
}

/// One request for a worker thread, and where its reply and the instants
/// around the handler call go.
type Job = (Request, mpsc::Sender<(Response, Instant, Instant)>);

/// The server's moving parts, assembled in this process the way
/// `serve_app` assembles them, minus the listener. Requests are handled the
/// way the server handles them: by `workers` threads asleep on the channel
/// the server's own workers use, so a handler starts on a thread that has
/// just been woken and frees what another thread allocated. (Run on the
/// calling thread, with everything hot, the same handlers took about a third
/// less than the live server's `handler` stage.)
struct InProcess {
    catalog: Arc<Catalog>,
    router: Arc<Router>,
    front: Arc<ShardRouter>,
    /// Taken on drop: the workers end when the channel closes.
    jobs: Option<channel::Sender<Job>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    bodies: Vec<String>,
    _data: Option<ScratchDir>,
}

impl InProcess {
    fn build(disk: bool) -> io::Result<Self> {
        let data = if disk {
            Some(ScratchDir::create("inproc")?)
        } else {
            None
        };
        let config = server_config(data.as_ref().map(ScratchDir::path));
        let catalog = Arc::new(match &config.data_dir {
            Some(dir) => Catalog::open(dir, config.catalog_mem_budget).map_err(other)?,
            None => Catalog::in_memory(config.catalog_mem_budget),
        });
        let registry = SessionRegistry::with_catalog(
            config.max_sessions,
            config.ttl,
            None,
            Arc::clone(&catalog),
        );
        let router = Arc::new(Router::new(Arc::new(AppState::new(registry))));
        let front = Arc::new(
            ShardRouter::new(vec![Arc::clone(&router)], &[], config.workers).map_err(other)?,
        );
        let (jobs, inbox) = channel::unbounded::<Job>();
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let inbox = inbox.clone();
                let front = Arc::clone(&front);
                std::thread::spawn(move || {
                    while let Ok((request, reply)) = inbox.recv() {
                        let start = Instant::now();
                        let response = front.handle(&request);
                        let _ = reply.send((response, start, Instant::now()));
                    }
                })
            })
            .collect();
        Ok(Self {
            catalog,
            router,
            front,
            jobs: Some(jobs),
            workers,
            bodies: Vec::new(),
            _data: data,
        })
    }

    /// Hands `request` to a worker and waits for its reply; the span covers
    /// the handler call alone, as the server's `handler` stage does.
    fn handle(
        &self,
        tracer: &mut Tracer,
        name: &str,
        request_id: &str,
        request: Request,
    ) -> io::Result<(Response, SpanId)> {
        let (reply, done) = mpsc::channel();
        let jobs = self
            .jobs
            .as_ref()
            .ok_or_else(|| other("workers are gone"))?;
        jobs.send((request, reply)).map_err(other)?;
        let (response, start, end) = done.recv().map_err(other)?;
        Ok((response, tracer.record(name, start, end, None, request_id)))
    }

    /// One request through parse → route → encode, each in a span. Returns
    /// the reply and the handler span.
    fn exchange(
        &mut self,
        tracer: &mut Tracer,
        route: &str,
        request_id: &str,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> io::Result<(Response, SpanId)> {
        let bytes = request_bytes(method, path, request_id, body);
        // CSV bodies are megabytes; keep them out of the per-request means.
        let suffix = if ROUTES.iter().any(|(name, _)| *name == route) {
            ""
        } else {
            ".bulk"
        };
        let (parsed, _) = tracer.time(&format!("net.parse{suffix}"), None, request_id, || {
            parse_request(&bytes)
        });
        let parsed = parsed
            .map_err(other)?
            .ok_or_else(|| other("request bytes do not hold a whole request"))?;
        let name = format!("server.handle.{route}");
        let (response, span) = self.handle(tracer, &name, request_id, parsed.request)?;
        let mut wire = Vec::new();
        tracer.time(&format!("net.encode{suffix}"), None, request_id, || {
            encode_response(&response, parsed.keep_alive, &mut wire);
        });
        if response.status >= 300 {
            return Err(other(format!(
                "in-process {method} {path}: status {} — {}",
                response.status, response.body
            )));
        }
        self.bodies.push(response.body.clone());
        Ok((response, span))
    }
}

impl Drop for InProcess {
    fn drop(&mut self) {
        drop(self.jobs.take());
        for worker in self.workers.drain(..) {
            // A worker that panicked has already failed the request it held.
            let _ = worker.join();
        }
    }
}

/// The executor requests of a view space: one per distinct (dimension,
/// bins, measure), as `core::viewgen` plans them.
fn group_requests(table: &Table, space: &ViewSpace) -> io::Result<Vec<GroupRequest>> {
    let mut seen = BTreeSet::new();
    let mut requests = Vec::new();
    for def in space.defs() {
        if seen.insert((def.dimension.clone(), def.bins, def.measure.clone())) {
            requests.push(GroupRequest {
                dimension: def.dimension.clone(),
                spec: bin_spec_for(table, def).map_err(other)?,
                measure: def.measure.clone(),
            });
        }
    }
    Ok(requests)
}

/// What `Seeker::new` materializes, by the same path it takes: the exact
/// zone-pruned fused pass, or with `alpha < 1` the fused pass over Bernoulli
/// samples. Returns the views with the target and reference rows scanned.
fn materialize(
    dataset: &DatasetEntry,
    query: &SelectQuery,
    config: &ViewSeekerConfig,
    space: &ViewSpace,
) -> io::Result<(Vec<ViewData>, RowSet, RowSet)> {
    let table: &Table = &dataset.table;
    if config.alpha >= 1.0 {
        let (views, dq, _, _) =
            materialize_all_fused_pruned(table, &dataset.zones, query.predicate(), space, 1)
                .map_err(other)?;
        return Ok((views, dq, table.all_rows()));
    }
    let dq = query.execute(table).map_err(other)?;
    let dq = bernoulli_sample(&dq, config.alpha, config.seed);
    let dr = bernoulli_sample(&table.all_rows(), config.alpha, config.seed.wrapping_add(1));
    let (views, _) = materialize_all_fused_with_stats(table, &dq, &dr, space, 1).map_err(other)?;
    Ok((views, dq, dr))
}

/// Counters the replay keeps beside its spans.
#[derive(Default)]
struct Tally {
    scan_rows: f64,
    scan_row_views: f64,
    scan_us: f64,
    views: f64,
    refine_s: f64,
    refined: f64,
    route_us: Vec<f64>,
    sessions: usize,
    /// Bytes of the CSV body whose import was replayed, and rows of the
    /// append replayed against the catalog.
    upload_bytes: f64,
    append_rows: f64,
}

fn json_field<'a>(value: &'a Value, key: &str) -> io::Result<&'a Value> {
    value
        .get(key)
        .ok_or_else(|| other(format!("reply has no {key:?}")))
}

fn shown_view(response: &Response) -> io::Result<usize> {
    let value = parse_value(&response.body).map_err(other)?;
    value
        .as_array()
        .and_then(|views| views.first())
        .and_then(|view| view.get("id"))
        .and_then(Value::as_u64)
        .map(|id| id as usize)
        .ok_or_else(|| other("next reply shows no view"))
}

/// Replays one scripted session in-process, with the layer calls behind
/// each request as child spans.
fn replay_session(
    env: &mut InProcess,
    tracer: &mut Tracer,
    tally: &mut Tally,
    number: u64,
    plan: &SessionPlan,
    measure_routing: bool,
) -> io::Result<()> {
    let mut sent = 0;
    let mut rid = || {
        sent += 1;
        format!("p-s{number}-{sent}")
    };

    // --- create ---------------------------------------------------------
    let request = rid();
    let (reply, create_span) = env.exchange(
        tracer,
        "create",
        &request,
        "POST",
        "/sessions",
        plan.spec.as_bytes(),
    )?;
    let created = parse_value(&reply.body).map_err(other)?;
    let id = json_field(&created, "id")?
        .as_str()
        .ok_or_else(|| other("session id is not a string"))?
        .to_owned();

    let spec: SessionSpec = serde_json::from_str(&plan.spec).map_err(other)?;
    let registry = &env.router.state().registry;
    // The twin is timed for `server.registry_us` alone; the handler's
    // children are the catalog and core calls replayed below.
    let (twin, _) = tracer.time("server.registry.create", None, &request, || {
        registry.create(spec.clone())
    });
    let twin_id = twin.map_err(other)?.id.clone();
    let catalog = &env.catalog;
    if plan.fresh_dataset {
        // The handler generated and persisted this dataset; the twin found
        // it cached. Generate another never-seen one to see that cost.
        let (generated, _) = tracer.time(
            "catalog.generate_persist.on_request",
            Some(create_span),
            &request,
            || {
                catalog.materialize_generated(
                    "diab",
                    spec.rows.unwrap_or(0),
                    spec.seed.unwrap_or(0) + (1 << 40),
                )
            },
        );
        generated.map_err(other)?;
    }
    let (dataset, _) = tracer.time("catalog.resolve", Some(create_span), &request, || {
        spec.resolve_dataset(catalog)
    });
    let dataset = dataset.map_err(other)?;
    let (shadow, build_span) =
        tracer.time("core.build_seeker", Some(create_span), &request, || {
            spec.build_seeker_on(&dataset, noop_tracer())
        });
    let mut shadow: OwnedSeeker = shadow.map_err(other)?;

    let config = spec.build_config().map_err(other)?;
    let query = spec.build_query().map_err(other)?;
    let (space, _) = tracer.time("core.viewspace", Some(build_span), &request, || {
        ViewSpace::enumerate_excluding(
            &dataset.table,
            &config.bin_configs,
            &config.excluded_dimensions,
        )
    });
    let space = space.map_err(other)?;
    let (materialized, materialize_span) =
        tracer.time("core.materialize", Some(build_span), &request, || {
            materialize(&dataset, &query, &config, &space)
        });
    let (views, dq, dr) = materialized?;
    let requests = group_requests(&dataset.table, &space)?;
    let (scanned, scan_span) =
        tracer.time("dataset.scan", Some(materialize_span), &request, || {
            fused_group_by_all(&dataset.table, &dq, &dr, &requests, 1)
        });
    scanned.map_err(other)?;
    tally.scan_us += tracer.spans()[scan_span].duration_us();
    tally.scan_rows += dr.len() as f64;
    tally.scan_row_views += (dr.len() * space.len()) as f64;
    tally.views = space.len() as f64;
    let (matrix, features_span) = tracer.time("core.features", Some(build_span), &request, || {
        FeatureMatrix::from_views(&views, config.usability_optimal_bins)
    });
    matrix.map_err(other)?;
    tracer.time("stats.features", Some(features_span), &request, || {
        for view in &views {
            let _ = std::hint::black_box(compute_features(view, config.usability_optimal_bins));
        }
    });

    // --- first next, then the turns --------------------------------------
    let step_next = |env: &mut InProcess,
                     tracer: &mut Tracer,
                     tally: &mut Tally,
                     shadow: &mut OwnedSeeker,
                     request: String|
     -> io::Result<usize> {
        let path = format!("/sessions/{id}/next?m=1");
        let (reply, span) = env.exchange(tracer, "next", &request, "GET", &path, b"")?;
        let pending = shadow.pending_refinements();
        let refine = shadow.refinement_time();
        let (picked, _) = tracer.time("core.next", Some(span), &request, || shadow.next_views(1));
        picked.map_err(other)?;
        tally.refined += pending.saturating_sub(shadow.pending_refinements()) as f64;
        tally.refine_s += (shadow.refinement_time() - refine).as_secs_f64();
        shown_view(&reply)
    };
    let mut view = step_next(env, tracer, tally, &mut shadow, rid())?;
    for (turn, score) in plan.scores.iter().enumerate() {
        let request = rid();
        let body = format!("{{\"view\":{view},\"score\":{score}}}");
        let path = format!("/sessions/{id}/feedback");
        let (_, span) =
            env.exchange(tracer, "feedback", &request, "POST", &path, body.as_bytes())?;
        let (fed, feedback_span) = tracer.time("core.feedback", Some(span), &request, || {
            shadow.submit_feedback(ViewId::from_index(view), *score)
        });
        fed.map_err(other)?;
        let labels = shadow.labels().to_vec();
        let mut utility = ViewUtilityEstimator::new(config.ridge_lambda);
        let both_classes = labels.iter().any(|l| l.score >= config.positive_threshold)
            && labels.iter().any(|l| l.score < config.positive_threshold);
        tracer.time("learn.fit", Some(feedback_span), &request, || {
            let _ = utility.refit(shadow.feature_matrix(), &labels);
            if both_classes {
                let mut uncertainty =
                    UncertaintyEstimator::new(config.logistic_lambda, config.positive_threshold);
                let _ = uncertainty.refit(shadow.feature_matrix(), &labels);
            }
        });

        let request = rid();
        let path = format!("/sessions/{id}/recommend?k={RECOMMEND_K}");
        let (_, span) = env.exchange(tracer, "recommend", &request, "GET", &path, b"")?;
        let (top, recommend_span) = tracer.time("core.recommend", Some(span), &request, || {
            shadow.recommend(RECOMMEND_K)
        });
        top.map_err(other)?;
        tracer.time("learn.predict", Some(recommend_span), &request, || {
            let _ = std::hint::black_box(utility.predict_all(shadow.feature_matrix()));
        });
        if measure_routing && turn == 0 {
            tally.route_us = routing_overhead(env, &path)?;
        }

        view = step_next(env, tracer, tally, &mut shadow, rid())?;
    }

    // --- delete -----------------------------------------------------------
    let request = rid();
    let path = format!("/sessions/{id}");
    let (_, span) = env.exchange(tracer, "delete", &request, "DELETE", &path, b"")?;
    tracer.time("core.drop", Some(span), &request, move || drop(shadow));
    // The twin's removal (its own seeker dropped inside) is timed on its
    // own: `server.registry_us` counts it, the delete ledger does not.
    let registry = &env.router.state().registry;
    let (removed, _) = tracer.time("server.registry.remove", None, &request, || {
        registry.remove(&twin_id)
    });
    removed.map_err(other)?;
    tally.sessions += 1;
    Ok(())
}

/// `cluster.route_us`: the same read-only request through the thin
/// `ShardRouter` and through the `Router` it delegates to, alternating;
/// per-pair differences, microseconds.
fn routing_overhead(env: &InProcess, path: &str) -> io::Result<Vec<f64>> {
    let bytes = request_bytes("GET", path, "p-route", b"");
    let parsed = parse_request(&bytes)
        .map_err(other)?
        .ok_or_else(|| other("incomplete routing request"))?;
    let mut differences = Vec::new();
    for _ in 0..200 {
        let start = Instant::now();
        std::hint::black_box(env.front.handle(&parsed.request));
        let through_front = start.elapsed();
        let start = Instant::now();
        std::hint::black_box(env.router.handle(&parsed.request));
        let direct = start.elapsed();
        differences.push((through_front.as_secs_f64() - direct.as_secs_f64()) * 1e6);
    }
    Ok(differences)
}

/// Repeats `work` until [`KERNEL_BUDGET`] or [`KERNEL_CALLS`] is reached (at
/// least once), each call a span named `name`.
fn time_kernel<T>(
    tracer: &mut Tracer,
    name: &str,
    mut work: impl FnMut() -> io::Result<T>,
) -> io::Result<T> {
    let began = Instant::now();
    let mut calls = 0;
    loop {
        let (value, _) = tracer.time(name, None, "kernel", &mut work);
        let value = value?;
        calls += 1;
        if began.elapsed() >= KERNEL_BUDGET || calls == KERNEL_CALLS {
            return Ok(value);
        }
    }
}

/// Uploads and appends a CSV through the in-process router, with the
/// catalog and CSV calls behind them replayed as child spans.
fn replay_ingest(
    env: &mut InProcess,
    tracer: &mut Tracer,
    name: &str,
    upload: &[u8],
    append: &[u8],
    append_route: &str,
) -> io::Result<()> {
    let request = format!("p-upload-{name}");
    let (_, span) = env.exchange(
        tracer,
        "upload",
        &request,
        "POST",
        &format!("/datasets/{name}"),
        upload,
    )?;
    let twin = format!("{name}_twin");
    let catalog = Arc::clone(&env.catalog);
    let (imported, import_span) = tracer.time("catalog.import", Some(span), &request, || {
        catalog.import_csv_bytes(&twin, upload)
    });
    let schema = imported.map_err(other)?.table.schema().clone();
    let (parsed, _) = tracer.time("dataset.csv_parse", Some(import_span), &request, || {
        read_csv(&schema, io::Cursor::new(upload))
    });
    parsed.map_err(other)?;

    let request = format!("p-append-{name}");
    let path = format!("/datasets/{name}/rows");
    let (_, span) = env.exchange(tracer, append_route, &request, "POST", &path, append)?;
    let (appended, _) = tracer.time("catalog.append", Some(span), &request, || {
        catalog.append_csv_bytes(&twin, append)
    });
    appended.map_err(other)?;
    Ok(())
}

/// Mean duration of the spans named `name`, microseconds (0 if none).
fn mean_us(totals: &BTreeMap<String, NameTotal>, name: &str) -> f64 {
    totals.get(name).map_or(0.0, NameTotal::mean_us)
}

/// Mean self time of the spans named `name`, microseconds (0 if none).
fn mean_self_us(totals: &BTreeMap<String, NameTotal>, name: &str) -> f64 {
    totals.get(name).map_or(0.0, NameTotal::mean_self_us)
}

/// One sample of the text exposition: the value of `name` with every label
/// in `labels`, summed over matching lines.
fn series(text: &str, name: &str, labels: &[(&str, &str)]) -> f64 {
    text.lines()
        .filter(|line| {
            let Some(rest) = line.strip_prefix(name) else {
                return false;
            };
            (rest.starts_with('{') || rest.starts_with(' '))
                && labels
                    .iter()
                    .all(|(k, v)| line.contains(&format!("{k}=\"{v}\"")))
        })
        .filter_map(|line| line.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

/// Mean microseconds of `stage` between two scrapes, over `route` or, with
/// no route, over the five session routes.
fn stage_mean_us(before: &str, after: &str, route: Option<&str>, stage: &str) -> f64 {
    let routes: Vec<&str> = match route {
        Some(route) => vec![route],
        None => ROUTES.iter().map(|(_, label)| *label).collect(),
    };
    let mut sum = 0.0;
    let mut count = 0.0;
    for route in routes {
        let labels = [("route", route), ("stage", stage)];
        sum += series(after, "viewseeker_request_stage_seconds_sum", &labels)
            - series(before, "viewseeker_request_stage_seconds_sum", &labels);
        count += series(after, "viewseeker_request_stage_seconds_count", &labels)
            - series(before, "viewseeker_request_stage_seconds_count", &labels);
    }
    if count > 0.0 {
        sum / count * 1e6
    } else {
        0.0
    }
}

/// The workload's main table, resolved through the in-process catalog, and
/// the query whose `DQ` the selective kernels use.
fn main_table(
    env: &InProcess,
    script: &Script,
    kind: Kind,
) -> io::Result<(DatasetEntry, SelectQuery)> {
    let spec_text = match kind {
        // The last priming spec of the disk-backed workload is the
        // recent-range session on `events`.
        Kind::LiveTable => script.priming_specs().pop().unwrap_or_default(),
        _ => script.session(0).spec,
    };
    let spec: SessionSpec = serde_json::from_str(&spec_text).map_err(other)?;
    let dataset = spec.resolve_dataset(&env.catalog).map_err(other)?;
    Ok((dataset, spec.build_query().map_err(other)?))
}

/// `live-table`: stores in-process what the wire server stored. The first
/// upload carries its child spans (with an append-sized slice of itself
/// appended to its twin); the bulk set-up appends are only needed for their
/// rows; `server.handle_us.append` is the run-time append to `events`.
fn store_inputs(
    env: &mut InProcess,
    tracer: &mut Tracer,
    tally: &mut Tally,
    inputs: &LiveInputs,
) -> io::Result<()> {
    for (k, body) in inputs.setup.iter().enumerate() {
        if k == 0 {
            let append = slice_append(&body.bytes)?;
            tally.upload_bytes = body.bytes.len() as f64;
            tally.append_rows = APPEND_ROWS as f64;
            replay_ingest(
                env,
                tracer,
                &body.dataset,
                &body.bytes,
                &append,
                "append-small",
            )?;
        } else {
            let route = if body.path.ends_with("/rows") {
                "append-bulk"
            } else {
                "upload"
            };
            let request = format!("p-setup-{k}");
            env.exchange(tracer, route, &request, "POST", &body.path, &body.bytes)?;
        }
    }
    for (k, body) in inputs.appends.iter().take(3).enumerate() {
        let request = format!("p-append-{k}");
        env.exchange(tracer, "append", &request, "POST", &body.path, &body.bytes)?;
    }
    Ok(())
}

/// The other workloads store nothing, so the ingest routes are timed on the
/// head of their main table, written as the CSV `POST /datasets` takes.
fn ingest_table_head(
    env: &mut InProcess,
    tracer: &mut Tracer,
    tally: &mut Tally,
    table: &Table,
) -> io::Result<()> {
    let csv_of = |rows: usize| -> io::Result<Vec<u8>> {
        let head = slice_rows(table, 0, table.row_count().min(rows)).map_err(other)?;
        csv_bytes(&catalog_shaped(&head, None).map_err(other)?).map_err(other)
    };
    let upload = csv_of(CHUNK_ROWS)?;
    let append = csv_of(APPEND_ROWS)?;
    tally.upload_bytes = upload.len() as f64;
    tally.append_rows = table.row_count().min(APPEND_ROWS) as f64;
    replay_ingest(env, tracer, "bench_chunk", &upload, &append, "append")
}

/// Touches every dataset the script uses, as set-up did for the wire server.
fn prime_datasets(env: &InProcess, script: &Script) -> io::Result<()> {
    for spec in script.priming_specs() {
        let spec: SessionSpec = serde_json::from_str(&spec).map_err(other)?;
        spec.resolve_dataset(&env.catalog).map_err(other)?;
    }
    Ok(())
}

/// Replays the script's next sessions for half of [`REPLAY_SHARE`] of the
/// run; called once before the wire's serial segment and once after it.
fn replay_half(
    env: &mut InProcess,
    tracer: &mut Tracer,
    tally: &mut Tally,
    script: &Script,
    seconds: f64,
) -> io::Result<()> {
    let began = Instant::now();
    let budget = Duration::from_secs_f64(seconds * REPLAY_SHARE / 2.0);
    let mut replayed = 0;
    while replayed < MAX_REPLAYS && (replayed < MIN_REPLAYS || began.elapsed() < budget) {
        let number = tally.sessions as u64;
        let plan = script.session(number);
        replay_session(env, tracer, tally, number, &plan, number == 0)?;
        replayed += 1;
    }
    Ok(())
}

/// The kernels outside the session replay, on the workload's main table:
/// the selective scan, the predicate, zone maps, the generator, and the
/// catalog's cold paths on a disk catalog whose cache holds one table.
fn time_kernels(
    tracer: &mut Tracer,
    dataset: &DatasetEntry,
    selective: &SelectQuery,
    kind: Kind,
    seed: u64,
) -> io::Result<()> {
    let table: &Table = &dataset.table;
    let space =
        ViewSpace::enumerate(table, &ViewSeekerConfig::default().bin_configs).map_err(other)?;
    let requests = group_requests(table, &space)?;
    time_kernel(tracer, "dataset.pruned_scan", || {
        fused_group_by_all_pruned(table, &dataset.zones, selective.predicate(), &requests, 1)
            .map(|_| ())
            .map_err(other)
    })?;
    time_kernel(tracer, "dataset.predicate", || {
        selective
            .predicate()
            .evaluate(table)
            .map(|_| ())
            .map_err(other)
    })?;
    time_kernel(tracer, "dataset.zone_build", || {
        std::hint::black_box(ZoneMaps::build(table, 0));
        Ok(())
    })?;
    let (generator, generated_rows) = match kind {
        Kind::ExploreSampled => ("syn", table.row_count()),
        Kind::LiveTable => ("diab", SMALL_TABLE_ROWS),
        _ => ("diab", table.row_count()),
    };
    time_kernel(tracer, "dataset.generate", || {
        let generated = if generator == "syn" {
            generate_syn(&SynConfig::small(generated_rows, seed))
        } else {
            generate_diab(&DiabConfig::small(generated_rows, seed))
        };
        generated.map(|_| ()).map_err(other)
    })?;

    let cold_dir = ScratchDir::create("cold")?;
    let cold = Catalog::open(cold_dir.path(), 1).map_err(other)?;
    let sample = slice_rows(table, 0, table.row_count().min(SAMPLE_ROWS)).map_err(other)?;
    let filler = slice_rows(table, 0, table.row_count().min(64)).map_err(other)?;
    cold.put("sample", sample).map_err(other)?;
    cold.put("filler", filler).map_err(other)?;
    // Loading `filler` evicts `sample`, so every timed `get` reads it back
    // from disk.
    let cold_began = Instant::now();
    for _ in 0..KERNEL_CALLS {
        if cold_began.elapsed() >= KERNEL_BUDGET {
            break;
        }
        drop(cold.get("filler").map_err(other)?);
        let (loaded, _) = tracer.time("catalog.resolve_cold", None, "kernel", || {
            cold.get("sample")
        });
        drop(loaded.map_err(other)?);
    }
    let persist_rows = generated_rows.min(SAMPLE_ROWS);
    let mut fresh = seed.wrapping_add(1_000_003) % (1 << 31);
    time_kernel(tracer, "catalog.generate_persist", || {
        fresh += 1;
        cold.materialize_generated(generator, persist_rows, fresh)
            .map(|_| ())
            .map_err(other)
    })
}

/// `server.json_us_per_kb`: re-rendering every reply body the in-process
/// pass produced, microseconds per KiB rendered.
fn json_encode_us_per_kb(bodies: &[String]) -> f64 {
    let values: Vec<Value> = bodies
        .iter()
        .filter_map(|body| parse_value(body).ok())
        .collect();
    let began = Instant::now();
    let rendered: usize = values
        .iter()
        .map(|value| serde_json::render_compact(value).len())
        .sum();
    began.elapsed().as_secs_f64() * 1e6 / (rendered.max(1) as f64 / 1024.0)
}

/// Requests of `route` in one session of `turns` turns.
fn calls_per_session(route: &str, turns: usize) -> f64 {
    match route {
        "next" => (turns + 1) as f64,
        "feedback" | "recommend" => turns as f64,
        _ => 1.0,
    }
}

/// The ledger check. The server's own `handler` stage mean of a route is
/// not one number: it is higher in the measured phase, where requests find
/// the server cold and two sessions' scans overlap, than in the serial
/// segment, where one hot request follows another. The in-process handler
/// time of a gated route must be within [`HANDLER_TOLERANCE`] of the range
/// those two span. Reports how far each route is outside or inside the
/// nearer of the two as a metric and returns the gated routes that fell
/// outside.
fn ledger(
    totals: &BTreeMap<String, NameTotal>,
    phase: (&str, &str),
    serial: (&str, &str),
    turns: usize,
    metrics: &mut Vec<Metric>,
    notes: &mut Vec<String>,
) -> Vec<String> {
    let served_us =
        |(before, after): (&str, &str), label| stage_mean_us(before, after, Some(label), "handler");
    let session_us: f64 = ROUTES
        .iter()
        .map(|(route, label)| served_us(phase, label) * calls_per_session(route, turns))
        .sum();
    let mut outside = Vec::new();
    for (route, label) in ROUTES {
        let handle = mean_us(totals, &format!("server.handle.{route}"));
        let (in_phase, in_serial) = (served_us(phase, label), served_us(serial, label));
        let (low, high) = (in_phase.min(in_serial), in_phase.max(in_serial));
        let share = in_phase * calls_per_session(route, turns) / session_us.max(1e-9);
        let inside = low > 0.0
            && handle >= low * (1.0 - HANDLER_TOLERANCE)
            && handle <= high * (1.0 + HANDLER_TOLERANCE);
        let verdict = if share < GATED_SHARE {
            "not gated"
        } else if inside {
            "ok"
        } else {
            outside.push(format!(
                "ledger: {route} in-process {handle:.1} us, server handler {in_phase:.1} us in the \
                 measured phase and {in_serial:.1} us in the serial segment"
            ));
            "OUTSIDE"
        };
        let gap = ((handle / in_phase.max(1e-9) - 1.0).abs())
            .min((handle / in_serial.max(1e-9) - 1.0).abs());
        metrics.push(metric(&format!("ledger.handle_gap.{route}"), gap, "share"));
        notes.push(format!(
            "ledger {route:<9} in-process handle {handle:.1} us; server handler {in_phase:.1} us \
             in the measured phase (x{:.3}), {in_serial:.1} us in the serial segment (x{:.3}); \
             {:.1} % of a session's handler time: {verdict}",
            handle / in_phase.max(1e-9),
            handle / in_serial.max(1e-9),
            share * 100.0
        ));
    }
    outside
}

pub fn run_traced(workload: Workload, seed: u64, seconds: f64) -> io::Result<Outcome> {
    let script = Script::new(workload, seed);
    let inputs = match workload.kind {
        Kind::LiveTable => Some(LiveInputs::generate(seed).map_err(other)?),
        _ => None,
    };
    let mut tracer = Tracer::new();
    let mut tally = Tally::default();
    let mut env = InProcess::build(workload.kind == Kind::LiveTable)?;
    if let Some(inputs) = &inputs {
        store_inputs(&mut env, &mut tracer, &mut tally, inputs)?;
    }
    prime_datasets(&env, &script)?;

    // ---- the wire ----------------------------------------------------------
    let ready = set_up(&script, inputs.as_ref())?;
    let mut measured = measure(&ready, &script, inputs.as_ref(), seconds, Some(tracer))?;
    let mut tracer = measured.tracer.take().unwrap_or_else(Tracer::new);

    // ---- the ledger's two sides, interleaved -----------------------------------
    replay_half(&mut env, &mut tracer, &mut tally, &script, seconds)?;
    let serial = serial_segment(&ready, &script, seconds)?;
    replay_half(&mut env, &mut tracer, &mut tally, &script, seconds)?;

    let mut outcome = Outcome {
        attempted: ready.attempted + measured.attempted + serial.attempted,
        failed: ready.failures.len() as u64 + measured.failed + serial.failed,
        failures: ready
            .failures
            .iter()
            .chain(&measured.failures)
            .chain(&serial.failures)
            .cloned()
            .collect(),
        ..Outcome::default()
    };
    let generator = check_generator(&workload, &measured, &mut outcome.notes);
    check_golden(
        &workload,
        measured.golden.as_ref(),
        inputs.as_ref(),
        &mut outcome,
    );
    let figures = workload_figures(&ready, &measured);
    let session_rss_kb = held_session_rss_kb(&ready, &script)?;
    drop(ready);
    let scrapes = measured
        .scrapes
        .take()
        .ok_or_else(|| other("the traced wire pass took no scrapes"))?;
    let (before, after, end) = (&scrapes.before, &scrapes.after_latency, &scrapes.end);
    let latency = measured.latency();

    // ---- the kernels -----------------------------------------------------------
    let (dataset, selective) = main_table(&env, &script, workload.kind)?;
    let rows = dataset.table.row_count() as f64;
    if inputs.is_none() {
        ingest_table_head(&mut env, &mut tracer, &mut tally, &dataset.table)?;
    }
    time_kernels(&mut tracer, &dataset, &selective, workload.kind, seed)?;
    let json_us_per_kb = json_encode_us_per_kb(&env.bodies);

    // ---- the numbers ----------------------------------------------------------
    let totals = tracer.totals();
    let mut metrics: Vec<Metric> = vec![
        metric("bench.send_lag_tail_ms", generator.send_lag_tail_ms, "ms"),
        metric(
            "bench.send_lag_in_scan_tail_ms",
            generator.send_lag_in_scan_tail_ms,
            "ms",
        ),
        metric(
            "bench.client_cpu_share",
            generator.client_cpu_share,
            "share",
        ),
        metric("net.parse_us", mean_us(&totals, "net.parse"), "us"),
        metric("net.encode_us", mean_us(&totals, "net.encode"), "us"),
    ];
    for stage in ["parse", "queue_wait", "dispatch", "write"] {
        metrics.push(metric(
            &format!("net.stage.{stage}_us"),
            stage_mean_us(before, after, None, stage),
            "us",
        ));
    }
    metrics.push(metric(
        "net.shed_total",
        series(end, "viewseeker_net_shed_total", &[]),
        "count",
    ));
    metrics.push(metric(
        "net.accepted_total",
        series(end, "viewseeker_net_accepted_total", &[]),
        "count",
    ));
    let mut wire_turns = latency.session_turns_ms.clone();
    let wire_turn_p50 = percentile(&mut wire_turns, 0.5);
    let turn_handlers: f64 = ["feedback", "recommend", "next"]
        .iter()
        .map(|r| mean_us(&totals, &format!("server.handle.{r}")))
        .sum();
    metrics.push(metric(
        "net.wire_us",
        wire_turn_p50 * 1e3 - turn_handlers,
        "us",
    ));

    let mut route_us = tally.route_us.clone();
    metrics.push(metric(
        "cluster.route_us",
        median(&mut route_us).max(0.0),
        "us",
    ));

    for route in [
        "create",
        "next",
        "feedback",
        "recommend",
        "delete",
        "append",
        "upload",
    ] {
        metrics.push(metric(
            &format!("server.handle_us.{route}"),
            mean_us(&totals, &format!("server.handle.{route}")),
            "us",
        ));
    }
    for (route, _) in ROUTES {
        metrics.push(metric(
            &format!("server.self_us.{route}"),
            mean_self_us(&totals, &format!("server.handle.{route}")),
            "us",
        ));
    }
    metrics.push(metric("server.json_us_per_kb", json_us_per_kb, "us/KiB"));
    metrics.push(metric(
        "server.registry_us",
        (mean_us(&totals, "server.registry.create")
            - mean_us(&totals, "catalog.resolve")
            - mean_us(&totals, "core.build_seeker"))
        .max(0.0)
            + (mean_us(&totals, "server.registry.remove") - mean_us(&totals, "core.drop")).max(0.0),
        "us",
    ));
    metrics.push(metric(
        "server.resp_bytes_per_session",
        measured.response_bytes() as f64 / measured.sessions(&workload).max(1.0),
        "B",
    ));

    metrics.push(metric(
        "catalog.resolve_hit_us",
        mean_us(&totals, "catalog.resolve"),
        "us",
    ));
    metrics.push(metric(
        "catalog.resolve_cold_ms",
        mean_us(&totals, "catalog.resolve_cold") / 1e3,
        "ms",
    ));
    metrics.push(metric(
        "catalog.generate_persist_ms",
        mean_us(&totals, "catalog.generate_persist") / 1e3,
        "ms",
    ));
    metrics.push(metric(
        "catalog.import_mb_per_s",
        tally.upload_bytes / mean_us(&totals, "catalog.import").max(1e-9),
        "MB/s",
    ));
    metrics.push(metric(
        "catalog.append_ms_per_krow",
        mean_us(&totals, "catalog.append") / 1e3 / (tally.append_rows / 1e3).max(1e-9),
        "ms",
    ));
    let hits = series(end, "viewseeker_catalog_hits_total", &[]);
    let misses = series(end, "viewseeker_catalog_misses_total", &[]);
    metrics.push(metric(
        "catalog.hit_ratio",
        hits / (hits + misses).max(1.0),
        "share",
    ));
    metrics.push(metric(
        "catalog.evictions",
        series(end, "viewseeker_catalog_evictions_total", &[]),
        "count",
    ));
    let pruned = series(end, "viewseeker_catalog_rowgroups_pruned_total", &[]);
    let scanned = series(end, "viewseeker_catalog_rowgroups_scanned_total", &[]);
    metrics.push(metric(
        "catalog.rowgroups_pruned_ratio",
        pruned / (pruned + scanned).max(1.0),
        "share",
    ));
    metrics.push(metric(
        "catalog.disk_bytes_per_row",
        figures.disk_bytes_per_row,
        "B",
    ));

    metrics.push(metric(
        "core.build_seeker_ms",
        mean_us(&totals, "core.build_seeker") / 1e3,
        "ms",
    ));
    metrics.push(metric(
        "core.viewspace_us",
        mean_us(&totals, "core.viewspace"),
        "us",
    ));
    metrics.push(metric(
        "core.materialize_ms",
        mean_us(&totals, "core.materialize") / 1e3,
        "ms",
    ));
    metrics.push(metric(
        "core.features_us",
        mean_us(&totals, "core.features"),
        "us",
    ));
    metrics.push(metric("core.next_us", mean_us(&totals, "core.next"), "us"));
    metrics.push(metric(
        "core.feedback_us",
        mean_us(&totals, "core.feedback"),
        "us",
    ));
    metrics.push(metric(
        "core.recommend_us",
        mean_us(&totals, "core.recommend"),
        "us",
    ));
    metrics.push(metric("core.drop_us", mean_us(&totals, "core.drop"), "us"));
    metrics.push(metric(
        "core.refine_ms_per_view",
        if tally.refined > 0.0 {
            tally.refine_s * 1e3 / tally.refined
        } else {
            0.0
        },
        "ms",
    ));
    metrics.push(metric(
        "core.refined_per_turn",
        figures.refined_per_turn,
        "count",
    ));
    metrics.push(metric("core.session_rss_kb", session_rss_kb, "KiB"));

    metrics.push(metric(
        "dataset.scan_ns_per_row",
        tally.scan_us * 1e3 / tally.scan_rows.max(1.0),
        "ns",
    ));
    metrics.push(metric(
        "dataset.scan_ns_per_row_view",
        tally.scan_us * 1e3 / tally.scan_row_views.max(1.0),
        "ns",
    ));
    metrics.push(metric(
        "dataset.pruned_scan_ns_per_row",
        mean_us(&totals, "dataset.pruned_scan") * 1e3 / rows,
        "ns",
    ));
    metrics.push(metric(
        "dataset.predicate_ns_per_row",
        mean_us(&totals, "dataset.predicate") * 1e3 / rows,
        "ns",
    ));
    metrics.push(metric(
        "dataset.zone_build_ms",
        mean_us(&totals, "dataset.zone_build") / 1e3,
        "ms",
    ));
    metrics.push(metric(
        "dataset.csv_parse_mb_per_s",
        tally.upload_bytes / mean_us(&totals, "dataset.csv_parse").max(1e-9),
        "MB/s",
    ));
    metrics.push(metric(
        "dataset.generate_ms",
        mean_us(&totals, "dataset.generate") / 1e3,
        "ms",
    ));

    metrics.push(metric("learn.fit_us", mean_us(&totals, "learn.fit"), "us"));
    metrics.push(metric(
        "learn.predict_us",
        mean_us(&totals, "learn.predict"),
        "us",
    ));
    metrics.push(metric(
        "stats.features_us_per_view",
        mean_us(&totals, "stats.features") / tally.views.max(1.0),
        "us",
    ));

    // The workload-specific end-to-end figures, seen from the wire over the
    // same phases as an untraced run.
    metrics.push(metric("wire.append_p50_ms", figures.append_p50_ms, "ms"));
    metrics.push(metric(
        "wire.ingest_mb_per_s",
        figures.ingest_mb_per_s,
        "MB/s",
    ));
    metrics.push(metric(
        "wire.refined_views_per_s",
        figures.refined_views_per_s,
        "1/s",
    ));
    metrics.push(metric("wire.turn_p50_ms", wire_turn_p50, "ms"));

    // ---- the ledger -------------------------------------------------------------
    outcome.notes.push(format!(
        "wire pass: {} sessions' worth of requests; in-process pass: {} sessions replayed, {} spans",
        measured.sessions(&workload).round(),
        tally.sessions,
        tracer.spans().len()
    ));
    outcome.tripped = generator.tripped;
    outcome.tripped.extend(ledger(
        &totals,
        (before, after),
        (&serial.before, &serial.after),
        workload.turns,
        &mut metrics,
        &mut outcome.notes,
    ));

    let path = out_dir().join(format!("trace-{}.json", workload.name));
    tracer.write_chrome(&path)?;
    outcome
        .notes
        .push(format!("spans written to {}", path.display()));
    outcome.metrics = metrics;
    Ok(outcome)
}

/// The first [`APPEND_ROWS`] data rows of a CSV body, header included: an
/// append-sized body in the same schema.
fn slice_append(csv: &[u8]) -> io::Result<Vec<u8>> {
    let mut end = 0;
    let mut lines = 0;
    for (i, byte) in csv.iter().enumerate() {
        if *byte == b'\n' {
            lines += 1;
            end = i + 1;
            if lines == APPEND_ROWS + 1 {
                break;
            }
        }
    }
    if lines < 2 {
        return Err(other("csv body has no rows"));
    }
    Ok(csv[..end].to_vec())
}
