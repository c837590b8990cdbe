//! Subcommand implementations.

use std::fs::File;
use std::io::{BufRead, Write};

use viewseeker_core::persist::SessionSnapshot;
use viewseeker_core::scatter::{materialize_scatter, scatter_feature_matrix, ScatterSpace};
use viewseeker_core::viewgen::{bin_spec_for, materialize_view};
use viewseeker_core::{
    tie_aware_precision_at_k, FeedbackSession, UtilityFeature, ViewId, ViewSeeker, ViewSeekerConfig,
};
use viewseeker_dataset::csv::{infer_schema, read_csv, write_csv};
use viewseeker_dataset::generate::{generate_diab, generate_syn, DiabConfig, SynConfig};
use viewseeker_dataset::schema::{AttributeRole, ColumnMeta, ColumnType};
use viewseeker_dataset::sql::parse_where;
use viewseeker_dataset::{Schema, SelectQuery, Table};
use viewseeker_eval::runner::{exact_feature_matrix, run_session, RunnerConfig, StopCriterion};
use viewseeker_eval::SimulatedUser;

use crate::chart::{render_density_grid, render_ranking, render_view};
use crate::cli::{ClusterCmd, Command, DatasetCmd, USAGE};
use crate::parse::parse_utility;

/// Executes a parsed command.
///
/// # Errors
///
/// Returns a human-readable message for any I/O, parse, or engine failure.
pub fn run(cmd: Command) -> Result<(), String> {
    match cmd {
        Command::Help => {
            println!("{USAGE}");
            Ok(())
        }
        Command::Generate {
            dataset,
            rows,
            seed,
            out,
        } => generate(&dataset, rows, seed, &out),
        Command::Views { data, query, bins } => views(&data, &query, &bins),
        Command::Rank {
            data,
            query,
            utility,
            k,
            bins,
            diverse,
        } => rank(&data, &query, &utility, k, &bins, diverse),
        Command::Explore {
            data,
            query,
            k,
            alpha,
            exclude,
            bins,
            save,
            resume,
        } => explore(&data, &query, k, alpha, exclude, &bins, save, resume),
        Command::Serve {
            addr,
            workers,
            max_sessions,
            ttl_secs,
            snapshot_dir,
            data_dir,
            catalog_mem_budget,
            log_format,
            log_level,
            max_inflight,
            queue_deadline_ms,
            shards,
            peers,
        } => serve(ServeArgs {
            addr,
            workers,
            max_sessions,
            ttl_secs,
            snapshot_dir,
            data_dir,
            catalog_mem_budget,
            log_format,
            log_level,
            max_inflight,
            queue_deadline_ms,
            shards,
            peers,
        }),
        Command::Trace {
            addr,
            format,
            n,
            out,
        } => trace_cmd(&addr, &format, n, out),
        Command::Dataset(cmd) => dataset(cmd),
        Command::Cluster(cmd) => cluster(cmd),
        Command::Scatter {
            data,
            query,
            ideal,
            grid,
            k,
            max_labels,
        } => scatter(&data, &query, &ideal, grid, k, max_labels),
        Command::Simulate {
            data,
            query,
            ideal,
            k,
            max_labels,
            bins,
        } => simulate(&data, &query, &ideal, k, max_labels, &bins),
    }
}

/// Everything `viewseeker serve` needs, bundled so the flag list can grow
/// without the argument count.
struct ServeArgs {
    addr: String,
    workers: usize,
    max_sessions: usize,
    ttl_secs: u64,
    snapshot_dir: Option<String>,
    data_dir: Option<String>,
    catalog_mem_budget: u64,
    log_format: viewseeker_server::LogFormat,
    log_level: viewseeker_server::LogLevel,
    max_inflight: usize,
    queue_deadline_ms: u64,
    shards: usize,
    peers: Vec<String>,
}

fn serve(args: ServeArgs) -> Result<(), String> {
    let ServeArgs {
        addr,
        workers,
        max_sessions,
        ttl_secs,
        snapshot_dir,
        data_dir,
        catalog_mem_budget,
        log_format,
        log_level,
        max_inflight,
        queue_deadline_ms,
        shards,
        peers,
    } = args;
    let config = viewseeker_server::ServerConfig {
        addr: addr.clone(),
        workers,
        max_sessions,
        ttl: std::time::Duration::from_secs(ttl_secs),
        snapshot_dir: snapshot_dir.map(std::path::PathBuf::from),
        data_dir: data_dir.map(std::path::PathBuf::from),
        catalog_mem_budget,
        log_format,
        log_level,
        max_inflight,
        queue_deadline_ms,
        shards,
        peers,
    };
    let handle =
        viewseeker_server::serve_app(&config).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    println!(
        "viewseeker-server listening on http://{} ({workers} workers, \
         {max_sessions} max sessions, {ttl_secs}s TTL)",
        handle.addr()
    );
    if config.shards > 1 || !config.peers.is_empty() {
        println!(
            "  cluster: {} local shard(s), {} peer(s) — GET /cluster for status",
            config.shards.max(1),
            config.peers.len()
        );
    }
    println!("  POST /sessions             {{\"dataset\": \"diab\", \"query\": \"a0 = 'a0_v0'\"}}");
    println!("  GET  /sessions/:id/next?m=1");
    println!("  POST /sessions/:id/feedback {{\"view\": 0, \"score\": 0.8}}");
    println!("  GET  /sessions/:id/recommend?k=5[&lambda=0.5]");
    println!("  POST /datasets/:name        (body: raw CSV)");
    println!("  GET  /datasets");
    println!("  GET  /healthz");
    println!("  GET  /metrics              (Prometheus text format)");
    println!("  GET  /debug/traces         (tail-sampled slow-request traces)");
    println!("Ctrl-C to stop.");
    // Serve until killed: the accept loop and workers run on their own
    // threads, so park this one forever.
    loop {
        std::thread::park();
    }
}

/// One blocking HTTP/1.1 GET against `addr`; returns `(status, body)`.
/// Rides the same incremental parser as the server, so framing
/// (keep-alive headers, content-length) is never hand-rolled here.
fn http_get(addr: &str, path_and_query: &str) -> Result<(u16, String), String> {
    use std::io::Read;
    let mut stream =
        std::net::TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    stream
        .write_all(
            format!("GET {path_and_query} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n")
                .as_bytes(),
        )
        .map_err(|e| format!("sending request: {e}"))?;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    loop {
        if let Some(parsed) = viewseeker_net::http1::parse_response(&buf)
            .map_err(|e| format!("bad response from {addr}: {e}"))?
        {
            let body = String::from_utf8_lossy(&parsed.body).into_owned();
            return Ok((parsed.status, body));
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Err(format!("{addr} closed the connection mid-response")),
            Ok(n) => buf.extend_from_slice(chunk.get(..n).unwrap_or_default()),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("reading response: {e}")),
        }
    }
}

/// `viewseeker trace`: fetches `GET /debug/traces` from a running server
/// and either re-emits the raw export (`chrome`, `folded`) or renders a
/// human summary table of the retained slow/errored/shed requests.
fn trace_cmd(addr: &str, format: &str, n: usize, out: Option<String>) -> Result<(), String> {
    let wire_format = if format == "summary" {
        "chrome"
    } else {
        format
    };
    let (status, body) = http_get(addr, &format!("/debug/traces?format={wire_format}&n={n}"))?;
    if status != 200 {
        return Err(format!("{addr} answered {status}: {body}"));
    }
    if let Some(path) = &out {
        std::fs::write(path, format!("{body}\n")).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {} bytes to {path}", body.len() + 1);
    }
    match format {
        "summary" => print_trace_summary(&body),
        _ => {
            if out.is_none() {
                println!("{body}");
            }
            Ok(())
        }
    }
}

/// Renders the Chrome trace-event export as one line per request plus an
/// indented stage breakdown, slowest first (the export order).
fn print_trace_summary(chrome_json: &str) -> Result<(), String> {
    let parsed = serde_json::parse_value(chrome_json)
        .map_err(|e| format!("unparseable /debug/traces payload: {e}"))?;
    let Some(serde_json::Value::Array(events)) = parsed.get("traceEvents").map(ToOwned::to_owned)
    else {
        return Err("payload has no traceEvents array".into());
    };
    let requests: Vec<&serde_json::Value> = events
        .iter()
        .filter(|e| e.get("cat").and_then(|c| c.as_str()) == Some("request"))
        .collect();
    if requests.is_empty() {
        println!("(no traces retained — the sampler keeps slow, errored, and shed requests)");
        return Ok(());
    }
    println!("{} retained trace(s) from /debug/traces:\n", requests.len());
    for request in requests {
        let tid = request.get("tid").and_then(|t| t.as_u64()).unwrap_or(0);
        let name = request.get("name").and_then(|v| v.as_str()).unwrap_or("?");
        let dur = request.get("dur").and_then(|v| v.as_u64()).unwrap_or(0);
        let args = request.get("args");
        let field = |key: &str| -> String {
            args.and_then(|a| a.get(key))
                .map(|v| match v.as_str() {
                    Some(s) => s.to_owned(),
                    None => serde_json::render_compact(v),
                })
                .unwrap_or_default()
        };
        println!(
            "{name}  [{}]  status={} route={:?} total={dur}us{}",
            field("request_id"),
            field("status"),
            field("route"),
            if field("shed") == "true" { " SHED" } else { "" },
        );
        for stage in events.iter().filter(|e| {
            e.get("cat").and_then(|c| c.as_str()) == Some("stage")
                && e.get("tid").and_then(|t| t.as_u64()) == Some(tid)
        }) {
            let parent = stage
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(|p| p.as_str())
                .unwrap_or("");
            let indent = if parent.is_empty() { "  " } else { "      " };
            println!(
                "{indent}{:<16} {:>9}us",
                stage.get("name").and_then(|v| v.as_str()).unwrap_or("?"),
                stage.get("dur").and_then(|v| v.as_u64()).unwrap_or(0),
            );
        }
        println!();
    }
    Ok(())
}

/// `viewseeker dataset import|append|list|inspect` over a catalog
/// directory. No
/// server involved: the catalog is opened in-process with a small cache
/// budget, so these work against the same directory a server later mounts
/// with `--data-dir`.
fn dataset(cmd: DatasetCmd) -> Result<(), String> {
    use viewseeker_catalog::Catalog;
    const CLI_CACHE_BUDGET: u64 = 64 << 20;
    match cmd {
        DatasetCmd::Import {
            data_dir,
            csv,
            name,
        } => {
            let catalog = Catalog::open(&data_dir, CLI_CACHE_BUDGET).map_err(|e| e.to_string())?;
            let name = match name {
                Some(n) => n,
                None => std::path::Path::new(&csv)
                    .file_stem()
                    .and_then(|s| s.to_str())
                    .map(str::to_owned)
                    .ok_or_else(|| format!("cannot derive a dataset name from {csv:?}"))?,
            };
            let bytes = std::fs::read(&csv).map_err(|e| format!("reading {csv}: {e}"))?;
            let entry = catalog
                .import_csv_bytes(&name, &bytes)
                .map_err(|e| e.to_string())?;
            println!(
                "imported {} ({} rows, {} columns, checksum {})",
                entry.name,
                entry.table.row_count(),
                entry.table.schema().len(),
                entry.checksum
            );
            Ok(())
        }
        DatasetCmd::Append {
            data_dir,
            csv,
            name,
        } => {
            let catalog = Catalog::open(&data_dir, CLI_CACHE_BUDGET).map_err(|e| e.to_string())?;
            let bytes = std::fs::read(&csv).map_err(|e| format!("reading {csv}: {e}"))?;
            let outcome = catalog
                .append_csv_bytes(&name, &bytes)
                .map_err(|e| e.to_string())?;
            println!(
                "appended {} rows to {} ({} rows total, checksum {})",
                outcome.appended, outcome.entry.name, outcome.total_rows, outcome.entry.checksum
            );
            Ok(())
        }
        DatasetCmd::List { data_dir } => {
            let catalog = Catalog::open(&data_dir, CLI_CACHE_BUDGET).map_err(|e| e.to_string())?;
            let datasets = catalog.list();
            if datasets.is_empty() {
                println!("(no datasets in {data_dir})");
                return Ok(());
            }
            println!("{:<24} {:>10} {:>12}  COLUMNS", "NAME", "ROWS", "BYTES");
            for d in datasets {
                println!(
                    "{:<24} {:>10} {:>12}  {}",
                    d.name,
                    d.rows,
                    d.bytes,
                    d.columns.len()
                );
            }
            Ok(())
        }
        DatasetCmd::Inspect { data_dir, name } => {
            let catalog = Catalog::open(&data_dir, CLI_CACHE_BUDGET).map_err(|e| e.to_string())?;
            let detail = catalog.describe(&name).map_err(|e| e.to_string())?;
            println!(
                "{}: {} rows, {} bytes resident, checksum {}",
                detail.name, detail.rows, detail.resident_bytes, detail.checksum
            );
            println!(
                "{:<24} {:<12} {:<10} {:>12}",
                "COLUMN", "TYPE", "ROLE", "CARDINALITY"
            );
            for c in detail.columns {
                println!(
                    "{:<24} {:<12} {:<10} {:>12}",
                    c.name, c.kind, c.role, c.cardinality
                );
            }
            Ok(())
        }
    }
}

/// `viewseeker cluster status`: fetches `GET /cluster` from a running
/// deployment and renders the ring membership and migration totals as a
/// human table.
fn cluster(cmd: ClusterCmd) -> Result<(), String> {
    let ClusterCmd::Status { addr } = cmd;
    let (status, body) = http_get(&addr, "/cluster")?;
    if status != 200 {
        return Err(format!("{addr} answered {status}: {body}"));
    }
    let parsed =
        serde_json::parse_value(&body).map_err(|e| format!("unparseable /cluster payload: {e}"))?;
    let truthy = |v: Option<&serde_json::Value>| matches!(v, Some(serde_json::Value::Bool(true)));
    let num = |key: &str| parsed.get(key).and_then(|v| v.as_u64()).unwrap_or(0);
    let peer_count = parsed
        .get("peers")
        .and_then(|v| v.as_array())
        .map_or(0, <[serde_json::Value]>::len);
    println!(
        "cluster at {addr}: {} local shard(s), {} peer(s){}",
        num("local_shards"),
        peer_count,
        if truthy(parsed.get("rebalancing")) {
            "  [REBALANCING]"
        } else {
            ""
        }
    );
    println!(
        "forwarded {} (errors {}), migrated {} (errors {})\n",
        num("forwarded"),
        num("forward_errors"),
        num("migrated_ok"),
        num("migrated_err")
    );
    println!(
        "{:<24} {:<6} {:>10} {:>10}  UP",
        "MEMBER", "KIND", "ROUTED", "SESSIONS"
    );
    let members = parsed
        .get("members")
        .and_then(|v| v.as_array().map(<[serde_json::Value]>::to_vec))
        .unwrap_or_default();
    for m in &members {
        println!(
            "{:<24} {:<6} {:>10} {:>10}  {}",
            m.get("name").and_then(|v| v.as_str()).unwrap_or("?"),
            if truthy(m.get("local")) {
                "shard"
            } else {
                "peer"
            },
            m.get("routed").and_then(|v| v.as_u64()).unwrap_or(0),
            m.get("sessions").and_then(|v| v.as_u64()).unwrap_or(0),
            if truthy(m.get("up")) { "yes" } else { "NO" }
        );
    }
    Ok(())
}

fn generate(dataset: &str, rows: Option<usize>, seed: u64, out: &str) -> Result<(), String> {
    let table = match dataset {
        "diab" => generate_diab(&DiabConfig::small(rows.unwrap_or(20_000), seed))
            .map_err(|e| e.to_string())?,
        "syn" => generate_syn(&SynConfig::small(rows.unwrap_or(50_000), seed))
            .map_err(|e| e.to_string())?,
        other => return Err(format!("unknown dataset {other:?} (expected diab or syn)")),
    };
    let table = catalog_named(&table)?;
    let file = File::create(out).map_err(|e| format!("creating {out}: {e}"))?;
    write_csv(&table, std::io::BufWriter::new(file)).map_err(|e| e.to_string())?;
    println!(
        "wrote {} rows × {} columns to {out}",
        table.row_count(),
        table.schema().len()
    );
    Ok(())
}

/// `table` under the header convention CSVs are read back with: measures
/// `m3` → `m_3`, numeric dimensions `d0` → `n_d0`, categorical dimensions
/// unchanged.
fn catalog_named(table: &Table) -> Result<Table, String> {
    let metas = table.schema().columns().iter().map(|c| ColumnMeta {
        name: match (c.role, c.column_type) {
            (AttributeRole::Measure, _) => format!("m_{}", c.name.trim_start_matches('m')),
            (_, ColumnType::Numeric) => format!("n_{}", c.name),
            (_, ColumnType::Categorical) => c.name.clone(),
        },
        ..c.clone()
    });
    let schema = Schema::new(metas.collect()).map_err(|e| e.to_string())?;
    let columns = (0..schema.len()).map(|i| table.column(i).clone()).collect();
    Table::new(schema, columns).map_err(|e| e.to_string())
}

/// Reads the CSV at `path` the way `Catalog::import_csv_bytes` does (the
/// schema from the header convention, then the rows) and compiles `query`,
/// a SQL WHERE clause.
fn load(path: &str, query: &str) -> Result<(Table, SelectQuery), String> {
    let open = || {
        std::fs::File::open(path)
            .map(std::io::BufReader::new)
            .map_err(|e| format!("reading {path}: {e}"))
    };
    let schema = infer_schema(open()?).map_err(|e| e.to_string())?;
    let table = read_csv(&schema, open()?).map_err(|e| e.to_string())?;
    let predicate = parse_where(query).map_err(|e| format!("bad query {query:?}: {e}"))?;
    Ok((table, SelectQuery::new(predicate)))
}

fn views(data: &str, query: &str, bins: &[usize]) -> Result<(), String> {
    let (table, q) = load(data, query)?;
    let dq = q.execute(&table).map_err(|e| e.to_string())?;
    let space = viewseeker_core::ViewSpace::enumerate(&table, bins).map_err(|e| e.to_string())?;
    println!(
        "{} rows total, query selects {} ({:.2}%)",
        table.row_count(),
        dq.len(),
        100.0 * dq.len() as f64 / table.row_count().max(1) as f64
    );
    println!("view space: {} candidate views\n", space.len());
    for id in space.ids() {
        println!(
            "  [{:>3}] {}",
            id.index(),
            space.def(id).map_err(|e| e.to_string())?
        );
    }
    Ok(())
}

fn rank(
    data: &str,
    query: &str,
    utility: &str,
    k: usize,
    bins: &[usize],
    diverse: Option<f64>,
) -> Result<(), String> {
    let (table, q) = load(data, query)?;
    let composite = parse_utility(utility)?;
    let config = ViewSeekerConfig {
        bin_configs: bins.to_vec(),
        ..ViewSeekerConfig::default()
    };
    let matrix = exact_feature_matrix(&table, &q, &config).map_err(|e| e.to_string())?;
    let space = viewseeker_core::ViewSpace::enumerate(&table, bins).map_err(|e| e.to_string())?;
    let scores = composite.scores(&matrix).map_err(|e| e.to_string())?;
    let top = match diverse {
        Some(lambda) => viewseeker_core::diverse_top_k(&matrix, &scores, k, lambda)
            .map_err(|e| e.to_string())?,
        None => composite.top_k(&matrix, k).map_err(|e| e.to_string())?,
    };

    match diverse {
        Some(lambda) => println!(
            "top-{k} views by fixed utility {} (MMR-diversified, λ = {lambda})\n",
            composite.name()
        ),
        None => println!("top-{k} views by fixed utility {}\n", composite.name()),
    }
    let rows: Vec<(usize, String, f64)> = top
        .iter()
        .enumerate()
        .map(|(i, v)| {
            Ok((
                i + 1,
                space.def(*v).map_err(|e| e.to_string())?.to_string(),
                scores[v.index()],
            ))
        })
        .collect::<Result<_, String>>()?;
    println!("{}", render_ranking(&rows));

    // Chart the winner.
    if let Some(best) = top.first() {
        let def = space.def(*best).map_err(|e| e.to_string())?;
        let dq = q.execute(&table).map_err(|e| e.to_string())?;
        let spec = bin_spec_for(&table, def).map_err(|e| e.to_string())?;
        let vd =
            materialize_view(&table, &dq, &table.all_rows(), def).map_err(|e| e.to_string())?;
        println!("{}", render_view(&def.to_string(), &spec, &vd));
    }
    Ok(())
}

/// One line of user input during `explore`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RatingInput {
    /// A 0–1 interestingness rating.
    Score(f64),
    /// Show the current top-k and continue.
    ShowTop,
    /// End the session.
    Quit,
}

/// Parses a rating prompt line.
///
/// # Errors
///
/// Returns a help message for unrecognized input.
pub fn parse_rating(line: &str) -> Result<RatingInput, String> {
    match line.trim().to_ascii_lowercase().as_str() {
        "q" | "quit" | "done" => Ok(RatingInput::Quit),
        "t" | "top" => Ok(RatingInput::ShowTop),
        other => {
            let score: f64 = other.parse().map_err(|_| {
                "enter a rating in [0,1], 't' for top-k, or 'q' to finish".to_owned()
            })?;
            if (0.0..=1.0).contains(&score) {
                Ok(RatingInput::Score(score))
            } else {
                Err(format!("rating {score} outside [0,1]"))
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn explore(
    data: &str,
    query: &str,
    k: usize,
    alpha: f64,
    exclude: Vec<String>,
    bins: &[usize],
    save: Option<String>,
    resume: Option<String>,
) -> Result<(), String> {
    let (table, q) = load(data, query)?;
    let config = ViewSeekerConfig {
        bin_configs: bins.to_vec(),
        alpha,
        excluded_dimensions: exclude,
        ..ViewSeekerConfig::default()
    };
    let mut seeker = match resume {
        Some(path) => {
            let json =
                std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
            let snapshot = SessionSnapshot::from_json(&json).map_err(|e| e.to_string())?;
            let restored = snapshot
                .restore_seeker(&table, &q, config)
                .map_err(|e| e.to_string())?;
            println!(
                "resumed session from {path}: {} labels replayed",
                restored.label_count()
            );
            restored
        }
        None => ViewSeeker::new(&table, &q, config).map_err(|e| e.to_string())?,
    };
    let dq = seeker.dq().clone();
    println!(
        "exploring {} rows ({} selected by the query); {} candidate views",
        table.row_count(),
        dq.len(),
        seeker.view_space().len()
    );
    println!("rate each view 0 (boring) … 1 (fascinating); 't' shows the top-{k}; 'q' finishes\n");

    let stdin = std::io::stdin();
    let mut line = String::new();
    'session: loop {
        let Some(view) = seeker.next_views(1).map_err(|e| e.to_string())?.pop() else {
            println!("every view has been labeled — ending the session");
            break;
        };
        show_view(&table, &dq, &seeker, view)?;
        loop {
            print!("your rating> ");
            std::io::stdout().flush().map_err(|e| e.to_string())?;
            line.clear();
            if stdin
                .lock()
                .read_line(&mut line)
                .map_err(|e| e.to_string())?
                == 0
            {
                break 'session; // EOF
            }
            match parse_rating(&line) {
                Ok(RatingInput::Quit) => break 'session,
                Ok(RatingInput::ShowTop) => {
                    if seeker.label_count() == 0 {
                        println!("(no labels yet — rate at least one view first)");
                    } else {
                        print_top_k(&seeker, k)?;
                    }
                }
                Ok(RatingInput::Score(score)) => {
                    seeker
                        .submit_feedback(view, score)
                        .map_err(|e| e.to_string())?;
                    break;
                }
                Err(msg) => println!("{msg}"),
            }
        }
    }

    if let Some(path) = save {
        let json = SessionSnapshot::from_seeker(&seeker)
            .to_json()
            .map_err(|e| e.to_string())?;
        std::fs::write(&path, json).map_err(|e| format!("writing {path}: {e}"))?;
        println!("session snapshot saved to {path}");
    }
    if seeker.label_count() == 0 {
        println!("no feedback collected; nothing to recommend");
        return Ok(());
    }
    println!(
        "\nsession finished after {} labels — your personalized top-{k}:\n",
        seeker.label_count()
    );
    print_top_k(&seeker, k)?;
    if let Some(weights) = seeker.learned_weights() {
        println!("\nyour learned utility function:");
        for (feature, w) in UtilityFeature::all().iter().zip(weights) {
            println!("  {feature:<10} {w:+.3}");
        }
    }
    Ok(())
}

fn show_view(
    table: &Table,
    dq: &viewseeker_dataset::RowSet,
    seeker: &ViewSeeker<'_>,
    view: ViewId,
) -> Result<(), String> {
    let def = seeker.view_space().def(view).map_err(|e| e.to_string())?;
    let spec = bin_spec_for(table, def).map_err(|e| e.to_string())?;
    let vd = materialize_view(table, dq, &table.all_rows(), def).map_err(|e| e.to_string())?;
    println!("{}", render_view(&def.to_string(), &spec, &vd));
    Ok(())
}

fn print_top_k(seeker: &ViewSeeker<'_>, k: usize) -> Result<(), String> {
    let scores = seeker.predicted_scores().map_err(|e| e.to_string())?;
    let rows: Vec<(usize, String, f64)> = seeker
        .recommend(k)
        .map_err(|e| e.to_string())?
        .iter()
        .enumerate()
        .map(|(i, v)| {
            Ok((
                i + 1,
                seeker
                    .view_space()
                    .def(*v)
                    .map_err(|e| e.to_string())?
                    .to_string(),
                scores[v.index()],
            ))
        })
        .collect::<Result<_, String>>()?;
    println!("{}", render_ranking(&rows));
    Ok(())
}

fn simulate(
    data: &str,
    query: &str,
    ideal: &str,
    k: usize,
    max_labels: usize,
    bins: &[usize],
) -> Result<(), String> {
    let (table, q) = load(data, query)?;
    let composite = parse_utility(ideal)?;
    let config = ViewSeekerConfig {
        bin_configs: bins.to_vec(),
        ..ViewSeekerConfig::default()
    };
    println!(
        "simulating a user whose hidden ideal utility is {}\n",
        composite.name()
    );
    let outcome = run_session(
        &table,
        &q,
        config.clone(),
        &composite,
        &RunnerConfig {
            k,
            max_labels,
            stop: StopCriterion::Precision(1.0),
        },
    )
    .map_err(|e| e.to_string())?;

    for (i, (p, ud)) in outcome
        .precision_trace
        .iter()
        .zip(&outcome.ud_trace)
        .enumerate()
    {
        println!(
            "label {:>3}: precision@{k} {:>5.1}%   utility distance {:.4}",
            i + 1,
            p * 100.0,
            ud
        );
    }
    println!(
        "\n{} after {} labels (init {:.2?}, user-perceived total {:.2?})",
        if outcome.converged {
            "reached 100% precision"
        } else {
            "stopped at the label budget"
        },
        outcome.labels_used,
        outcome.init_time,
        outcome.system_time,
    );

    // Show what the user would have seen: the ideal top-k.
    let matrix = exact_feature_matrix(&table, &q, &config).map_err(|e| e.to_string())?;
    let space = viewseeker_core::ViewSpace::enumerate(&table, bins).map_err(|e| e.to_string())?;
    let user = SimulatedUser::new(&composite, &matrix).map_err(|e| e.to_string())?;
    println!("\nideal top-{k} under that utility:");
    let rows: Vec<(usize, String, f64)> = user
        .ideal_top_k(k)
        .iter()
        .enumerate()
        .map(|(i, v)| {
            Ok((
                i + 1,
                space.def(*v).map_err(|e| e.to_string())?.to_string(),
                user.label(*v).map_err(|e| e.to_string())?,
            ))
        })
        .collect::<Result<_, String>>()?;
    println!("{}", render_ranking(&rows));
    Ok(())
}

/// Simulated session over scatter-plot views.
fn scatter(
    data: &str,
    query: &str,
    ideal: &str,
    grid: usize,
    k: usize,
    max_labels: usize,
) -> Result<(), String> {
    let (table, q) = load(data, query)?;
    let composite = parse_utility(ideal)?;
    let dq = q.execute(&table).map_err(|e| e.to_string())?;
    let space = ScatterSpace::enumerate(&table, grid).map_err(|e| e.to_string())?;
    println!(
        "scatter view space: {} measure pairs on a {grid}x{grid} grid",
        space.len()
    );
    let matrix =
        scatter_feature_matrix(&table, &dq, &table.all_rows(), &space, (grid * grid) as f64)
            .map_err(|e| e.to_string())?;
    let truth = composite
        .normalized_scores(&matrix)
        .map_err(|e| e.to_string())?;

    let mut session =
        FeedbackSession::new(matrix, ViewSeekerConfig::default()).map_err(|e| e.to_string())?;
    let mut labels = 0;
    let mut precision = 0.0;
    while labels < max_labels && precision < 1.0 {
        let Some(item) = session.next_items(1).map_err(|e| e.to_string())?.pop() else {
            break;
        };
        session
            .submit_feedback(item, truth[item.index()])
            .map_err(|e| e.to_string())?;
        labels += 1;
        precision =
            tie_aware_precision_at_k(&truth, &session.recommend(k).map_err(|e| e.to_string())?, k);
    }
    println!(
        "after {labels} simulated ratings: precision@{k} = {:.0}%\n",
        precision * 100.0
    );

    println!("top-{k} scatter views:");
    for (rank, item) in session
        .recommend(k)
        .map_err(|e| e.to_string())?
        .iter()
        .enumerate()
    {
        let def = space.def(*item).map_err(|e| e.to_string())?;
        println!("  {}. {def}", rank + 1);
    }
    // Render the winner's density comparison.
    if let Some(best) = session.recommend(1).map_err(|e| e.to_string())?.first() {
        let def = space.def(*best).map_err(|e| e.to_string())?;
        let vd =
            materialize_scatter(&table, &dq, &table.all_rows(), def).map_err(|e| e.to_string())?;
        println!();
        print!(
            "{}",
            render_density_grid(
                &def.to_string(),
                grid,
                vd.target.masses(),
                vd.reference.masses()
            )
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rating_parser_accepts_scores_and_commands() {
        assert_eq!(parse_rating("0.7").unwrap(), RatingInput::Score(0.7));
        assert_eq!(parse_rating(" 1 ").unwrap(), RatingInput::Score(1.0));
        assert_eq!(parse_rating("q").unwrap(), RatingInput::Quit);
        assert_eq!(parse_rating("DONE").unwrap(), RatingInput::Quit);
        assert_eq!(parse_rating("t").unwrap(), RatingInput::ShowTop);
        assert!(parse_rating("1.5").is_err());
        assert!(parse_rating("meh").is_err());
    }

    /// Generates `dataset` into a file, loads it as the CLI does, and
    /// checks the catalog infers the same schema from the same bytes.
    fn load_generated(dataset: &str, rows: usize) -> Table {
        let name = format!("viewseeker_cli_{dataset}_{}.csv", std::process::id());
        let path = std::env::temp_dir().join(name);
        let path_str = path.to_str().unwrap();
        generate(dataset, Some(rows), 3, path_str).unwrap();
        let (table, _) = load(path_str, "*").unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let catalog = viewseeker_catalog::Catalog::in_memory(64 << 20);
        let entry = catalog.import_csv_bytes("t", &bytes).unwrap();
        assert_eq!(table.schema(), entry.table.schema());
        assert_eq!(table.row_count(), entry.table.row_count());
        table
    }

    #[test]
    fn generate_then_load_round_trip() {
        let table = load_generated("diab", 300);
        assert_eq!(table.row_count(), 300);
        assert_eq!(table.measure_names().len(), 8);
        assert_eq!(table.dimension_names().len(), 7);
        assert_eq!(table.measure_names()[0], "m_0");
    }

    #[test]
    fn syn_load_infers_numeric_dimensions() {
        let table = load_generated("syn", 200);
        let dims = ["n_d0", "n_d1", "n_d2", "n_d3", "n_d4"];
        assert_eq!(table.dimension_names(), dims);
        assert!(!table.column_by_name("n_d0").unwrap().is_categorical());
    }

    #[test]
    fn unknown_dataset_rejected() {
        assert!(generate("nope", None, 1, "/tmp/x.csv").is_err());
    }
}
