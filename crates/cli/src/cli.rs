//! Command-line parsing for the `viewseeker` binary.

use viewseeker_server::{LogFormat, LogLevel};

/// Usage text shown on parse errors and `--help`.
pub const USAGE: &str = "\
viewseeker — interactive view recommendation (ViewSeeker reproduction)

USAGE:
  viewseeker generate --dataset diab|syn [--rows N] [--seed N] --out FILE.csv
  viewseeker views    --data FILE.csv --query QUERY [--bins 3,4]
  viewseeker rank     --data FILE.csv --query QUERY --utility EXPR [--k N] [--diverse LAMBDA]
  viewseeker explore  --data FILE.csv --query QUERY [--k N] [--alpha F] [--exclude col1,col2]
                      [--save SESSION.json] [--resume SESSION.json]
  viewseeker simulate --data FILE.csv --query QUERY --ideal EXPR [--k N] [--max-labels N]
  viewseeker scatter  --data FILE.csv --query QUERY --ideal EXPR [--grid N] [--k N]
  viewseeker serve    [--addr HOST:PORT] [--workers N] [--max-sessions N] [--ttl SECS]
                      [--snapshot-dir DIR] [--data-dir DIR]
                      [--catalog-mem-budget BYTES[k|m|g]]
                      [--log-format text|json]
                      [--log-level debug|info|warn|error|off]
                      [--max-inflight N] [--queue-deadline-ms MS]
                      [--shards N] [--peer HOST:PORT]...
  viewseeker cluster status --addr HOST:PORT
  viewseeker trace    --addr HOST:PORT [--format summary|chrome|folded] [--n N] [--out FILE]
  viewseeker dataset import  --data-dir DIR --csv FILE.csv [--name NAME]
  viewseeker dataset append  --data-dir DIR --name NAME --csv FILE.csv
  viewseeker dataset list    --data-dir DIR
  viewseeker dataset inspect --data-dir DIR --name NAME

QUERY is a SQL WHERE clause; '*' (the default) selects everything:
  \"a0 = 'a0_v0' AND n_age BETWEEN 20 AND 65\"    \"color IN ('red', 'blue')\"

UTILITY expressions:  '0.5*EMD + 0.5*KL', 'Accuracy', ...
  features: KL, EMD, L1, L2, MAX_DIFF, Usability, Accuracy, p-value

Schema convention for CSV files, the same for --data, `dataset import` and
what `generate` writes: columns named m_* are numeric measures, columns
named n_* are numeric dimensions, everything else is a categorical
dimension.";

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Generate a synthetic dataset and write it as CSV.
    Generate {
        /// `"diab"` or `"syn"`.
        dataset: String,
        /// Row count (defaults per dataset).
        rows: Option<usize>,
        /// RNG seed.
        seed: u64,
        /// Output path.
        out: String,
    },
    /// List the enumerated view space.
    Views {
        /// CSV path.
        data: String,
        /// Query expression.
        query: String,
        /// Bin configurations for numeric dimensions.
        bins: Vec<usize>,
    },
    /// Non-interactive SeeDB-style ranking with a fixed utility.
    Rank {
        /// CSV path.
        data: String,
        /// Query expression.
        query: String,
        /// Utility expression.
        utility: String,
        /// Top-k size.
        k: usize,
        /// Bin configurations.
        bins: Vec<usize>,
        /// MMR diversification trade-off λ (None = plain ranking).
        diverse: Option<f64>,
    },
    /// The interactive loop against a human at the terminal.
    Explore {
        /// CSV path.
        data: String,
        /// Query expression.
        query: String,
        /// Top-k size.
        k: usize,
        /// α partial-data ratio (1.0 = exact).
        alpha: f64,
        /// Dimensions to exclude from the view space.
        exclude: Vec<String>,
        /// Bin configurations.
        bins: Vec<usize>,
        /// Write a session snapshot here on exit.
        save: Option<String>,
        /// Resume from a previously saved snapshot.
        resume: Option<String>,
    },
    /// A simulated session against a hidden ideal utility.
    Simulate {
        /// CSV path.
        data: String,
        /// Query expression.
        query: String,
        /// The hidden ideal utility expression.
        ideal: String,
        /// Top-k size.
        k: usize,
        /// Label budget.
        max_labels: usize,
        /// Bin configurations.
        bins: Vec<usize>,
    },
    /// A simulated session over scatter-plot views (the future-work
    /// extension).
    Scatter {
        /// CSV path.
        data: String,
        /// Query expression.
        query: String,
        /// The hidden ideal utility expression.
        ideal: String,
        /// Density-grid cells per axis.
        grid: usize,
        /// Top-k size.
        k: usize,
        /// Label budget.
        max_labels: usize,
    },
    /// Run the multi-session HTTP recommendation service.
    Serve {
        /// Bind address (`host:port`; port 0 picks a free port).
        addr: String,
        /// Worker pool size.
        workers: usize,
        /// Max live sessions before LRU eviction.
        max_sessions: usize,
        /// Idle seconds after which a session is evictable.
        ttl_secs: u64,
        /// Directory for eviction/snapshot persistence.
        snapshot_dir: Option<String>,
        /// Dataset catalog directory (imported CSVs persist here).
        data_dir: Option<String>,
        /// Byte budget for the catalog's in-memory table cache.
        catalog_mem_budget: u64,
        /// Access/event log line shape (`text` or `json`).
        log_format: LogFormat,
        /// Minimum log severity written to stderr.
        log_level: LogLevel,
        /// Max requests dispatched to workers at once.
        max_inflight: usize,
        /// Admission-queue deadline before `503` shedding.
        queue_deadline_ms: u64,
        /// Local session shards (consistent-hash routed; default 1).
        shards: usize,
        /// Remote peers speaking the same protocol (`--peer`, repeatable).
        peers: Vec<String>,
    },
    /// Fetch and summarize `GET /debug/traces` from a running server.
    Trace {
        /// Target server address (`host:port`).
        addr: String,
        /// Output shape: `summary` (human table), `chrome` (trace-event
        /// JSON for Perfetto), or `folded` (flamegraph stacks).
        format: String,
        /// Keep only the N slowest retained traces (0 = all).
        n: usize,
        /// Write the raw export here instead of stdout (`summary` always
        /// prints).
        out: Option<String>,
    },
    /// Manage the on-disk dataset catalog (VSC2 columnar store).
    Dataset(DatasetCmd),
    /// Inspect a running sharded/peered deployment.
    Cluster(ClusterCmd),
    /// Print usage.
    Help,
}

/// Actions under `viewseeker dataset`.
#[derive(Debug, Clone, PartialEq)]
pub enum DatasetCmd {
    /// Convert a CSV file to VSC2 inside the catalog directory.
    Import {
        /// Catalog directory.
        data_dir: String,
        /// CSV file to ingest.
        csv: String,
        /// Dataset name (defaults to the CSV file stem).
        name: Option<String>,
    },
    /// Append a CSV file's rows (same schema, header required) to an
    /// existing dataset, atomically.
    Append {
        /// Catalog directory.
        data_dir: String,
        /// CSV file whose rows to append.
        csv: String,
        /// Dataset name.
        name: String,
    },
    /// List every dataset the catalog knows.
    List {
        /// Catalog directory.
        data_dir: String,
    },
    /// Print one dataset's schema, row count, and per-column cardinality.
    Inspect {
        /// Catalog directory.
        data_dir: String,
        /// Dataset name.
        name: String,
    },
}

/// Actions under `viewseeker cluster`.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterCmd {
    /// Fetch and print `GET /cluster` from a running deployment: ring
    /// membership, per-member routed/session counts, migration totals.
    Status {
        /// Target server address (`host:port`).
        addr: String,
    },
}

/// Parses a byte count with an optional (case-insensitive) `k`/`m`/`g`
/// suffix: `"1024"`, `"256m"`, `"2G"`.
///
/// # Errors
///
/// Returns a message for empty input, unknown suffixes, bad digits, or
/// counts that overflow `u64`.
pub fn parse_byte_size(value: &str) -> Result<u64, String> {
    let value = value.trim();
    let (digits, shift) = match value.char_indices().last() {
        Some((i, 'k' | 'K')) => (&value[..i], 10),
        Some((i, 'm' | 'M')) => (&value[..i], 20),
        Some((i, 'g' | 'G')) => (&value[..i], 30),
        Some(_) => (value, 0),
        None => return Err("empty byte size".into()),
    };
    let n: u64 = digits
        .trim()
        .parse()
        .map_err(|_| format!("cannot parse byte size {value:?}"))?;
    if n.leading_zeros() < shift {
        return Err(format!("byte size {value:?} overflows u64"));
    }
    Ok(n << shift)
}

impl Command {
    /// Parses an argument vector (without the program name).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown subcommands, unknown
    /// flags, missing values, or unparseable numbers.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let Some((sub, rest)) = args.split_first() else {
            return Err("missing subcommand".into());
        };
        if sub == "--help" || sub == "-h" || sub == "help" {
            return Ok(Command::Help);
        }
        // `dataset` and `cluster` nest an action word before their flags.
        if sub == "dataset" {
            return Self::parse_dataset(rest);
        }
        if sub == "cluster" {
            return Self::parse_cluster(rest);
        }
        let flags = Flags::collect(rest)?;
        match sub.as_str() {
            "generate" => Ok(Command::Generate {
                dataset: flags.require("--dataset")?,
                rows: flags.get_parsed("--rows")?,
                seed: flags.get_parsed("--seed")?.unwrap_or(7),
                out: flags.require("--out")?,
            }),
            "views" => Ok(Command::Views {
                data: flags.require("--data")?,
                query: flags.get("--query").unwrap_or_else(|| "*".into()),
                bins: flags.bin_configs()?,
            }),
            "rank" => Ok(Command::Rank {
                data: flags.require("--data")?,
                query: flags.get("--query").unwrap_or_else(|| "*".into()),
                utility: flags.require("--utility")?,
                k: flags.get_parsed("--k")?.unwrap_or(10),
                bins: flags.bin_configs()?,
                diverse: flags.get_parsed("--diverse")?,
            }),
            "explore" => Ok(Command::Explore {
                data: flags.require("--data")?,
                query: flags.get("--query").unwrap_or_else(|| "*".into()),
                k: flags.get_parsed("--k")?.unwrap_or(5),
                alpha: flags.get_parsed("--alpha")?.unwrap_or(1.0),
                exclude: flags.list("--exclude"),
                bins: flags.bin_configs()?,
                save: flags.get("--save"),
                resume: flags.get("--resume"),
            }),
            "scatter" => Ok(Command::Scatter {
                data: flags.require("--data")?,
                query: flags.get("--query").unwrap_or_else(|| "*".into()),
                ideal: flags.require("--ideal")?,
                grid: flags.get_parsed("--grid")?.unwrap_or(8),
                k: flags.get_parsed("--k")?.unwrap_or(3),
                max_labels: flags.get_parsed("--max-labels")?.unwrap_or(30),
            }),
            "serve" => Ok(Command::Serve {
                addr: flags
                    .get("--addr")
                    .unwrap_or_else(|| "127.0.0.1:7878".into()),
                workers: flags.get_parsed("--workers")?.unwrap_or(4),
                max_sessions: flags.get_parsed("--max-sessions")?.unwrap_or(32),
                ttl_secs: flags.get_parsed("--ttl")?.unwrap_or(1_800),
                snapshot_dir: flags.get("--snapshot-dir"),
                data_dir: flags.get("--data-dir"),
                catalog_mem_budget: flags
                    .get("--catalog-mem-budget")
                    .map_or(Ok(512 << 20), |v| parse_byte_size(&v))?,
                log_format: flags.get_parsed("--log-format")?.unwrap_or_default(),
                log_level: flags.get_parsed("--log-level")?.unwrap_or_default(),
                max_inflight: flags.get_parsed("--max-inflight")?.unwrap_or(256),
                queue_deadline_ms: flags.get_parsed("--queue-deadline-ms")?.unwrap_or(500),
                shards: flags.get_parsed("--shards")?.unwrap_or(1),
                peers: flags.all("--peer"),
            }),
            "trace" => Ok(Command::Trace {
                addr: flags.require("--addr")?,
                format: flags.get("--format").unwrap_or_else(|| "summary".into()),
                n: flags.get_parsed("--n")?.unwrap_or(0),
                out: flags.get("--out"),
            }),
            "simulate" => Ok(Command::Simulate {
                data: flags.require("--data")?,
                query: flags.get("--query").unwrap_or_else(|| "*".into()),
                ideal: flags.require("--ideal")?,
                k: flags.get_parsed("--k")?.unwrap_or(10),
                max_labels: flags.get_parsed("--max-labels")?.unwrap_or(50),
                bins: flags.bin_configs()?,
            }),
            other => Err(format!("unknown subcommand {other:?}")),
        }
    }

    fn parse_dataset(rest: &[String]) -> Result<Self, String> {
        let Some((action, rest)) = rest.split_first() else {
            return Err("dataset needs an action: import, append, list, or inspect".into());
        };
        let flags = Flags::collect(rest)?;
        let cmd = match action.as_str() {
            "import" => DatasetCmd::Import {
                data_dir: flags.require("--data-dir")?,
                csv: flags.require("--csv")?,
                name: flags.get("--name"),
            },
            "append" => DatasetCmd::Append {
                data_dir: flags.require("--data-dir")?,
                csv: flags.require("--csv")?,
                name: flags.require("--name")?,
            },
            "list" => DatasetCmd::List {
                data_dir: flags.require("--data-dir")?,
            },
            "inspect" => DatasetCmd::Inspect {
                data_dir: flags.require("--data-dir")?,
                name: flags.require("--name")?,
            },
            other => return Err(format!("unknown dataset action {other:?}")),
        };
        Ok(Command::Dataset(cmd))
    }

    fn parse_cluster(rest: &[String]) -> Result<Self, String> {
        let Some((action, rest)) = rest.split_first() else {
            return Err("cluster needs an action: status".into());
        };
        let flags = Flags::collect(rest)?;
        let cmd = match action.as_str() {
            "status" => ClusterCmd::Status {
                addr: flags.require("--addr")?,
            },
            other => return Err(format!("unknown cluster action {other:?}")),
        };
        Ok(Command::Cluster(cmd))
    }
}

/// `--flag value` pairs.
struct Flags {
    pairs: Vec<(String, String)>,
}

impl Flags {
    fn collect(args: &[String]) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if !flag.starts_with("--") {
                return Err(format!("expected a --flag, got {flag:?}"));
            }
            let value = it
                .next()
                .ok_or_else(|| format!("flag {flag} needs a value"))?;
            pairs.push((flag.clone(), value.clone()));
        }
        Ok(Self { pairs })
    }

    fn get(&self, flag: &str) -> Option<String> {
        self.pairs
            .iter()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.clone())
    }

    /// Every value given for a repeatable flag, in order.
    fn all(&self, flag: &str) -> Vec<String> {
        self.pairs
            .iter()
            .filter(|(f, _)| f == flag)
            .map(|(_, v)| v.clone())
            .collect()
    }

    fn require(&self, flag: &str) -> Result<String, String> {
        self.get(flag)
            .ok_or_else(|| format!("missing required {flag}"))
    }

    fn get_parsed<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.get(flag)
            .map(|v| {
                v.parse::<T>()
                    .map_err(|_| format!("cannot parse {flag} value {v:?}"))
            })
            .transpose()
    }

    fn list(&self, flag: &str) -> Vec<String> {
        self.get(flag)
            .map(|v| {
                v.split(',')
                    .map(|s| s.trim().to_owned())
                    .filter(|s| !s.is_empty())
                    .collect()
            })
            .unwrap_or_default()
    }

    fn bin_configs(&self) -> Result<Vec<usize>, String> {
        match self.get("--bins") {
            None => Ok(vec![3, 4]),
            Some(v) => v
                .split(',')
                .map(|b| {
                    b.trim()
                        .parse::<usize>()
                        .map_err(|_| format!("bad bin count {b:?}"))
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Command, String> {
        Command::parse(&args.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_generate() {
        let c = parse(&[
            "generate",
            "--dataset",
            "diab",
            "--rows",
            "500",
            "--out",
            "x.csv",
        ])
        .unwrap();
        assert_eq!(
            c,
            Command::Generate {
                dataset: "diab".into(),
                rows: Some(500),
                seed: 7,
                out: "x.csv".into()
            }
        );
    }

    #[test]
    fn parses_explore_with_defaults() {
        let c = parse(&["explore", "--data", "x.csv", "--query", "a0 = 'v'"]).unwrap();
        match c {
            Command::Explore {
                k,
                alpha,
                exclude,
                bins,
                save,
                resume,
                ..
            } => {
                assert_eq!(k, 5);
                assert_eq!(alpha, 1.0);
                assert!(exclude.is_empty());
                assert_eq!(bins, vec![3, 4]);
                assert!(save.is_none() && resume.is_none());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_scatter_with_defaults() {
        let c = parse(&["scatter", "--data", "x.csv", "--ideal", "EMD"]).unwrap();
        match c {
            Command::Scatter {
                grid,
                k,
                max_labels,
                ..
            } => {
                assert_eq!(grid, 8);
                assert_eq!(k, 3);
                assert_eq!(max_labels, 30);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_save_and_resume() {
        let c = parse(&[
            "explore", "--data", "x.csv", "--save", "s.json", "--resume", "r.json",
        ])
        .unwrap();
        match c {
            Command::Explore { save, resume, .. } => {
                assert_eq!(save.as_deref(), Some("s.json"));
                assert_eq!(resume.as_deref(), Some("r.json"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_exclude_and_bins_lists() {
        let c = parse(&[
            "explore",
            "--data",
            "x.csv",
            "--exclude",
            "a0, a1",
            "--bins",
            "2,5",
        ])
        .unwrap();
        match c {
            Command::Explore { exclude, bins, .. } => {
                assert_eq!(exclude, vec!["a0".to_owned(), "a1".to_owned()]);
                assert_eq!(bins, vec![2, 5]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_serve_with_defaults() {
        let c = parse(&["serve"]).unwrap();
        assert_eq!(
            c,
            Command::Serve {
                addr: "127.0.0.1:7878".into(),
                workers: 4,
                max_sessions: 32,
                ttl_secs: 1_800,
                snapshot_dir: None,
                data_dir: None,
                catalog_mem_budget: 512 << 20,
                log_format: LogFormat::Text,
                log_level: LogLevel::Info,
                max_inflight: 256,
                queue_deadline_ms: 500,
                shards: 1,
                peers: vec![],
            }
        );
        let c = parse(&[
            "serve",
            "--addr",
            "0.0.0.0:80",
            "--workers",
            "2",
            "--max-sessions",
            "5",
            "--ttl",
            "60",
            "--snapshot-dir",
            "/tmp/vs",
            "--data-dir",
            "/tmp/vs-data",
            "--catalog-mem-budget",
            "256m",
            "--log-format",
            "json",
            "--log-level",
            "warn",
            "--max-inflight",
            "64",
            "--queue-deadline-ms",
            "250",
            "--shards",
            "4",
            "--peer",
            "10.0.0.2:7878",
            "--peer",
            "10.0.0.3:7878",
        ])
        .unwrap();
        assert_eq!(
            c,
            Command::Serve {
                addr: "0.0.0.0:80".into(),
                workers: 2,
                max_sessions: 5,
                ttl_secs: 60,
                snapshot_dir: Some("/tmp/vs".into()),
                data_dir: Some("/tmp/vs-data".into()),
                catalog_mem_budget: 256 << 20,
                log_format: LogFormat::Json,
                log_level: LogLevel::Warn,
                max_inflight: 64,
                queue_deadline_ms: 250,
                shards: 4,
                peers: vec!["10.0.0.2:7878".into(), "10.0.0.3:7878".into()],
            }
        );
        assert!(parse(&["serve", "--workers", "two"]).is_err());
        assert!(parse(&["serve", "--shards", "lots"]).is_err());
        assert!(parse(&["serve", "--log-format", "xml"]).is_err());
        assert!(parse(&["serve", "--log-level", "verbose"]).is_err());
        assert!(parse(&["serve", "--catalog-mem-budget", "lots"]).is_err());
    }

    #[test]
    fn parses_trace_with_defaults() {
        let c = parse(&["trace", "--addr", "127.0.0.1:7878"]).unwrap();
        assert_eq!(
            c,
            Command::Trace {
                addr: "127.0.0.1:7878".into(),
                format: "summary".into(),
                n: 0,
                out: None,
            }
        );
        let c = parse(&[
            "trace",
            "--addr",
            "127.0.0.1:7878",
            "--format",
            "chrome",
            "--n",
            "20",
            "--out",
            "traces.json",
        ])
        .unwrap();
        assert_eq!(
            c,
            Command::Trace {
                addr: "127.0.0.1:7878".into(),
                format: "chrome".into(),
                n: 20,
                out: Some("traces.json".into()),
            }
        );
        assert!(parse(&["trace"]).is_err(), "--addr is required");
        assert!(parse(&["trace", "--addr", "x", "--n", "lots"]).is_err());
    }

    #[test]
    fn parses_dataset_actions() {
        let c = parse(&[
            "dataset",
            "import",
            "--data-dir",
            "/tmp/cat",
            "--csv",
            "x.csv",
        ])
        .unwrap();
        assert_eq!(
            c,
            Command::Dataset(DatasetCmd::Import {
                data_dir: "/tmp/cat".into(),
                csv: "x.csv".into(),
                name: None,
            })
        );
        let c = parse(&["dataset", "list", "--data-dir", "/tmp/cat"]).unwrap();
        assert_eq!(
            c,
            Command::Dataset(DatasetCmd::List {
                data_dir: "/tmp/cat".into()
            })
        );
        let c = parse(&[
            "dataset",
            "inspect",
            "--data-dir",
            "/tmp/cat",
            "--name",
            "sales",
        ])
        .unwrap();
        assert_eq!(
            c,
            Command::Dataset(DatasetCmd::Inspect {
                data_dir: "/tmp/cat".into(),
                name: "sales".into(),
            })
        );
        let c = parse(&[
            "dataset",
            "append",
            "--data-dir",
            "/tmp/cat",
            "--name",
            "sales",
            "--csv",
            "more.csv",
        ])
        .unwrap();
        assert_eq!(
            c,
            Command::Dataset(DatasetCmd::Append {
                data_dir: "/tmp/cat".into(),
                csv: "more.csv".into(),
                name: "sales".into(),
            })
        );
        assert!(parse(&["dataset"]).is_err());
        assert!(parse(&["dataset", "drop", "--data-dir", "/tmp/cat"]).is_err());
        assert!(parse(&["dataset", "inspect", "--data-dir", "/tmp/cat"]).is_err());
        assert!(
            parse(&[
                "dataset",
                "append",
                "--data-dir",
                "/tmp/cat",
                "--csv",
                "x.csv"
            ])
            .is_err(),
            "append requires --name"
        );
    }

    #[test]
    fn parses_cluster_status() {
        let c = parse(&["cluster", "status", "--addr", "127.0.0.1:7878"]).unwrap();
        assert_eq!(
            c,
            Command::Cluster(ClusterCmd::Status {
                addr: "127.0.0.1:7878".into()
            })
        );
        assert!(parse(&["cluster"]).is_err(), "needs an action");
        assert!(parse(&["cluster", "rebalance", "--addr", "x"]).is_err());
        assert!(parse(&["cluster", "status"]).is_err(), "--addr is required");
    }

    #[test]
    fn byte_sizes_parse_with_suffixes() {
        assert_eq!(parse_byte_size("1024").unwrap(), 1024);
        assert_eq!(parse_byte_size("4k").unwrap(), 4 << 10);
        assert_eq!(parse_byte_size("256M").unwrap(), 256 << 20);
        assert_eq!(parse_byte_size("2g").unwrap(), 2u64 << 30);
        assert!(parse_byte_size("").is_err());
        assert!(parse_byte_size("12q").is_err());
        assert!(parse_byte_size("999999999999999999999g").is_err());
        assert!(parse_byte_size(&format!("{}g", u64::MAX)).is_err());
    }

    #[test]
    fn help_variants() {
        assert_eq!(parse(&["--help"]).unwrap(), Command::Help);
        assert_eq!(parse(&["help"]).unwrap(), Command::Help);
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["bogus"]).is_err());
        assert_eq!(
            parse(&["query", "--data", "x.csv", "--sql", "SELECT 1"]),
            Err("unknown subcommand \"query\"".into())
        );
        assert!(parse(&["generate", "--dataset"]).is_err());
        assert!(parse(&["generate", "positional"]).is_err());
        assert!(
            parse(&["generate", "--out", "x.csv"]).is_err(),
            "--dataset required"
        );
        assert!(parse(&["rank", "--data", "x", "--utility", "EMD", "--k", "NaNope"]).is_err());
        assert!(parse(&["views", "--data", "x", "--bins", "3,x"]).is_err());
    }
}
