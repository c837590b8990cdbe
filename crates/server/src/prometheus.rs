//! Prometheus text exposition (format version 0.0.4) for `GET /metrics`.
//!
//! Every series the server can ever emit is declared once in the
//! `SERIES` table — name, TYPE, and HELP. [`render`] goes through an
//! `Exposition` writer that looks each family up in the table before
//! emitting its header, and `debug_assert!`s that a name is defined
//! exactly once and opened at most once per scrape. The `vslint`
//! metric-registry rule enforces the same contract statically: a series
//! in the table must be emitted somewhere and documented in DESIGN.md
//! and README.md, and no `viewseeker_*` literal may bypass the table.
//!
//! Durations are exported in seconds, as the Prometheus convention
//! requires; the underlying histograms store microseconds, so bucket
//! bounds convert as `(inclusive_µs) × 1e-6`. Only buckets that have
//! observations are emitted (plus the mandatory `+Inf` bucket) — with the
//! fixed log-linear layout, omitted buckets are unambiguously zero, and
//! the cumulative-count contract still holds.

use std::fmt::Write as _;

use viewseeker_catalog::CatalogStats;
use viewseeker_net::hist::Histogram;
use viewseeker_net::NetStats;

use crate::metrics::Counters;

/// One exported series family: its name, exposition TYPE, and HELP text.
struct SeriesDef {
    name: &'static str,
    kind: &'static str,
    help: &'static str,
}

/// The single source of truth for the scrape surface. Checked at runtime
/// by [`Exposition`] debug assertions and statically by the vslint
/// metric-registry rule.
static SERIES: &[SeriesDef] = &[
    SeriesDef {
        name: "viewseeker_uptime_seconds",
        kind: "gauge",
        help: "Seconds since the server started.",
    },
    SeriesDef {
        name: "viewseeker_active_sessions",
        kind: "gauge",
        help: "Live sessions in the registry.",
    },
    SeriesDef {
        name: "viewseeker_worker_queue_depth",
        kind: "gauge",
        help: "Requests waiting in the admission queue for a worker.",
    },
    SeriesDef {
        name: "viewseeker_net_accepted_total",
        kind: "counter",
        help: "Connections accepted by the event reactor.",
    },
    SeriesDef {
        name: "viewseeker_net_shed_total",
        kind: "counter",
        help: "Requests shed with 503 by admission control.",
    },
    SeriesDef {
        name: "viewseeker_net_active_connections",
        kind: "gauge",
        help: "Connections currently open on the event reactor.",
    },
    SeriesDef {
        name: "viewseeker_net_read_stalls_total",
        kind: "counter",
        help: "Reads that drained the socket mid-request (request split across reads).",
    },
    SeriesDef {
        name: "viewseeker_net_write_stalls_total",
        kind: "counter",
        help: "Writes cut short by socket backpressure or the per-tick budget.",
    },
    SeriesDef {
        name: "viewseeker_net_loop_tick_seconds",
        kind: "histogram",
        help: "Busy reactor loop-tick duration.",
    },
    SeriesDef {
        name: "viewseeker_sessions_created_total",
        kind: "counter",
        help: "Sessions created.",
    },
    SeriesDef {
        name: "viewseeker_sessions_evicted_total",
        kind: "counter",
        help: "Sessions evicted (LRU or TTL).",
    },
    SeriesDef {
        name: "viewseeker_snapshots_total",
        kind: "counter",
        help: "Session snapshots written, by outcome.",
    },
    SeriesDef {
        name: "viewseeker_restores_total",
        kind: "counter",
        help: "Session restores, by outcome.",
    },
    SeriesDef {
        name: "viewseeker_feedback_labels_total",
        kind: "counter",
        help: "Feedback labels ingested.",
    },
    SeriesDef {
        name: "viewseeker_materialize_scans_total",
        kind: "counter",
        help: "Logical scans issued by offline view materialization across session builds.",
    },
    SeriesDef {
        name: "viewseeker_materialize_rows_total",
        kind: "counter",
        help: "Rows read by offline view materialization across session builds.",
    },
    SeriesDef {
        name: "viewseeker_materialize_seconds_total",
        kind: "counter",
        help: "Wall-clock seconds spent in offline view materialization across session builds.",
    },
    SeriesDef {
        name: "viewseeker_catalog_hits_total",
        kind: "counter",
        help: "Dataset resolutions served from memory.",
    },
    SeriesDef {
        name: "viewseeker_catalog_misses_total",
        kind: "counter",
        help: "Dataset resolutions that loaded from disk.",
    },
    SeriesDef {
        name: "viewseeker_catalog_evictions_total",
        kind: "counter",
        help: "Tables evicted from the catalog cache.",
    },
    SeriesDef {
        name: "viewseeker_catalog_resident_bytes",
        kind: "gauge",
        help: "Estimated bytes of tables held in memory.",
    },
    SeriesDef {
        name: "viewseeker_catalog_datasets",
        kind: "gauge",
        help: "Datasets known to the catalog, by residency.",
    },
    SeriesDef {
        name: "viewseeker_catalog_rowgroups_scanned_total",
        kind: "counter",
        help: "Row groups visited while evaluating session DQ predicates through zone maps.",
    },
    SeriesDef {
        name: "viewseeker_catalog_rowgroups_pruned_total",
        kind: "counter",
        help: "Row groups excluded by zone maps without reading a value.",
    },
    SeriesDef {
        name: "viewseeker_append_rows_total",
        kind: "counter",
        help: "Rows appended to catalog datasets.",
    },
    SeriesDef {
        name: "viewseeker_requests_total",
        kind: "counter",
        help: "Requests handled, by route.",
    },
    SeriesDef {
        name: "viewseeker_request_duration_seconds",
        kind: "histogram",
        help: "Request latency, by route.",
    },
    SeriesDef {
        name: "viewseeker_request_stage_seconds",
        kind: "histogram",
        help: "Request latency broken down by pipeline stage (parse, queue_wait, dispatch, handler, serialize, write, and nested seeker phases), by route.",
    },
];

/// Incremental exposition writer. [`Exposition::series`] opens a family
/// (validating it against [`SERIES`] and emitting its HELP/TYPE header);
/// [`Exposition::sample`] appends one sample line to the open family.
///
/// In debug builds (and therefore in every test run) the writer fails a
/// `debug_assert!` on: a family missing from the table, a name defined
/// more than once in the table, a family opened twice in one scrape, or
/// a sample emitted before any header.
struct Exposition {
    out: String,
    open: Option<&'static str>,
    emitted: Vec<&'static str>,
}

impl Exposition {
    fn new() -> Self {
        Self {
            out: String::with_capacity(4096),
            open: None,
            emitted: Vec::with_capacity(SERIES.len()),
        }
    }

    /// Opens the family `name`: emits its `# HELP` / `# TYPE` header and
    /// makes it the target of subsequent [`Self::sample`] calls.
    fn series(&mut self, name: &'static str) {
        let mut defs = SERIES.iter().filter(|d| d.name == name);
        let def = defs.next();
        debug_assert!(def.is_some(), "series `{name}` is not defined in SERIES");
        debug_assert!(
            defs.next().is_none(),
            "series `{name}` defined more than once in SERIES"
        );
        debug_assert!(
            !self.emitted.contains(&name),
            "series `{name}` opened twice in one scrape"
        );
        self.emitted.push(name);
        self.open = Some(name);
        if let Some(def) = def {
            let _ = writeln!(self.out, "# HELP {} {}", def.name, def.help);
            let _ = writeln!(self.out, "# TYPE {} {}", def.name, def.kind);
        }
    }

    /// Appends `"<family><suffix><labels> <value>"` for the open family.
    /// `suffix` is `""` for plain samples or `"_bucket"` / `"_sum"` /
    /// `"_count"` for histogram sub-series; `labels` is either `""` or a
    /// pre-rendered `{key="value",..}` block.
    fn sample(&mut self, suffix: &str, labels: &str, value: impl std::fmt::Display) {
        debug_assert!(
            self.open.is_some(),
            "sample emitted before any series() header"
        );
        if let Some(name) = self.open {
            let _ = writeln!(self.out, "{name}{suffix}{labels} {value}");
        }
    }

    fn finish(self) -> String {
        self.out
    }
}

/// Escapes a label value per the exposition format (backslash, quote,
/// newline).
fn escape_label(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Renders integer microseconds as an exact decimal-seconds string
/// (`5 → "0.000005"`, `1_500_000 → "1.5"`), sidestepping the float
/// imprecision of `us as f64 * 1e-6`.
fn seconds(us: u64) -> String {
    let whole = us / 1_000_000;
    let frac = us % 1_000_000;
    if frac == 0 {
        return format!("{whole}");
    }
    let mut out = format!("{whole}.{frac:06}");
    while out.ends_with('0') {
        out.pop();
    }
    out
}

/// Renders the whole scrape payload.
#[must_use]
pub fn render(
    uptime_secs: f64,
    active_sessions: usize,
    counters: &Counters,
    histograms: &[(String, Histogram)],
    stages: &[(String, String, Histogram)],
    catalog: &CatalogStats,
    net: &NetStats,
) -> String {
    let mut exp = Exposition::new();

    exp.series("viewseeker_uptime_seconds");
    exp.sample("", "", uptime_secs);

    exp.series("viewseeker_active_sessions");
    exp.sample("", "", active_sessions);

    exp.series("viewseeker_worker_queue_depth");
    exp.sample("", "", counters.queue_depth());

    exp.series("viewseeker_net_accepted_total");
    exp.sample("", "", NetStats::get(&net.accepted));

    exp.series("viewseeker_net_shed_total");
    exp.sample("", "", NetStats::get(&net.shed));

    exp.series("viewseeker_net_active_connections");
    exp.sample("", "", NetStats::get(&net.active));

    exp.series("viewseeker_net_read_stalls_total");
    exp.sample("", "", NetStats::get(&net.read_stalls));

    exp.series("viewseeker_net_write_stalls_total");
    exp.sample("", "", NetStats::get(&net.write_stalls));

    exp.series("viewseeker_net_loop_tick_seconds");
    let ticks = net.tick_histogram();
    let mut cumulative = 0u64;
    for (bound_us, count) in ticks.nonzero_buckets() {
        cumulative += count;
        let labels = format!("{{le=\"{}\"}}", seconds(bound_us));
        exp.sample("_bucket", &labels, cumulative);
    }
    exp.sample("_bucket", "{le=\"+Inf\"}", ticks.count());
    exp.sample("_sum", "", seconds(ticks.sum_us()));
    exp.sample("_count", "", ticks.count());

    exp.series("viewseeker_sessions_created_total");
    exp.sample("", "", Counters::read(&counters.sessions_created));

    exp.series("viewseeker_sessions_evicted_total");
    exp.sample("", "", Counters::read(&counters.sessions_evicted));

    exp.series("viewseeker_snapshots_total");
    exp.sample(
        "",
        "{outcome=\"ok\"}",
        Counters::read(&counters.snapshots_ok),
    );
    exp.sample(
        "",
        "{outcome=\"error\"}",
        Counters::read(&counters.snapshots_failed),
    );

    exp.series("viewseeker_restores_total");
    exp.sample(
        "",
        "{outcome=\"ok\"}",
        Counters::read(&counters.restores_ok),
    );
    exp.sample(
        "",
        "{outcome=\"error\"}",
        Counters::read(&counters.restores_failed),
    );

    exp.series("viewseeker_feedback_labels_total");
    exp.sample("", "", Counters::read(&counters.feedback_labels));

    exp.series("viewseeker_materialize_scans_total");
    exp.sample("", "", Counters::read(&counters.materialize_scans));

    exp.series("viewseeker_materialize_rows_total");
    exp.sample("", "", Counters::read(&counters.materialize_rows));

    exp.series("viewseeker_materialize_seconds_total");
    exp.sample("", "", seconds(Counters::read(&counters.materialize_us)));

    exp.series("viewseeker_catalog_hits_total");
    exp.sample("", "", catalog.hits);

    exp.series("viewseeker_catalog_misses_total");
    exp.sample("", "", catalog.misses);

    exp.series("viewseeker_catalog_evictions_total");
    exp.sample("", "", catalog.evictions);

    exp.series("viewseeker_catalog_resident_bytes");
    exp.sample("", "", catalog.resident_bytes);

    exp.series("viewseeker_catalog_datasets");
    exp.sample("", "{state=\"cached\"}", catalog.cached_datasets);
    exp.sample("", "{state=\"known\"}", catalog.known_datasets);

    exp.series("viewseeker_catalog_rowgroups_scanned_total");
    exp.sample("", "", Counters::read(&counters.rowgroups_scanned));

    exp.series("viewseeker_catalog_rowgroups_pruned_total");
    exp.sample("", "", Counters::read(&counters.rowgroups_pruned));

    exp.series("viewseeker_append_rows_total");
    exp.sample("", "", catalog.append_rows);

    exp.series("viewseeker_requests_total");
    for (route, hist) in histograms {
        let labels = format!("{{route=\"{}\"}}", escape_label(route));
        exp.sample("", &labels, hist.count());
    }

    exp.series("viewseeker_request_duration_seconds");
    for (route, hist) in histograms {
        let route = escape_label(route);
        let mut cumulative = 0u64;
        for (bound_us, count) in hist.nonzero_buckets() {
            cumulative += count;
            let labels = format!("{{route=\"{route}\",le=\"{}\"}}", seconds(bound_us));
            exp.sample("_bucket", &labels, cumulative);
        }
        let labels = format!("{{route=\"{route}\",le=\"+Inf\"}}");
        exp.sample("_bucket", &labels, hist.count());
        let labels = format!("{{route=\"{route}\"}}");
        exp.sample("_sum", &labels, seconds(hist.sum_us()));
        exp.sample("_count", &labels, hist.count());
    }

    exp.series("viewseeker_request_stage_seconds");
    for (route, stage, hist) in stages {
        let route = escape_label(route);
        let stage = escape_label(stage);
        let mut cumulative = 0u64;
        for (bound_us, count) in hist.nonzero_buckets() {
            cumulative += count;
            let labels = format!(
                "{{route=\"{route}\",stage=\"{stage}\",le=\"{}\"}}",
                seconds(bound_us)
            );
            exp.sample("_bucket", &labels, cumulative);
        }
        let labels = format!("{{route=\"{route}\",stage=\"{stage}\",le=\"+Inf\"}}");
        exp.sample("_bucket", &labels, hist.count());
        let labels = format!("{{route=\"{route}\",stage=\"{stage}\"}}");
        exp.sample("_sum", &labels, seconds(hist.sum_us()));
        exp.sample("_count", &labels, hist.count());
    }

    exp.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scrape() -> String {
        let counters = Counters::default();
        Counters::bump(&counters.sessions_created);
        Counters::bump(&counters.feedback_labels);
        Counters::bump(&counters.feedback_labels);
        Counters::add(&counters.materialize_scans, 2);
        Counters::add(&counters.materialize_rows, 6_000);
        Counters::add(&counters.materialize_us, 2_500);
        Counters::add(&counters.rowgroups_scanned, 14);
        Counters::add(&counters.rowgroups_pruned, 50);
        let mut hist = Histogram::new();
        hist.record(5);
        hist.record(150);
        hist.record(150);
        let catalog = CatalogStats {
            hits: 7,
            misses: 2,
            evictions: 1,
            resident_bytes: 4096,
            cached_datasets: 2,
            known_datasets: 3,
            append_rows: 1_200,
        };
        let net = NetStats::new();
        net.accepted.store(9, std::sync::atomic::Ordering::Relaxed);
        net.shed.store(4, std::sync::atomic::Ordering::Relaxed);
        net.active.store(2, std::sync::atomic::Ordering::Relaxed);
        net.record_tick(50);
        net.record_tick(50);
        let mut stage_hist = Histogram::new();
        stage_hist.record(100);
        render(
            12.5,
            3,
            &counters,
            &[("GET /sessions/:id".to_owned(), hist)],
            &[(
                "GET /sessions/:id".to_owned(),
                "handler".to_owned(),
                stage_hist,
            )],
            &catalog,
            &net,
        )
    }

    /// Golden test for the exposition format: every line is either a
    /// comment or `name[{labels}] value`, and the series the scrape
    /// promises are all present with the right values.
    #[test]
    fn text_format_is_well_formed() {
        let text = scrape();
        for line in text.lines() {
            assert!(!line.is_empty(), "blank line in scrape");
            if line.starts_with('#') {
                assert!(
                    line.starts_with("# HELP ") || line.starts_with("# TYPE "),
                    "{line}"
                );
                continue;
            }
            let (series, value) = line.rsplit_once(' ').expect(line);
            assert!(
                series.starts_with("viewseeker_"),
                "unprefixed series: {line}"
            );
            assert!(
                value == "+Inf" || value.parse::<f64>().is_ok(),
                "bad value: {line}"
            );
            // No scientific notation: Prometheus accepts it, but fixed
            // decimals keep the golden expectations simple and diffable.
            assert!(!value.contains('e') && !value.contains('E'), "{line}");
        }
    }

    #[test]
    fn golden_series_and_values() {
        let text = scrape();
        assert!(text.contains("viewseeker_uptime_seconds 12.5\n"), "{text}");
        assert!(text.contains("viewseeker_active_sessions 3\n"), "{text}");
        assert!(text.contains("viewseeker_worker_queue_depth 0\n"), "{text}");
        assert!(
            text.contains("viewseeker_sessions_created_total 1\n"),
            "{text}"
        );
        assert!(
            text.contains("viewseeker_feedback_labels_total 2\n"),
            "{text}"
        );
        assert!(
            text.contains("viewseeker_snapshots_total{outcome=\"ok\"} 0\n"),
            "{text}"
        );
        assert!(
            text.contains("viewseeker_materialize_scans_total 2\n"),
            "{text}"
        );
        assert!(
            text.contains("viewseeker_materialize_rows_total 6000\n"),
            "{text}"
        );
        assert!(
            text.contains("viewseeker_materialize_seconds_total 0.0025\n"),
            "{text}"
        );
        assert!(text.contains("viewseeker_net_accepted_total 9\n"), "{text}");
        assert!(text.contains("viewseeker_net_shed_total 4\n"), "{text}");
        assert!(
            text.contains("viewseeker_net_active_connections 2\n"),
            "{text}"
        );
        assert!(
            text.contains("viewseeker_net_read_stalls_total 0\n"),
            "{text}"
        );
        assert!(
            text.contains("viewseeker_net_write_stalls_total 0\n"),
            "{text}"
        );
        // Two 50 µs ticks share the [48,52) bucket → le 0.000051.
        assert!(
            text.contains("viewseeker_net_loop_tick_seconds_bucket{le=\"0.000051\"} 2\n"),
            "{text}"
        );
        assert!(
            text.contains("viewseeker_net_loop_tick_seconds_bucket{le=\"+Inf\"} 2\n"),
            "{text}"
        );
        assert!(
            text.contains("viewseeker_net_loop_tick_seconds_count 2\n"),
            "{text}"
        );
        assert!(text.contains("viewseeker_catalog_hits_total 7\n"), "{text}");
        assert!(
            text.contains("viewseeker_catalog_misses_total 2\n"),
            "{text}"
        );
        assert!(
            text.contains("viewseeker_catalog_evictions_total 1\n"),
            "{text}"
        );
        assert!(
            text.contains("viewseeker_catalog_resident_bytes 4096\n"),
            "{text}"
        );
        assert!(
            text.contains("viewseeker_catalog_datasets{state=\"cached\"} 2\n"),
            "{text}"
        );
        assert!(
            text.contains("viewseeker_catalog_datasets{state=\"known\"} 3\n"),
            "{text}"
        );
        assert!(
            text.contains("viewseeker_catalog_rowgroups_scanned_total 14\n"),
            "{text}"
        );
        assert!(
            text.contains("viewseeker_catalog_rowgroups_pruned_total 50\n"),
            "{text}"
        );
        assert!(
            text.contains("viewseeker_append_rows_total 1200\n"),
            "{text}"
        );
        assert!(
            text.contains("viewseeker_requests_total{route=\"GET /sessions/:id\"} 3\n"),
            "{text}"
        );
        // 5 µs lands in the unit bucket [5,6) → le 0.000005; the two
        // 150 µs observations share [144,160) → le 0.000159.
        assert!(
            text.contains(
                "viewseeker_request_duration_seconds_bucket{route=\"GET /sessions/:id\",le=\"0.000005\"} 1\n"
            ),
            "{text}"
        );
        assert!(
            text.contains(
                "viewseeker_request_duration_seconds_bucket{route=\"GET /sessions/:id\",le=\"0.000159\"} 3\n"
            ),
            "{text}"
        );
        assert!(
            text.contains(
                "viewseeker_request_duration_seconds_bucket{route=\"GET /sessions/:id\",le=\"+Inf\"} 3\n"
            ),
            "{text}"
        );
        assert!(
            text.contains(
                "viewseeker_request_duration_seconds_sum{route=\"GET /sessions/:id\"} 0.000305\n"
            ),
            "{text}"
        );
        assert!(
            text.contains(
                "viewseeker_request_duration_seconds_count{route=\"GET /sessions/:id\"} 3\n"
            ),
            "{text}"
        );
        // The 100 µs stage observation lands in [96,104) → le 0.000103.
        assert!(
            text.contains(
                "viewseeker_request_stage_seconds_bucket{route=\"GET /sessions/:id\",stage=\"handler\",le=\"+Inf\"} 1\n"
            ),
            "{text}"
        );
        assert!(
            text.contains(
                "viewseeker_request_stage_seconds_count{route=\"GET /sessions/:id\",stage=\"handler\"} 1\n"
            ),
            "{text}"
        );
    }

    /// Every family the table promises appears in a scrape with a header,
    /// so the table can never accumulate dead entries unnoticed.
    #[test]
    fn every_table_entry_is_scraped() {
        let text = scrape();
        for def in SERIES {
            assert!(
                text.contains(&format!("# TYPE {} {}\n", def.name, def.kind)),
                "series `{}` defined but absent from the scrape",
                def.name
            );
        }
    }

    #[test]
    fn series_table_has_unique_names() {
        let mut names: Vec<&str> = SERIES.iter().map(|d| d.name).collect();
        names.sort_unstable();
        let total = names.len();
        names.dedup();
        assert_eq!(total, names.len(), "duplicate name in SERIES");
    }

    #[test]
    #[should_panic(expected = "opened twice")]
    fn duplicate_family_emission_fails_debug_assert() {
        let mut exp = Exposition::new();
        exp.series("viewseeker_uptime_seconds");
        exp.series("viewseeker_uptime_seconds");
    }

    #[test]
    #[should_panic(expected = "not defined in SERIES")]
    fn unregistered_family_fails_debug_assert() {
        let mut exp = Exposition::new();
        exp.series("viewseeker_rogue_total");
    }

    #[test]
    fn label_values_are_escaped() {
        let escaped = escape_label("a\"b\\c\nd");
        assert_eq!(escaped, "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn cumulative_bucket_counts_are_monotonic() {
        let mut hist = Histogram::new();
        for v in [1u64, 9, 70, 900, 12_000, 150_000] {
            hist.record(v);
        }
        let counters = Counters::default();
        let text = render(
            1.0,
            0,
            &counters,
            &[("r".to_owned(), hist)],
            &[],
            &CatalogStats::default(),
            &NetStats::new(),
        );
        let mut last = 0u64;
        let mut bucket_lines = 0;
        for line in text.lines() {
            if line.starts_with("viewseeker_request_duration_seconds_bucket") {
                let value: u64 = line.rsplit_once(' ').unwrap().1.parse().unwrap();
                assert!(value >= last, "{line}");
                last = value;
                bucket_lines += 1;
            }
        }
        assert_eq!(bucket_lines, 7); // 6 distinct buckets + +Inf
        assert_eq!(last, 6);
    }
}
