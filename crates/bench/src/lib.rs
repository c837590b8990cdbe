//! The paper harness: [`reproduce`] runs every table and figure of the
//! paper's simulated-user study plus the ablations, and the `reproduce_all`
//! binary prints the result. That output is `results/REPRODUCTION.md`:
//!
//! ```text
//! cargo run --release -p viewseeker-bench --bin reproduce_all > results/REPRODUCTION.md
//! ```
//!
//! The binary accepts:
//!
//! ```text
//! --paper          run at the paper's full scale (100k DIAB / 1M SYN rows)
//! --rows N         override the row count (default: 20k DIAB / 50k SYN)
//! --seed N         override the testbed seed (default: 7)
//! --threads N      offline-phase worker threads (default: CPU count)
//! ```
//!
//! The report has two halves. [`Report::cells`] holds every cell that is a
//! function of the seed and scale alone (labels, precision, UD, convergence,
//! DQ selectivity, view counts); `tests/reproduction.rs` asserts it byte for
//! byte against the committed file at the default scale and seed 7.
//! [`Report::timings`] holds the wall-clock cells, under `## Timings`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::time::Instant;

use viewseeker_core::features::FEATURE_COUNT;
use viewseeker_core::{CoreError, RefineBudget, ViewSeekerConfig, ViewSpace};
use viewseeker_eval::experiments::effort::PAPER_KS;
use viewseeker_eval::experiments::{
    alpha_sweep, baseline_experiment, batch_size_sweep, noise_sweep, optimization_experiment,
    strategy_ablation, user_effort_experiment,
};
use viewseeker_eval::report::{
    alpha_runtime_table, alpha_table, baseline_table, batch_table, effort_table, markdown_table,
    noise_table, optimization_labels_table, optimization_runtime_table, strategy_table,
};
use viewseeker_eval::{diab_testbed, ideal_functions, syn_testbed, TestbedScale};

/// Parsed command-line options of `reproduce_all`.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// Run at full Table 1 scale.
    pub paper: bool,
    /// Explicit row-count override.
    pub rows: Option<usize>,
    /// Testbed seed.
    pub seed: u64,
    /// Offline-phase threads.
    pub threads: usize,
}

impl Default for BenchArgs {
    fn default() -> Self {
        Self {
            paper: false,
            rows: None,
            seed: 7,
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }
}

impl BenchArgs {
    /// Parses `std::env::args`, exiting with a usage message on bad input.
    #[must_use]
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parses from an explicit iterator (testable).
    ///
    /// # Panics
    ///
    /// Panics on malformed flags (the binary surfaces this as a usage
    /// error).
    #[must_use]
    pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut out = Self::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .unwrap_or_else(|| panic!("flag {name} needs a value"))
            };
            match arg.as_str() {
                "--paper" => out.paper = true,
                "--rows" => out.rows = Some(value("--rows").parse().expect("--rows: integer")),
                "--seed" => out.seed = value("--seed").parse().expect("--seed: integer"),
                "--threads" => {
                    out.threads = value("--threads").parse().expect("--threads: integer");
                }
                other => panic!("unknown flag {other} (see crate docs for usage)"),
            }
        }
        out
    }

    /// The testbed scale for a dataset whose paper row count is
    /// `paper_rows`, with `default_small` as the laptop default.
    #[must_use]
    pub fn scale(&self, default_small: usize) -> TestbedScale {
        if let Some(rows) = self.rows {
            TestbedScale::Small(rows)
        } else if self.paper {
            TestbedScale::Paper
        } else {
            TestbedScale::Small(default_small)
        }
    }

    /// A seeker configuration with the CLI's thread count applied.
    #[must_use]
    pub fn seeker_config(&self) -> ViewSeekerConfig {
        ViewSeekerConfig {
            init_threads: self.threads,
            seed: self.seed,
            ..ViewSeekerConfig::default()
        }
    }
}

/// The paper report: deterministic cells, then the `## Timings` section.
/// Its [`Display`](fmt::Display) form is `results/REPRODUCTION.md`.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every cell that depends only on the seed and scale, as markdown.
    pub cells: String,
    /// The `## Timings` section: Figure 7, the α-sweep init/total times, the
    /// thread count and the wall time of the whole run.
    pub timings: String,
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.cells)?;
        f.write_str(&self.timings)
    }
}

/// Runs every experiment of the paper's evaluation, plus the strategy, α,
/// batch-size and label-noise ablations, on the testbeds `args` selects.
///
/// # Errors
///
/// Propagates testbed construction and session errors.
pub fn reproduce(args: &BenchArgs) -> Result<Report, CoreError> {
    let started = Instant::now();
    let diab = diab_testbed(args.scale(20_000), args.seed)?;
    let syn = syn_testbed(args.scale(50_000), args.seed)?;
    let config = args.seeker_config();
    let diab_views = ViewSpace::enumerate(&diab.table, &diab.bin_configs)?.len();
    let syn_views = ViewSpace::enumerate(&syn.table, &syn.bin_configs)?.len();

    let mut md = format!(
        "# ViewSeeker reproduction report\n\nGenerated by `reproduce_all` (seed {}{}).\n\n",
        args.seed,
        if args.paper { ", paper scale" } else { "" }
    );

    md.push_str("## Table 1 — testbed parameters\n\n");
    let paper_config = ViewSeekerConfig::optimized();
    let both = |s: String| vec![s.clone(), s];
    let rows: Vec<(&str, Vec<String>, &str)> = vec![
        (
            "Total number of records",
            vec![
                diab.table.row_count().to_string(),
                syn.table.row_count().to_string(),
            ],
            "100,000 / 1,000,000",
        ),
        (
            "Cardinality ratio of records in DQ",
            vec![
                format!("{:.3}%", diab.selectivity * 100.0),
                format!("{:.3}%", syn.selectivity * 100.0),
            ],
            "0.5%",
        ),
        (
            "Number of dimension attributes (A)",
            vec![
                diab.table.dimension_names().len().to_string(),
                syn.table.dimension_names().len().to_string(),
            ],
            "7 / 5",
        ),
        (
            "Number of distinct values in A",
            vec!["2-10 (variable)".into(), "3 and 4 bins".into()],
            "variable / 3 and 4 bins",
        ),
        (
            "Number of measure attributes (M)",
            vec![
                diab.table.measure_names().len().to_string(),
                syn.table.measure_names().len().to_string(),
            ],
            "8 / 5",
        ),
        ("Number of aggregation functions", both("5".into()), "5"),
        (
            "Number of view utility features",
            both(FEATURE_COUNT.to_string()),
            "8",
        ),
        (
            "Distinct views",
            vec![diab_views.to_string(), syn_views.to_string()],
            "280 / 250",
        ),
        (
            "Utility estimator",
            both("linear regressor".into()),
            "linear regressor",
        ),
        (
            "Views presented per iteration",
            both(paper_config.views_per_iteration.to_string()),
            "1",
        ),
        (
            "Optimization partial data ratio α",
            both(format!("{:.0}%", paper_config.alpha * 100.0)),
            "10%",
        ),
        (
            "Optimization time limit per iteration",
            both(format!("{:?}", paper_config.refine_budget)),
            "1 s",
        ),
    ];
    let rows: Vec<Vec<String>> = rows
        .into_iter()
        .map(|(name, ours, paper)| [vec![name.to_owned()], ours, vec![paper.to_owned()]].concat())
        .collect();
    md.push_str(&markdown_table(
        &["parameter", "DIAB", "SYN", "paper (DIAB / SYN)"],
        &rows,
    ));

    md.push_str("\n## Table 2 — simulated ideal utility functions\n\n");
    let rows: Vec<Vec<String>> = ideal_functions()
        .iter()
        .map(|f| {
            vec![
                f.number.to_string(),
                f.group.to_string(),
                f.utility.name().to_owned(),
            ]
        })
        .collect();
    md.push_str(&markdown_table(&["#", "group", "u*()"], &rows));

    let fig3 = user_effort_experiment(&diab, &config, &PAPER_KS, 200)?;
    md.push_str("\n## Figure 3 — labels to 100% precision (DIAB)\n\n");
    md.push_str(&effort_table(&fig3));

    let fig4 = user_effort_experiment(&syn, &config, &PAPER_KS, 200)?;
    md.push_str("\n## Figure 4 — labels to 100% precision (SYN)\n\n");
    md.push_str(&effort_table(&fig4));

    let fig5 = baseline_experiment(&diab, &config, 11, 10, 200)?;
    md.push_str("\n## Figure 5 — ViewSeeker vs fixed baselines (DIAB, u* #11)\n\n");
    md.push_str(&baseline_table(&fig5));

    // The paper constrains refinement by wall-clock (tl = 1 s per
    // iteration); this implementation refines the whole view space in well
    // under tl, which would make the optimized model exact from the first
    // iteration and erase the trade-off Figures 6-7 study. We therefore
    // emulate the paper's compute-constrained regime with a deterministic
    // budget of 10% of the view space per iteration — refinement completes
    // over ~10 interactions, as it does in the paper's testbed.
    let optimized = ViewSeekerConfig {
        alpha: 0.10,
        refine_budget: RefineBudget::Views((diab_views / 10).max(1)),
        ..config.clone()
    };
    let opt = optimization_experiment(&diab, &config, &optimized, 10, 200)?;
    md.push_str("\n## Figure 6 — labels to UD = 0, optimization off vs on\n\n");
    md.push_str(&optimization_labels_table(&opt));

    let strategies = strategy_ablation(&diab, &config, 10, 200)?;
    md.push_str("\n## Ablation — query strategy\n\n");
    md.push_str(&strategy_table(&strategies));

    let alpha_cfg = ViewSeekerConfig {
        refine_budget: RefineBudget::Views(25),
        ..config.clone()
    };
    let alphas = alpha_sweep(
        &diab,
        &alpha_cfg,
        &[0.01, 0.05, 0.10, 0.25, 0.50, 1.0],
        10,
        200,
    )?;
    md.push_str("\n## Ablation — α sweep\n\n");
    md.push_str(&alpha_table(&alphas));

    let batches = batch_size_sweep(&diab, &config, &[1, 2, 3, 5, 8], 10, 200)?;
    md.push_str("\n## Ablation — batch size M\n\n");
    md.push_str(&batch_table(&batches));

    let noise = noise_sweep(&diab, &config, &[0.0, 0.05, 0.10, 0.20], 10, 60)?;
    md.push_str("\n## Ablation — label-noise robustness\n\n");
    md.push_str(&noise_table(&noise));
    md.push('\n');

    let timings = format!(
        "## Timings\n\n\
         Wall-clock cells: they vary from run to run and are not part of the golden above.\n\n\
         ### Figure 7 — runtime to UD = 0, optimization off vs on\n\n{}\n\
         ### Ablation — α sweep\n\n{}\n\
         _{} offline-phase threads; total reproduction wall time: {:.2?}._\n",
        optimization_runtime_table(&opt),
        alpha_runtime_table(&alphas),
        config.effective_threads(),
        started.elapsed()
    );
    Ok(Report { cells: md, timings })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_flags() {
        let a = BenchArgs::parse_from(
            ["--paper", "--rows", "123", "--seed", "9", "--threads", "2"].map(String::from),
        );
        assert!(a.paper);
        assert_eq!(a.rows, Some(123));
        assert_eq!(a.seed, 9);
        assert_eq!(a.threads, 2);
    }

    #[test]
    fn scale_precedence_rows_beats_paper() {
        let a = BenchArgs::parse_from(["--paper", "--rows", "50"].map(String::from));
        assert_eq!(a.scale(1000), TestbedScale::Small(50));
        let b = BenchArgs::parse_from(["--paper".to_owned()]);
        assert_eq!(b.scale(1000), TestbedScale::Paper);
        let c = BenchArgs::parse_from(Vec::<String>::new());
        assert_eq!(c.scale(1000), TestbedScale::Small(1000));
    }

    #[test]
    #[should_panic(expected = "unknown flag")]
    fn unknown_flag_panics() {
        let _ = BenchArgs::parse_from(["--bogus".to_owned()]);
    }

    #[test]
    fn seeker_config_carries_threads_and_seed() {
        let a = BenchArgs::parse_from(["--threads", "3", "--seed", "11"].map(String::from));
        let c = a.seeker_config();
        assert_eq!(c.init_threads, 3);
        assert_eq!(c.seed, 11);
    }
}
