//! The benchmark of ViewSeeker-the-service. See `benchmark/README.md`.
//!
//! ```text
//! viewseeker-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! viewseeker-benchmark [--traced]            every workload once
//! viewseeker-benchmark --repeat <n>          n runs of every workload, spread per metric
//! viewseeker-benchmark serve [--data-dir d]  the server child (internal)
//! ```
//!
//! The exit code is non-zero when an answer was wrong, or when a validity
//! guard tripped on three measurements in a row (a run whose guards trip is
//! measured again before it fails).
#![forbid(unsafe_code)]

mod golden;
mod inproc;
mod reference;
mod repeat;
mod run;
mod server;
mod sysinfo;
mod trace;
mod wire;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use run::Outcome;
use workload::{Workload, DEFAULT_SEED, WORKLOADS};

/// `run_seconds` of `BENCHMARK.json`: 13.3 s paced + 6.7 s saturated, two
/// thirds of the issue's 20 s + 10 s, so that the driver's 92 runs fit its
/// time cap.
pub const DEFAULT_SECONDS: f64 = 20.0;

const USAGE: &str =
    "usage: viewseeker-benchmark [--workload loop-small|explore-exact|explore-sampled|live-table] \
[--seed N] [--seconds S] [--trace 0|1 | --traced] [--repeat N]";

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Option<Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub repeat: Option<usize>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        repeat: None,
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = || {
            iter.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                options.workload = Some(
                    Workload::by_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => options.seed = value()?.parse().map_err(|_| "bad --seed".to_owned())?,
            "--seconds" => {
                options.seconds = value()?.parse().map_err(|_| "bad --seconds".to_owned())?;
                if options.seconds.is_nan() || options.seconds < 1.0 {
                    return Err("--seconds must be at least 1".to_owned());
                }
            }
            "--trace" => {
                options.traced = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--traced" => options.traced = true,
            "--repeat" => {
                options.repeat = Some(value()?.parse().map_err(|_| "bad --repeat".to_owned())?);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(options)
}

/// Prints the report of one measurement: what was found, every metric by
/// name with its unit, and the verdicts.
fn report(workload: &Workload, options: &Options, outcome: &Outcome) {
    println!(
        "== {} seed={} seconds={} trace={} ==",
        workload.name,
        options.seed,
        options.seconds,
        u8::from(options.traced)
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    for m in &outcome.metrics {
        println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for failure in &outcome.failures {
        println!("  FAILED: {failure}");
    }
    for guard in &outcome.tripped {
        println!("  INVALID: {guard}");
    }
    println!(
        "  attempted={} failed={} fail_ratio={:.6} valid={}",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.tripped.is_empty()
    );
}

/// The contract's result line, the last thing a run prints.
fn result_line(outcome: &Outcome) {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
}

/// A float with all its digits; JSON has no NaN, so an unmeasured value
/// prints as 0 (and the run that produced it has already failed a check).
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_owned()
    }
}

fn measure_once(workload: Workload, options: &Options) -> std::io::Result<Outcome> {
    let outcome = if options.traced {
        inproc::run_traced(workload, options.seed, options.seconds)?
    } else {
        run::run_end_to_end(workload, options.seed, options.seconds)?
    };
    report(&workload, options, &outcome);
    Ok(outcome)
}

/// Measurements one run may take before it fails on its validity guards.
const ATTEMPTS: usize = 3;

/// One run. A measurement on which a validity guard tripped — something
/// else had the CPU — is discarded and taken again; when the last of
/// [`ATTEMPTS`] trips too, the run fails.
fn run_one(workload: Workload, options: &Options) -> std::io::Result<Outcome> {
    let mut outcome = measure_once(workload, options)?;
    for _ in 1..ATTEMPTS {
        if outcome.failed > 0 || outcome.tripped.is_empty() {
            break;
        }
        println!("  the measurement above is discarded as invalid; measuring again");
        outcome = measure_once(workload, options)?;
    }
    result_line(&outcome);
    Ok(outcome)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        let data_dir = match args.get(1).map(String::as_str) {
            Some("--data-dir") => args.get(2).map(PathBuf::from),
            _ => None,
        };
        return match server::serve_main(data_dir) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("serve: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let options = match parse(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The shipped default thread count is what is measured, in-process too.
    std::env::remove_var("VIEWSEEKER_THREADS");
    println!("host: {}", sysinfo::host_line());
    let pinning = match sysinfo::pin_to_one_cpu() {
        Ok(cpu) => format!("client and server pinned to CPU {cpu}"),
        Err(why) => format!("NOT pinned ({why}): expect twice the spread"),
    };
    println!(
        "server: ServerConfig::default() but addr 127.0.0.1:0, log_level Off, live-table adds \
         data_dir + catalog_mem_budget 8 MiB; VIEWSEEKER_THREADS unset; loopback; {pinning}"
    );
    // Reported, not refused: a run of this benchmark alone holds the
    // 1-minute load average of a 2-CPU box above 1, so a refusal at
    // 0.5 x nproc would stop the second of any two runs back to back.
    let limit = 0.5 * sysinfo::nproc() as f64;
    if let Some(load) = sysinfo::load_average().filter(|load| *load > limit) {
        println!("warning: 1-minute load average {load:.2} exceeds {limit:.2}; if anything but this benchmark is running, expect the validity guards to trip");
    }
    let result = match options.repeat {
        Some(sets) => repeat::run(sets, &options),
        None => {
            let chosen: Vec<Workload> = match options.workload {
                Some(w) => vec![w],
                None => WORKLOADS.to_vec(),
            };
            chosen.into_iter().try_fold(true, |ok, workload| {
                Ok(ok && run_one(workload, &options)?.correct())
            })
        }
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
