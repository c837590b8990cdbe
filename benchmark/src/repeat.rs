//! `--repeat N`: N runs of every workload, each on its own seed, and per
//! workload and end-to-end metric the median, minimum, maximum, the range and
//! the interquartile spread as shares of the median, beside the metric's
//! bound — the table committed as `REPEATABILITY.md`.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use serde_json::{parse_value, Value};

use crate::run::{median, Outcome};
use crate::workload::WORKLOADS;
use crate::Options;

/// The regression bound of every end-to-end metric, read from the
/// `BENCHMARK.json` beside this package so that there is one copy of them.
fn bounds() -> io::Result<BTreeMap<String, f64>> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| io::Error::other(format!("{}: {e}", path.display())))?;
    let spec = parse_value(&text).map_err(|e| io::Error::other(format!("BENCHMARK.json: {e}")))?;
    let metrics = spec.get("end_to_end").and_then(Value::as_array);
    Ok(metrics
        .into_iter()
        .flatten()
        .filter_map(|m| {
            let name = m.get("name")?.as_str()?;
            Some((name.to_owned(), m.get("bound")?.as_f64()?))
        })
        .collect())
}

/// The `q`-quantile of sorted `values` as Python's
/// `statistics.quantiles(values, n=4)` places it (position `q (n + 1)`,
/// interpolated), which is how the driver takes quartiles.
fn quantile(values: &[f64], q: f64) -> f64 {
    let position = q * (values.len() + 1) as f64;
    let below = (position.floor() as usize).clamp(1, values.len().max(1)) - 1;
    let above = (below + 1).min(values.len() - 1);
    let weight = (position - position.floor()).clamp(0.0, 1.0);
    values[below] + weight * (values[above] - values[below])
}

pub fn run(runs: usize, options: &Options) -> io::Result<bool> {
    let bounds = bounds()?;
    let mut ok = true;
    let mut rows = Vec::new();
    // One workload's runs follow one another, as the driver's do: the box
    // changes speed within minutes, and runs of one workload a quarter of an
    // hour apart would measure that.
    for workload in WORKLOADS {
        let mut outcomes: Vec<Outcome> = Vec::new();
        for run in 0..runs {
            let options = Options {
                seed: options.seed + run as u64,
                ..options.clone()
            };
            let outcome = crate::run_one(workload, &options)?;
            ok &= outcome.correct();
            outcomes.push(outcome);
        }
        let names = outcomes.first().map_or(&[][..], |o| &o.metrics);
        for name in names.iter().map(|m| m.name.as_str()) {
            let mut values: Vec<f64> = outcomes.iter().filter_map(|o| o.get(name)).collect();
            let mid = median(&mut values);
            let (min, max) = (values[0], values[values.len() - 1]);
            let spread = (quantile(&values, 0.75) - quantile(&values, 0.25)) / mid;
            let bound = bounds.get(name).copied().unwrap_or(f64::NAN);
            let flag = if spread > bound { " **over**" } else { "" };
            rows.push(format!(
                "| {} | {name} | {mid:.4} | {min:.4} | {max:.4} | {:.4} | {spread:.4}{flag} | {bound} |",
                workload.name,
                (max - min) / mid
            ));
        }
    }
    println!(
        "\n| workload | metric | median | min | max | (max-min)/median | (Q3-Q1)/median | bound |"
    );
    println!("|---|---|---|---|---|---|---|---|");
    for row in rows {
        println!("{row}");
    }
    Ok(ok)
}
