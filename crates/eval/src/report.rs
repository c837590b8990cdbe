//! Rendering experiment results as markdown tables.
//!
//! `reproduce_all` prints the rows behind every table and figure with these
//! renderers; its output is `results/REPRODUCTION.md`, which EXPERIMENTS.md
//! quotes. Renderers of deterministic cells never print a duration, so the
//! report's golden half stays byte-stable; timings have their own renderers.

use std::time::Duration;

use crate::experiments::{
    AlphaPoint, BaselineComparison, BatchPoint, EffortPoint, NoisePoint, OptimizationPoint,
    StrategyPoint,
};
use crate::idealfn::IdealGroup;

/// Renders a generic markdown table.
#[must_use]
pub fn markdown_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str("| ");
    out.push_str(&headers.join(" | "));
    out.push_str(" |\n|");
    for _ in headers {
        out.push_str("---|");
    }
    out.push('\n');
    for row in rows {
        out.push_str("| ");
        out.push_str(&row.join(" | "));
        out.push_str(" |\n");
    }
    out
}

fn fmt_duration(d: Duration) -> String {
    if d >= Duration::from_secs(1) {
        format!("{:.2}s", d.as_secs_f64())
    } else {
        format!("{:.1}ms", d.as_secs_f64() * 1e3)
    }
}

fn mean(values: impl ExactSizeIterator<Item = f64>) -> f64 {
    let n = values.len();
    values.sum::<f64>() / n as f64
}

/// Figure 3/4 table: one row per k, one column per ideal-function group.
#[must_use]
pub fn effort_table(points: &[EffortPoint]) -> String {
    let mut ks: Vec<usize> = points.iter().map(|p| p.k).collect();
    ks.sort_unstable();
    ks.dedup();
    let cell = |group: IdealGroup, k: usize| -> String {
        points
            .iter()
            .find(|p| p.group == group && p.k == k)
            .map_or_else(
                || "-".to_owned(),
                |p| {
                    let star = if p.all_converged { "" } else { "*" };
                    format!("{:.1}{star}", p.mean_labels)
                },
            )
    };
    let rows: Vec<Vec<String>> = ks
        .iter()
        .map(|&k| {
            vec![
                k.to_string(),
                cell(IdealGroup::Single, k),
                cell(IdealGroup::Two, k),
                cell(IdealGroup::Three, k),
            ]
        })
        .collect();
    markdown_table(
        &[
            "k",
            "labels (1-component u*)",
            "labels (2-component u*)",
            "labels (3-component u*)",
        ],
        &rows,
    ) + &format!(
        "(* = not all runs converged within the label budget)\n\
         overall mean labels: {:.1} (paper: 7-16)\n",
        mean(points.iter().map(|p| p.mean_labels))
    )
}

/// Figure 5 table: ViewSeeker vs the 8 fixed baselines.
#[must_use]
pub fn baseline_table(cmp: &BaselineComparison) -> String {
    let mut rows = vec![vec![
        "ViewSeeker".to_owned(),
        format!("{:.3}", cmp.viewseeker_precision),
        format!("{} labels", cmp.labels_used),
    ]];
    for b in &cmp.baselines {
        rows.push(vec![
            format!("baseline: {}", b.feature),
            format!("{:.3}", b.precision),
            "fixed".to_owned(),
        ]);
    }
    markdown_table(
        &["method", &format!("precision@{}", cmp.k), "interaction"],
        &rows,
    ) + &format!(
        "ViewSeeker improvement over best baseline: {:.2}x\n",
        cmp.improvement_factor()
    )
}

/// Figure 6 table: labels to UD = 0, optimization off vs on.
#[must_use]
pub fn optimization_labels_table(points: &[OptimizationPoint]) -> String {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.group.to_string(),
                format!("{:.1}", p.labels_baseline),
                format!("{:.1}", p.labels_optimized),
                format!("{:+.1}%", p.label_overhead() * 100.0),
            ]
        })
        .collect();
    markdown_table(
        &[
            "u* group",
            "labels (no optimization)",
            "labels (optimized)",
            "label overhead",
        ],
        &rows,
    ) + &format!(
        "mean label overhead of the optimized model: {:+.1}% (paper: +19%)\n",
        mean(points.iter().map(OptimizationPoint::label_overhead)) * 100.0
    )
}

/// Figure 7 table: runtime to UD = 0, optimization off vs on.
#[must_use]
pub fn optimization_runtime_table(points: &[OptimizationPoint]) -> String {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.group.to_string(),
                fmt_duration(p.time_baseline),
                fmt_duration(p.time_optimized),
                format!("{:.1}%", p.runtime_reduction() * 100.0),
            ]
        })
        .collect();
    markdown_table(
        &[
            "u* group",
            "runtime (no optimization)",
            "runtime (optimized)",
            "runtime reduction",
        ],
        &rows,
    ) + &format!(
        "mean runtime reduction of the optimized model: {:.1}% (paper: 43%)\n",
        mean(points.iter().map(OptimizationPoint::runtime_reduction)) * 100.0
    )
}

/// Strategy-ablation table.
#[must_use]
pub fn strategy_table(points: &[StrategyPoint]) -> String {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.strategy.clone(),
                format!("{:.1}", p.mean_labels),
                format!("{:.0}%", p.convergence_rate * 100.0),
            ]
        })
        .collect();
    markdown_table(&["query strategy", "mean labels", "converged"], &rows)
}

/// α-sweep table: labels and convergence per α.
#[must_use]
pub fn alpha_table(points: &[AlphaPoint]) -> String {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                format!("{:.0}%", p.alpha * 100.0),
                format!("{:.1}", p.mean_labels),
                format!("{:.0}%", p.convergence_rate * 100.0),
            ]
        })
        .collect();
    markdown_table(&["α", "mean labels", "converged"], &rows)
}

/// α-sweep timings: offline-initialization and total time per α.
#[must_use]
pub fn alpha_runtime_table(points: &[AlphaPoint]) -> String {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                format!("{:.0}%", p.alpha * 100.0),
                fmt_duration(p.mean_init_time),
                fmt_duration(p.mean_wall_time),
            ]
        })
        .collect();
    markdown_table(&["α", "init time", "total time"], &rows)
}

/// Batch-size (M) sweep table.
#[must_use]
pub fn batch_table(points: &[BatchPoint]) -> String {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.views_per_iteration.to_string(),
                format!("{:.1}", p.mean_labels),
                format!("{:.1}", p.mean_iterations),
                format!("{:.0}%", p.convergence_rate * 100.0),
            ]
        })
        .collect();
    markdown_table(
        &[
            "M (views/iteration)",
            "mean labels",
            "mean prompt rounds",
            "converged",
        ],
        &rows,
    )
}

/// Label-noise sweep table.
#[must_use]
pub fn noise_table(points: &[NoisePoint]) -> String {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                format!("{:.2}", p.sigma),
                format!("{:.1}", p.mean_labels),
                format!("{:.1}%", p.mean_final_precision * 100.0),
                format!("{:.0}%", p.convergence_rate * 100.0),
            ]
        })
        .collect();
    markdown_table(
        &[
            "label noise σ",
            "mean labels",
            "final precision",
            "converged",
        ],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_table_shape() {
        let t = markdown_table(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "| a | b |");
        assert_eq!(lines[1], "|---|---|");
        assert_eq!(lines[2], "| 1 | 2 |");
    }

    #[test]
    fn effort_table_pivots_groups_into_columns() {
        let points = vec![
            EffortPoint {
                group: IdealGroup::Single,
                k: 5,
                mean_labels: 7.0,
                all_converged: true,
            },
            EffortPoint {
                group: IdealGroup::Two,
                k: 5,
                mean_labels: 9.5,
                all_converged: false,
            },
        ];
        let t = effort_table(&points);
        assert!(t.contains("| 5 | 7.0 | 9.5* | - |"), "table was:\n{t}");
    }

    #[test]
    fn durations_format_adaptively() {
        assert_eq!(fmt_duration(Duration::from_millis(25)), "25.0ms");
        assert_eq!(fmt_duration(Duration::from_secs(3)), "3.00s");
    }
}
