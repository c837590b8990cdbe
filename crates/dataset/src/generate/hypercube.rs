//! Hypercube query generation.
//!
//! The paper's simulated study "created a hypercube in the recording space to
//! represent DQ, which is a subset of data specified by a query", with a
//! target cardinality ratio of 0.5% (Table 1). [`hypercube_query`] constructs
//! such a query for any table: a conjunction of per-attribute constraints —
//! value subsets on categorical dimensions, intervals on numeric dimensions —
//! greedily tightened until the selectivity falls at or below the target.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::column::Column;
use crate::predicate::Predicate;
use crate::query::SelectQuery;
use crate::schema::AttributeRole;
use crate::table::Table;
use crate::DatasetError;

/// Configuration for the hypercube generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HypercubeConfig {
    /// Target fraction of rows `DQ` should contain (paper: 0.005).
    pub target_selectivity: f64,
    /// How far each tightening step shrinks a numeric interval (0 < f < 1).
    pub shrink_factor: f64,
    /// Upper bound on tightening iterations (safety valve).
    pub max_steps: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for HypercubeConfig {
    fn default() -> Self {
        Self {
            target_selectivity: 0.005,
            shrink_factor: 0.6,
            max_steps: 256,
            seed: 0xC0BE,
        }
    }
}

/// Per-attribute constraint of the evolving hypercube.
#[derive(Debug, Clone)]
enum Side {
    Interval { lo: f64, hi: f64, full: (f64, f64) },
    Values { kept: Vec<String>, all: Vec<String> },
}

/// Builds a hypercube query over `table`'s dimension attributes whose
/// selectivity is at most `config.target_selectivity` (or as close as
/// `max_steps` tightening rounds allow), and returns it together with its
/// achieved selectivity.
///
/// # Errors
///
/// * [`DatasetError::Invalid`] for a non-positive target, a degenerate
///   shrink factor, or a table without dimension attributes;
/// * evaluation errors from the predicate engine.
pub fn hypercube_query(
    table: &Table,
    config: &HypercubeConfig,
) -> Result<(SelectQuery, f64), DatasetError> {
    if !(config.target_selectivity > 0.0 && config.target_selectivity <= 1.0) {
        return Err(DatasetError::Invalid(format!(
            "target selectivity {} out of (0, 1]",
            config.target_selectivity
        )));
    }
    if !(config.shrink_factor > 0.0 && config.shrink_factor < 1.0) {
        return Err(DatasetError::Invalid(format!(
            "shrink factor {} out of (0, 1)",
            config.shrink_factor
        )));
    }

    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut sides: Vec<(String, Side)> = Vec::new();
    for meta in table.schema().columns() {
        if meta.role != AttributeRole::Dimension {
            continue;
        }
        let col = table.column_by_name(&meta.name)?;
        let side = match col {
            Column::Numeric(_) => {
                let (lo, hi) = col.numeric_range().ok_or_else(|| {
                    DatasetError::Invalid(format!("dimension {} is empty", meta.name))
                })?;
                Side::Interval {
                    lo,
                    hi: next_up(hi),
                    full: (lo, next_up(hi)),
                }
            }
            Column::Categorical { dictionary, .. } => Side::Values {
                kept: dictionary.clone(),
                all: dictionary.clone(),
            },
        };
        sides.push((meta.name.clone(), side));
    }
    if sides.is_empty() {
        return Err(DatasetError::Invalid(
            "table has no dimension attributes".into(),
        ));
    }

    let mut best = build_query(&sides);
    let mut best_sel = best.execute_with_selectivity(table)?.1;
    for _ in 0..config.max_steps {
        if best_sel <= config.target_selectivity {
            break;
        }
        // Tighten one randomly chosen side.
        let pick = rng.gen_range(0..sides.len());
        let (_, side) = &mut sides[pick];
        match side {
            Side::Interval { lo, hi, full } => {
                let width = *hi - *lo;
                let new_width = (width * config.shrink_factor).max(f64::MIN_POSITIVE);
                let span = full.1 - full.0;
                let slack = (span - new_width).max(0.0);
                let start = full.0 + rng.gen::<f64>() * slack;
                *lo = start;
                *hi = start + new_width;
            }
            Side::Values { kept, all } => {
                if kept.len() > 1 {
                    let target_len =
                        ((kept.len() as f64 * config.shrink_factor).floor() as usize).max(1);
                    let mut pool = all.clone();
                    pool.shuffle(&mut rng);
                    pool.truncate(target_len);
                    *kept = pool;
                }
            }
        }
        let candidate = build_query(&sides);
        let sel = candidate.execute_with_selectivity(table)?.1;
        // Keep only non-empty refinements; an empty DQ makes every view
        // degenerate.
        if sel > 0.0 {
            best = candidate;
            best_sel = sel;
        }
    }
    Ok((best, best_sel))
}

fn build_query(sides: &[(String, Side)]) -> SelectQuery {
    let mut conjuncts = Vec::with_capacity(sides.len());
    for (name, side) in sides {
        match side {
            Side::Interval { lo, hi, full } => {
                if (*lo, *hi) != *full {
                    conjuncts.push(Predicate::range(name.clone(), *lo, *hi));
                }
            }
            Side::Values { kept, all } => {
                if kept.len() < all.len() {
                    conjuncts.push(Predicate::is_in(name.clone(), kept.clone()));
                }
            }
        }
    }
    SelectQuery::new(Predicate::And(conjuncts))
}

/// Smallest f64 strictly greater than `x` (so ranges include the max value).
fn next_up(x: f64) -> f64 {
    if x == f64::INFINITY {
        x
    } else {
        let bits = x.to_bits();
        let next = if x >= 0.0 { bits + 1 } else { bits - 1 };
        f64::from_bits(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::diab::{generate_diab, DiabConfig};
    use crate::generate::syn::{generate_syn, SynConfig};

    #[test]
    fn reaches_target_on_numeric_table() {
        let t = generate_syn(&SynConfig::small(50_000, 1)).unwrap();
        let (q, sel) = hypercube_query(
            &t,
            &HypercubeConfig {
                target_selectivity: 0.01,
                ..HypercubeConfig::default()
            },
        )
        .unwrap();
        assert!(sel > 0.0 && sel <= 0.02, "selectivity {sel}");
        let rows = q.execute(&t).unwrap();
        assert!(!rows.is_empty());
    }

    #[test]
    fn reaches_target_on_categorical_table() {
        let t = generate_diab(&DiabConfig::small(50_000, 2)).unwrap();
        let (q, sel) = hypercube_query(
            &t,
            &HypercubeConfig {
                target_selectivity: 0.02,
                ..HypercubeConfig::default()
            },
        )
        .unwrap();
        assert!(sel > 0.0, "non-empty DQ");
        // Categorical tightening is coarse; allow a generous band above the
        // target but require meaningful restriction.
        assert!(sel <= 0.2, "selectivity {sel}");
        assert!(!q.execute(&t).unwrap().is_empty());
    }

    #[test]
    fn deterministic_per_seed() {
        let t = generate_syn(&SynConfig::small(20_000, 7)).unwrap();
        let cfg = HypercubeConfig::default();
        let (q1, s1) = hypercube_query(&t, &cfg).unwrap();
        let (q2, s2) = hypercube_query(&t, &cfg).unwrap();
        assert_eq!(s1, s2);
        assert_eq!(q1.execute(&t).unwrap().ids(), q2.execute(&t).unwrap().ids());
    }

    #[test]
    fn seed_7_known_answer() {
        let t = generate_diab(&DiabConfig::small(2_000, 7)).unwrap();
        let (q, sel) = hypercube_query(
            &t,
            &HypercubeConfig {
                seed: 7,
                ..HypercubeConfig::default()
            },
        )
        .unwrap();
        assert_eq!(
            format!("{q:?}"),
            "SelectQuery { predicate: And([\
             In { column: \"a0\", values: [\"a0_v1\"] }, \
             In { column: \"a1\", values: [\"a1_v2\"] }, \
             In { column: \"a2\", values: [\"a2_v3\", \"a2_v2\"] }, \
             In { column: \"a4\", values: [\"a4_v2\"] }, \
             In { column: \"a6\", values: [\"a6_v5\", \"a6_v6\", \"a6_v3\", \"a6_v7\", \"a6_v0\", \"a6_v2\"] }\
             ]) }"
        );
        assert_eq!(sel, 0.0015);
        assert_eq!(q.execute(&t).unwrap().len(), 3);
    }

    #[test]
    fn trivial_target_keeps_everything() {
        let t = generate_syn(&SynConfig::small(1000, 3)).unwrap();
        let (q, sel) = hypercube_query(
            &t,
            &HypercubeConfig {
                target_selectivity: 1.0,
                ..HypercubeConfig::default()
            },
        )
        .unwrap();
        assert_eq!(sel, 1.0);
        assert_eq!(q.execute(&t).unwrap().len(), 1000);
    }

    #[test]
    fn invalid_configs_rejected() {
        let t = generate_syn(&SynConfig::small(100, 3)).unwrap();
        assert!(hypercube_query(
            &t,
            &HypercubeConfig {
                target_selectivity: 0.0,
                ..HypercubeConfig::default()
            }
        )
        .is_err());
        assert!(hypercube_query(
            &t,
            &HypercubeConfig {
                shrink_factor: 1.0,
                ..HypercubeConfig::default()
            }
        )
        .is_err());
    }

    #[test]
    fn next_up_is_strictly_greater() {
        for x in [0.0, 1.0, -1.0, 1e300] {
            assert!(next_up(x) > x);
        }
        assert_eq!(next_up(f64::INFINITY), f64::INFINITY);
    }
}
