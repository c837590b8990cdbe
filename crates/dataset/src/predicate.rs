//! Predicate AST and evaluation.
//!
//! The user query `Q` that defines the explored subset `DQ` is expressed as a
//! predicate tree over the table's columns. The paper's testbed builds `DQ`
//! as a *hypercube in record space* — a conjunction of per-attribute ranges /
//! membership tests — which this AST covers, along with general boolean
//! composition.

use crate::selection::RowSet;
use crate::table::Table;
use crate::DatasetError;

/// A boolean predicate over table rows.
///
/// ```
/// use viewseeker_dataset::builder::TableBuilder;
/// use viewseeker_dataset::{row, Predicate, Schema};
///
/// let mut b = TableBuilder::new(
///     Schema::builder()
///         .categorical_dimension("color")
///         .measure("price")
///         .build()
///         .unwrap(),
/// );
/// b.push_row(row!["red", 10.0]).unwrap();
/// b.push_row(row!["blue", 20.0]).unwrap();
/// b.push_row(row!["red", 30.0]).unwrap();
/// let table = b.finish().unwrap();
///
/// let p = Predicate::eq("color", "red").and(Predicate::range("price", 0.0, 25.0));
/// assert_eq!(p.evaluate(&table).unwrap().ids(), &[0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Always true — selects every row (the trivial query `Q = DR`).
    True,
    /// Categorical column equals the given value.
    Eq {
        /// Column name.
        column: String,
        /// Value to match.
        value: String,
    },
    /// Categorical column's value is one of the given values.
    In {
        /// Column name.
        column: String,
        /// Accepted values.
        values: Vec<String>,
    },
    /// Numeric column lies in `[low, high)` (half-open; `high` may be
    /// `f64::INFINITY` for an unbounded range).
    Range {
        /// Column name.
        column: String,
        /// Inclusive lower bound.
        low: f64,
        /// Exclusive upper bound.
        high: f64,
    },
    /// Conjunction of sub-predicates; empty conjunction is `True`.
    And(Vec<Predicate>),
    /// Disjunction of sub-predicates; empty disjunction selects nothing.
    Or(Vec<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// Convenience constructor for [`Predicate::Eq`].
    #[must_use]
    pub fn eq(column: impl Into<String>, value: impl Into<String>) -> Self {
        Predicate::Eq {
            column: column.into(),
            value: value.into(),
        }
    }

    /// Convenience constructor for [`Predicate::In`].
    #[must_use]
    pub fn is_in(column: impl Into<String>, values: Vec<String>) -> Self {
        Predicate::In {
            column: column.into(),
            values,
        }
    }

    /// Convenience constructor for [`Predicate::Range`].
    #[must_use]
    pub fn range(column: impl Into<String>, low: f64, high: f64) -> Self {
        Predicate::Range {
            column: column.into(),
            low,
            high,
        }
    }

    /// Conjunction of two predicates.
    #[must_use]
    pub fn and(self, other: Predicate) -> Self {
        match self {
            Predicate::And(mut preds) => {
                preds.push(other);
                Predicate::And(preds)
            }
            p => Predicate::And(vec![p, other]),
        }
    }

    /// Evaluates the predicate against `table`, returning the selected rows.
    ///
    /// # Errors
    ///
    /// * [`DatasetError::UnknownColumn`] for a reference to a missing column;
    /// * [`DatasetError::ColumnTypeMismatch`] for `Eq`/`In` on a numeric
    ///   column or `Range` on a categorical column.
    pub fn evaluate(&self, table: &Table) -> Result<RowSet, DatasetError> {
        match self {
            Predicate::True => Ok(table.all_rows()),
            Predicate::Eq { column, value } => {
                eval_membership(table, column, std::slice::from_ref(value))
            }
            Predicate::In { column, values } => eval_membership(table, column, values),
            Predicate::Range { column, low, high } => {
                let values = table.column_by_name(column)?.values().ok_or(
                    DatasetError::ColumnTypeMismatch {
                        column: column.clone(),
                        expected: "numeric (Range predicate)",
                    },
                )?;
                let ids = values
                    .iter()
                    .enumerate()
                    .filter(|(_, v)| **v >= *low && **v < *high)
                    .map(|(i, _)| i as u32)
                    .collect();
                RowSet::from_sorted_ids(ids)
            }
            Predicate::And(preds) => {
                let mut acc = table.all_rows();
                for p in preds {
                    acc = acc.intersect(&p.evaluate(table)?);
                    if acc.is_empty() {
                        break;
                    }
                }
                Ok(acc)
            }
            Predicate::Or(preds) => {
                let mut acc = RowSet::empty();
                for p in preds {
                    acc = acc.union(&p.evaluate(table)?);
                }
                Ok(acc)
            }
            Predicate::Not(inner) => Ok(inner.evaluate(table)?.complement(table.row_count())),
        }
    }
}

/// Smallest f64 strictly greater than `x`: the exclusive upper bound of a
/// [`Predicate::Range`] that must include `x`. Both zeros map to the
/// smallest positive subnormal; stepping the bits of `-0.0` would give
/// `-5e-324`, a bound below zero.
pub(crate) fn next_up(x: f64) -> f64 {
    if x == 0.0 {
        f64::from_bits(1)
    } else if x == f64::INFINITY {
        x
    } else if x > 0.0 {
        f64::from_bits(x.to_bits() + 1)
    } else {
        f64::from_bits(x.to_bits() - 1)
    }
}

fn eval_membership(table: &Table, column: &str, values: &[String]) -> Result<RowSet, DatasetError> {
    let col = table.column_by_name(column)?;
    let (codes, dictionary) = match (col.codes(), col.dictionary()) {
        (Some(c), Some(d)) => (c, d),
        _ => {
            return Err(DatasetError::ColumnTypeMismatch {
                column: column.to_owned(),
                expected: "categorical (Eq/In predicate)",
            })
        }
    };
    // Translate values to codes once, then scan the code vector.
    let mut wanted = vec![false; dictionary.len()];
    for v in values {
        if let Some(slot) = dictionary
            .iter()
            .position(|d| d == v)
            .and_then(|code| wanted.get_mut(code))
        {
            *slot = true;
        }
    }
    let ids = codes
        .iter()
        .enumerate()
        .filter(|(_, c)| wanted.get(**c as usize).copied().unwrap_or(false))
        .map(|(i, _)| i as u32)
        .collect();
    RowSet::from_sorted_ids(ids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::schema::Schema;

    fn table() -> Table {
        let schema = Schema::builder()
            .categorical_dimension("color")
            .numeric_dimension("age")
            .measure("price")
            .build()
            .unwrap();
        Table::new(
            schema,
            vec![
                Column::categorical_from_values(&["red", "blue", "red", "green", "blue"]),
                Column::numeric(vec![10.0, 20.0, 30.0, 40.0, 50.0]),
                Column::numeric(vec![1.0, 2.0, 3.0, 4.0, 5.0]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn true_selects_all() {
        let t = table();
        assert_eq!(Predicate::True.evaluate(&t).unwrap().len(), 5);
    }

    #[test]
    fn eq_on_categorical() {
        let t = table();
        let s = Predicate::eq("color", "red").evaluate(&t).unwrap();
        assert_eq!(s.ids(), &[0, 2]);
    }

    #[test]
    fn eq_unknown_value_selects_nothing() {
        let t = table();
        let s = Predicate::eq("color", "purple").evaluate(&t).unwrap();
        assert!(s.is_empty());
    }

    #[test]
    fn in_on_categorical() {
        let t = table();
        let s = Predicate::is_in("color", vec!["red".into(), "green".into()])
            .evaluate(&t)
            .unwrap();
        assert_eq!(s.ids(), &[0, 2, 3]);
    }

    #[test]
    fn range_is_half_open() {
        let t = table();
        let s = Predicate::range("age", 20.0, 40.0).evaluate(&t).unwrap();
        assert_eq!(s.ids(), &[1, 2]);
    }

    #[test]
    fn unbounded_range() {
        let t = table();
        let s = Predicate::range("age", 30.0, f64::INFINITY)
            .evaluate(&t)
            .unwrap();
        assert_eq!(s.ids(), &[2, 3, 4]);
    }

    #[test]
    fn and_or_not_compose() {
        let t = table();
        let p = Predicate::eq("color", "blue").and(Predicate::range("age", 0.0, 30.0));
        assert_eq!(p.evaluate(&t).unwrap().ids(), &[1]);

        let or = Predicate::Or(vec![
            Predicate::eq("color", "green"),
            Predicate::range("age", 0.0, 15.0),
        ]);
        assert_eq!(or.evaluate(&t).unwrap().ids(), &[0, 3]);

        let not = Predicate::Not(Box::new(Predicate::eq("color", "red")));
        assert_eq!(not.evaluate(&t).unwrap().ids(), &[1, 3, 4]);
    }

    #[test]
    fn empty_connectives() {
        let t = table();
        assert_eq!(Predicate::And(vec![]).evaluate(&t).unwrap().len(), 5);
        assert!(Predicate::Or(vec![]).evaluate(&t).unwrap().is_empty());
    }

    #[test]
    fn type_errors_are_reported() {
        let t = table();
        assert!(matches!(
            Predicate::eq("age", "10").evaluate(&t),
            Err(DatasetError::ColumnTypeMismatch { .. })
        ));
        assert!(matches!(
            Predicate::range("color", 0.0, 1.0).evaluate(&t),
            Err(DatasetError::ColumnTypeMismatch { .. })
        ));
        assert!(matches!(
            Predicate::eq("missing", "x").evaluate(&t),
            Err(DatasetError::UnknownColumn(_))
        ));
    }

    #[test]
    fn and_builder_flattens() {
        let p = Predicate::eq("a", "1")
            .and(Predicate::eq("b", "2"))
            .and(Predicate::eq("c", "3"));
        match p {
            Predicate::And(children) => assert_eq!(children.len(), 3),
            other => panic!("expected flattened And, got {other:?}"),
        }
    }
}
