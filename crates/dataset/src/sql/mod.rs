//! SQL WHERE clauses as the way to say which rows `DQ` holds.
//!
//! The paper lets "DQ be specified by any data specification method such
//! as an SQL/NoSQL query over DR". This module takes that literally: one
//! WHERE clause, parsed straight into the engine's [`Predicate`], which the
//! server's session `query` field and every CLI `--query` flag use.
//!
//! ```
//! use viewseeker_dataset::generate::{generate_diab, DiabConfig};
//! use viewseeker_dataset::sql::parse_where;
//!
//! let table = generate_diab(&DiabConfig::small(1_000, 1)).unwrap();
//! let dq = parse_where("a1 = 'a1_v0' AND m0 > 0").unwrap();
//! assert!(dq.evaluate(&table).unwrap().len() < table.row_count());
//! ```
//!
//! Supported surface:
//!
//! * `=`, `!=`/`<>`, `<`, `<=`, `>`, `>=`, `IN (…)`, `[NOT] BETWEEN a AND b`,
//!   combined with `AND`, `OR`, `NOT` and parentheses. Each `AND`, `OR`,
//!   `NOT` and `(` nests the predicate one level, and 128 levels is the
//!   limit, so a chain of more than 128 `AND`s is too deep as well;
//! * string literals in single quotes (`''` escapes a quote), numbers as
//!   literals; strings compare only with `=`, `!=` and `IN`;
//! * keywords in any case;
//! * `""` and `"*"` select every row.

mod lexer;
mod parser;

use crate::predicate::Predicate;
use crate::DatasetError;

/// Parses a WHERE clause (without the `WHERE` keyword) into the engine's
/// [`Predicate`] AST. An empty clause or `*` is [`Predicate::True`].
///
/// ```
/// use viewseeker_dataset::sql::parse_where;
/// use viewseeker_dataset::Predicate;
///
/// let p = parse_where("a0 = 'x' AND m0 BETWEEN 10 AND 20").unwrap();
/// assert!(matches!(p, Predicate::And(_)));
/// assert_eq!(parse_where("*").unwrap(), Predicate::True);
/// ```
///
/// # Errors
///
/// Returns [`DatasetError::Sql`] for syntax errors, an ordered comparison
/// against a string, an `IN` list that mixes strings and numbers, and
/// nesting deeper than 128 levels.
pub fn parse_where(input: &str) -> Result<Predicate, DatasetError> {
    let input = input.trim();
    if input.is_empty() || input == "*" {
        return Ok(Predicate::True);
    }
    parser::parse(input)
}
