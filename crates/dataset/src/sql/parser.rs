//! Recursive-descent parser for SQL WHERE clauses, building the engine's
//! [`Predicate`] directly.
//!
//! Grammar (keywords case-insensitive):
//!
//! ```text
//! expr       := and_expr (OR and_expr)*
//! and_expr   := unary (AND unary)*
//! unary      := NOT unary | '(' expr ')' | comparison
//! comparison := ident ( op literal
//!                     | IN '(' literal (',' literal)* ')'
//!                     | [NOT] BETWEEN number AND number )
//! ```
//!
//! Every `NOT`, `(`, `AND` and `OR` nests the predicate one level deeper.
//! Past [`MAX_DEPTH`] levels the parser stops with an error, so neither it
//! nor anything that later walks the tree can exhaust a thread's stack on
//! input a client sent.

use crate::predicate::{next_up, Predicate};
use crate::sql::lexer::{tokenize, Token};
use crate::DatasetError;

/// Deepest predicate nesting accepted (the limit serde_json applies to
/// JSON documents).
const MAX_DEPTH: usize = 128;

/// Parses a whole WHERE clause.
pub(super) fn parse(input: &str) -> Result<Predicate, DatasetError> {
    let mut parser = Parser {
        tokens: tokenize(input)?,
        pos: 0,
        depth: 0,
    };
    let predicate = parser.parse_expr()?;
    parser.expect_end()?;
    Ok(predicate)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Nesting levels entered so far (see [`MAX_DEPTH`]).
    depth: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// Consumes the next token if it's the given case-insensitive keyword.
    fn eat_keyword(&mut self, kw: &str) -> bool {
        if let Some(Token::Ident(s)) = self.peek() {
            if s.eq_ignore_ascii_case(kw) {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), DatasetError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(expected(kw, self.peek()))
        }
    }

    fn expect_token(&mut self, want: &Token, what: &str) -> Result<(), DatasetError> {
        if self.peek() == Some(want) {
            self.pos += 1;
            Ok(())
        } else {
            Err(expected(what, self.peek()))
        }
    }

    fn expect_end(&mut self) -> Result<(), DatasetError> {
        match self.peek() {
            None => Ok(()),
            Some(t) => Err(DatasetError::Sql(format!(
                "unexpected trailing input starting at {t}"
            ))),
        }
    }

    /// Enters one more nesting level.
    fn descend(&mut self) -> Result<(), DatasetError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(DatasetError::Sql(format!(
                "query nests deeper than {MAX_DEPTH} levels"
            )));
        }
        Ok(())
    }

    fn parse_expr(&mut self) -> Result<Predicate, DatasetError> {
        let depth = self.depth;
        let mut left = self.parse_and()?;
        while self.eat_keyword("OR") {
            self.descend()?;
            left = Predicate::Or(vec![left, self.parse_and()?]);
        }
        self.depth = depth;
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Predicate, DatasetError> {
        let depth = self.depth;
        let mut left = self.parse_unary()?;
        while self.eat_keyword("AND") {
            self.descend()?;
            left = Predicate::And(vec![left, self.parse_unary()?]);
        }
        self.depth = depth;
        Ok(left)
    }

    fn parse_unary(&mut self) -> Result<Predicate, DatasetError> {
        let depth = self.depth;
        let predicate = if self.eat_keyword("NOT") {
            self.descend()?;
            Predicate::Not(Box::new(self.parse_unary()?))
        } else if self.peek() == Some(&Token::LParen) {
            self.pos += 1;
            self.descend()?;
            let inner = self.parse_expr()?;
            self.expect_token(&Token::RParen, ")")?;
            inner
        } else {
            return self.parse_comparison();
        };
        self.depth = depth;
        Ok(predicate)
    }

    /// One comparison, mapped onto the engine's predicates: text equality
    /// is [`Predicate::Eq`]; every numeric comparison is a half-open
    /// [`Predicate::Range`], with [`next_up`] turning inclusive bounds into
    /// exclusive ones.
    fn parse_comparison(&mut self) -> Result<Predicate, DatasetError> {
        let column = match self.next() {
            Some(Token::Ident(s)) => s,
            other => return Err(expected("a column name", other.as_ref())),
        };
        if self.eat_keyword("IN") {
            return self.parse_in_list(column);
        }
        let negate = self.eat_keyword("NOT");
        if self.eat_keyword("BETWEEN") {
            let low = self.parse_number()?;
            self.expect_keyword("AND")?;
            let high = self.parse_number()?;
            // SQL BETWEEN is inclusive on both ends.
            let between = Predicate::range(column, low, next_up(high));
            return Ok(if negate {
                Predicate::Not(Box::new(between))
            } else {
                between
            });
        }
        if negate {
            return Err(DatasetError::Sql(
                "expected BETWEEN after NOT in a comparison".into(),
            ));
        }
        let op = self.next();
        if !matches!(
            op,
            Some(Token::Eq | Token::NotEq | Token::Lt | Token::LtEq | Token::Gt | Token::GtEq)
        ) {
            return Err(expected("a comparison operator", op.as_ref()));
        }
        let selected = match (&op, self.next()) {
            (Some(Token::Eq | Token::NotEq), Some(Token::String(v))) => Predicate::eq(column, v),
            (_, Some(Token::String(v))) => {
                return Err(DatasetError::Sql(format!(
                    "ordered comparison against string literal '{v}' is not supported"
                )))
            }
            (Some(Token::Eq | Token::NotEq), Some(Token::Number(n))) => {
                Predicate::range(column, n, next_up(n))
            }
            (Some(Token::Lt), Some(Token::Number(n))) => {
                Predicate::range(column, f64::NEG_INFINITY, n)
            }
            (Some(Token::LtEq), Some(Token::Number(n))) => {
                Predicate::range(column, f64::NEG_INFINITY, next_up(n))
            }
            (Some(Token::Gt), Some(Token::Number(n))) => {
                Predicate::range(column, next_up(n), f64::INFINITY)
            }
            // `>=`, the one operator left.
            (_, Some(Token::Number(n))) => Predicate::range(column, n, f64::INFINITY),
            (_, other) => return Err(expected("a literal", other.as_ref())),
        };
        Ok(if op == Some(Token::NotEq) {
            Predicate::Not(Box::new(selected))
        } else {
            selected
        })
    }

    /// `IN (…)` after `column`: all-text lists are one [`Predicate::In`],
    /// all-number lists a disjunction of point ranges.
    fn parse_in_list(&mut self, column: String) -> Result<Predicate, DatasetError> {
        self.expect_token(&Token::LParen, "(")?;
        let mut texts = Vec::new();
        let mut numbers = Vec::new();
        loop {
            match self.next() {
                Some(Token::String(s)) => texts.push(s),
                Some(Token::Number(n)) => {
                    numbers.push(Predicate::range(column.clone(), n, next_up(n)));
                }
                other => return Err(expected("a literal", other.as_ref())),
            }
            if self.peek() != Some(&Token::Comma) {
                break;
            }
            self.pos += 1;
        }
        self.expect_token(&Token::RParen, ")")?;
        match (texts.is_empty(), numbers.is_empty()) {
            (false, false) => Err(DatasetError::Sql(
                "IN list mixes string and numeric literals".into(),
            )),
            (true, _) => Ok(Predicate::Or(numbers)),
            (false, true) => Ok(Predicate::is_in(column, texts)),
        }
    }

    fn parse_number(&mut self) -> Result<f64, DatasetError> {
        match self.next() {
            Some(Token::Number(n)) => Ok(n),
            other => Err(expected("a number", other.as_ref())),
        }
    }
}

/// The error for finding `found` where `what` was expected.
fn expected(what: &str, found: Option<&Token>) -> DatasetError {
    let found = match found {
        Some(t) => t.to_string(),
        None => "end of input".into(),
    };
    DatasetError::Sql(format!("expected {what}, found {found}"))
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::builder::TableBuilder;
    use crate::row;
    use crate::schema::Schema;
    use crate::sql::parse_where;
    use crate::table::Table;

    /// `{:?}` of `parse_where(input)` as the previous parser (a SQL AST
    /// plus a separate compile pass) returned it. `{:?}` prints every f64
    /// in shortest round-trip form, so equal strings mean equal predicates.
    const KNOWN_ANSWERS: &[(&str, &str)] = &[
        // WHERE strings of the deleted SELECT parser and executor tests
        ("a1 = 'x'", r#"Ok(Eq { column: "a1", value: "x" })"#),
        (
            "x > 1",
            r#"Ok(Range { column: "x", low: 1.0000000000000002, high: inf })"#,
        ),
        (
            "a = 1 OR b = 2 AND c = 3",
            r#"Ok(Or([Range { column: "a", low: 1.0, high: 1.0000000000000002 }, And([Range { column: "b", low: 2.0, high: 2.0000000000000004 }, Range { column: "c", low: 3.0, high: 3.0000000000000004 }])]))"#,
        ),
        (
            "(a = 1 OR b = 2) AND c = 3",
            r#"Ok(And([Or([Range { column: "a", low: 1.0, high: 1.0000000000000002 }, Range { column: "b", low: 2.0, high: 2.0000000000000004 }]), Range { column: "c", low: 3.0, high: 3.0000000000000004 }]))"#,
        ),
        (
            "color IN ('red', 'blue') AND age BETWEEN 20 AND 65 AND NOT x = 1",
            r#"Ok(And([And([In { column: "color", values: ["red", "blue"] }, Range { column: "age", low: 20.0, high: 65.00000000000001 }]), Not(Range { column: "x", low: 1.0, high: 1.0000000000000002 })]))"#,
        ),
        (
            "age NOT BETWEEN 20 AND 30",
            r#"Ok(Not(Range { column: "age", low: 20.0, high: 30.000000000000004 }))"#,
        ),
        (
            "age NOT = 5",
            r#"Err(Sql("expected BETWEEN after NOT in a comparison"))"#,
        ),
        (
            "a = ",
            r#"Err(Sql("expected a literal, found end of input"))"#,
        ),
        ("= 3", r#"Err(Sql("expected a column name, found ="))"#),
        ("a1 = 'a1_v0'", r#"Ok(Eq { column: "a1", value: "a1_v0" })"#),
        (
            "age >= 40",
            r#"Ok(Range { column: "age", low: 40.0, high: inf })"#,
        ),
        ("city = 'LA'", r#"Ok(Eq { column: "city", value: "LA" })"#),
        (
            "age > 30",
            r#"Ok(Range { column: "age", low: 30.000000000000004, high: inf })"#,
        ),
        (
            "age BETWEEN 35 AND 55",
            r#"Ok(Range { column: "age", low: 35.0, high: 55.00000000000001 })"#,
        ),
        (
            "city IN ('NY', 'SF') OR age = 45",
            r#"Ok(Or([In { column: "city", values: ["NY", "SF"] }, Range { column: "age", low: 45.0, high: 45.00000000000001 }]))"#,
        ),
        (
            "age = 45",
            r#"Ok(Range { column: "age", low: 45.0, high: 45.00000000000001 })"#,
        ),
        (
            "age != 45",
            r#"Ok(Not(Range { column: "age", low: 45.0, high: 45.00000000000001 }))"#,
        ),
        (
            "city <> 'NY'",
            r#"Ok(Not(Eq { column: "city", value: "NY" }))"#,
        ),
        (
            "city > 'A'",
            r#"Err(Sql("ordered comparison against string literal 'A' is not supported"))"#,
        ),
        (
            "city IN ('NY', 3)",
            r#"Err(Sql("IN list mixes string and numeric literals"))"#,
        ),
        (
            "age > 1000",
            r#"Ok(Range { column: "age", low: 1000.0000000000001, high: inf })"#,
        ),
        (
            "city = 'NY' AND age >= 30",
            r#"Ok(And([Eq { column: "city", value: "NY" }, Range { column: "age", low: 30.0, high: inf }]))"#,
        ),
        (
            "city = 'NY' extra",
            r#"Err(Sql("unexpected trailing input starting at extra"))"#,
        ),
        (
            "a0 = 'x' AND m0 BETWEEN 10 AND 20",
            r#"Ok(And([Eq { column: "a0", value: "x" }, Range { column: "m0", low: 10.0, high: 20.000000000000004 }]))"#,
        ),
        // the CLI's tests
        (
            "color = 'red' AND age >= 20",
            r#"Ok(And([Eq { column: "color", value: "red" }, Range { column: "age", low: 20.0, high: inf }]))"#,
        ),
        (
            "color = 'red'",
            r#"Ok(Eq { column: "color", value: "red" })"#,
        ),
        // SQL spellings of the CLI's former `a0=v & age:[20,65)` syntax
        ("a0 = 'a0_v1'", r#"Ok(Eq { column: "a0", value: "a0_v1" })"#),
        (
            "color IN ('red','blue')",
            r#"Ok(In { column: "color", values: ["red", "blue"] })"#,
        ),
        (
            "age >= 20 AND age < 65",
            r#"Ok(And([Range { column: "age", low: 20.0, high: inf }, Range { column: "age", low: -inf, high: 65.0 }]))"#,
        ),
        (
            "age >= 20",
            r#"Ok(Range { column: "age", low: 20.0, high: inf })"#,
        ),
        (
            "a0 = 'v' AND age >= 0 AND age < 10",
            r#"Ok(And([And([Eq { column: "a0", value: "v" }, Range { column: "age", low: 0.0, high: inf }]), Range { column: "age", low: -inf, high: 10.0 }]))"#,
        ),
        // ...and that syntax itself, which is not SQL
        ("a0=a0_v1", r#"Err(Sql("expected a literal, found a0_v1"))"#),
        (
            "color in red|blue",
            r#"Err(Sql("unexpected character '|'"))"#,
        ),
        ("age:[20,65)", r#"Err(Sql("unexpected character ':'"))"#),
        (
            "what is this",
            r#"Err(Sql("expected a comparison operator, found is"))"#,
        ),
        // the benchmark's query shapes
        ("a0 = 'a0_v0'", r#"Ok(Eq { column: "a0", value: "a0_v0" })"#),
        (
            "a0 = 'a0_v0' AND a1 = 'a1_v3'",
            r#"Ok(And([Eq { column: "a0", value: "a0_v0" }, Eq { column: "a1", value: "a1_v3" }]))"#,
        ),
        (
            "n_t >= 193000",
            r#"Ok(Range { column: "n_t", low: 193000.0, high: inf })"#,
        ),
        // the rest of the grammar and numeric edges
        (
            "x = 0",
            r#"Ok(Range { column: "x", low: 0.0, high: 5e-324 })"#,
        ),
        (
            "x <= 2.5",
            r#"Ok(Range { column: "x", low: -inf, high: 2.5000000000000004 })"#,
        ),
        (
            "x < -1",
            r#"Ok(Range { column: "x", low: -inf, high: -1.0 })"#,
        ),
        (
            "x = 1e-3",
            r#"Ok(Range { column: "x", low: 0.001, high: 0.0010000000000000002 })"#,
        ),
        (
            "x = 1e999",
            r#"Ok(Range { column: "x", low: inf, high: inf })"#,
        ),
        (
            "x IN (1, 2, 3)",
            r#"Ok(Or([Range { column: "x", low: 1.0, high: 1.0000000000000002 }, Range { column: "x", low: 2.0, high: 2.0000000000000004 }, Range { column: "x", low: 3.0, high: 3.0000000000000004 }]))"#,
        ),
        (
            "name = 'O''Brien'",
            r#"Ok(Eq { column: "name", value: "O'Brien" })"#,
        ),
        (
            "NOT (a = 'x' OR b = 'y')",
            r#"Ok(Not(Or([Eq { column: "a", value: "x" }, Eq { column: "b", value: "y" }])))"#,
        ),
        (
            "NOT NOT a = 'x'",
            r#"Ok(Not(Not(Eq { column: "a", value: "x" })))"#,
        ),
        (
            "x > 1 and y < 2 or not z = 'q'",
            r#"Ok(Or([And([Range { column: "x", low: 1.0000000000000002, high: inf }, Range { column: "y", low: -inf, high: 2.0 }]), Not(Eq { column: "z", value: "q" })]))"#,
        ),
        ("((a = 'x'))", r#"Ok(Eq { column: "a", value: "x" })"#),
        // errors
        (
            "x >",
            r#"Err(Sql("expected a literal, found end of input"))"#,
        ),
        ("x IN ()", r#"Err(Sql("expected a literal, found )"))"#),
        ("x IN (1", r#"Err(Sql("expected ), found end of input"))"#),
        ("a ! b", r#"Err(Sql("expected '=' after '!'"))"#),
        ("a @ b", r#"Err(Sql("unexpected character '@'"))"#),
        (
            "'unterminated",
            r#"Err(Sql("unterminated string literal"))"#,
        ),
        ("x = 1.2.3", r#"Err(Sql("malformed number \"1.2.3\""))"#),
        ("(a = 'x'", r#"Err(Sql("expected ), found end of input"))"#),
        (
            "a = 'x')",
            r#"Err(Sql("unexpected trailing input starting at )"))"#,
        ),
        (
            "x BETWEEN 'a' AND 'b'",
            r#"Err(Sql("expected a number, found 'a'"))"#,
        ),
        ("x BETWEEN 1 2", r#"Err(Sql("expected AND, found 2"))"#),
        (
            "AND",
            r#"Err(Sql("expected a comparison operator, found end of input"))"#,
        ),
        (
            "x = 1 AND",
            r#"Err(Sql("expected a column name, found end of input"))"#,
        ),
    ];

    #[test]
    fn known_answers_match_the_previous_parser() {
        for (input, want) in KNOWN_ANSWERS {
            assert_eq!(&format!("{:?}", parse_where(input)), want, "{input}");
        }
    }

    #[test]
    fn empty_and_star_select_everything() {
        for input in ["", "   ", "*", " * "] {
            assert_eq!(parse_where(input).unwrap(), Predicate::True, "{input:?}");
        }
        assert!(parse_where("a = *").is_err());
        assert!(parse_where("* AND a = 'x'").is_err());
    }

    fn table() -> Table {
        let schema = Schema::builder()
            .categorical_dimension("city")
            .numeric_dimension("age")
            .measure("m_sales")
            .build()
            .unwrap();
        let mut b = TableBuilder::new(schema);
        for (city, age, sales) in [
            ("NY", 25.0, 100.0),
            ("NY", 35.0, 200.0),
            ("LA", 45.0, 50.0),
            ("LA", 55.0, 150.0),
            ("SF", 65.0, 300.0),
        ] {
            b.push_row(row![city, age, sales]).unwrap();
        }
        b.finish().unwrap()
    }

    /// Row ids `query` selects from `table`.
    fn selected(query: &str, table: &Table) -> Vec<u32> {
        let predicate = parse_where(query).unwrap();
        predicate.evaluate(table).unwrap().ids().to_vec()
    }

    #[test]
    fn parse_where_round_trip() {
        assert_eq!(selected("city = 'NY' AND age >= 30", &table()), [1]);
        assert!(parse_where("city = 'NY' extra").is_err());
    }

    #[test]
    fn between_is_inclusive() {
        assert_eq!(selected("age BETWEEN 35 AND 55", &table()), [1, 2, 3]);
    }

    #[test]
    fn in_list_and_or() {
        let t = table();
        assert_eq!(
            selected("city IN ('NY', 'SF') OR age = 45", &t),
            [0, 1, 2, 4]
        );
        assert_eq!(selected("age IN (25, 65)", &t), [0, 4]);
    }

    #[test]
    fn numeric_equality_and_inequality() {
        let t = table();
        assert_eq!(selected("age = 45", &t), [2]);
        assert_eq!(selected("age != 45", &t), [0, 1, 3, 4]);
        assert_eq!(selected("city <> 'NY'", &t), [2, 3, 4]);
        assert_eq!(selected("age <= 35", &t), [0, 1]);
        assert_eq!(selected("age > 55", &t), [4]);
    }

    #[test]
    fn boolean_precedence_and_parens() {
        let (a, b, c) = (
            Predicate::eq("a", "1"),
            Predicate::eq("b", "2"),
            Predicate::eq("c", "3"),
        );
        // a OR b AND c parses as a OR (b AND c).
        assert_eq!(
            parse_where("a = '1' OR b = '2' AND c = '3'").unwrap(),
            Predicate::Or(vec![a.clone(), Predicate::And(vec![b.clone(), c.clone()])])
        );
        assert_eq!(
            parse_where("(a = '1' OR b = '2') AND c = '3'").unwrap(),
            Predicate::And(vec![Predicate::Or(vec![a, b]), c])
        );
    }

    #[test]
    fn keywords_are_case_insensitive() {
        assert_eq!(
            parse_where("x > 1 and not y in ('a') or z between 1 and 2").unwrap(),
            parse_where("x > 1 AND NOT y IN ('a') OR z BETWEEN 1 AND 2").unwrap()
        );
    }

    #[test]
    fn in_between_and_not() {
        assert_eq!(
            parse_where("color IN ('red', 'blue') AND NOT age BETWEEN 20 AND 65").unwrap(),
            Predicate::And(vec![
                Predicate::is_in("color", vec!["red".into(), "blue".into()]),
                Predicate::Not(Box::new(Predicate::range("age", 20.0, next_up(65.0)))),
            ])
        );
    }

    #[test]
    fn not_between() {
        assert_eq!(
            parse_where("age NOT BETWEEN 20 AND 30").unwrap(),
            Predicate::Not(Box::new(Predicate::range("age", 20.0, next_up(30.0))))
        );
        assert!(parse_where("age NOT = 5").is_err());
    }

    #[test]
    fn syntax_errors_are_reported() {
        for input in [
            "a = ",
            "= 3",
            "a",
            "a IN",
            "a IN ('x',)",
            "a BETWEEN 1",
            "a BETWEEN 1 AND 'z'",
            "(a = 1",
            "a = 1)",
            "a = 1 b = 2",
            "NOT",
            "a = 1 OR",
        ] {
            assert!(
                matches!(parse_where(input), Err(DatasetError::Sql(_))),
                "{input}"
            );
        }
    }

    #[test]
    fn semantic_errors() {
        for input in [
            "city > 'A'",
            "city <= 'A'",
            "city IN ('NY', 3)",
            "age IN (3, 'NY')",
        ] {
            assert!(
                matches!(parse_where(input), Err(DatasetError::Sql(_))),
                "{input}"
            );
        }
        // Well-formed, but naming a missing column or the wrong type: the
        // engine reports those when the predicate is evaluated.
        let t = table();
        assert!(parse_where("nope = 1").unwrap().evaluate(&t).is_err());
        assert!(parse_where("city = 1").unwrap().evaluate(&t).is_err());
    }

    #[test]
    fn negative_zero_selects_what_zero_selects() {
        let schema = Schema::builder().numeric_dimension("x").build().unwrap();
        let mut b = TableBuilder::new(schema);
        for x in [-1.0, -0.0, 0.0, 1.0] {
            b.push_row(row![x]).unwrap();
        }
        let t = b.finish().unwrap();
        for (negative, positive, want) in [
            ("x = -0", "x = 0", &[1, 2][..]),
            ("x <= -0", "x <= 0", &[0, 1, 2]),
            ("x BETWEEN -1 AND -0", "x BETWEEN -1 AND 0", &[0, 1, 2]),
            ("x > -0", "x > 0", &[3]),
        ] {
            assert_eq!(selected(negative, &t), want, "{negative}");
            assert_eq!(selected(positive, &t), want, "{positive}");
        }
    }

    /// Runs `f` on a thread with a 2 MiB stack, the default for spawned
    /// threads and so for the server's workers.
    fn on_small_stack<T: Send>(f: impl FnOnce() -> T + Send) -> T {
        std::thread::scope(|s| {
            let thread = std::thread::Builder::new().stack_size(2 << 20);
            thread.spawn_scoped(s, f).unwrap().join().unwrap()
        })
    }

    /// `prefix` × `depth`, then `a = 'x'`, then `suffix` × `depth`.
    fn nested(prefix: &str, suffix: &str, depth: usize) -> String {
        format!("{}a = 'x'{}", prefix.repeat(depth), suffix.repeat(depth))
    }

    #[test]
    fn nesting_is_bounded_without_exhausting_the_stack() {
        on_small_stack(|| {
            for depth in [MAX_DEPTH + 1, 100_000] {
                for query in [
                    nested("NOT ", "", depth),
                    nested("(", ")", depth),
                    nested("a = 'x' AND ", "", depth),
                    nested("a = 'x' OR ", "", depth),
                ] {
                    let err = parse_where(&query).unwrap_err();
                    assert!(err.to_string().contains("nests deeper"), "{err}");
                }
            }
            for depth in [100, MAX_DEPTH] {
                assert!(parse_where(&nested("NOT ", "", depth)).is_ok());
                assert!(parse_where(&nested("(", ")", depth)).is_ok());
                assert!(parse_where(&nested("a = 'x' AND ", "", depth)).is_ok());
            }
        });
    }

    /// Fragments arbitrary queries are spliced from: the grammar's tokens,
    /// pieces of tokens, and characters the lexer rejects.
    const FRAGMENTS: &[&str] = &[
        "a", "x_1", "'", "'s'", "(", ")", ",", "=", "!", "!=", "<", ">", "<>", "-", ".", "0", "1e",
        "9", " ", "NOT ", "AND ", "OR ", "IN ", "BETWEEN ", "*", "é", "\0", "\"", ";",
    ];

    /// A corpus string with byte-level edits `(position, byte, kind)`:
    /// kind 0 overwrites, 1 inserts, 2 deletes.
    fn mutate(input: &str, edits: &[(usize, u16, u8)]) -> String {
        let mut bytes = input.as_bytes().to_vec();
        for &(at, byte, kind) in edits {
            let at = at % (bytes.len() + 1);
            match kind {
                0 if at < bytes.len() => bytes[at] = byte as u8,
                1 => bytes.insert(at, byte as u8),
                2 if at < bytes.len() => {
                    bytes.remove(at);
                }
                _ => {}
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn arbitrary_queries_never_panic(
            pieces in proptest::collection::vec(0..FRAGMENTS.len(), 0..40),
            codes in proptest::collection::vec(0u32..0x3000, 0..8),
            case in 0..KNOWN_ANSWERS.len(),
            edits in proptest::collection::vec((0usize..256, 0u16..256, 0u8..3), 1..6),
        ) {
            let spliced: String = pieces.iter().map(|&i| FRAGMENTS[i]).collect();
            let unicode: String = codes.into_iter().filter_map(char::from_u32).collect();
            let mutated = mutate(KNOWN_ANSWERS[case].0, &edits);
            for input in [spliced, unicode, mutated] {
                let outcome = on_small_stack(|| parse_where(&input));
                prop_assert!(
                    matches!(outcome, Ok(_) | Err(DatasetError::Sql(_))),
                    "{input:?} -> {outcome:?}"
                );
            }
        }
    }
}
