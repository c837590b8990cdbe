//! SQL WHERE-clause tokenizer.

use crate::DatasetError;

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub(super) enum Token {
    /// Keyword or identifier (case preserved; keyword matching is
    /// case-insensitive in the parser).
    Ident(String),
    /// Single-quoted string literal, quotes stripped, `''` unescaped.
    String(String),
    /// Numeric literal.
    Number(f64),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `=`
    Eq,
    /// `!=` or `<>`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
}

impl std::fmt::Display for Token {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::String(s) => write!(f, "'{s}'"),
            Token::Number(n) => write!(f, "{n}"),
            Token::LParen => f.write_str("("),
            Token::RParen => f.write_str(")"),
            Token::Comma => f.write_str(","),
            Token::Eq => f.write_str("="),
            Token::NotEq => f.write_str("!="),
            Token::Lt => f.write_str("<"),
            Token::LtEq => f.write_str("<="),
            Token::Gt => f.write_str(">"),
            Token::GtEq => f.write_str(">="),
        }
    }
}

/// Tokenizes a SQL string.
///
/// # Errors
///
/// Returns [`DatasetError::Sql`] for unterminated strings, malformed
/// numbers, or unexpected characters.
pub(super) fn tokenize(input: &str) -> Result<Vec<Token>, DatasetError> {
    let mut tokens = Vec::new();
    let mut chars = input.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            c if c.is_whitespace() => {
                chars.next();
            }
            '(' => {
                chars.next();
                tokens.push(Token::LParen);
            }
            ')' => {
                chars.next();
                tokens.push(Token::RParen);
            }
            ',' => {
                chars.next();
                tokens.push(Token::Comma);
            }
            '=' => {
                chars.next();
                tokens.push(Token::Eq);
            }
            '!' => {
                chars.next();
                if chars.peek() == Some(&'=') {
                    chars.next();
                    tokens.push(Token::NotEq);
                } else {
                    return Err(DatasetError::Sql("expected '=' after '!'".into()));
                }
            }
            '<' => {
                chars.next();
                match chars.peek() {
                    Some('=') => {
                        chars.next();
                        tokens.push(Token::LtEq);
                    }
                    Some('>') => {
                        chars.next();
                        tokens.push(Token::NotEq);
                    }
                    _ => tokens.push(Token::Lt),
                }
            }
            '>' => {
                chars.next();
                if chars.peek() == Some(&'=') {
                    chars.next();
                    tokens.push(Token::GtEq);
                } else {
                    tokens.push(Token::Gt);
                }
            }
            '\'' => {
                chars.next();
                let mut s = String::new();
                loop {
                    match chars.next() {
                        Some('\'') => {
                            // '' escapes a quote.
                            if chars.peek() == Some(&'\'') {
                                chars.next();
                                s.push('\'');
                            } else {
                                break;
                            }
                        }
                        Some(c) => s.push(c),
                        None => {
                            return Err(DatasetError::Sql("unterminated string literal".into()))
                        }
                    }
                }
                tokens.push(Token::String(s));
            }
            c if c.is_ascii_digit() || c == '-' || c == '.' => {
                let mut s = String::new();
                s.push(c);
                chars.next();
                while let Some(&d) = chars.peek() {
                    if d.is_ascii_digit()
                        || d == '.'
                        || d == 'e'
                        || d == 'E'
                        || d == '-'
                        || d == '+'
                    {
                        // Only allow sign directly after an exponent marker.
                        if (d == '-' || d == '+') && !matches!(s.chars().last(), Some('e' | 'E')) {
                            break;
                        }
                        s.push(d);
                        chars.next();
                    } else {
                        break;
                    }
                }
                let n: f64 = s
                    .parse()
                    .map_err(|_| DatasetError::Sql(format!("malformed number {s:?}")))?;
                tokens.push(Token::Number(n));
            }
            c if c.is_alphanumeric() || c == '_' => {
                let mut s = String::new();
                while let Some(&d) = chars.peek() {
                    if d.is_alphanumeric() || d == '_' {
                        s.push(d);
                        chars.next();
                    } else {
                        break;
                    }
                }
                tokens.push(Token::Ident(s));
            }
            other => {
                return Err(DatasetError::Sql(format!("unexpected character {other:?}")));
            }
        }
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_a_full_where_clause() {
        let toks = tokenize("a IN ('x', 2) AND NOT (y >= 1.5)").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Ident("a".into()),
                Token::Ident("IN".into()),
                Token::LParen,
                Token::String("x".into()),
                Token::Comma,
                Token::Number(2.0),
                Token::RParen,
                Token::Ident("AND".into()),
                Token::Ident("NOT".into()),
                Token::LParen,
                Token::Ident("y".into()),
                Token::GtEq,
                Token::Number(1.5),
                Token::RParen,
            ]
        );
        assert!(tokenize("SELECT * FROM t").is_err(), "'*' is not a token");
    }

    #[test]
    fn string_literals_and_escapes() {
        let toks = tokenize("name = 'O''Brien'").unwrap();
        assert_eq!(toks[2], Token::String("O'Brien".into()));
        assert!(tokenize("'unterminated").is_err());
    }

    #[test]
    fn comparison_operators() {
        let toks = tokenize("a != b <> c <= d >= e < f > g").unwrap();
        let ops: Vec<&Token> = toks
            .iter()
            .filter(|t| !matches!(t, Token::Ident(_)))
            .collect();
        assert_eq!(
            ops,
            vec![
                &Token::NotEq,
                &Token::NotEq,
                &Token::LtEq,
                &Token::GtEq,
                &Token::Lt,
                &Token::Gt
            ]
        );
    }

    #[test]
    fn numbers_including_negatives_and_exponents() {
        assert_eq!(tokenize("-3.5").unwrap(), vec![Token::Number(-3.5)]);
        assert_eq!(tokenize("1e-3").unwrap(), vec![Token::Number(1e-3)]);
        assert!(tokenize("1.2.3").is_err());
    }

    #[test]
    fn bang_without_eq_is_an_error() {
        assert!(tokenize("a ! b").is_err());
        assert!(matches!(tokenize("a @ b"), Err(DatasetError::Sql(_))));
    }

    #[test]
    fn empty_input_is_empty_tokens() {
        assert!(tokenize("   ").unwrap().is_empty());
    }
}
