//! Rule `no-panic`: request-path code in `crates/server`, reactor/parser
//! code in `crates/net`, ring/forwarding code in `crates/cluster`,
//! cache-path code in `crates/catalog`, and the SQL WHERE parser in
//! `crates/dataset/src/sql` (a session's `query` field reaches it) must
//! not contain a reachable panic — no
//! `unwrap()`, `expect()`, `panic!`, `unreachable!`, `todo!`,
//! `unimplemented!`, and no `x[i]` indexing (which panics out of
//! bounds). A panicked worker thread reachable from untrusted HTTP input
//! drops the connection instead of returning a 4xx/5xx body.
//!
//! `debug_assert!` family macros are explicitly permitted (compiled out
//! of release builds) and their argument tokens are skipped entirely.

use crate::lexer::TokenKind;
use crate::{Diagnostic, SourceFile};

use super::is_method_call;

const RULE: &str = "no-panic";
/// Files where *every* panic site is flagged directly, reachable or not.
/// The interprocedural `panic-reachability` rule extends the guarantee to
/// the rest of the workspace via the call graph, so the two scopes are
/// deliberately disjoint.
pub(crate) const SCOPE: &[&str] = &[
    "crates/server/src/",
    "crates/catalog/src/",
    "crates/net/src/",
    "crates/cluster/src/",
    "crates/dataset/src/sql/",
];
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// One potential panic in non-test, non-`debug_assert!` code.
pub(crate) struct PanicSite {
    /// Token index of the offending token.
    pub token: usize,
    /// Short description: `.unwrap()`, `panic!`, `slice/array indexing`.
    pub what: String,
}

/// Finds every panic site in `file`: `.unwrap()`/`.expect()` method
/// calls, `panic!`-family macros, and `x[i]` indexing, excluding test
/// code and `debug_assert!` arguments.
pub(crate) fn panic_sites(file: &SourceFile) -> Vec<PanicSite> {
    let mut out = Vec::new();
    let debug_assert_mask = debug_assert_mask(file);
    for (i, t) in file.tokens.iter().enumerate() {
        if file.is_test(i) || debug_assert_mask.get(i).copied().unwrap_or(false) {
            continue;
        }
        if is_method_call(file, i) && (t.text == "unwrap" || t.text == "expect") {
            out.push(PanicSite {
                token: i,
                what: format!(".{}()", t.text),
            });
        } else if t.kind == TokenKind::Ident
            && PANIC_MACROS.contains(&t.text.as_str())
            && file.tok(i + 1).is_some_and(|n| n.is_punct('!'))
        {
            out.push(PanicSite {
                token: i,
                what: format!("{}!", t.text),
            });
        } else if t.is_punct('[') && i > 0 && is_index_expr(file, i - 1) {
            out.push(PanicSite {
                token: i,
                what: "slice/array indexing".to_owned(),
            });
        }
    }
    out
}

/// Runs the rule over one file.
pub fn check(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !SCOPE.iter().any(|p| file.path.starts_with(p)) {
        return;
    }
    for site in panic_sites(file) {
        let message = match site.what.as_str() {
            ".unwrap()" | ".expect()" => format!(
                "{} in request-path code; propagate a typed error \
                 (ServerError/CatalogError) instead",
                site.what
            ),
            "slice/array indexing" => {
                "slice/array indexing panics out of bounds; use .get()/.get_mut()".to_owned()
            }
            other => format!("{other} in request-path code; return an error instead"),
        };
        out.push(diag(file, site.token, message));
    }
}

fn diag(file: &SourceFile, i: usize, message: String) -> Diagnostic {
    Diagnostic::new(file.path.clone(), file.tokens[i].line, RULE, message)
}

/// A `[` indexes an expression when the previous token could end one:
/// an identifier, a closing paren/bracket, or a literal. Attribute (`#[`),
/// macro (`vec![`), type (`: [u8; 4]`), and pattern positions all have
/// other preceding tokens.
fn is_index_expr(file: &SourceFile, prev: usize) -> bool {
    let t = &file.tokens[prev];
    match t.kind {
        TokenKind::Ident => !is_keyword_before_bracket(&t.text),
        TokenKind::Str => true,
        TokenKind::Punct => t.text == ")" || t.text == "]" || t.text == "?",
        _ => false,
    }
}

/// Keywords that may directly precede a `[` without forming an index
/// expression (`return [..]`, `let [a, b] = ..` slice patterns,
/// `in [..]`).
fn is_keyword_before_bracket(word: &str) -> bool {
    matches!(
        word,
        "return" | "in" | "if" | "else" | "match" | "break" | "as" | "mut" | "dyn" | "impl" | "let"
    )
}

/// Marks every token inside a `debug_assert*!(..)` invocation, including
/// the macro name itself.
fn debug_assert_mask(file: &SourceFile) -> Vec<bool> {
    let mut mask = vec![false; file.tokens.len()];
    let mut i = 0usize;
    while i < file.tokens.len() {
        let t = &file.tokens[i];
        if t.kind == TokenKind::Ident
            && t.text.starts_with("debug_assert")
            && file.tok(i + 1).is_some_and(|n| n.is_punct('!'))
        {
            // Find the delimiter and its match; macros accept ()/[]/{}.
            let open = i + 2;
            let (o, c) = match file.tok(open).map(|t| t.text.as_str()) {
                Some("(") => ('(', ')'),
                Some("[") => ('[', ']'),
                Some("{") => ('{', '}'),
                _ => {
                    i += 1;
                    continue;
                }
            };
            let mut depth = 0usize;
            let mut j = open;
            while j < file.tokens.len() {
                if file.tokens[j].is_punct(o) {
                    depth += 1;
                } else if file.tokens[j].is_punct(c) {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j += 1;
            }
            for m in mask.iter_mut().take(j + 1).skip(i) {
                *m = true;
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(path: &str, src: &str) -> Vec<Diagnostic> {
        let f = SourceFile::new(path.into(), src);
        let mut out = Vec::new();
        check(&f, &mut out);
        out
    }

    #[test]
    fn flags_unwrap_expect_and_macros() {
        let diags = run(
            "crates/server/src/api.rs",
            "fn h() { a.unwrap(); b.expect(\"x\"); panic!(\"no\"); unreachable!(); }",
        );
        assert_eq!(diags.len(), 4);
    }

    #[test]
    fn flags_indexing_but_not_types_or_macros() {
        let diags = run(
            "crates/server/src/api.rs",
            "fn h(x: [u8; 4]) { let v = vec![1]; let a = v[0]; let b: Vec<[u8; 2]> = vec![]; }",
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("indexing"));
    }

    #[test]
    fn skips_tests_debug_asserts_and_out_of_scope_files() {
        assert!(run(
            "crates/server/src/api.rs",
            "fn h() { debug_assert!(x[0] > 1, \"m\"); }\n#[cfg(test)]\nmod t { fn u() { a.unwrap(); } }",
        )
        .is_empty());
        assert!(run("crates/core/src/seeker.rs", "fn h() { a.unwrap(); }").is_empty());
    }

    #[test]
    fn unwrap_or_variants_are_fine() {
        assert!(run(
            "crates/server/src/api.rs",
            "fn h() { a.unwrap_or(0); b.unwrap_or_else(f); c.unwrap_or_default(); }",
        )
        .is_empty());
    }
}
