//! Fn-item extraction: the lightweight "parser" the call graph is built
//! on. It walks the token stream of each [`SourceFile`] with a brace
//! -depth context stack, recording every `fn` item together with its
//! module path (file path plus inline `mod` nesting), `impl`/`trait`
//! context, receiver kind, and body token span. It also extracts the
//! per-file facts name resolution needs: `use` imports and struct field
//! types.
//!
//! This is deliberately not a Rust parser. It understands exactly the
//! shapes the resolution heuristics in [`crate::graph`] consume, and it
//! degrades by *recording less* (an unparsed item yields no `FnItem`),
//! never by guessing.

use std::collections::BTreeMap;

use crate::lexer::TokenKind;
use crate::SourceFile;

/// One `fn` item found in the workspace.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Index of the defining file in `Workspace::files`.
    pub file: usize,
    /// Module path in workspace naming, e.g. `net::reactor`.
    pub module: String,
    /// `impl` (or `trait`) type context: `Some("Reactor")` for methods
    /// and associated fns, `None` for free fns.
    pub self_ty: Option<String>,
    /// Whether the item is a default method in a `trait` body.
    pub in_trait: bool,
    /// The fn name.
    pub name: String,
    /// Whether the fn takes a `self` receiver.
    pub has_self: bool,
    /// Parameter-list token range (inside the parens), for local type
    /// inference.
    pub params: (usize, usize),
    /// Body token range `(first, last)` inside the braces; `None` for
    /// signature-only trait methods.
    pub body: Option<(usize, usize)>,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Whether the item is test-only code.
    pub is_test: bool,
}

impl FnItem {
    /// `module::Type::name` for methods, `module::name` for free fns.
    #[must_use]
    pub fn qualified(&self) -> String {
        match &self.self_ty {
            Some(ty) => format!("{}::{}::{}", self.module, ty, self.name),
            None => format!("{}::{}", self.module, self.name),
        }
    }
}

/// One `use` import: `alias` names `path` in the importing file.
#[derive(Debug, Clone)]
pub struct UseImport {
    /// The name the import binds locally (the last segment, or the
    /// `as`-rename).
    pub alias: String,
    /// Full path segments as written (`["viewseeker_net", "http1"]`).
    pub path: Vec<String>,
}

/// A named struct field and the type identifiers its declared type
/// mentions (`spans: Arc<Mutex<Vec<Span>>>` records
/// `["Arc", "Mutex", "Vec", "Span"]`).
#[derive(Debug, Clone)]
pub struct FieldDef {
    /// The struct the field belongs to.
    pub owner: String,
    /// Field name.
    pub name: String,
    /// Capitalized identifiers appearing in the field's type.
    pub tys: Vec<String>,
}

/// Per-file facts derived once and shared by resolution.
#[derive(Debug, Clone, Default)]
pub struct FileInfo {
    /// Module path of the file root, e.g. `server::registry`.
    pub module: String,
    /// Crate segment of the module path (`server`).
    pub crate_name: String,
    /// `use` imports, in file order.
    pub uses: Vec<UseImport>,
    /// Struct fields declared in the file.
    pub fields: Vec<FieldDef>,
}

/// Maps a workspace-relative file path to its module path: strip
/// `crates/<name>/src/` (the crate's short directory name becomes the
/// crate segment) or `src/` (the root crate, `viewseeker`), drop
/// `lib.rs`/`main.rs`/`mod.rs`, and join the rest with `::`.
#[must_use]
pub fn module_of_path(path: &str) -> String {
    let (crate_name, rest) = if let Some(rest) = path.strip_prefix("crates/") {
        match rest.split_once("/src/") {
            Some((name, tail)) => (name, tail),
            None => (rest, ""),
        }
    } else if let Some(rest) = path.strip_prefix("src/") {
        ("viewseeker", rest)
    } else {
        (path, "")
    };
    let mut segments = vec![crate_name.to_owned()];
    for part in rest.split('/') {
        let part = part.strip_suffix(".rs").unwrap_or(part);
        if part.is_empty() || part == "lib" || part == "main" || part == "mod" {
            continue;
        }
        segments.push(part.to_owned());
    }
    segments.join("::")
}

/// Rust keywords that can precede `(` or appear where an identifier
/// might, and must never be taken for a call or a name.
pub(crate) fn is_keyword(word: &str) -> bool {
    matches!(
        word,
        "as" | "break"
            | "const"
            | "continue"
            | "crate"
            | "dyn"
            | "else"
            | "enum"
            | "extern"
            | "fn"
            | "for"
            | "if"
            | "impl"
            | "in"
            | "let"
            | "loop"
            | "match"
            | "mod"
            | "move"
            | "mut"
            | "pub"
            | "ref"
            | "return"
            | "static"
            | "struct"
            | "trait"
            | "type"
            | "unsafe"
            | "use"
            | "where"
            | "while"
            | "async"
            | "await"
            | "box"
            | "self"
            | "Self"
            | "super"
            | "union"
    )
}

/// Context a brace can open.
#[derive(Debug, Clone)]
enum Ctx {
    /// `mod name { .. }` — pushes a module segment.
    Mod(String),
    /// `impl Type { .. }` / `impl Trait for Type { .. }`.
    Impl { self_ty: String },
    /// `trait Name { .. }` — default methods get `self_ty = Name`.
    Trait(String),
    /// Any other brace (fn body, block, struct literal, ...).
    Other,
}

/// Extracts every `fn` item from `file` (index `file_index` in the
/// workspace), in source order.
#[must_use]
pub fn extract_fns(file: &SourceFile, file_index: usize) -> Vec<FnItem> {
    let base = module_of_path(&file.path);
    let mut out = Vec::new();
    let mut stack: Vec<Ctx> = Vec::new();
    let mut pending: Option<Ctx> = None;
    let mut i = 0usize;
    while i < file.tokens.len() {
        let t = &file.tokens[i];
        if t.is_punct('{') {
            stack.push(pending.take().unwrap_or(Ctx::Other));
            i += 1;
            continue;
        }
        if t.is_punct('}') {
            stack.pop();
            i += 1;
            continue;
        }
        if t.is_ident("mod")
            && file.tok(i + 1).is_some_and(|n| n.kind == TokenKind::Ident)
            && file.tok(i + 2).is_some_and(|b| b.is_punct('{'))
        {
            pending = Some(Ctx::Mod(file.tokens[i + 1].text.clone()));
            i += 2;
            continue;
        }
        if t.is_ident("trait") && file.tok(i + 1).is_some_and(|n| n.kind == TokenKind::Ident) {
            pending = Some(Ctx::Trait(file.tokens[i + 1].text.clone()));
            i += 2;
            continue;
        }
        if t.is_ident("impl") {
            if let Some(self_ty) = impl_self_ty(file, i) {
                pending = Some(Ctx::Impl { self_ty });
            }
            i += 1;
            continue;
        }
        if t.is_ident("fn") && file.tok(i + 1).is_some_and(|n| n.kind == TokenKind::Ident) {
            let name = file.tokens[i + 1].text.clone();
            let (self_ty, in_trait) = stack
                .iter()
                .rev()
                .find_map(|c| match c {
                    Ctx::Impl { self_ty } => Some((Some(self_ty.clone()), false)),
                    Ctx::Trait(name) => Some((Some(name.clone()), true)),
                    _ => None,
                })
                .unwrap_or((None, false));
            let module = {
                let mods: Vec<&str> = stack
                    .iter()
                    .filter_map(|c| match c {
                        Ctx::Mod(m) => Some(m.as_str()),
                        _ => None,
                    })
                    .collect();
                if mods.is_empty() {
                    base.clone()
                } else {
                    format!("{base}::{}", mods.join("::"))
                }
            };
            let (has_self, params, body) = fn_signature(file, i);
            out.push(FnItem {
                file: file_index,
                module,
                self_ty,
                in_trait,
                name,
                has_self,
                params,
                body,
                line: t.line,
                is_test: file.is_test(i),
            });
            i += 2;
            continue;
        }
        i += 1;
    }
    out
}

/// From the `impl` keyword at `i`, the implemented type's name: the last
/// path segment before the body `{` (after `for` when present), with
/// generics skipped. `impl<T> Wrapper<T> {`, `impl Trait for Type {`, and
/// `impl fmt::Display for Type {` all yield the concrete type.
fn impl_self_ty(file: &SourceFile, i: usize) -> Option<String> {
    let mut j = i + 1;
    let mut angle = 0i32;
    let mut last: Option<String> = None;
    let mut after_for = false;
    let mut for_last: Option<String> = None;
    while let Some(t) = file.tok(j) {
        if t.is_punct('{') && angle <= 0 {
            break;
        }
        if t.is_punct(';') && angle <= 0 {
            return None;
        }
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle -= 1;
        } else if angle <= 0 && t.is_ident("where") {
            break;
        } else if angle <= 0 && t.is_ident("for") {
            after_for = true;
        } else if angle <= 0 && t.kind == TokenKind::Ident && !is_keyword(&t.text) {
            if after_for {
                for_last = Some(t.text.clone());
            } else {
                last = Some(t.text.clone());
            }
        }
        j += 1;
    }
    for_last.or(last)
}

/// From the `fn` keyword at `i`: whether the parameter list starts with a
/// `self` receiver, the parameter-list token range, and the body token
/// range (or `None` for a signature-only declaration).
fn fn_signature(file: &SourceFile, i: usize) -> (bool, (usize, usize), Option<(usize, usize)>) {
    // Find the parameter-list `(` (generics may precede it).
    let mut j = i + 2;
    let mut angle = 0i32;
    while let Some(t) = file.tok(j) {
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle -= 1;
        } else if t.is_punct('(') && angle <= 0 {
            break;
        } else if t.is_punct('{') || t.is_punct(';') {
            return (false, (i, i), None);
        }
        j += 1;
    }
    let open_paren = j;
    let mut has_self = false;
    let mut k = open_paren + 1;
    // `self`, `&self`, `&mut self`, `&'a self`, `mut self`, `self: Arc<Self>`.
    while let Some(t) = file.tok(k) {
        if t.is_ident("self") {
            has_self = true;
            break;
        }
        if t.is_punct('&') || t.is_ident("mut") || t.kind == TokenKind::Lifetime {
            k += 1;
            continue;
        }
        break;
    }
    // Find the body `{` after the matching `)`, stopping at `;`.
    let mut depth = 0i32;
    let mut m = open_paren;
    while let Some(t) = file.tok(m) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        }
        m += 1;
    }
    let params = (open_paren + 1, m.saturating_sub(1));
    let mut b = m + 1;
    let mut angle = 0i32;
    while let Some(t) = file.tok(b) {
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle -= 1;
        } else if t.is_punct(';') && angle <= 0 {
            return (has_self, params, None);
        } else if t.is_punct('{') && angle <= 0 {
            let close = crate::item_end(&file.tokens, b);
            return (has_self, params, Some((b + 1, close)));
        }
        b += 1;
    }
    (has_self, params, None)
}

/// Derives the per-file resolution facts: module path, `use` imports,
/// and struct field types.
#[must_use]
pub fn file_info(file: &SourceFile) -> FileInfo {
    let module = module_of_path(&file.path);
    let crate_name = module
        .split("::")
        .next()
        .unwrap_or(module.as_str())
        .to_owned();
    FileInfo {
        module,
        crate_name,
        uses: collect_uses(file),
        fields: collect_fields(file),
    }
}

/// Parses every `use` statement into flat `(alias, path)` imports.
/// Groups (`use a::{b, c as d}`) are expanded; globs are skipped.
fn collect_uses(file: &SourceFile) -> Vec<UseImport> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < file.tokens.len() {
        if !file.tokens[i].is_ident("use") {
            i += 1;
            continue;
        }
        // Collect the statement's tokens up to `;`.
        let start = i + 1;
        let mut end = start;
        while file.tok(end).is_some_and(|t| !t.is_punct(';')) {
            end += 1;
        }
        parse_use_tree(file, start, end, &mut Vec::new(), &mut out);
        i = end + 1;
    }
    out
}

/// Recursively expands the use-tree tokens in `[i, end)` with `prefix`
/// already consumed.
fn parse_use_tree(
    file: &SourceFile,
    mut i: usize,
    end: usize,
    prefix: &mut Vec<String>,
    out: &mut Vec<UseImport>,
) {
    let depth0 = prefix.len();
    let mut last: Option<String> = None;
    while i < end {
        let t = &file.tokens[i];
        if t.kind == TokenKind::Ident && !t.is_ident("as") {
            last = Some(t.text.clone());
            i += 1;
            continue;
        }
        if t.is_punct(':') && file.tok(i + 1).is_some_and(|n| n.is_punct(':')) {
            if let Some(seg) = last.take() {
                prefix.push(seg);
            }
            i += 2;
            continue;
        }
        if t.is_ident("as") {
            // `path as alias` — alias the accumulated path.
            if let (Some(seg), Some(alias)) = (last.take(), file.tok(i + 1)) {
                if alias.kind == TokenKind::Ident {
                    let mut path = prefix.clone();
                    if seg != "self" {
                        path.push(seg);
                    }
                    out.push(UseImport {
                        alias: alias.text.clone(),
                        path,
                    });
                }
            }
            i += 2;
            continue;
        }
        if t.is_punct('{') {
            // Group: split members on top-level commas.
            let mut depth = 1usize;
            let mut member_start = i + 1;
            let mut j = i + 1;
            while j < end && depth > 0 {
                let u = &file.tokens[j];
                if u.is_punct('{') {
                    depth += 1;
                } else if u.is_punct('}') {
                    depth -= 1;
                    if depth == 0 && member_start < j {
                        parse_use_tree(file, member_start, j, prefix, out);
                    }
                } else if u.is_punct(',') && depth == 1 {
                    if member_start < j {
                        parse_use_tree(file, member_start, j, prefix, out);
                    }
                    member_start = j + 1;
                }
                j += 1;
            }
            prefix.truncate(depth0);
            return;
        }
        // `*` glob or anything else: drop the pending segment.
        i += 1;
    }
    if let Some(seg) = last {
        let alias = seg.clone();
        let mut path = prefix.clone();
        if seg == "self" {
            // `use a::b::{self}` binds `b`.
            if let Some(parent) = path.last().cloned() {
                out.push(UseImport {
                    alias: parent,
                    path,
                });
            }
        } else {
            path.push(seg);
            out.push(UseImport { alias, path });
        }
    }
    prefix.truncate(depth0);
}

/// Collects named struct fields and the capitalized type idents their
/// declared types mention.
fn collect_fields(file: &SourceFile) -> Vec<FieldDef> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < file.tokens.len() {
        if !file.tokens[i].is_ident("struct")
            || !file.tok(i + 1).is_some_and(|n| n.kind == TokenKind::Ident)
        {
            i += 1;
            continue;
        }
        let owner = file.tokens[i + 1].text.clone();
        // Walk to the body `{`; tuple structs and unit structs end at
        // `(`/`;` first and record no fields.
        let mut j = i + 2;
        let mut angle = 0i32;
        let mut body = None;
        while let Some(t) = file.tok(j) {
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') {
                angle -= 1;
            } else if angle <= 0 && (t.is_punct(';') || t.is_punct('(')) {
                break;
            } else if angle <= 0 && t.is_punct('{') {
                body = Some(j);
                break;
            }
            j += 1;
        }
        let Some(open) = body else {
            i += 2;
            continue;
        };
        let close = crate::item_end(&file.tokens, open);
        let mut k = open + 1;
        while k < close {
            let t = &file.tokens[k];
            // `name : Type` at field position — the previous token is `{`
            // or the `,` ending the previous field (skipping attributes
            // and visibility is handled by just requiring ident-colon).
            if t.kind == TokenKind::Ident
                && !is_keyword(&t.text)
                && file.tok(k + 1).is_some_and(|c| c.is_punct(':'))
                && !file.tok(k + 2).is_some_and(|c| c.is_punct(':'))
            {
                let mut tys = Vec::new();
                let mut m = k + 2;
                let mut angle = 0i32;
                while m < close {
                    let u = &file.tokens[m];
                    if u.is_punct('<') {
                        angle += 1;
                    } else if u.is_punct('>') {
                        angle -= 1;
                    } else if u.is_punct(',') && angle <= 0 {
                        break;
                    } else if u.kind == TokenKind::Ident
                        && u.text.chars().next().is_some_and(char::is_uppercase)
                    {
                        tys.push(u.text.clone());
                    }
                    m += 1;
                }
                out.push(FieldDef {
                    owner: owner.clone(),
                    name: t.text.clone(),
                    tys,
                });
                k = m;
                continue;
            }
            k += 1;
        }
        i = close + 1;
    }
    out
}

/// Field-type lookup: the workspace-wide map `(owner, field) -> tys`.
#[must_use]
pub fn field_map(infos: &[FileInfo]) -> BTreeMap<(String, String), Vec<String>> {
    let mut out = BTreeMap::new();
    for info in infos {
        for f in &info.fields {
            out.entry((f.owner.clone(), f.name.clone()))
                .or_insert_with(|| f.tys.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(path: &str, src: &str) -> SourceFile {
        SourceFile::new(path.into(), src)
    }

    #[test]
    fn module_paths_follow_file_layout() {
        assert_eq!(module_of_path("crates/net/src/reactor.rs"), "net::reactor");
        assert_eq!(module_of_path("crates/net/src/lib.rs"), "net");
        assert_eq!(
            module_of_path("crates/dataset/src/sql/mod.rs"),
            "dataset::sql"
        );
        assert_eq!(
            module_of_path("crates/dataset/src/sql/parser.rs"),
            "dataset::sql::parser"
        );
        assert_eq!(module_of_path("src/lib.rs"), "viewseeker");
    }

    #[test]
    fn extracts_free_fns_methods_and_trait_defaults() {
        let f = file(
            "crates/net/src/x.rs",
            "fn free() {}\n\
             impl Reactor { fn run(&mut self) { self.tick(); } }\n\
             impl Handler for Router { fn handle(&self) {} }\n\
             trait Sink { fn put(&self) { helper(); } fn abstract_only(&self); }\n\
             mod inner { fn nested() {} }\n",
        );
        let fns = extract_fns(&f, 0);
        let quals: Vec<String> = fns.iter().map(FnItem::qualified).collect();
        assert_eq!(
            quals,
            [
                "net::x::free",
                "net::x::Reactor::run",
                "net::x::Router::handle",
                "net::x::Sink::put",
                "net::x::Sink::abstract_only",
                "net::x::inner::nested",
            ]
        );
        assert!(fns[1].has_self);
        assert!(!fns[0].has_self);
        assert!(fns[3].in_trait);
        assert!(fns[4].body.is_none());
        assert!(fns[1].body.is_some());
    }

    #[test]
    fn impl_headers_with_generics_and_paths_resolve_the_type() {
        let f = file(
            "crates/core/src/x.rs",
            "impl<T: Clone> Wrapper<T> { fn a(&self) {} }\n\
             impl fmt::Display for Thing { fn fmt(&self) {} }\n\
             impl<'a> Iterator for Iter<'a> { fn next(&mut self) {} }\n",
        );
        let fns = extract_fns(&f, 0);
        let tys: Vec<&str> = fns.iter().filter_map(|f| f.self_ty.as_deref()).collect();
        assert_eq!(tys, ["Wrapper", "Thing", "Iter"]);
    }

    #[test]
    fn use_imports_expand_groups_and_renames() {
        let f = file(
            "crates/server/src/x.rs",
            "use std::sync::{Arc, Mutex};\n\
             use viewseeker_net::http1;\n\
             use crate::registry::SessionRegistry as Reg;\n\
             use viewseeker_core::{seeker::ViewSeeker, ViewSeekerConfig};\n",
        );
        let info = file_info(&f);
        let find = |a: &str| {
            info.uses
                .iter()
                .find(|u| u.alias == a)
                .map(|u| u.path.join("::"))
        };
        assert_eq!(find("Mutex").as_deref(), Some("std::sync::Mutex"));
        assert_eq!(find("http1").as_deref(), Some("viewseeker_net::http1"));
        assert_eq!(
            find("Reg").as_deref(),
            Some("crate::registry::SessionRegistry")
        );
        assert_eq!(
            find("ViewSeeker").as_deref(),
            Some("viewseeker_core::seeker::ViewSeeker")
        );
        assert_eq!(
            find("ViewSeekerConfig").as_deref(),
            Some("viewseeker_core::ViewSeekerConfig")
        );
    }

    #[test]
    fn struct_fields_record_workspace_type_idents() {
        let f = file(
            "crates/net/src/x.rs",
            "pub struct Reactor<H> { conns: HashMap<u64, Conn>, stats: Arc<NetStats>,\n\
             handler: Arc<H>, budget: usize }\n\
             struct Unit;\nstruct Tuple(u32);\n",
        );
        let info = file_info(&f);
        let conns = info.fields.iter().find(|f| f.name == "conns").unwrap();
        assert_eq!(conns.owner, "Reactor");
        assert_eq!(conns.tys, ["HashMap", "Conn"]);
        let stats = info.fields.iter().find(|f| f.name == "stats").unwrap();
        assert_eq!(stats.tys, ["Arc", "NetStats"]);
        assert!(!info
            .fields
            .iter()
            .any(|f| f.name == "budget" && !f.tys.is_empty()));
    }
}
