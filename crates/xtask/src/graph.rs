//! The intra-workspace call graph: name resolution over the `fn` items
//! extracted by [`crate::items`], plus the JSON export behind
//! `cargo run -p viewseeker-xtask -- graph`.
//!
//! Resolution is heuristic and *honest about it*: every call site ends
//! in exactly one of three buckets —
//!
//! * **resolved** — an [`Edge`] to a unique workspace `fn`;
//! * **unresolved** — the name matches workspace fns but no unique
//!   target could be picked (dyn-trait dispatch, generic receivers,
//!   ambiguous names); recorded with its candidate set, never silently
//!   dropped;
//! * **external** — the name matches nothing in the workspace (std,
//!   vendored deps); only counted.
//!
//! Method receivers are typed by a small per-function inference pass:
//! `self` through the enclosing `impl`, `self.field` through struct
//! field declarations, locals through parameter types, `let`
//! ascriptions, `Type::new(..)`-style initializers, and
//! `Some(x)`/`Ok(x)` unwraps of typed expressions. What the pass cannot
//! type falls back to unique-name matching (crate-local first), and
//! from there to the unresolved bucket. The known limits are documented
//! in DESIGN.md §14.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::items::{extract_fns, field_map, file_info, is_keyword, FileInfo, FnItem};
use crate::lexer::TokenKind;
use crate::{SourceFile, Workspace};

/// How a call site was written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `recv.name(..)`.
    Method,
    /// `name(..)`.
    Free,
    /// `path::name(..)` / `Type::name(..)`.
    Path,
}

impl CallKind {
    fn label(self) -> &'static str {
        match self {
            CallKind::Method => "method",
            CallKind::Free => "free",
            CallKind::Path => "path",
        }
    }
}

/// A resolved call edge. One edge per `(caller, callee)` pair; `line`
/// is the first call site.
#[derive(Debug, Clone)]
pub struct Edge {
    /// Calling fn (index into [`CallGraph::fns`]).
    pub caller: usize,
    /// Called fn.
    pub callee: usize,
    /// Token index of the call-site name in the caller's file.
    pub token: usize,
    /// 1-based line of the call site.
    pub line: usize,
    /// How the target was picked (`self-method`, `field-type`, ...).
    pub via: &'static str,
}

/// A call whose name matches workspace fns but resolved to no unique
/// target.
#[derive(Debug, Clone)]
pub struct Unresolved {
    /// Calling fn.
    pub caller: usize,
    /// The called name.
    pub name: String,
    /// Call shape.
    pub kind: CallKind,
    /// 1-based line of the call site.
    pub line: usize,
    /// Workspace fns the name could refer to.
    pub candidates: Vec<usize>,
}

/// The workspace call graph.
pub struct CallGraph {
    /// Every `fn` item, in file order (files sorted by path).
    pub fns: Vec<FnItem>,
    /// Per-file resolution facts, parallel to `Workspace::files`.
    pub infos: Vec<FileInfo>,
    /// Resolved edges, deduplicated per `(caller, callee)`.
    pub edges: Vec<Edge>,
    /// Adjacency: outgoing edge indices per fn.
    pub out: Vec<Vec<usize>>,
    /// Ambiguous calls with their candidate sets.
    pub unresolved: Vec<Unresolved>,
    /// Calls whose names match nothing in the workspace (std/vendored).
    pub external_calls: usize,
    /// Every `(file index, token index)` call site that resolved to a
    /// workspace fn — including sites deduplicated out of `edges`.
    pub resolved_sites: BTreeSet<(usize, usize)>,
}

impl CallGraph {
    /// Builds the graph for `ws`.
    #[must_use]
    pub fn build(ws: &Workspace) -> CallGraph {
        Builder::new(ws).build()
    }

    /// The innermost fn of `file` whose body contains token `i` — the fn
    /// a token-level finding is attributed to.
    pub(crate) fn innermost_fn(&self, file_index: usize, i: usize) -> Option<usize> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.file == file_index && f.body.is_some_and(|(s, e)| s <= i && i <= e))
            .min_by_key(|(_, f)| f.body.map_or(usize::MAX, |(s, e)| e - s))
            .map(|(idx, _)| idx)
    }

    /// BFS over resolved edges from `entries`; returns, per reached fn,
    /// the `(parent fn, edge)` it was first reached through (`None` for
    /// entries themselves).
    #[must_use]
    pub fn reach(&self, entries: &[usize]) -> BTreeMap<usize, Option<(usize, usize)>> {
        let mut seen: BTreeMap<usize, Option<(usize, usize)>> = BTreeMap::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        for &e in entries {
            if seen.insert(e, None).is_none() {
                queue.push_back(e);
            }
        }
        while let Some(f) = queue.pop_front() {
            for &ei in &self.out[f] {
                let edge = &self.edges[ei];
                if let std::collections::btree_map::Entry::Vacant(v) = seen.entry(edge.callee) {
                    v.insert(Some((f, ei)));
                    queue.push_back(edge.callee);
                }
            }
        }
        seen
    }

    /// The call path from an entry to `target` under a [`CallGraph::reach`]
    /// tree, as qualified fn names.
    #[must_use]
    pub fn witness(
        &self,
        tree: &BTreeMap<usize, Option<(usize, usize)>>,
        target: usize,
    ) -> Vec<String> {
        let mut path = vec![self.fns[target].qualified()];
        let mut cur = target;
        while let Some(Some((parent, _))) = tree.get(&cur) {
            path.push(self.fns[*parent].qualified());
            cur = *parent;
        }
        path.reverse();
        path
    }

    /// Renders the graph as JSON (stable field and element order).
    #[must_use]
    pub fn to_json(&self, ws: &Workspace) -> String {
        let mut out = String::from("{\n  \"fns\": [\n");
        for (i, f) in self.fns.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"id\": {i}, \"fn\": \"{}\", \"file\": \"{}\", \"line\": {}, \
                 \"test\": {}}}{}\n",
                json_escape(&f.qualified()),
                json_escape(&ws.files[f.file].path),
                f.line,
                f.is_test,
                comma(i, self.fns.len()),
            ));
        }
        out.push_str("  ],\n  \"edges\": [\n");
        for (i, e) in self.edges.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"from\": {}, \"to\": {}, \"line\": {}, \"via\": \"{}\"}}{}\n",
                e.caller,
                e.callee,
                e.line,
                e.via,
                comma(i, self.edges.len()),
            ));
        }
        out.push_str("  ],\n  \"unresolved\": [\n");
        for (i, u) in self.unresolved.iter().enumerate() {
            let cands: Vec<String> = u.candidates.iter().map(ToString::to_string).collect();
            out.push_str(&format!(
                "    {{\"from\": {}, \"call\": \"{}\", \"kind\": \"{}\", \"line\": {}, \
                 \"candidates\": [{}]}}{}\n",
                u.caller,
                json_escape(&u.name),
                u.kind.label(),
                u.line,
                cands.join(", "),
                comma(i, self.unresolved.len()),
            ));
        }
        out.push_str(&format!(
            "  ],\n  \"external_calls\": {}\n}}\n",
            self.external_calls
        ));
        out
    }
}

fn comma(i: usize, len: usize) -> &'static str {
    if i + 1 < len {
        ","
    } else {
        ""
    }
}

/// Escapes a string for a JSON literal.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

struct Builder<'w> {
    ws: &'w Workspace,
    fns: Vec<FnItem>,
    infos: Vec<FileInfo>,
    /// All capitalized names the workspace defines (impl targets and
    /// structs) — the filter for "is this type ours".
    ws_types: BTreeSet<String>,
    /// `(self_ty, name)` -> fn indices.
    by_type: BTreeMap<(String, String), Vec<usize>>,
    /// `(module, name)` -> free fn indices.
    by_module: BTreeMap<(String, String), Vec<usize>>,
    /// method name -> fn indices (fns with a self type).
    methods: BTreeMap<String, Vec<usize>>,
    /// free fn name -> fn indices.
    frees: BTreeMap<String, Vec<usize>>,
    /// `(owner, field)` -> type idents.
    fields: BTreeMap<(String, String), Vec<String>>,
    /// Known crate segments (`net`, `server`, ...).
    crates: BTreeSet<String>,
}

impl<'w> Builder<'w> {
    fn new(ws: &'w Workspace) -> Builder<'w> {
        let mut fns = Vec::new();
        let mut infos = Vec::new();
        for (fi, file) in ws.files.iter().enumerate() {
            fns.extend(extract_fns(file, fi));
            infos.push(file_info(file));
        }
        let fields = field_map(&infos);
        let mut ws_types: BTreeSet<String> = fields.keys().map(|(o, _)| o.clone()).collect();
        let mut by_type = BTreeMap::new();
        let mut by_module = BTreeMap::new();
        let mut methods: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut frees: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            if f.is_test {
                continue;
            }
            match &f.self_ty {
                Some(ty) => {
                    ws_types.insert(ty.clone());
                    by_type
                        .entry((ty.clone(), f.name.clone()))
                        .or_insert_with(Vec::new)
                        .push(i);
                    methods.entry(f.name.clone()).or_default().push(i);
                }
                None => {
                    by_module
                        .entry((f.module.clone(), f.name.clone()))
                        .or_insert_with(Vec::new)
                        .push(i);
                    frees.entry(f.name.clone()).or_default().push(i);
                }
            }
        }
        let crates = infos.iter().map(|i| i.crate_name.clone()).collect();
        Builder {
            ws,
            fns,
            infos,
            ws_types,
            by_type,
            by_module,
            methods,
            frees,
            fields,
            crates,
        }
    }

    fn build(mut self) -> CallGraph {
        let mut edges: Vec<Edge> = Vec::new();
        let mut edge_set: BTreeSet<(usize, usize)> = BTreeSet::new();
        let mut resolved_sites: BTreeSet<(usize, usize)> = BTreeSet::new();
        let mut unresolved: Vec<Unresolved> = Vec::new();
        let mut external = 0usize;
        // Per file: body intervals for call-site attribution.
        let fn_count = self.fns.len();
        for caller in 0..fn_count {
            let Some((bs, be)) = self.fns[caller].body else {
                continue;
            };
            if self.fns[caller].is_test {
                continue;
            }
            let file_index = self.fns[caller].file;
            let file = &self.ws.files[file_index];
            let locals = self.local_types(file, caller);
            let mut i = bs;
            while i <= be && i < file.tokens.len() {
                let site = self.call_site(file, i);
                let Some((name, kind)) = site else {
                    i += 1;
                    continue;
                };
                // Attribute to the innermost fn: skip sites belonging to
                // a nested fn item.
                if !self.innermost_is(file_index, i, caller) || file.is_test(i) {
                    i += 1;
                    continue;
                }
                match self.resolve(file, caller, i, &name, kind, &locals) {
                    Resolution::Target(callee, via) => {
                        resolved_sites.insert((file_index, i));
                        if edge_set.insert((caller, callee)) {
                            edges.push(Edge {
                                caller,
                                callee,
                                token: i,
                                line: file.tokens[i].line,
                                via,
                            });
                        }
                    }
                    Resolution::Ambiguous(candidates) => unresolved.push(Unresolved {
                        caller,
                        name,
                        kind,
                        line: file.tokens[i].line,
                        candidates,
                    }),
                    Resolution::External => external += 1,
                }
                i += 1;
            }
        }
        edges.sort_by_key(|e| (e.caller, e.callee));
        let mut out = vec![Vec::new(); self.fns.len()];
        for (i, e) in edges.iter().enumerate() {
            out[e.caller].push(i);
        }
        unresolved.sort_by_key(|a| (a.caller, a.line));
        CallGraph {
            fns: std::mem::take(&mut self.fns),
            infos: std::mem::take(&mut self.infos),
            edges,
            out,
            unresolved,
            external_calls: external,
            resolved_sites,
        }
    }

    /// Whether `caller` is the innermost fn containing token `i`.
    fn innermost_is(&self, file_index: usize, i: usize, caller: usize) -> bool {
        let mut best = usize::MAX;
        let mut best_idx = caller;
        for (idx, f) in self.fns.iter().enumerate() {
            if f.file != file_index {
                continue;
            }
            if let Some((s, e)) = f.body {
                if s <= i && i <= e && e - s < best {
                    best = e - s;
                    best_idx = idx;
                }
            }
        }
        best_idx == caller
    }

    /// Classifies token `i` as a call-site name, if it is one.
    fn call_site(&self, file: &SourceFile, i: usize) -> Option<(String, CallKind)> {
        let t = file.tok(i)?;
        if t.kind != TokenKind::Ident || is_keyword(&t.text) {
            return None;
        }
        if !file.tok(i + 1).is_some_and(|p| p.is_punct('(')) {
            return None;
        }
        let prev = if i > 0 {
            Some(&file.tokens[i - 1])
        } else {
            None
        };
        match prev {
            Some(p) if p.is_punct('.') => Some((t.text.clone(), CallKind::Method)),
            Some(p) if p.is_punct(':') && i >= 2 && file.tokens[i - 2].is_punct(':') => {
                Some((t.text.clone(), CallKind::Path))
            }
            Some(p) if p.is_ident("fn") => None,
            _ => {
                // Bare call. Uppercase-initial names are tuple-struct or
                // enum-variant constructors, not fns.
                if t.text.chars().next().is_some_and(char::is_uppercase) {
                    return None;
                }
                Some((t.text.clone(), CallKind::Free))
            }
        }
    }

    /// Resolves the call at token `i`.
    fn resolve(
        &self,
        file: &SourceFile,
        caller: usize,
        i: usize,
        name: &str,
        kind: CallKind,
        locals: &BTreeMap<String, Vec<String>>,
    ) -> Resolution {
        match kind {
            CallKind::Method => self.resolve_method(file, caller, i, name, locals),
            CallKind::Path => self.resolve_path(file, caller, i, name),
            CallKind::Free => self.resolve_free(file, caller, name),
        }
    }

    fn resolve_method(
        &self,
        file: &SourceFile,
        caller: usize,
        i: usize,
        name: &str,
        locals: &BTreeMap<String, Vec<String>>,
    ) -> Resolution {
        let recv = receiver_chain(file, i)
            .map(|segs| self.chain_types_known(caller, &segs, locals))
            .unwrap_or(RecvTy::Unknown);
        match recv {
            RecvTy::Known(tys) if !tys.is_empty() => {
                let mut hits: Vec<usize> = Vec::new();
                for ty in &tys {
                    if let Some(list) = self.by_type.get(&(ty.clone(), name.to_owned())) {
                        hits.extend(list.iter().copied());
                    }
                }
                match self.prefer(caller, file, hits) {
                    Picked::One(idx) => Resolution::Target(idx, "receiver-type"),
                    Picked::Many(c) => Resolution::Ambiguous(c),
                    // Typed receiver, but the method is not a workspace fn
                    // (derived impls, std methods on our types).
                    Picked::None => Resolution::External,
                }
            }
            // Receiver typed to a non-workspace type (std containers,
            // guards): the call is external.
            RecvTy::Known(_) => Resolution::External,
            RecvTy::Unknown => {
                // Untyped receiver: unique-name fallback — but never for
                // ubiquitous std method names, where a lone same-named
                // workspace method would fabricate edges.
                if STD_METHOD_NAMES.contains(&name) {
                    return Resolution::External;
                }
                let all = self.methods.get(name).cloned().unwrap_or_default();
                match self.prefer(caller, file, all) {
                    Picked::One(idx) => Resolution::Target(idx, "unique-name"),
                    Picked::Many(c) => Resolution::Ambiguous(c),
                    Picked::None => Resolution::External,
                }
            }
        }
    }

    fn resolve_path(&self, file: &SourceFile, caller: usize, i: usize, name: &str) -> Resolution {
        let segs = path_segments(file, i);
        if segs.is_empty() {
            return Resolution::External;
        }
        let last = segs.last().map(String::as_str).unwrap_or("");
        let is_type = last == "Self" || last.chars().next().is_some_and(char::is_uppercase);
        if is_type {
            let ty = if last == "Self" {
                match &self.fns[caller].self_ty {
                    Some(t) => t.clone(),
                    None => return Resolution::External,
                }
            } else {
                last.to_owned()
            };
            // A module prefix before the type (`thread::Builder::new`)
            // must itself resolve to a workspace module; otherwise the
            // path is external no matter which workspace types share the
            // bare name.
            if last != "Self" && segs.len() >= 2 {
                let prefix = &segs[..segs.len() - 1];
                if self.normalize_module(caller, file, prefix).is_none() {
                    return Resolution::External;
                }
            }
            let mut hits = self
                .by_type
                .get(&(ty.clone(), name.to_owned()))
                .cloned()
                .unwrap_or_default();
            // A bare `Type::method` call can only target a type that is
            // in scope: defined in the caller's crate or imported by
            // `use`. Without this, `thread::Builder::new()` would hit any
            // private workspace type that happens to be named `Builder`.
            if last != "Self" && segs.len() == 1 {
                let info = &self.infos[self.fns[caller].file];
                if !info.uses.iter().any(|u| u.alias == ty) {
                    let caller_crate = self.fns[caller]
                        .module
                        .split("::")
                        .next()
                        .unwrap_or("")
                        .to_owned();
                    hits.retain(|&f| {
                        self.fns[f].module.split("::").next() == Some(caller_crate.as_str())
                    });
                }
            }
            return match self.prefer(caller, file, hits) {
                Picked::One(idx) => Resolution::Target(idx, "assoc-type"),
                Picked::Many(c) => Resolution::Ambiguous(c),
                Picked::None => Resolution::External,
            };
        }
        // Module path: normalize to workspace module naming.
        let module = self.normalize_module(caller, file, &segs);
        if let Some(module) = module {
            if let Some(list) = self.by_module.get(&(module.clone(), name.to_owned())) {
                if let Picked::One(idx) = self.prefer(caller, file, list.clone()) {
                    return Resolution::Target(idx, "module-path");
                }
            }
        }
        // Fall back to suffix matching on the raw path.
        let suffix = segs.join("::");
        let mut hits: Vec<usize> = self
            .frees
            .get(name)
            .map(|list| {
                list.iter()
                    .copied()
                    .filter(|&f| self.fns[f].module.ends_with(&suffix))
                    .collect()
            })
            .unwrap_or_default();
        if hits.is_empty() {
            hits = self.frees.get(name).cloned().unwrap_or_default();
        }
        match self.prefer(caller, file, hits) {
            Picked::One(idx) => Resolution::Target(idx, "module-suffix"),
            Picked::Many(c) => Resolution::Ambiguous(c),
            Picked::None => Resolution::External,
        }
    }

    fn resolve_free(&self, file: &SourceFile, caller: usize, name: &str) -> Resolution {
        // Same module, then ancestor modules.
        let mut module = self.fns[caller].module.clone();
        loop {
            if let Some(list) = self.by_module.get(&(module.clone(), name.to_owned())) {
                if let Picked::One(idx) = self.prefer(caller, file, list.clone()) {
                    return Resolution::Target(idx, "same-module");
                }
            }
            match module.rfind("::") {
                Some(pos) => module.truncate(pos),
                None => break,
            }
        }
        // Imported by `use`.
        let info = &self.infos[self.fns[caller].file];
        if let Some(import) = info.uses.iter().find(|u| u.alias == name) {
            if import.path.len() >= 2 {
                let mod_segs: Vec<String> = import.path[..import.path.len() - 1].to_vec();
                if let Some(module) = self.normalize_module(caller, file, &mod_segs) {
                    if let Some(list) = self.by_module.get(&(module, name.to_owned())) {
                        if let Picked::One(idx) = self.prefer(caller, file, list.clone()) {
                            return Resolution::Target(idx, "use-import");
                        }
                    }
                }
            }
        }
        // Unique across the workspace, crate-local first.
        let all = self.frees.get(name).cloned().unwrap_or_default();
        match self.prefer(caller, file, all) {
            Picked::One(idx) => Resolution::Target(idx, "unique-name"),
            Picked::Many(c) => Resolution::Ambiguous(c),
            Picked::None => Resolution::External,
        }
    }

    /// Converts raw path segments (`crate::x`, `super::y`,
    /// `viewseeker_net::http1`, `http1` via `use`) to a workspace module
    /// path.
    fn normalize_module(
        &self,
        caller: usize,
        _file: &SourceFile,
        segs: &[String],
    ) -> Option<String> {
        let caller_module = &self.fns[caller].module;
        let caller_crate = caller_module.split("::").next().unwrap_or("");
        let mut parts: Vec<String> = Vec::new();
        let mut rest = segs;
        match segs.first().map(String::as_str) {
            Some("crate") => {
                parts.push(caller_crate.to_owned());
                rest = &segs[1..];
            }
            Some("self") => {
                parts.extend(caller_module.split("::").map(str::to_owned));
                rest = &segs[1..];
            }
            Some("super") => {
                let mut base: Vec<String> = caller_module.split("::").map(str::to_owned).collect();
                let mut k = 0;
                while segs.get(k).is_some_and(|s| s == "super") {
                    base.pop();
                    k += 1;
                }
                parts.extend(base);
                rest = &segs[k..];
            }
            Some(first) => {
                if let Some(stripped) = first.strip_prefix("viewseeker_") {
                    let dir = stripped.replace('_', "-");
                    if self.crates.contains(stripped) {
                        parts.push(stripped.to_owned());
                    } else if self.crates.contains(&dir) {
                        parts.push(dir);
                    } else {
                        return None;
                    }
                    rest = &segs[1..];
                } else if first == "viewseeker" && self.crates.contains("viewseeker") {
                    parts.push("viewseeker".to_owned());
                    rest = &segs[1..];
                } else if self.crates.contains(first) && first != caller_crate {
                    // A sibling crate referenced by its directory name —
                    // only plausible in fixtures where crate names have no
                    // prefix.
                    parts.push(first.to_owned());
                    rest = &segs[1..];
                } else {
                    // A child module of the caller's module or an ancestor.
                    let mut base: Vec<String> =
                        caller_module.split("::").map(str::to_owned).collect();
                    loop {
                        let probe = format!("{}::{}", base.join("::"), first);
                        if self.infos.iter().any(|inf| {
                            inf.module == probe || inf.module.starts_with(&format!("{probe}::"))
                        }) || self.by_module.keys().any(|(m, _)| *m == probe)
                        {
                            parts.extend(base);
                            break;
                        }
                        if base.pop().is_none() || base.is_empty() {
                            // Try an alias from `use` (module import).
                            let info = &self.infos[self.fns[caller].file];
                            if let Some(import) = info.uses.iter().find(|u| u.alias == *first) {
                                let expanded: Vec<String> = import
                                    .path
                                    .iter()
                                    .cloned()
                                    .chain(segs[1..].iter().cloned())
                                    .collect();
                                return self.normalize_module(caller, _file, &expanded);
                            }
                            return None;
                        }
                    }
                }
            }
            None => return None,
        }
        parts.extend(rest.iter().cloned());
        Some(parts.join("::"))
    }

    /// Narrows candidate fns: a unique candidate wins; otherwise prefer
    /// the caller's crate, then types imported into the caller's file.
    fn prefer(&self, caller: usize, _file: &SourceFile, mut hits: Vec<usize>) -> Picked {
        hits.sort_unstable();
        hits.dedup();
        if hits.len() == 1 {
            return Picked::One(hits[0]);
        }
        if hits.is_empty() {
            return Picked::None;
        }
        let caller_crate = self.fns[caller]
            .module
            .split("::")
            .next()
            .unwrap_or("")
            .to_owned();
        let local: Vec<usize> = hits
            .iter()
            .copied()
            .filter(|&f| self.fns[f].module.split("::").next() == Some(caller_crate.as_str()))
            .collect();
        if local.len() == 1 {
            return Picked::One(local[0]);
        }
        let info = &self.infos[self.fns[caller].file];
        let imported: Vec<usize> = hits
            .iter()
            .copied()
            .filter(|&f| {
                self.fns[f]
                    .self_ty
                    .as_ref()
                    .is_some_and(|ty| info.uses.iter().any(|u| u.alias == *ty))
            })
            .collect();
        if imported.len() == 1 {
            return Picked::One(imported[0]);
        }
        Picked::Many(hits)
    }

    /// Candidate workspace types for a receiver chain (`["self", "conns"]`).
    fn chain_types(
        &self,
        caller: usize,
        segs: &[String],
        locals: &BTreeMap<String, Vec<String>>,
    ) -> Vec<String> {
        match self.chain_types_known(caller, segs, locals) {
            RecvTy::Known(tys) => tys,
            RecvTy::Unknown => Vec::new(),
        }
    }

    /// Like [`Builder::chain_types`], but distinguishes "typed to nothing
    /// of ours" (Known but empty) from "no type information at all".
    fn chain_types_known(
        &self,
        caller: usize,
        segs: &[String],
        locals: &BTreeMap<String, Vec<String>>,
    ) -> RecvTy {
        let mut set: Vec<String> = match segs.first().map(String::as_str) {
            Some("self") => match &self.fns[caller].self_ty {
                Some(t) => vec![t.clone()],
                None => return RecvTy::Unknown,
            },
            Some(var) => match locals.get(var) {
                Some(tys) => tys.clone(),
                None => return RecvTy::Unknown,
            },
            None => return RecvTy::Unknown,
        };
        for field in &segs[1..] {
            let mut next: Vec<String> = Vec::new();
            for ty in &set {
                if let Some(tys) = self.fields.get(&(ty.clone(), field.clone())) {
                    next.extend(tys.iter().filter(|t| self.ws_types.contains(*t)).cloned());
                }
            }
            next.sort();
            next.dedup();
            set = next;
        }
        set.retain(|t| self.ws_types.contains(t));
        RecvTy::Known(set)
    }

    /// Per-function local/parameter type candidates.
    fn local_types(&self, file: &SourceFile, caller: usize) -> BTreeMap<String, Vec<String>> {
        let item = &self.fns[caller];
        let mut out: BTreeMap<String, Vec<String>> = BTreeMap::new();
        // Parameters: `name: <type>` pairs at paren depth 0.
        let (ps, pe) = item.params;
        let mut depth = 0i32;
        let mut j = ps;
        while j <= pe && j < file.tokens.len() {
            let t = &file.tokens[j];
            if t.is_punct('(') || t.is_punct('<') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct('>') || t.is_punct(']') {
                depth -= 1;
            } else if depth == 0
                && t.kind == TokenKind::Ident
                && !is_keyword(&t.text)
                && file.tok(j + 1).is_some_and(|c| c.is_punct(':'))
                && !file.tok(j + 2).is_some_and(|c| c.is_punct(':'))
            {
                let tys = self.type_idents(file, j + 2, pe + 1);
                if !tys.is_empty() {
                    out.insert(t.text.clone(), tys);
                }
            }
            j += 1;
        }
        let Some((bs, be)) = item.body else {
            return out;
        };
        // `let` bindings (plain, ascribed, and Some/Ok destructuring).
        let mut i = bs;
        while i <= be && i < file.tokens.len() {
            if !file.tokens[i].is_ident("let") {
                i += 1;
                continue;
            }
            let mut k = i + 1;
            if file.tok(k).is_some_and(|t| t.is_ident("mut")) {
                k += 1;
            }
            // `let Some(x)` / `let Ok(x)` — bind the inner ident.
            let (bind, after) = if file
                .tok(k)
                .is_some_and(|t| t.is_ident("Some") || t.is_ident("Ok"))
                && file.tok(k + 1).is_some_and(|p| p.is_punct('('))
            {
                let mut inner = k + 2;
                if file.tok(inner).is_some_and(|t| t.is_ident("mut")) {
                    inner += 1;
                }
                while file
                    .tok(inner)
                    .is_some_and(|t| t.is_punct('&') || t.is_ident("ref"))
                {
                    inner += 1;
                }
                match file.tok(inner) {
                    Some(t) if t.kind == TokenKind::Ident => (Some(t.text.clone()), inner + 2),
                    _ => (None, k + 1),
                }
            } else {
                match file.tok(k) {
                    Some(t) if t.kind == TokenKind::Ident && !is_keyword(&t.text) => {
                        (Some(t.text.clone()), k + 1)
                    }
                    _ => (None, k + 1),
                }
            };
            let Some(bind) = bind else {
                i += 1;
                continue;
            };
            // Statement extent: to `;` or `{` (let-else / if-let body).
            let mut stmt_end = after;
            let mut d = 0i32;
            while let Some(t) = file.tok(stmt_end) {
                if t.is_punct('(') || t.is_punct('[') {
                    d += 1;
                } else if t.is_punct(')') || t.is_punct(']') {
                    d -= 1;
                } else if (t.is_punct(';') || t.is_punct('{')) && d <= 0 {
                    break;
                }
                stmt_end += 1;
            }
            let tys = if file.tok(after).is_some_and(|c| c.is_punct(':'))
                && !file.tok(after + 1).is_some_and(|c| c.is_punct(':'))
            {
                // `let x: T = ..` — take the ascription.
                self.type_idents(file, after + 1, stmt_end)
            } else {
                self.expr_types(file, caller, after, stmt_end, &out)
            };
            if !tys.is_empty() {
                out.insert(bind, tys);
            }
            i = stmt_end + 1;
        }
        // `for x in <expr>` element types.
        let mut i = bs;
        while i + 3 <= be && i < file.tokens.len() {
            if file.tokens[i].is_ident("for")
                && file.tok(i + 1).is_some_and(|t| t.kind == TokenKind::Ident)
                && file.tok(i + 2).is_some_and(|t| t.is_ident("in"))
            {
                let bind = file.tokens[i + 1].text.clone();
                let mut end = i + 3;
                while file.tok(end).is_some_and(|t| !t.is_punct('{')) {
                    end += 1;
                }
                let tys = self.expr_types(file, caller, i + 3, end, &out);
                if !tys.is_empty() {
                    out.entry(bind).or_insert(tys);
                }
            }
            i += 1;
        }
        out
    }

    /// Workspace types mentioned in the type tokens `[from, to)`.
    fn type_idents(&self, file: &SourceFile, from: usize, to: usize) -> Vec<String> {
        let mut out = Vec::new();
        let mut j = from;
        let mut depth = 0i32;
        while j < to && j < file.tokens.len() {
            let t = &file.tokens[j];
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth -= 1;
                if depth < 0 {
                    break;
                }
            } else if (t.is_punct(',') || t.is_punct(';') || t.is_punct('=')) && depth <= 0 {
                break;
            } else if t.kind == TokenKind::Ident
                && t.text.chars().next().is_some_and(char::is_uppercase)
                && self.ws_types.contains(&t.text)
            {
                out.push(t.text.clone());
            }
            j += 1;
        }
        out.sort();
        out.dedup();
        out
    }

    /// Type candidates for the expression tokens `[from, to)`: a leading
    /// `Type::ctor(..)` names the type; `self.field` pulls field types;
    /// a known local (or `local.field`) propagates.
    fn expr_types(
        &self,
        file: &SourceFile,
        caller: usize,
        from: usize,
        to: usize,
        locals: &BTreeMap<String, Vec<String>>,
    ) -> Vec<String> {
        // `= Type::ctor(..)` (skipping `&`/`mut`).
        let mut j = from;
        while j < to
            && file
                .tok(j)
                .is_some_and(|t| t.is_punct('&') || t.is_ident("mut") || t.is_punct('='))
        {
            j += 1;
        }
        if let Some(t) = file.tok(j) {
            if t.kind == TokenKind::Ident
                && t.text.chars().next().is_some_and(char::is_uppercase)
                && self.ws_types.contains(&t.text)
                && file.tok(j + 1).is_some_and(|c| c.is_punct(':'))
            {
                return vec![t.text.clone()];
            }
        }
        // Scan for `self . field` / `local [. field]` mentions.
        let mut out: Vec<String> = Vec::new();
        let mut k = from;
        while k < to && k < file.tokens.len() {
            let t = &file.tokens[k];
            if t.kind == TokenKind::Ident {
                let mut segs: Vec<String> = vec![t.text.clone()];
                let mut m = k;
                while file.tok(m + 1).is_some_and(|d| d.is_punct('.'))
                    && file.tok(m + 2).is_some_and(|n| n.kind == TokenKind::Ident)
                {
                    segs.push(file.tokens[m + 2].text.clone());
                    m += 2;
                }
                // Trailing method call (`.get_mut(..)`) — drop the method
                // segment; Option/Result wrappers around the field type
                // are already transparent to `chain_types`.
                if file.tok(m + 1).is_some_and(|p| p.is_punct('(')) && segs.len() > 1 {
                    segs.pop();
                }
                if segs.first().is_some_and(|s| s == "self") || locals.contains_key(&segs[0]) {
                    out.extend(self.chain_types(caller, &segs, locals));
                }
                k = m + 1;
                continue;
            }
            k += 1;
        }
        out.sort();
        out.dedup();
        out
    }
}

enum Resolution {
    Target(usize, &'static str),
    Ambiguous(Vec<usize>),
    External,
}

/// Receiver typing outcome.
enum RecvTy {
    /// The receiver's type is known; the listed workspace types (possibly
    /// none) are the candidates.
    Known(Vec<String>),
    /// No type information could be derived.
    Unknown,
}

/// Method names so common on std types that unique-name fallback on an
/// untyped receiver would fabricate edges to same-named workspace
/// methods. Calls to these with unknown receivers stay external; typed
/// receivers still resolve normally.
const STD_METHOD_NAMES: &[&str] = &[
    "abs",
    "all",
    "and_then",
    "any",
    "as_bytes",
    "as_mut",
    "as_ref",
    "as_str",
    "ceil",
    "chain",
    "clear",
    "clone",
    "cmp",
    "collect",
    "compare_exchange",
    "contains",
    "contains_key",
    "count",
    "drain",
    "drop",
    "elapsed",
    "ends_with",
    "entry",
    "enumerate",
    "eq",
    "err",
    "expect",
    "extend",
    "fetch_add",
    "fetch_and",
    "fetch_max",
    "fetch_min",
    "fetch_or",
    "fetch_sub",
    "fetch_update",
    "filter",
    "find",
    "first",
    "flush",
    "fmt",
    "fold",
    "get",
    "get_mut",
    "hash",
    "insert",
    "into",
    "into_iter",
    "is_empty",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "last",
    "len",
    "load",
    "lock",
    "ln",
    "map",
    "max",
    "min",
    "next",
    "ok",
    "or_else",
    "or_insert",
    "parse",
    "pop",
    "position",
    "powi",
    "push",
    "read",
    "recv",
    "remove",
    "replace",
    "resize",
    "retain",
    "rev",
    "round",
    "sample",
    "send",
    "shutdown",
    "sort",
    "split",
    "sqrt",
    "starts_with",
    "store",
    "sum",
    "swap",
    "take",
    "to_owned",
    "to_string",
    "to_vec",
    "trim",
    "truncate",
    "try_into",
    "unwrap",
    "unwrap_or",
    "values",
    "wait",
    "write",
    "zip",
];

enum Picked {
    One(usize),
    Many(Vec<usize>),
    None,
}

/// Walks back from the method-name token at `i` (`tokens[i-1]` is `.`)
/// and returns the receiver as plain segments (`["self", "field"]`), or
/// `None` when the receiver is itself a call/index/`?` chain.
pub(crate) fn receiver_chain(file: &SourceFile, i: usize) -> Option<Vec<String>> {
    let mut segs: VecDeque<String> = VecDeque::new();
    let mut dot = i.checked_sub(1)?; // the `.` before the name
    loop {
        let before = dot.checked_sub(1)?;
        let t = &file.tokens[before];
        if t.kind == TokenKind::Ident {
            segs.push_front(t.text.clone());
            if before >= 1 && file.tokens[before - 1].is_punct('.') {
                dot = before - 1;
                continue;
            }
            // `a::B.method()` and similar path receivers are out of
            // scope for the chain walker.
            if before >= 2
                && file.tokens[before - 1].is_punct(':')
                && file.tokens[before - 2].is_punct(':')
            {
                return None;
            }
            return Some(segs.into_iter().collect());
        }
        return None;
    }
}

/// Collects the `::`-separated segments preceding the path-call name at
/// `i` (`tokens[i-1], tokens[i-2]` are `::`), outermost first.
pub(crate) fn path_segments(file: &SourceFile, i: usize) -> Vec<String> {
    let mut segs: VecDeque<String> = VecDeque::new();
    let mut k = i;
    while k >= 3 && file.tokens[k - 1].is_punct(':') && file.tokens[k - 2].is_punct(':') {
        let t = &file.tokens[k - 3];
        if t.kind == TokenKind::Ident {
            segs.push_front(t.text.clone());
            k -= 3;
        } else if t.is_punct('>') {
            // Turbofish or qualified generics — give up on the prefix.
            break;
        } else {
            break;
        }
    }
    segs.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace::from_sources(
            files
                .iter()
                .map(|(p, s)| ((*p).to_owned(), (*s).to_owned()))
                .collect(),
            Vec::new(),
        )
    }

    fn edge_names(g: &CallGraph) -> Vec<(String, String)> {
        g.edges
            .iter()
            .map(|e| (g.fns[e.caller].qualified(), g.fns[e.callee].qualified()))
            .collect()
    }

    #[test]
    fn self_methods_and_free_fns_resolve() {
        let w = ws(&[(
            "crates/net/src/reactor.rs",
            "pub struct Reactor { n: u32 }\n\
             impl Reactor {\n\
               pub fn run(&mut self) { self.tick(); helper(); }\n\
               fn tick(&mut self) {}\n\
             }\n\
             fn helper() {}\n",
        )]);
        let g = CallGraph::build(&w);
        assert_eq!(
            edge_names(&g),
            [
                (
                    "net::reactor::Reactor::run".into(),
                    "net::reactor::Reactor::tick".into()
                ),
                (
                    "net::reactor::Reactor::run".into(),
                    "net::reactor::helper".into()
                ),
            ]
        );
    }

    #[test]
    fn field_typed_receivers_resolve_across_files() {
        let w = ws(&[
            (
                "crates/net/src/reactor.rs",
                "use crate::trace::ActiveTrace;\n\
                 pub struct Reactor { trace: ActiveTrace }\n\
                 impl Reactor { pub fn run(&mut self) { self.trace.record(1); } }\n",
            ),
            (
                "crates/net/src/trace.rs",
                "pub struct ActiveTrace { x: u32 }\n\
                 impl ActiveTrace { pub fn record(&self, _n: u32) {} }\n",
            ),
        ]);
        let g = CallGraph::build(&w);
        assert_eq!(
            edge_names(&g),
            [(
                "net::reactor::Reactor::run".into(),
                "net::trace::ActiveTrace::record".into()
            )]
        );
    }

    #[test]
    fn cross_crate_module_paths_resolve() {
        let w = ws(&[
            (
                "crates/server/src/router.rs",
                "pub fn route() { viewseeker_core::score::rank(); }\n",
            ),
            ("crates/core/src/score.rs", "pub fn rank() {}\n"),
        ]);
        let g = CallGraph::build(&w);
        assert_eq!(
            edge_names(&g),
            [("server::router::route".into(), "core::score::rank".into())]
        );
    }

    #[test]
    fn local_let_bindings_type_method_receivers() {
        let w = ws(&[(
            "crates/server/src/api.rs",
            "pub struct Catalog { v: u32 }\n\
             impl Catalog { pub fn new() -> Self { Catalog { v: 0 } } pub fn get(&self) {} }\n\
             pub fn endpoint() { let c = Catalog::new(); c.get(); }\n\
             pub fn unwrapped(o: Option<&Catalog>) { let Some(c) = o else { return; }; c.get(); }\n",
        )]);
        let g = CallGraph::build(&w);
        let names = edge_names(&g);
        assert!(names.contains(&(
            "server::api::endpoint".into(),
            "server::api::Catalog::get".into()
        )));
        assert!(names.contains(&(
            "server::api::unwrapped".into(),
            "server::api::Catalog::get".into()
        )));
        assert!(names.contains(&(
            "server::api::endpoint".into(),
            "server::api::Catalog::new".into()
        )));
    }

    #[test]
    fn ambiguous_methods_are_recorded_not_guessed() {
        let w = ws(&[(
            "crates/server/src/x.rs",
            "pub struct A; impl A { pub fn go(&self) {} }\n\
             pub struct B; impl B { pub fn go(&self) {} }\n\
             pub fn call(v: &V) { v.go(); }\n",
        )]);
        let g = CallGraph::build(&w);
        assert!(g.edges.is_empty());
        assert_eq!(g.unresolved.len(), 1);
        assert_eq!(g.unresolved[0].name, "go");
        assert_eq!(g.unresolved[0].candidates.len(), 2);
    }

    #[test]
    fn external_calls_are_counted_only() {
        let w = ws(&[(
            "crates/server/src/x.rs",
            "pub fn f(v: &mut Vec<u32>) { v.push(1); let _ = format(); }\n",
        )]);
        let g = CallGraph::build(&w);
        assert!(g.edges.is_empty());
        assert!(g.unresolved.is_empty());
        assert_eq!(g.external_calls, 2);
    }

    #[test]
    fn reach_produces_shortest_witness_paths() {
        let w = ws(&[(
            "crates/net/src/x.rs",
            "pub fn entry() { middle(); }\n\
             fn middle() { deep(); }\n\
             fn deep() {}\n",
        )]);
        let g = CallGraph::build(&w);
        let entry = g.fns.iter().position(|f| f.name == "entry").unwrap();
        let deep = g.fns.iter().position(|f| f.name == "deep").unwrap();
        let tree = g.reach(&[entry]);
        assert!(tree.contains_key(&deep));
        assert_eq!(
            g.witness(&tree, deep),
            ["net::x::entry", "net::x::middle", "net::x::deep"]
        );
    }

    #[test]
    fn graph_json_is_stable_and_complete() {
        let w = ws(&[(
            "crates/net/src/x.rs",
            "pub fn entry() { helper(); }\nfn helper() {}\n",
        )]);
        let g = CallGraph::build(&w);
        let json = g.to_json(&w);
        assert!(json.contains("\"fn\": \"net::x::entry\""));
        assert!(json.contains("\"via\": \"same-module\""));
        assert!(json.contains("\"external_calls\": 0"));
    }
}
