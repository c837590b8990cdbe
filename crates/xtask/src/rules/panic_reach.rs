//! Rule `panic-reachability`: the no-panic guarantee, extended from
//! "these files" to "everything a request can reach". Starting from the
//! server/net request entry points (`handle`, `handle_traced`,
//! `serve*`, `run`), every workspace function transitively reachable
//! over the call graph must be panic-free — an `unwrap()` in a
//! `dataset` helper three frames below a handler drops the connection
//! just as surely as one in the handler itself.
//!
//! Files already covered by the file-local `no-panic` rule are excluded
//! here (their panic sites are flagged unconditionally), so the two
//! rules never double-report. Each finding carries a call-path witness
//! from an entry point to the offending function.

use crate::graph::CallGraph;
use crate::rules::no_panic;
use crate::{Diagnostic, Workspace};

const RULE: &str = "panic-reachability";

/// Fn names treated as request entry points when defined in the
/// `server` or `net` crates.
const ENTRY_NAMES: &[&str] = &["handle", "handle_traced", "serve", "serve_event", "run"];

/// Crates whose entry-point fns seed the reachability walk.
const ENTRY_CRATES: &[&str] = &["server", "net"];

/// Whether `fn_index` in `graph` is a request entry point.
fn is_entry(graph: &CallGraph, fn_index: usize) -> bool {
    let f = &graph.fns[fn_index];
    if f.is_test || f.body.is_none() {
        return false;
    }
    let krate = f.module.split("::").next().unwrap_or("");
    ENTRY_CRATES.contains(&krate) && ENTRY_NAMES.contains(&f.name.as_str())
}

/// Runs the rule over the workspace.
pub fn check(ws: &Workspace, graph: &CallGraph, out: &mut Vec<Diagnostic>) {
    let entries: Vec<usize> = (0..graph.fns.len())
        .filter(|&i| is_entry(graph, i))
        .collect();
    if entries.is_empty() {
        return;
    }
    let tree = graph.reach(&entries);
    // Panic sites per file, computed once for the files that need it.
    let mut sites_cache: Vec<Option<Vec<no_panic::PanicSite>>> =
        ws.files.iter().map(|_| None).collect();
    for &fn_index in tree.keys() {
        let item = &graph.fns[fn_index];
        let Some((bs, be)) = item.body else { continue };
        let file = &ws.files[item.file];
        // The file-local no-panic rule already owns these files.
        if no_panic::SCOPE.iter().any(|p| file.path.starts_with(p)) {
            continue;
        }
        let sites = sites_cache[item.file].get_or_insert_with(|| no_panic::panic_sites(file));
        let witness = graph.witness(&tree, fn_index);
        for site in sites.iter() {
            if site.token < bs || site.token > be {
                continue;
            }
            // Nested fn items own their sites.
            if graph.innermost_fn(item.file, site.token) != Some(fn_index) {
                continue;
            }
            out.push(Diagnostic {
                file: file.path.clone(),
                line: file.tokens[site.token].line,
                rule: RULE,
                message: format!(
                    "{} is reachable from request entry point `{}` (via {}); \
                     propagate an error or prove the invariant to the type system",
                    site.what,
                    witness.first().map(String::as_str).unwrap_or("?"),
                    witness.join(" -> "),
                ),
                witness: witness.clone(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(files: &[(&str, &str)]) -> Vec<Diagnostic> {
        let ws = Workspace::from_sources(
            files
                .iter()
                .map(|(p, s)| ((*p).to_owned(), (*s).to_owned()))
                .collect(),
            Vec::new(),
        );
        let graph = CallGraph::build(&ws);
        let mut out = Vec::new();
        check(&ws, &graph, &mut out);
        out
    }

    #[test]
    fn panic_behind_a_helper_is_caught_with_witness() {
        let diags = lint(&[
            (
                "crates/server/src/router.rs",
                "pub struct Router;\n\
                 impl Router { pub fn handle(&self) { viewseeker_core::score::rank(); } }\n",
            ),
            (
                "crates/core/src/score.rs",
                "pub fn rank() { helper(); }\n\
                 fn helper() { let v: Vec<u32> = Vec::new(); v.last().unwrap(); }\n",
            ),
        ]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "panic-reachability");
        assert_eq!(diags[0].file, "crates/core/src/score.rs");
        assert_eq!(
            diags[0].witness,
            [
                "server::router::Router::handle",
                "core::score::rank",
                "core::score::helper"
            ]
        );
    }

    #[test]
    fn unreachable_panics_and_no_panic_scope_are_not_reported() {
        let diags = lint(&[
            (
                "crates/server/src/router.rs",
                "pub struct Router;\n\
                 impl Router { pub fn handle(&self) {} }\n\
                 fn offline_tool() { x.unwrap(); }\n",
            ),
            (
                "crates/core/src/score.rs",
                "pub fn never_called() { x.unwrap(); }\n",
            ),
        ]);
        // `offline_tool` is in no-panic scope (file-local rule owns it);
        // `never_called` is unreachable.
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn test_code_below_entry_points_is_ignored() {
        let diags = lint(&[
            (
                "crates/net/src/reactor.rs",
                "pub struct Reactor;\n\
                 impl Reactor { pub fn run(&mut self) { viewseeker_core::score::rank(); } }\n",
            ),
            (
                "crates/core/src/score.rs",
                "pub fn rank() {}\n\
                 #[cfg(test)]\nmod tests { fn t() { x.unwrap(); } }\n",
            ),
        ]);
        assert!(diags.is_empty(), "{diags:?}");
    }
}
