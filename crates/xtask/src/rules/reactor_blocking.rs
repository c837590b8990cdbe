//! Rule `blocking-in-reactor`: nothing reachable from the epoll
//! reactor's tick path may block. The reactor is one thread multiplexing
//! every connection; a single `Mutex::lock` contended with a worker, a
//! `thread::sleep`, a file read, or a blocking socket call stalls *all*
//! of them at once. The tick path is everything transitively reachable
//! from the `Reactor` impl's methods in `crates/net`.
//!
//! The allowed sink is the dispatch-to-worker boundary: channel
//! `.send(..)` (non-blocking for the unbounded channels the reactor
//! uses), `poller.wait(..)` (blocking there is the reactor's whole job),
//! and `.accept()` / `.read(buf)` / `.write(buf)` on sockets already in
//! nonblocking mode (they take arguments, so the zero-arg acquisition
//! pattern never matches them). Calls dispatched through `dyn TraceSink`
//! stop at the trait signature — the call graph has no body to follow —
//! which is the documented escape hatch for sink implementations that
//! run on worker threads.
//!
//! Lock-style ops that resolve to *workspace* fns (a method named
//! `lock` on our own type) are call edges, not std acquisitions; the
//! callee's own body is scanned instead.

use std::collections::BTreeSet;

use crate::graph::CallGraph;
use crate::lexer::TokenKind;
use crate::rules::is_method_call;
use crate::{Diagnostic, SourceFile, Workspace};

const RULE: &str = "blocking-in-reactor";

/// Zero-argument guard acquisitions (`.lock()`, RwLock `.read()`/
/// `.write()`).
const GUARD_METHODS: &[&str] = &["lock", "read", "write"];
/// Blocking method calls that are flagged only when zero-argument
/// (`.recv()` blocks; `.try_recv()` and `.recv_timeout(d)` don't;
/// `.join()` parks the caller).
const ZERO_ARG_BLOCKING: &[&str] = &["recv", "join"];
/// Method calls that block regardless of arguments: synchronous file /
/// stream I/O helpers.
const METHOD_BLOCKING: &[&str] = &["read_exact", "read_to_end", "read_to_string", "write_all"];
/// `Type::method` path calls that block.
const PATH_BLOCKING: &[(&str, &str)] = &[
    ("File", "open"),
    ("File", "create"),
    ("TcpStream", "connect"),
];

/// One blocking operation found in a fn body.
struct BlockSite {
    /// Token index of the operation.
    token: usize,
    /// Short description for the diagnostic.
    what: String,
}

/// Runs the rule over the workspace.
pub fn check(ws: &Workspace, graph: &CallGraph, out: &mut Vec<Diagnostic>) {
    let entries: Vec<usize> = (0..graph.fns.len())
        .filter(|&i| {
            let f = &graph.fns[i];
            !f.is_test
                && f.body.is_some()
                && f.self_ty.as_deref() == Some("Reactor")
                && f.module.split("::").next() == Some("net")
        })
        .collect();
    if entries.is_empty() {
        return;
    }
    let tree = graph.reach(&entries);
    for &fn_index in tree.keys() {
        let item = &graph.fns[fn_index];
        let Some((bs, be)) = item.body else { continue };
        let file = &ws.files[item.file];
        let witness = graph.witness(&tree, fn_index);
        for site in blocking_sites(file, bs, be, item.file, &graph.resolved_sites) {
            if graph.innermost_fn(item.file, site.token) != Some(fn_index) {
                continue;
            }
            out.push(Diagnostic {
                file: file.path.clone(),
                line: file.tokens[site.token].line,
                rule: RULE,
                message: format!(
                    "{} on the reactor tick path stalls every connection at once; \
                     move the work behind the dispatch-to-worker boundary",
                    site.what,
                ),
                witness: witness.clone(),
            });
        }
    }
}

/// Scans `[bs, be]` of `file` for blocking operations. `resolved` holds
/// the call sites that resolved to workspace fns — those are traversed
/// as call edges, not flagged as std ops.
fn blocking_sites(
    file: &SourceFile,
    bs: usize,
    be: usize,
    file_index: usize,
    resolved: &BTreeSet<(usize, usize)>,
) -> Vec<BlockSite> {
    let mut out = Vec::new();
    let mut i = bs;
    while i <= be && i < file.tokens.len() {
        let t = &file.tokens[i];
        if file.is_test(i) || t.kind != TokenKind::Ident {
            i += 1;
            continue;
        }
        let zero_arg = file.tok(i + 1).is_some_and(|p| p.is_punct('('))
            && file.tok(i + 2).is_some_and(|p| p.is_punct(')'));
        let name = t.text.as_str();
        if is_method_call(file, i) && !resolved.contains(&(file_index, i)) {
            if zero_arg && GUARD_METHODS.contains(&name) {
                out.push(BlockSite {
                    token: i,
                    what: format!("Mutex/RwLock acquisition `.{name}()`"),
                });
            } else if zero_arg && ZERO_ARG_BLOCKING.contains(&name) {
                out.push(BlockSite {
                    token: i,
                    what: format!("blocking `.{name}()`"),
                });
            } else if METHOD_BLOCKING.contains(&name)
                && file.tok(i + 1).is_some_and(|p| p.is_punct('('))
            {
                out.push(BlockSite {
                    token: i,
                    what: format!("synchronous I/O `.{name}(..)`"),
                });
            }
        } else if name == "sleep"
            && file.tok(i + 1).is_some_and(|p| p.is_punct('('))
            && !resolved.contains(&(file_index, i))
        {
            out.push(BlockSite {
                token: i,
                what: "thread::sleep".to_owned(),
            });
        } else if (name == "fs" || name == "OpenOptions")
            && file.tok(i + 1).is_some_and(|p| p.is_punct(':'))
            && file.tok(i + 2).is_some_and(|p| p.is_punct(':'))
        {
            out.push(BlockSite {
                token: i,
                what: format!("file I/O `{name}::{}`", next_ident(file, i + 3)),
            });
            // Skip the path so `fs::read_to_string` doesn't also trip the
            // method-name check.
            i += 3;
        } else if let Some((ty, method)) = PATH_BLOCKING.iter().find(|(ty, m)| {
            *ty == name
                && file.tok(i + 1).is_some_and(|p| p.is_punct(':'))
                && file.tok(i + 2).is_some_and(|p| p.is_punct(':'))
                && file.tok(i + 3).is_some_and(|n| n.is_ident(m))
        }) {
            out.push(BlockSite {
                token: i,
                what: format!("blocking `{ty}::{method}`"),
            });
            i += 3;
        }
        i += 1;
    }
    out
}

/// The ident at `i`, for message text.
fn next_ident(file: &SourceFile, i: usize) -> String {
    file.tok(i)
        .filter(|t| t.kind == TokenKind::Ident)
        .map_or_else(|| "..".to_owned(), |t| t.text.clone())
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
    fn sleep_behind_a_helper_is_caught_with_witness() {
        let diags = lint(&[(
            "crates/net/src/reactor.rs",
            "pub struct Reactor;\n\
             impl Reactor { pub fn run(&mut self) { self.tick(); } \
             fn tick(&mut self) { flush_all(); } }\n\
             fn flush_all() { thread::sleep(d); }\n",
        )]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "blocking-in-reactor");
        assert!(diags[0].message.contains("thread::sleep"));
        // Every Reactor method is an entry, so the shortest witness
        // starts at `tick`, not `run`.
        assert_eq!(
            diags[0].witness,
            ["net::reactor::Reactor::tick", "net::reactor::flush_all"]
        );
    }

    #[test]
    fn mutex_lock_on_the_tick_path_is_flagged() {
        let diags = lint(&[(
            "crates/net/src/reactor.rs",
            "pub struct Reactor;\n\
             impl Reactor { pub fn tick(&mut self) { self.stats.lock().bump(); } }\n",
        )]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains(".lock()"));
    }

    #[test]
    fn poller_wait_send_and_arg_taking_io_are_allowed() {
        let diags = lint(&[(
            "crates/net/src/reactor.rs",
            "pub struct Reactor;\n\
             impl Reactor { pub fn tick(&mut self, buf: &mut [u8]) { \
             self.poller.wait(&mut self.events); \
             self.completions.send(job); \
             self.sock.read(buf); self.sock.write(buf); self.listener.accept(); } }\n",
        )]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn workspace_fns_named_lock_are_calls_not_acquisitions() {
        // `self.state.lock()` resolves to our own `State::lock`, whose
        // body is scanned instead — and it is clean.
        let diags = lint(&[(
            "crates/net/src/reactor.rs",
            "pub struct State;\n\
             impl State { pub fn lock(&self) -> u32 { 0 } }\n\
             pub struct Reactor { state: State }\n\
             impl Reactor { pub fn tick(&mut self) { self.state.lock(); } }\n",
        )]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn blocking_off_the_tick_path_is_not_flagged() {
        let diags = lint(&[(
            "crates/net/src/client.rs",
            "pub fn drive() { thread::sleep(d); }\n",
        )]);
        assert!(diags.is_empty(), "{diags:?}");
    }
}
