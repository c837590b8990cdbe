//! `viewseeker-xtask` — workspace automation.
//!
//! ```text
//! cargo run -p viewseeker-xtask -- lint [--root PATH] [--json]
//! cargo run -p viewseeker-xtask -- graph [--root PATH]
//! ```
//!
//! `lint` runs the vslint invariant linter over the workspace and exits
//! non-zero with `file:line: [rule] message` diagnostics when any rule
//! fires (`--json` additionally writes the findings as a JSON array to
//! stdout for CI artifacts). `graph` builds the workspace call graph and
//! prints it as JSON.
//! See DESIGN.md §10 for the rule catalog and §14 for the call-graph
//! analysis.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use viewseeker_xtask::{diagnostics_json, graph::CallGraph, Workspace};

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(command) = args.next() else {
        eprintln!("usage: viewseeker-xtask <lint|graph> [--root PATH] [--json]");
        return ExitCode::FAILURE;
    };
    let mut root: Option<PathBuf> = None;
    let mut json = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => root = args.next().map(PathBuf::from),
            "--json" => json = true,
            other => {
                eprintln!("viewseeker-xtask: unknown argument `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }
    let root = root.unwrap_or_else(workspace_root);
    match command.as_str() {
        "lint" => lint(&root, json),
        "graph" => graph(&root),
        other => {
            eprintln!("viewseeker-xtask: unknown command `{other}` (try `lint` or `graph`)");
            ExitCode::FAILURE
        }
    }
}

fn load(root: &Path) -> Option<Workspace> {
    match Workspace::load(root) {
        Ok(ws) => Some(ws),
        Err(e) => {
            eprintln!(
                "viewseeker-xtask: failed to load workspace at {}: {e}",
                root.display()
            );
            None
        }
    }
}

fn lint(root: &Path, json: bool) -> ExitCode {
    let Some(ws) = load(root) else {
        return ExitCode::FAILURE;
    };
    let diags = ws.lint();
    if json {
        emit(&diagnostics_json(&diags));
    } else {
        let mut out = String::new();
        for d in &diags {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        emit(&out);
    }
    if diags.is_empty() {
        if !json {
            emit(&format!(
                "vslint: clean ({} files, {} docs)\n",
                ws.files.len(),
                ws.docs.len()
            ));
        }
        ExitCode::SUCCESS
    } else {
        if !json {
            emit(&format!("vslint: {} violation(s)\n", diags.len()));
        }
        ExitCode::FAILURE
    }
}

fn graph(root: &Path) -> ExitCode {
    let Some(ws) = load(root) else {
        return ExitCode::FAILURE;
    };
    emit(&CallGraph::build(&ws).to_json(&ws));
    ExitCode::SUCCESS
}

/// Writes to stdout, swallowing broken-pipe errors so `graph | head`
/// exits quietly instead of panicking when the reader closes early.
fn emit(text: &str) {
    use std::io::Write;
    let _ = std::io::stdout().write_all(text.as_bytes());
}

/// Walks up from the current directory to the workspace root (the first
/// ancestor whose Cargo.toml declares `[workspace]`), so the linter works
/// from any subdirectory. Falls back to `.`.
fn workspace_root() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return dir;
            }
        }
        if !dir.pop() {
            return PathBuf::from(".");
        }
    }
}
