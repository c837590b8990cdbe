//! Golden test for the paper harness: the deterministic half of the report
//! (everything above `## Timings`) at the default scale and seed 7 must equal
//! the committed `results/REPRODUCTION.md` byte for byte. A change that moves
//! a paper cell regenerates that file and says why in CHANGES.md.

use viewseeker_bench::{reproduce, BenchArgs};

const COMMITTED: &str = include_str!("../../../results/REPRODUCTION.md");

#[test]
fn reproduction_cells_match_the_committed_report() {
    let (golden, _) = COMMITTED
        .split_once("## Timings")
        .expect("results/REPRODUCTION.md has a `## Timings` section");
    let report = reproduce(&BenchArgs::default()).expect("reproduction run");
    if report.cells != golden {
        let fresh = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("REPRODUCTION.md");
        std::fs::write(&fresh, report.to_string()).expect("writing the fresh report");
        let (line, (want, got)) = golden
            .lines()
            .zip(report.cells.lines())
            .enumerate()
            .find(|(_, (want, got))| want != got)
            .unwrap_or((
                golden.lines().count().min(report.cells.lines().count()),
                ("", ""),
            ));
        panic!(
            "paper cells differ from results/REPRODUCTION.md at line {}:\n  \
             committed: {want}\n  fresh:     {got}\n\
             fresh report: {}\n\
             regenerate with: cargo run --release -p viewseeker-bench --bin reproduce_all \
             > results/REPRODUCTION.md",
            line + 1,
            fresh.display()
        );
    }
}
