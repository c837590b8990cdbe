//! Regenerates every table and figure of the paper plus the ablations, and
//! prints the markdown report to stdout:
//!
//! ```text
//! cargo run --release -p viewseeker-bench --bin reproduce_all > results/REPRODUCTION.md
//! cargo run --release -p viewseeker-bench --bin reproduce_all -- --paper   # full scale
//! ```
//!
//! Everything above `## Timings` is deterministic and is the golden that
//! `crates/bench/tests/reproduction.rs` checks; see the crate docs for flags.
#![forbid(unsafe_code)]

use viewseeker_bench::{reproduce, BenchArgs};

fn main() {
    let report = reproduce(&BenchArgs::parse()).expect("reproduction run");
    print!("{report}");
}
