//! `viewseeker` — interactive terminal front-end for the ViewSeeker library.
//!
//! ```text
//! viewseeker generate --dataset diab --rows 20000 --out patients.csv
//! viewseeker views    --data patients.csv --query "a0 = 'a0_v0'"
//! viewseeker rank     --data patients.csv --query "a0 = 'a0_v0'" --utility "0.5*EMD + 0.5*KL" --k 10
//! viewseeker explore  --data patients.csv --query "a0 = 'a0_v0'" --k 5
//! viewseeker simulate --data patients.csv --query "a0 = 'a0_v0'" --ideal "0.3*EMD + 0.3*KL + 0.4*Accuracy"
//! ```
//!
//! `--query` is a SQL WHERE clause (`dataset::sql::parse_where`) and
//! `--data` is read with the catalog's schema rule (`dataset::csv`), so the
//! CLI and the server agree on both.
//!
//! `explore` runs the paper's interactive loop against a human: each
//! iteration renders the selected view as an ASCII target-vs-reference bar
//! chart, reads a 0–1 rating from stdin, and refreshes the personalized
//! top-k.
#![forbid(unsafe_code)]

mod chart;
mod cli;
mod commands;
mod parse;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match cli::Command::parse(&args) {
        Ok(cmd) => match commands::run(cmd) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("error: {e}\n");
            eprintln!("{}", cli::USAGE);
            ExitCode::FAILURE
        }
    }
}
