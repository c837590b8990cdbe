//! Simulated-user evaluation harness for ViewSeeker.
//!
//! Reproduces the paper's experimental testbed (§4) and experiments (§5):
//!
//! * [`idealfn`] — Table 2's eleven simulated ideal utility functions;
//! * [`simuser`] — the simulated user, who labels a presented view with its
//!   normalized ideal-utility score;
//! * [`testbed`] — the DIAB and SYN testbeds of Table 1 (record counts,
//!   attribute shapes, the 0.5%-selectivity hypercube query);
//! * [`runner`] — drives one ViewSeeker session against the simulated user,
//!   recording labels used, precision and utility-distance traces, and
//!   wall-clock time;
//! * [`experiments`] — Experiment 1 (user effort, Figures 3–4), Experiment 2
//!   (baseline comparison, Figure 5), and the optimization evaluation
//!   (Figures 6–7), plus the query-strategy and α-sweep ablations;
//! * [`report`] — renders experiment output as markdown tables (the rows
//!   behind each figure).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod idealfn;
pub mod report;
pub mod runner;
pub mod simuser;
pub mod testbed;

pub use idealfn::{ideal_functions, IdealFunction, IdealGroup};
pub use runner::{run_session, RunnerConfig, SessionOutcome, StopCriterion};
pub use simuser::SimulatedUser;
pub use testbed::{diab_testbed, syn_testbed, Testbed, TestbedScale};
