//! Experiment harness for the SLINFER reproduction.
//!
//! Each table/figure of the paper is one [`registry`] entry, run by the
//! `bench` binary (`bench run <name>`, `bench all`). This library holds
//! the shared machinery:
//!
//! - [`cli`] — the unified `--seed`/`--quick`/`--threads`/`--json` command
//!   line `bench run` and `bench all` accept (with `SEED`/`BENCH_QUICK`
//!   env fallbacks).
//! - [`sweep`] — the declarative (point × system × seed) [`sweep::Sweep`]
//!   grid and its parallel, deterministic driver (progress/ETA on stderr
//!   via [`sweep::Sweep::run_cli`]). Cells build a composable
//!   [`cluster::Scenario`] (fleet × workload × environment) and hand it to
//!   the system axis.
//! - [`runner`] — the [`System`] enum (sllm / sllm+c / sllm+c+s / SLINFER /
//!   PD variants / NEO+) with per-system cluster construction and the
//!   single [`runner::System::run_scenario`] entry point, so every
//!   experiment exercises every system through identical machinery.
//! - [`report`] — the [`Report`] sink experiments append to (tables,
//!   prose, paper notes, JSON blobs); presentation is serial and ordered,
//!   which keeps output byte-identical at any worker count.
//! - [`registry`] — the experiment registry tooling enumerates.
//! - [`experiments`] — one module per registry entry: the paper's
//!   figures and tables, the scenario suite, and the `scale` perf grid.
//! - [`zoo`] — model-zoo builders (replica zoos, popularity mixes).

#![forbid(unsafe_code)]

pub mod cli;
pub mod experiments;
pub mod registry;
pub mod report;
pub mod runner;
pub mod sweep;
pub mod zoo;

pub use cli::Cli;
pub use registry::{find, run_experiment, Experiment, REGISTRY};
pub use report::{Report, Table};
pub use runner::{System, SystemResult};
pub use sweep::{Scenario, Sweep, SweepResults};
