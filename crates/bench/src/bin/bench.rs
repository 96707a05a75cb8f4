//! The experiment runner: enumerate, run one, or run all.
//!
//! ```text
//! bench list                     # names and titles of every experiment
//! bench all [options]            # run every experiment, in registry order
//! bench run <name> [options]     # run one experiment by name
//! ```
//!
//! Options are the unified experiment flags (`--seed`, `--quick`,
//! `--threads`, `--json`); `bench all --quick --threads 2` is what the CI
//! smoke job runs.

use bench::cli::{Cli, Parsed, USAGE};
use bench::{registry, REGISTRY};

const COMMANDS: &str = "\
commands:
  list [--json]      list registered experiments (--json: machine-readable,
                     with quick/full sweep-grid cell counts)
  all [options]      run every experiment in registry order
  run NAME [options] run one experiment by name";

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn parse_opts<I: Iterator<Item = String>>(rest: I) -> Cli {
    match Cli::parse(rest) {
        Ok(Parsed::Run(cli)) => cli,
        Ok(Parsed::Help) => {
            println!("usage: bench <command> [options]\n\n{COMMANDS}\n\n{USAGE}");
            std::process::exit(0);
        }
        Err(e) => fail(&e.0),
    }
}

fn main() {
    // detlint::allow(D004, "CLI argument intake for the bench runner; parsed before any simulation")
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("list") => match args.next().as_deref() {
            // Machine-readable registry dump: CI scripts consume this
            // instead of parsing the human-readable table.
            Some("--json") => {
                #[derive(serde::Serialize)]
                struct Entry {
                    name: &'static str,
                    title: &'static str,
                    quick_cells: usize,
                    full_cells: usize,
                }
                let entries: Vec<Entry> = REGISTRY
                    .iter()
                    .map(|e| Entry {
                        name: e.name,
                        title: e.title,
                        quick_cells: (e.grid)(true),
                        full_cells: (e.grid)(false),
                    })
                    .collect();
                println!(
                    "{}",
                    serde_json::to_string_pretty(&entries).expect("registry serializes")
                );
            }
            Some(other) => fail(&format!("unknown list option `{other}` (only --json)")),
            None => {
                for e in REGISTRY {
                    println!("{:<24} {}", e.name, e.title);
                }
            }
        },
        Some("all") => {
            let cli = parse_opts(args);
            for e in REGISTRY {
                registry::present(&registry::run_experiment(e, &cli), &cli);
            }
        }
        Some("run") => {
            let name = args
                .next()
                .unwrap_or_else(|| fail("run needs an experiment name (see `bench list`)"));
            let exp = bench::find(&name).unwrap_or_else(|| {
                fail(&format!(
                    "unknown experiment `{name}` (see `bench list` for the registry)"
                ))
            });
            let cli = parse_opts(args);
            registry::present(&registry::run_experiment(exp, &cli), &cli);
        }
        Some("-h") | Some("--help") | None => {
            println!("usage: bench <command> [options]\n\n{COMMANDS}\n\n{USAGE}");
        }
        Some(other) => fail(&format!("unknown command `{other}`\n{COMMANDS}")),
    }
}
