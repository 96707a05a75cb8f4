//! Unified experiment command line.
//!
//! `bench run <name>` and `bench all` accept the same four flags:
//!
//! - `--seed N` — root seed for traces and worlds (default 42).
//! - `--quick` — shrink sweeps for smoke runs (CI).
//! - `--threads N` — sweep-driver workers; 0 (default) picks the machine's
//!   available parallelism. Results are byte-identical at any value.
//! - `--json` — echo the machine-readable result blobs to stdout after the
//!   tables (files under `results/` are always written, best-effort).
//!
//! Flags are the only input: no environment variable changes a run.
//! Malformed values — `--seed foo`, a dangling `--seed`, an unknown flag —
//! are hard errors, not silent fallbacks to defaults.

use std::fmt;

/// Parsed experiment options shared by every experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cli {
    /// Root seed (`--seed`, default 42).
    pub seed: u64,
    /// Shrunken sweeps for smoke runs (`--quick`).
    pub quick: bool,
    /// Sweep-driver worker threads; 0 means auto (`--threads`).
    pub threads: usize,
    /// Echo JSON result blobs to stdout (`--json`).
    pub json: bool,
}

impl Default for Cli {
    fn default() -> Self {
        Cli {
            seed: 42,
            quick: false,
            threads: 0,
            json: false,
        }
    }
}

/// A rejected command line, with the offending token and the reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

/// What a parse produced: options to run with, or a help request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Parsed {
    /// Run the experiment with these options.
    Run(Cli),
    /// `--help`/`-h` was given; print usage and exit 0.
    Help,
}

/// Usage text shown for `--help` and appended to parse errors.
pub const USAGE: &str = "\
options:
  --seed N      root seed for traces and worlds (default 42)
  --quick       shrink sweeps for smoke runs
  --threads N   sweep workers, 0 = auto (default 0)
  --json        echo JSON result blobs to stdout after the tables
  -h, --help    show this help";

impl Cli {
    /// Parses flags strictly from `args` (program name already stripped)
    /// on top of the defaults.
    pub fn parse<I, S>(args: I) -> Result<Parsed, CliError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut cli = Cli::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let arg = arg.as_ref();
            match arg {
                "--seed" => {
                    let v = it
                        .next()
                        .ok_or_else(|| CliError("--seed requires a value".into()))?;
                    cli.seed = parse_u64("--seed", v.as_ref())?;
                }
                "--threads" => {
                    let v = it
                        .next()
                        .ok_or_else(|| CliError("--threads requires a value".into()))?;
                    cli.threads = parse_u64("--threads", v.as_ref())? as usize;
                }
                "--quick" => cli.quick = true,
                "--json" => cli.json = true,
                "-h" | "--help" => return Ok(Parsed::Help),
                other => {
                    return Err(CliError(format!(
                        "unrecognized argument `{other}`\n{USAGE}"
                    )))
                }
            }
        }
        Ok(Parsed::Run(cli))
    }

    /// Worker count the sweep driver should use: the explicit `--threads`,
    /// or the machine's available parallelism. [`crate::sweep::Sweep::run`]
    /// additionally clamps to the number of grid cells.
    pub fn worker_threads(&self) -> usize {
        if self.threads != 0 {
            return self.threads;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

fn parse_u64(flag: &str, v: &str) -> Result<u64, CliError> {
    v.parse().map_err(|_| {
        CliError(format!(
            "invalid value `{v}` for {flag}: expected an unsigned integer"
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Parsed, CliError> {
        Cli::parse(args.iter().copied())
    }

    #[test]
    fn defaults() {
        match parse(&[]).unwrap() {
            Parsed::Run(c) => {
                assert_eq!(c.seed, 42);
                assert!(!c.quick);
                assert_eq!(c.threads, 0);
                assert!(!c.json);
            }
            Parsed::Help => panic!("no help requested"),
        }
    }

    #[test]
    fn all_flags() {
        let Parsed::Run(c) =
            parse(&["--seed", "7", "--quick", "--threads", "3", "--json"]).unwrap()
        else {
            panic!("expected run");
        };
        assert_eq!(c.seed, 7);
        assert!(c.quick);
        assert_eq!(c.threads, 3);
        assert!(c.json);
    }

    #[test]
    fn malformed_seed_is_rejected() {
        let err = parse(&["--seed", "foo"]).unwrap_err();
        assert!(err.0.contains("--seed"), "{err}");
        assert!(err.0.contains("foo"), "{err}");
    }

    #[test]
    fn dangling_seed_is_rejected() {
        let err = parse(&["--seed"]).unwrap_err();
        assert!(err.0.contains("requires a value"), "{err}");
    }

    #[test]
    fn unknown_flag_is_rejected() {
        let err = parse(&["--sneed", "7"]).unwrap_err();
        assert!(err.0.contains("--sneed"), "{err}");
    }

    #[test]
    fn help_short_circuits() {
        assert_eq!(parse(&["--help"]).unwrap(), Parsed::Help);
        assert_eq!(parse(&["-h"]).unwrap(), Parsed::Help);
    }

    #[test]
    fn worker_threads_explicit_and_auto() {
        let cli = Cli {
            threads: 8,
            ..Cli::default()
        };
        assert_eq!(cli.worker_threads(), 8);
        let auto = Cli::default();
        assert!(auto.worker_threads() >= 1);
    }
}
