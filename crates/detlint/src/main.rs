//! The detlint CLI.
//!
//! ```text
//! detlint check [--json] [--root DIR] [--config FILE]
//! detlint rules
//! ```
//!
//! Exit status: 0 clean, 1 on any diagnostic, 2 on usage or I/O errors.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use detlint::check_workspace;
use detlint::config::{self, Config};
use detlint::report::{to_json, Rule};

fn main() -> ExitCode {
    // detlint::allow(D004, "CLI argument intake for the linter itself; no simulation state")
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => check_cmd(&args[1..]),
        Some("rules") => {
            for rule in Rule::ALL {
                println!("{}  {}", rule.code(), rule.summary());
            }
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("usage: detlint <check|rules> [--json] [--root DIR] [--config FILE]");
            ExitCode::from(2)
        }
    }
}

fn check_cmd(args: &[String]) -> ExitCode {
    let mut json = false;
    let mut root = PathBuf::from(".");
    let mut config: Option<PathBuf> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--root" => match it.next() {
                Some(v) => root = PathBuf::from(v),
                None => return usage("--root needs a directory"),
            },
            "--config" => match it.next() {
                Some(v) => config = Some(PathBuf::from(v)),
                None => return usage("--config needs a file"),
            },
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    let config_path = config.unwrap_or_else(|| root.join("detlint.toml"));
    let diags = match load_config(&config_path).and_then(|cfg| check_workspace(&root, &cfg)) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("detlint: {e}");
            return ExitCode::from(2);
        }
    };

    if json {
        print!("{}", to_json(&diags));
    } else {
        for d in &diags {
            println!("{d}");
        }
        eprintln!("detlint: {} diagnostic(s)", diags.len());
    }
    if diags.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn load_config(path: &PathBuf) -> Result<Config, String> {
    match std::fs::read_to_string(path) {
        Ok(src) => config::parse(&src),
        // A missing config is an empty config: all rules at their
        // built-in scope, no allowlists.
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Config::default()),
        Err(e) => Err(format!("reading {}: {e}", path.display())),
    }
}

fn usage(why: &str) -> ExitCode {
    eprintln!("detlint: {why}");
    ExitCode::from(2)
}
