//! Smoke coverage for the whole experiment suite.
//!
//! The registry makes the whole suite enumerable, so instead of running
//! one representative experiment and hoping the rest share enough
//! machinery, this suite runs *every* registered experiment in-process
//! under `--quick --threads 2` and checks the report invariants.
//! Subprocess tests keep `bench run` and the strict CLI honest.

use bench::cli::Cli;
use bench::{registry, REGISTRY};
use std::process::Command;

fn quick_cli() -> Cli {
    Cli {
        seed: 7,
        quick: true,
        threads: 2,
        json: false,
    }
}

/// Every registered experiment runs under quick mode on 2 workers and
/// produces a titled report plus at least one JSON blob named after the
/// experiment.
#[test]
fn every_registered_experiment_runs_quick() {
    let cli = quick_cli();
    for exp in REGISTRY {
        let report = registry::run_experiment(exp, &cli);
        let text = report.text();
        assert!(
            text.starts_with("\n=== "),
            "{}: report must open with a section header:\n{text}",
            exp.name
        );
        // Every report renders at least one table (the separator row is
        // the cheapest fingerprint). Paper notes are asserted on the
        // subprocess runs: some experiments only annotate full sweeps.
        assert!(
            text.contains("\n---"),
            "{}: missing rendered table:\n{text}",
            exp.name
        );
        assert!(
            report.dumps().iter().any(|(name, _)| name == exp.name),
            "{}: missing JSON blob named after the experiment",
            exp.name
        );
        for (_, blob) in report.dumps() {
            let t = blob.trim_start();
            assert!(
                t.starts_with('[') || t.starts_with('{'),
                "{}: JSON blob must be an array or object:\n{blob}",
                exp.name
            );
        }
    }
}

/// Quick-mode fig04 sweeps two model counts; the blob mirrors that.
#[test]
fn fig04_quick_blob_has_one_entry_per_point() {
    let exp = bench::find("fig04_sllm_capacity").expect("registered");
    let report = registry::run_experiment(exp, &quick_cli());
    let blob = &report
        .dumps()
        .iter()
        .find(|(n, _)| n == "fig04_sllm_capacity")
        .expect("dumped")
        .1;
    assert_eq!(
        top_level_entries(blob),
        2,
        "one entry per sweep point:\n{blob}"
    );
}

/// `bench run` wires argv → CLI → registry → stdout + results/ dump.
#[test]
fn fig04_binary_runs_end_to_end() {
    let exe = env!("CARGO_BIN_EXE_bench");
    // Unique per process so concurrent `cargo test` runs don't race on it.
    let tmp = std::env::temp_dir().join(format!("slinfer-smoke-fig04-{}", std::process::id()));
    // Start from a clean scratch dir: the results dump is best-effort, so a
    // stale file from a previous run could otherwise mask a broken dump.
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).expect("create smoke workdir");
    let out = Command::new(exe)
        .args([
            "run",
            "fig04_sllm_capacity",
            "--seed",
            "7",
            "--quick",
            "--threads",
            "2",
        ])
        .current_dir(&tmp)
        .output()
        .expect("bench binary must launch");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "fig04 exited with {:?}\nstdout:\n{stdout}\nstderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("Fig 4"),
        "missing section header:\n{stdout}"
    );
    assert!(stdout.contains("[paper]"), "missing paper note:\n{stdout}");
    let json = tmp.join("results/fig04_sllm_capacity.json");
    let blob = std::fs::read_to_string(&json).expect("JSON results dumped");
    assert_eq!(top_level_entries(&blob), 2, "one entry per sweep point");
}

/// `BENCH_QUICK=1` keeps working as a CI-compatible fallback for `--quick`.
#[test]
fn bench_quick_env_fallback_still_works() {
    let exe = env!("CARGO_BIN_EXE_bench");
    let tmp = std::env::temp_dir().join(format!("slinfer-smoke-env-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).expect("create smoke workdir");
    let out = Command::new(exe)
        .args(["run", "fig04_sllm_capacity", "--seed", "7"])
        .env("BENCH_QUICK", "1")
        .current_dir(&tmp)
        .output()
        .expect("bench binary must launch");
    assert!(out.status.success());
    let blob = std::fs::read_to_string(tmp.join("results/fig04_sllm_capacity.json"))
        .expect("JSON results dumped");
    assert_eq!(
        top_level_entries(&blob),
        2,
        "env fallback must shrink the sweep"
    );
}

/// The old harness silently fell back to seed 42 on `--seed foo`; the
/// unified CLI must reject it loudly instead.
#[test]
fn malformed_seed_is_a_hard_error() {
    let exe = env!("CARGO_BIN_EXE_bench");
    let out = Command::new(exe)
        .args(["run", "fig04_sllm_capacity", "--seed", "foo"])
        .output()
        .expect("binary must launch");
    assert_eq!(out.status.code(), Some(2), "bad CLI must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--seed") && stderr.contains("foo"),
        "error must name the flag and the bad value:\n{stderr}"
    );
}

/// `bench list` enumerates the full registry; unknown names are errors.
#[test]
fn bench_runner_lists_the_registry() {
    let exe = env!("CARGO_BIN_EXE_bench");
    let out = Command::new(exe).arg("list").output().expect("launch");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().count(), REGISTRY.len());
    for exp in REGISTRY {
        assert!(stdout.contains(exp.name), "missing {}", exp.name);
    }
    let bad = Command::new(exe)
        .args(["run", "fig99_nope"])
        .output()
        .expect("launch");
    assert_eq!(bad.status.code(), Some(2));
}

/// Counts the direct children of the outermost JSON array (separating
/// commas at depth 1, string-literal aware), independent of entry shape.
fn top_level_entries(json: &str) -> usize {
    let (mut depth, mut commas) = (0u32, 0usize);
    let (mut in_str, mut escaped) = (false, false);
    let mut saw_content = false;
    for c in json.chars() {
        if in_str {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_str = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => {
                if depth == 1 {
                    saw_content = true;
                }
                in_str = true;
            }
            '[' | '{' => {
                if depth == 1 {
                    saw_content = true;
                }
                depth += 1;
            }
            ']' | '}' => depth -= 1,
            ',' if depth == 1 => commas += 1,
            c if depth == 1 && !c.is_whitespace() => saw_content = true,
            _ => {}
        }
    }
    if saw_content || commas > 0 {
        commas + 1
    } else {
        0
    }
}
