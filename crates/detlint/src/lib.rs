//! detlint — the workspace determinism linter.
//!
//! This repro's value rests on bit-identical replay: goldens, cross-
//! process FNV fingerprints, and `--threads 1` vs `2` equality are how we
//! prove fidelity to the paper's figures. The two real nondeterminism
//! bugs found so far (the parked-scale-op `HashMap` in PR 2, the fleet-
//! wide hash-container audit in PR 4) were caught by manual sweeps;
//! detlint machine-enforces those invariants on every PR instead.
//!
//! Rules (see [`report::Rule`]), suppression syntax (see [`suppress`]),
//! and the path configuration (see [`config`]) are documented in the
//! README's "Determinism lints" section. Run it with:
//!
//! ```text
//! cargo run --release -p detlint -- check [--json]
//! ```

#![forbid(unsafe_code)]

pub mod config;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod suppress;

use std::path::{Path, PathBuf};

use config::Config;
use report::Diagnostic;
use rules::FileCtx;

/// Lints one file's source under workspace-relative path `path` (the
/// path, not the contents, decides crate classification, allowlists, and
/// test-file exemptions — tests feed fixtures through here under
/// synthetic paths).
pub fn check_source(path: &str, src: &str, cfg: &Config) -> Vec<Diagnostic> {
    let lexed = lexer::lex(src);
    let krate = crate_of(path);
    let ctx = FileCtx {
        path,
        krate,
        test_file: is_test_path(path),
        d003_allow: cfg.allow_for("D003"),
        d004_allow: cfg.allow_for("D004"),
        d005_paths: cfg.hot_for("D005"),
    };
    let diags = rules::check_tokens(&ctx, &lexed.tokens);
    let sup = suppress::parse(path, &lexed);
    let mut diags = suppress::apply(path, diags, &sup);
    diags.sort();
    diags
}

/// The crate directory name for `crates/<name>/…` paths.
fn crate_of(path: &str) -> Option<&str> {
    let rest = path.strip_prefix("crates/")?;
    rest.split('/').next()
}

/// Integration tests, benches, examples, and fixture corpora are exempt
/// from D003–D005 (same rationale as `#[cfg(test)]` modules); D001/D002
/// still apply — hash-order flakiness in tests costs real debugging time.
fn is_test_path(path: &str) -> bool {
    path.starts_with("tests/")
        || path.starts_with("examples/")
        || path.contains("/tests/")
        || path.contains("/benches/")
        || path.contains("/examples/")
}

/// Source roots scanned relative to the workspace root. `crates/vendor`
/// (external API stand-ins) and detlint's own fixture corpus (files that
/// *must* violate rules) are excluded by [`walk`].
const SCAN_ROOTS: [&str; 3] = ["crates", "tests", "examples"];

const EXCLUDED: [&str; 2] = ["crates/vendor", "crates/detlint/tests/fixtures"];

/// Every workspace `.rs` file to lint, sorted for deterministic output.
pub fn workspace_files(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    for scan in SCAN_ROOTS {
        let dir = root.join(scan);
        if dir.is_dir() {
            walk(root, &dir, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn walk(root: &Path, dir: &Path, files: &mut Vec<PathBuf>) -> Result<(), String> {
    let rel = rel_path(root, dir);
    if EXCLUDED.iter().any(|e| rel == *e) {
        return Ok(());
    }
    let entries = std::fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("reading {}: {e}", dir.display()))?;
        let path = entry.path();
        if path.is_dir() {
            walk(root, &path, files)?;
        } else if path.extension().map(|e| e == "rs").unwrap_or(false) {
            files.push(path);
        }
    }
    Ok(())
}

/// `path` relative to `root`, with forward slashes (diagnostics and
/// config paths are platform-independent).
pub fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Lints every source file of the workspace rooted at `root`
/// (suppressions applied), sorted by file and line.
pub fn check_workspace(root: &Path, cfg: &Config) -> Result<Vec<Diagnostic>, String> {
    let mut diags = Vec::new();
    for file in workspace_files(root)? {
        let src = std::fs::read_to_string(&file)
            .map_err(|e| format!("reading {}: {e}", file.display()))?;
        diags.extend(check_source(&rel_path(root, &file), &src, cfg));
    }
    diags.sort();
    Ok(diags)
}
