#!/usr/bin/env bash
# One-command local mirror of CI's lint gates: formatting, clippy, the
# benchmark package check, rustdoc, and the determinism linter (see
# "Determinism lints" in README.md).
#
# Usage: scripts/lint.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

# perfbench/ is a separate package outside the workspace: only this gate
# notices when a public World or Instance change breaks the benchmark.
echo "==> cargo check perfbench"
cargo check --manifest-path perfbench/Cargo.toml

echo "==> cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps

echo "==> detlint check"
cargo run --release -p detlint -- check

echo "lint.sh: all gates passed"
