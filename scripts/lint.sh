#!/usr/bin/env bash
# One-command local mirror of CI's lint gates: formatting, clippy, and
# the determinism linter (see "Determinism lints" in README.md).
#
# Usage: scripts/lint.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> detlint check"
cargo run --release -p detlint -- check

echo "lint.sh: all gates passed"
