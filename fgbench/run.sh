#!/usr/bin/env bash
# Builds the benchmark from source (release, offline) and runs it, passing
# every argument through:
#
#   bash fgbench/run.sh --workload guard-attack --seed 1 --seconds 30 --trace 0
#
# Build output goes to stderr, so the result stays the last line of
# stdout. The build honours CARGO_TARGET_DIR (default: fgbench/target);
# spans and session journals are written under <target>/fgbench-out.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
out="$target/fgbench-out"
mkdir -p "$out"
rev=unknown
if [ -e "$here/../.git" ]; then
    rev="$(git -C "$here/.." rev-parse --short HEAD 2>/dev/null || echo unknown)"
fi
export FGBENCH_GIT_REV="$rev"
exec "$target/release/fgbench" --out-dir "$out" "$@"
