#!/usr/bin/env bash
# Builds the benchmark from source and runs it; arguments pass through:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to stderr, so the result stays the last stdout line.
# The build tree is $CARGO_TARGET_DIR (default .bench_build), relative to
# the directory it is run from.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
work="${CARGO_TARGET_DIR:-.bench_build}"
build="$work/perfbench"

cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" --parallel 4 >&2

commit=unknown
if [ -e "$root/.git" ]; then
  commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi
exec "$build/perfbench" --daemon "$build/coalesced" --work-dir "$work" \
  --commit "$commit" "$@"
