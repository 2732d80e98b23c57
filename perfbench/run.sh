#!/usr/bin/env bash
# Build the benchmark and the binaries it drives from this checkout's
# sources, then run one workload from the checkout root:
#
#   bash perfbench/run.sh --workload suite_exec --seed 1 --seconds 30 --trace 0
#
# Build output goes to stderr; the last line of stdout is the result.
# Everything the build and the runs write stays under .bench_build/.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
build="$PWD/.bench_build/dune"
mkdir -p .bench_build
if command -v dune >/dev/null 2>&1; then dune=(dune); else dune=(opam exec -- dune); fi
"${dune[@]}" build --root . --build-dir "$build" perfbench/main.exe bin/slpd.exe bin/obscheck.exe 1>&2
exec "$build/default/perfbench/main.exe" "$@"
