#!/usr/bin/env bash
# Build the end-to-end benchmark from source and run it.
#
#   bash bench/e2e/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the repository root. The build goes to _build (dune's shared
# cache is disabled, so nothing is written outside the checkout) and its
# log to stderr, so the last line of standard output is the benchmark's
# JSON result. A failed build exits non-zero without printing a result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bench/e2e/main.exe 1>&2
exec ./_build/default/bench/e2e/main.exe "$@"
