#!/usr/bin/env bash
# Build the benchmark from source and run it once:
#   bash perfbench/run.sh --workload warm-exec|mixed-rw \
#     --seed N --seconds S --trace 0|1
# Run from the repository root.  Build output goes to stderr, so the
# last line of stdout is the benchmark's JSON result.  The build stays
# inside the checkout: dune's shared cache is off.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . --cache=disabled ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
