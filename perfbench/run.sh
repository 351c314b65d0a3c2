#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root;
# every argument passes through to perfbench/main.exe:
#   bash perfbench/run.sh --workload patch-large --seed 1 --seconds 20 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)"
fi
dune build --root . --display quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
