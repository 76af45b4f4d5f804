#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given
# arguments; see perfbench/README.md.  Run from the repository root:
#
#   bash perfbench/run.sh --workload set64_dyn --seed 42 --seconds 10 --trace 0
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perfbench/dune-project ]; then
  echo "perfbench: run from the root of an e2ebatch checkout" >&2
  exit 2
fi

# Keep every build product inside the checkout.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/bin/main.exe >&2
exec ./_build/default/perfbench/bin/main.exe "$@"
