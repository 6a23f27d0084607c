#!/bin/sh
# Build the benchmark from source, then run it. From the root of a
# checkout:
#
#   sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output stays inside the checkout (in $CARGO_TARGET_DIR when set,
# else _build) and the shared dune cache is not used.
set -eu
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perfbench/dune ]; then
  echo "perfbench: run from the root of a complete checkout" >&2
  exit 2
fi
DUNE_CACHE=disabled
DUNE_BUILD_DIR="${CARGO_TARGET_DIR:-_build}"
export DUNE_CACHE DUNE_BUILD_DIR
dune build --root . --display quiet ./perfbench/main.exe 1>&2
exec "$DUNE_BUILD_DIR/default/perfbench/main.exe" "$@"
