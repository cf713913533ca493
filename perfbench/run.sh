#!/usr/bin/env bash
# Build the server and the load generator from source, then run one
# workload from the root of a source checkout:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to stderr; stdout carries only the load generator's
# report, whose last line is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d bin ] || [ ! -d lib/serve ]; then
  echo "perfbench: not a full source checkout (no dune-project, bin/ or lib/serve/ here)" >&2
  exit 2
fi
dune build --root . ./bin/rfid_clean.exe ./perfbench/loadgen.exe 1>&2
exec ./_build/default/perfbench/loadgen.exe --cli ./_build/default/bin/rfid_clean.exe "$@"
