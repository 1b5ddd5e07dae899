#!/usr/bin/env bash
# Build acqd and the benchmark from source, then run one workload:
#   bash acqbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the root of a checkout; the build and the benchmark's scratch
# files stay inside it (_build/, .acqbench_run/).
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . ./bin/acqd.exe ./acqbench/main.exe 1>&2
exec ./_build/default/acqbench/main.exe --acqd ./_build/default/bin/acqd.exe "$@"
