#!/bin/sh
# Builds the benchmark from this checkout's sources, then runs it with the
# given arguments. Run from the root of the repository:
#   sh bench/suite/run.sh --workload kilo-srp --seed 1 --seconds 30 --trace 0
# The dune cache is off so that nothing is written outside the checkout.
set -e
dune build --root . --cache=disabled --display=quiet bench/suite/run.exe 1>&2
exec ./_build/default/bench/suite/run.exe "$@"
