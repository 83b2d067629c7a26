#!/usr/bin/env sh
# CI gate: full build and the whole test suite (the CLI's stdout goldens,
# exit codes and smokes are cram tests under test/cram, so `dune runtest`
# checks them), then what needs a shell or is too slow for the test suite:
# the deep fuzz runs, the kill-and-resume smoke and the work gate.
set -eu
cd "$(dirname "$0")/.."

dune build @all
dune runtest

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
SIM=_build/default/bin/manet_sim.exe

# deep fuzz: the OLSR agent against its never-purged Hashtbl reference,
# deeper than the catalogue's share of cases (the topology set is purged
# as TCs merge, and expiry races show only over long message streams);
# the channel's flat frame path against the naive scan (the per-frame
# interferer pass's reach fails case 12 of seed 13 without its `+ range`
# term); and the mobility segment cache against Waypoint.position over
# 200,000 query streams (~4 s)
"$SIM" fuzz --prop olsr-routes-oracle --max-cases 2000 --seed 11
"$SIM" fuzz --prop channel-grid-equiv --max-cases 4000 --seed 13
"$SIM" fuzz --prop waypoint-segment-equiv --max-cases 200000 --seed 17

# kill-and-resume smoke: the campaign fixture of test/cram/campaign_default.t,
# journaled with one cell hung, must be SIGTERMed while its journal holds
# the header and the other 39 cells, then resume without the hang to the
# golden stdout and JSON (the binary is invoked directly: `dune exec` may
# not forward the signal)
campaign_flags="--nodes 20 --duration 40 --trials 1 --flows 3 --quiet"
golden=scripts/golden/campaign_default
"$SIM" campaign $campaign_flags -j 2 --sabotage hang:OLSR:0:0 \
  --resume "$tmp/ckpt.jsonl" > /dev/null 2> /dev/null &
victim=$!
polls=0
until [ -f "$tmp/ckpt.jsonl" ] && [ "$(wc -l < "$tmp/ckpt.jsonl")" -ge 40 ]; do
  polls=$((polls + 1))
  if [ "$polls" -gt 1200 ] || ! kill -0 "$victim" 2> /dev/null; then
    kill -TERM "$victim" 2> /dev/null || true
    echo "check.sh: the resume victim's journal never reached 40 lines" >&2
    exit 1
  fi
  sleep 0.1
done
kill -TERM "$victim"
if wait "$victim"; then
  echo "check.sh: the resume victim finished before SIGTERM" >&2
  exit 1
fi
if [ "$(wc -l < "$tmp/ckpt.jsonl")" -ne 40 ]; then
  echo "check.sh: the interrupted journal is not 40 of 41 lines" >&2
  exit 1
fi
"$SIM" campaign $campaign_flags -j 2 --resume "$tmp/ckpt.jsonl" \
  --json "$tmp/campaign_resumed.json" > "$tmp/campaign_resumed.txt" \
  2> "$tmp/campaign_resumed.log"
cmp "$tmp/campaign_resumed.json" "$golden.json"
cmp "$tmp/campaign_resumed.txt" "$golden.txt"

# work gate: world 0 of every benchmark workload, the 5000-node world and
# every micro case must repeat BENCH_work.json's counts exactly, keep their
# minor words within 1% either way, and run on the same OCaml; a failure
# names each row that moved (no wall-clock number gates CI)
dune exec bench/main.exe -- work --check BENCH_work.json \
  > "$tmp/work.txt"
grep "^work:" "$tmp/work.txt"

echo "check.sh: all green"
