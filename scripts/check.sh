#!/usr/bin/env sh
# CI gate: full build, the whole test suite (the stdout goldens and the
# exit-code contracts are cram tests under test/cram, so `dune runtest`
# checks them), then the smokes that need a shell or are too slow for the
# test suite.
set -eu
cd "$(dirname "$0")/.."

dune build @all
dune runtest

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# telemetry smoke: a traced run must emit parseable JSONL and a --json
# result file with the documented keys, and same-seed traces must agree
# byte for byte
dune exec bin/manet_sim.exe -- run --nodes 30 --duration 30 \
  --trace-file "$tmp/a.jsonl" --sample-every 5 --json "$tmp/run.json" \
  > "$tmp/out_a.txt" 2> /dev/null
dune exec bin/manet_sim.exe -- run --nodes 30 --duration 30 \
  --trace-file "$tmp/b.jsonl" --sample-every 5 \
  > "$tmp/out_b.txt" 2> /dev/null
cmp "$tmp/a.jsonl" "$tmp/b.jsonl"
cmp "$tmp/out_a.txt" "$tmp/out_b.txt"
dune exec bin/manet_sim.exe -- trace "$tmp/a.jsonl" --validate
dune exec bin/manet_sim.exe -- trace "$tmp/run.json" --validate \
  --require schema --require config.protocol --require config.seed \
  --require result.delivery_ratio --require result.network_load \
  --require result.latency --require result.engine_events

# fuzz smoke: the property-based suite (label arithmetic, Algorithm 1,
# abstract SLR executions, SRP-vs-reference-model, packet conservation,
# spatial-grid/naive channel equivalence) on a fixed seed must pass with
# zero violations
dune exec bin/manet_sim.exe -- fuzz --max-cases 200 --seed 7
# ... and the OLSR agent against its never-purged Hashtbl reference, deeper
# than the catalogue's share of cases: the topology set is purged as TCs
# merge, and expiry races show only over long message streams
dune exec bin/manet_sim.exe -- fuzz --prop olsr-routes-oracle \
  --max-cases 2000 --seed 11
# ... and the channel's flat frame path against the naive scan (2,000
# cases: the per-frame interferer pass's reach fails case 12 of seed 13
# without its `+ range` term), and the mobility segment cache against
# Waypoint.position over 200,000 query streams (~4 s)
dune exec bin/manet_sim.exe -- fuzz --prop channel-grid-equiv \
  --max-cases 4000 --seed 13
dune exec bin/manet_sim.exe -- fuzz --prop waypoint-segment-equiv \
  --max-cases 200000 --seed 17

# determinism smoke: one campaign fixture, whose every cell routes data
# (traffic starts at 15 s of 40), must reproduce its committed golden
# stdout and JSON byte for byte at -j 1, -j 2 and -j 4 and under
# --scenario default; the kill-and-resume smoke below compares against the
# same golden
SIM=_build/default/bin/manet_sim.exe
campaign_flags="--nodes 20 --duration 40 --trials 1 --flows 3 --quiet"
golden=scripts/golden/campaign_default
for run in "-j 1" "-j 2" "-j 4" "--scenario default"; do
  "$SIM" campaign $campaign_flags $run --json "$tmp/campaign.json" \
    > "$tmp/campaign.txt" 2> /dev/null
  cmp "$tmp/campaign.json" "$golden.json"
  cmp "$tmp/campaign.txt" "$golden.txt"
done
# ... and every other dense-set instance must complete the fixture's
# campaign, tag its JSON and mint labels (a nonzero width)
for set in farey bigfrac lex; do
  "$SIM" campaign $campaign_flags -j 2 --labels "$set" \
    --json "$tmp/campaign_$set.json" > /dev/null 2> /dev/null
  grep -q "\"labels\":\"$set\"" "$tmp/campaign_$set.json"
  grep -q '"label_width_bits":[1-9]' "$tmp/campaign_$set.json"
done
# ... and the fixed-seed fuzz catalogue must hold with scenarios pinned to
# a non-default instance (the identical Ordering-Criteria oracle applies)
dune exec bin/manet_sim.exe -- fuzz --max-cases 25 --seed 7 --labels bigfrac

# scenario smoke: every workload scenario must complete a small campaign
# plus an SRP run under the online loop-freedom monitor
for scenario in manhattan rpgm churn bursty convergecast flash-crowd \
  downtown hostile; do
  dune exec bin/manet_sim.exe -- campaign --scenario "$scenario" --nodes 16 \
    --duration 18 --trials 1 --flows 2 --quiet \
    --json "$tmp/campaign_scenario.json" > /dev/null 2> /dev/null
  grep -q '"protocol"' "$tmp/campaign_scenario.json"
  dune exec bin/manet_sim.exe -- check --scenario "$scenario" --nodes 20 \
    --duration 25 --flows 3 > /dev/null
done
# ... the fixed-seed fuzz catalogue must hold with simulation cells pinned
# to a non-default scenario's mobility + traffic models
dune exec bin/manet_sim.exe -- fuzz --max-cases 25 --seed 7 \
  --scenario downtown

# adversarial smoke: the van Glabbeek replay plus forged stale route reply
# must catch AODV looping while SRP stays green under its reference model
dune exec bin/manet_sim.exe -- campaign --scenario vg-forged-rrep \
  > "$tmp/adversarial.txt" 2> /dev/null
grep -q "^AODV  LOOP" "$tmp/adversarial.txt"
grep -q "^SRP   ok" "$tmp/adversarial.txt"

# kill-and-resume smoke: the fixture's campaign, journaled with one cell
# hung, must be SIGTERMed while its journal holds the header and the other
# 39 cells, then resume without the hang to the golden stdout and JSON (the
# binary is invoked directly: `dune exec` may not forward the signal)
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

# supervision smoke: an injected crash must quarantine one cell, annotate
# it in the report and the JSON failures list, and still exit 0 ...
"$SIM" campaign --nodes 20 --duration 10 --trials 1 --flows 3 --quiet \
  --sabotage crash:AODV:0:0 --retries 0 --json "$tmp/campaign_crash.json" \
  > "$tmp/campaign_crash.txt" 2> /dev/null
grep -q "quarantined" "$tmp/campaign_crash.txt"
"$SIM" trace "$tmp/campaign_crash.json" --validate --require failures
# ... a wedged cell must hit the --cell-timeout and quarantine the same way
"$SIM" campaign --nodes 20 --duration 10 --trials 1 --flows 3 --quiet \
  --sabotage hang:DSR:0:0 --cell-timeout 1 --retries 0 \
  > "$tmp/campaign_hang.txt" 2> /dev/null
grep -q "quarantined" "$tmp/campaign_hang.txt"
# ... and --fail-fast must restore the historical abort-on-first-error
if "$SIM" campaign --nodes 20 --duration 10 --trials 1 --flows 3 --quiet \
  --sabotage crash:AODV:0:0 --fail-fast > /dev/null 2> /dev/null; then
  echo "check.sh: --fail-fast did not abort the sabotaged campaign" >&2
  exit 1
fi

# observability smoke: --prof must append a perf_profile member with the
# expected hot-path span names and the always-on counters, and
# the Prometheus export must be well-formed (one # TYPE per family, no
# duplicate sample series)
"$SIM" run --nodes 20 --duration 30 --prof --json "$tmp/run_prof.json" \
  --prof-out "$tmp/run_prof.prom" > "$tmp/run_prof.txt" 2> /dev/null
"$SIM" trace "$tmp/run_prof.json" --validate --require perf_profile
grep -q '"name":"channel.transmit.grid"' "$tmp/run_prof.json"
grep -q '"name":"event.mac.backoff"' "$tmp/run_prof.json"
grep -q '"name":"proto.srp.receive"' "$tmp/run_prof.json"
grep -q '"channel.receptions":' "$tmp/run_prof.json"
for counter in channel.grid.gathered channel.grid.sorted \
  channel.interferers.scanned channel.interferers.picked \
  channel.sense.scanned mobility.segment.refills; do
  grep -q "\"$counter\":" "$tmp/run_prof.json"
done
grep -q "Profile (wall-clock spans" "$tmp/run_prof.txt"
# ... and an OLSR run must report its route work counters
"$SIM" run --protocol olsr --nodes 20 --duration 30 --prof \
  --json "$tmp/run_olsr_prof.json" > /dev/null 2> /dev/null
grep -q '"olsr.route.recomputes":' "$tmp/run_olsr_prof.json"
grep -q '"olsr.topology.scanned":' "$tmp/run_olsr_prof.json"
awk '/^# TYPE /{if (seen[$3]++) {print "duplicate TYPE: " $3; exit 1}}' \
  "$tmp/run_prof.prom"
awk '!/^#/ && NF { if (seen[$1]++) { print "duplicate sample: " $1; exit 1 } }' \
  "$tmp/run_prof.prom"
grep -q '^# TYPE manet_span_seconds_total counter$' "$tmp/run_prof.prom"

# ... a profiled campaign must carry the profile too (plus the worker
# ledger with its per-domain GC deltas), while the unprofiled JSON above
# stays the determinism reference
"$SIM" campaign --nodes 20 --duration 10 --trials 1 --flows 3 --quiet \
  -j 2 --prof --json "$tmp/campaign_prof.json" > /dev/null 2> /dev/null
"$SIM" trace "$tmp/campaign_prof.json" --validate --require perf_profile
grep -q '"workers"' "$tmp/campaign_prof.json"
grep -q '"minor_words"' "$tmp/campaign_prof.json"

# scale smoke: a kilonode world on a tiny horizon must complete under the
# default grid channel
"$SIM" run --scale 1k --duration 17 > /dev/null 2> /dev/null

# work gate: world 0 of every benchmark workload, the 5000-node world and
# every micro case must repeat BENCH_work.json's counts exactly, keep their
# minor words within 1% either way, and run on the same OCaml; a failure
# names each row that moved (no wall-clock number gates CI)
dune exec bench/main.exe -- work --check BENCH_work.json \
  > "$tmp/work.txt"
grep "^work:" "$tmp/work.txt"

echo "check.sh: all green"
