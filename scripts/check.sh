#!/usr/bin/env sh
# CI gate: full build, the whole test suite, then a faults-enabled smoke
# run — a 50-node simulation with link flaps, crashes and loss bursts must
# complete under the online loop-freedom monitor with zero violations.
set -eu
cd "$(dirname "$0")/.."

dune build @all
dune runtest

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
dune exec bin/manet_sim.exe -- check --nodes 50 --duration 60 --faults \
  > "$tmp/check_online.txt"

# loop-verdict goldens: the online monitor above, the periodic sweeps and
# the paper's Examples 1-2 on the abstract executor must reproduce their
# committed stdout byte for byte (verdicts and edge counts included)
cmp "$tmp/check_online.txt" scripts/golden/check_online.txt
dune exec bin/manet_sim.exe -- check --nodes 30 --duration 40 \
  > "$tmp/check_sweeps.txt"
cmp "$tmp/check_sweeps.txt" scripts/golden/check_sweeps.txt
dune exec examples/quickstart.exe > "$tmp/quickstart.txt"
cmp "$tmp/quickstart.txt" scripts/golden/quickstart.txt

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

# parallel-determinism smoke: the same seeded campaign on 2 worker domains
# must produce byte-identical stdout and JSON to the sequential run
dune exec bin/manet_sim.exe -- campaign --nodes 20 --duration 10 \
  --trials 1 --flows 3 --quiet -j 1 --json "$tmp/campaign_j1.json" \
  > "$tmp/campaign_j1.txt" 2> /dev/null
dune exec bin/manet_sim.exe -- campaign --nodes 20 --duration 10 \
  --trials 1 --flows 3 --quiet -j 2 --json "$tmp/campaign_j2.json" \
  > "$tmp/campaign_j2.txt" 2> /dev/null
cmp "$tmp/campaign_j1.json" "$tmp/campaign_j2.json"
cmp "$tmp/campaign_j1.txt" "$tmp/campaign_j2.txt"

# label-set smoke: the default (mediant) campaign must stay byte-identical
# to the committed pre-refactor golden at -j 1 and -j 4 — the LABEL
# abstraction is free on the paper's instance — and every other dense-set
# instance must complete the same campaign and tag its JSON
cmp "$tmp/campaign_j1.json" scripts/golden/campaign_default.json
cmp "$tmp/campaign_j1.txt" scripts/golden/campaign_default.txt
dune exec bin/manet_sim.exe -- campaign --nodes 20 --duration 10 \
  --trials 1 --flows 3 --quiet -j 4 --json "$tmp/campaign_j4.json" \
  > "$tmp/campaign_j4.txt" 2> /dev/null
cmp "$tmp/campaign_j4.json" scripts/golden/campaign_default.json
cmp "$tmp/campaign_j4.txt" scripts/golden/campaign_default.txt
# ... and a dense OLSR world (100 nodes, 60 s), where equal-length routes
# are common and the BFS tie-break decides every data hop, must reproduce
# its committed golden stdout byte for byte
dune exec bin/manet_sim.exe -- run --protocol olsr --nodes 100 --duration 60 \
  --seed 3 > "$tmp/run_olsr100.txt" 2> /dev/null
cmp "$tmp/run_olsr100.txt" scripts/golden/run_olsr100.txt
for set in farey bigfrac lex; do
  dune exec bin/manet_sim.exe -- campaign --nodes 20 --duration 10 \
    --trials 1 --flows 3 --quiet -j 2 --labels "$set" \
    --json "$tmp/campaign_$set.json" > /dev/null 2> /dev/null
  grep -q "\"labels\":\"$set\"" "$tmp/campaign_$set.json"
done
# ... and the fixed-seed fuzz catalogue must hold with scenarios pinned to
# a non-default instance (the identical Ordering-Criteria oracle applies)
dune exec bin/manet_sim.exe -- fuzz --max-cases 25 --seed 7 --labels bigfrac

# scenario smoke: the default scenario must reproduce the committed golden
# bytes (the registry refactor is free on the paper's workload), an unknown
# name must exit 2 with the registry listing, and every workload scenario
# must complete a small campaign plus an SRP run under the online
# loop-freedom monitor
dune exec bin/manet_sim.exe -- campaign --scenario default --nodes 20 \
  --duration 10 --trials 1 --flows 3 --quiet \
  --json "$tmp/campaign_scenario.json" > "$tmp/campaign_scenario.txt" \
  2> /dev/null
cmp "$tmp/campaign_scenario.json" scripts/golden/campaign_default.json
cmp "$tmp/campaign_scenario.txt" scripts/golden/campaign_default.txt
if dune exec bin/manet_sim.exe -- run --scenario no-such-scenario \
  > /dev/null 2> "$tmp/scenario_err.txt"; then
  echo "check.sh: unknown --scenario did not fail" >&2
  exit 1
fi
grep -q "registered scenarios:" "$tmp/scenario_err.txt"
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

# throughput regression gate: rerun the committed baseline's reduced
# campaign (same flags as the BENCH_campaign.json snapshot) and fail when
# perf.events_per_sec_per_job drops below 75% of the committed number
dune exec bench/main.exe -- campaign --trials 1 --duration 20 --flows 6 \
  --quiet -j 4 --out "$tmp/bench_fresh.json" \
  --check-regression BENCH_campaign.json > "$tmp/bench_out.txt" 2> /dev/null
grep "regression gate" "$tmp/bench_out.txt"

# kill-and-resume smoke: SIGTERM a journaled campaign mid-sweep, resume it
# from the checkpoint, and demand stdout and JSON byte-identical to the
# uninterrupted reference run above (the binary is invoked directly:
# `dune exec` may not forward the signal)
SIM=_build/default/bin/manet_sim.exe
"$SIM" campaign --nodes 20 --duration 10 --trials 1 --flows 3 --quiet \
  -j 2 --resume "$tmp/ckpt.jsonl" --json "$tmp/campaign_resumed.json" \
  > "$tmp/campaign_killed.txt" 2> /dev/null &
victim=$!
sleep 3
kill -TERM "$victim" 2> /dev/null || true
wait "$victim" || true
"$SIM" campaign --nodes 20 --duration 10 --trials 1 --flows 3 --quiet \
  -j 2 --resume "$tmp/ckpt.jsonl" --json "$tmp/campaign_resumed.json" \
  > "$tmp/campaign_resumed.txt" 2> "$tmp/campaign_resumed.log"
cmp "$tmp/campaign_j1.json" "$tmp/campaign_resumed.json"
cmp "$tmp/campaign_j1.txt" "$tmp/campaign_resumed.txt"

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

# ... a profiled campaign must carry the profile too (plus worker ledger),
# while the unprofiled JSON above stays the determinism reference
"$SIM" campaign --nodes 20 --duration 10 --trials 1 --flows 3 --quiet \
  -j 2 --prof --json "$tmp/campaign_prof.json" > /dev/null 2> /dev/null
"$SIM" trace "$tmp/campaign_prof.json" --validate --require perf_profile
grep -q '"workers"' "$tmp/campaign_prof.json"

# ... and bench --prof must extend the perf member with workers + gc while
# keeping the gate-readable shape
dune exec bench/main.exe -- campaign --trials 1 --duration 10 --flows 3 \
  --quiet -j 2 --prof --out "$tmp/bench_prof.json" > /dev/null 2> /dev/null
"$SIM" trace "$tmp/bench_prof.json" --validate --require perf_profile
grep -q '"workers"' "$tmp/bench_prof.json"
grep -q '"gc"' "$tmp/bench_prof.json"

# scale smoke: a kilonode world on a tiny horizon must complete under the
# default grid channel, and an unknown preset must exit 2 listing the
# registered choices
"$SIM" run --scale 1k --duration 17 > /dev/null 2> /dev/null
if "$SIM" run --scale 10k > /dev/null 2> "$tmp/scale_err.txt"; then
  echo "check.sh: unknown --scale did not fail" >&2
  exit 1
fi
grep -q "scale presets:" "$tmp/scale_err.txt"

# events/s regression gate: rerun the committed BENCH_scale.json sweep
# (100/1k/5k presets, reduced horizons) and fail when any preset's
# events_per_sec drops below 75% of its committed number
dune exec bench/main.exe -- scale --quiet --out "$tmp/bench_scale_campaign.json" \
  --scale-out "$tmp/bench_scale.json" \
  --check-scale-regression BENCH_scale.json > "$tmp/scale_out.txt" 2> /dev/null
grep "scale regression gate" "$tmp/scale_out.txt"

echo "check.sh: all green"
