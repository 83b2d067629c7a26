"""Noise study behind the bounds in BENCHMARK.json and bench/suite/baseline.json.

Runs the benchmark the way a regression check does: every workload once per
seed, SETS times over, untraced, then a traced run per workload for the
per-layer numbers. Reports each end-to-end metric's median and quartiles per
set, the spread (third minus first quartile, over the median) and how far the
sets' medians drift apart, and checks that outcome digests repeat.

    python3 bench/suite/study.py --out DIR [--sets 2] [--seeds 1-10]
        [--traced-seeds 1,2] [--seconds 30]
        [--baseline bench/suite/baseline.json] [--pins bench/suite/pins.json]

Run from the root of the repository. DIR receives one --json report per run.
--pins writes the world digests of the first set as the pinned digests; the
benchmark compiles them in on its next build.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.getcwd()
BENCH = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",") if s]


def run(workload, seed, seconds, traced, report):
    cmd = BENCH["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", "1" if traced else "0", "--json", report,
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(report) as f:
        detail = json.load(f)["workloads"][0]
    return proc.returncode, summary, detail


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": statistics.median(values), "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", required=True)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--traced-seeds", default="1,2")
    ap.add_argument("--seconds", type=int, default=BENCH["run_seconds"])
    ap.add_argument("--baseline")
    ap.add_argument("--pins")
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)
    seeds = seed_list(args.seeds)
    names = [w["name"] for w in BENCH["workloads"]]
    e2e = [m["name"] for m in BENCH["end_to_end"]]
    bound = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}

    # (set, workload) -> metric -> [value per seed]; digests per (workload, seed)
    values, digests, failures = {}, {}, []
    for k in range(args.sets):
        for w in names:
            per_metric = {m: [] for m in e2e}
            for seed in seeds:
                report = os.path.join(args.out, f"set{k}_{w}_{seed}.json")
                code, summary, detail = run(w, seed, args.seconds, False, report)
                if code != 0 or not summary["correct"]:
                    failures.append(f"set {k} {w} seed {seed}: {detail['problems']}")
                for m in e2e:
                    per_metric[m].append(summary["metrics"][m]["value"])
                ds = [x["untraced"]["digest"] for x in detail["worlds"]]
                digests.setdefault((w, seed), []).append(ds)
                print(f"set {k} {w:15s} seed {seed:3d} "
                      + " ".join(f"{m} {per_metric[m][-1]:.6g}" for m in e2e),
                      flush=True)
            values[(k, w)] = per_metric

    # the same seed must reproduce the same worlds, set after set
    for (w, seed), runs in digests.items():
        if any(ds != runs[0] for ds in runs):
            failures.append(f"{w} seed {seed}: world digests differ between sets")

    study = {}
    worst = {}
    for w in names:
        study[w] = {}
        for m in e2e:
            sets = [quartiles(values[(k, w)][m]) for k in range(args.sets)]
            drift = max(s["median"] for s in sets) / min(s["median"] for s in sets) - 1
            study[w][m] = {"sets": sets, "median_drift": drift}
            worst[m] = max(worst.get(m, 0.0), drift, *(s["spread"] for s in sets))
            print(f"{w:15s} {m:12s} " + " | ".join(
                f"median {s['median']:.6g} q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
                f"spread {s['spread']:.3f}" for s in sets)
                + f" | drift {drift:.3f} (bound {bound[m]})")

    layers = {}
    for w in names:
        layers[w] = {}
        for seed in seed_list(args.traced_seeds):
            report = os.path.join(args.out, f"traced_{w}_{seed}.json")
            code, summary, detail = run(w, seed, args.seconds, True, report)
            if code != 0 or not summary["correct"]:
                failures.append(f"traced {w} seed {seed}: {detail['problems']}")
            layers[w][str(seed)] = {k: v["value"] for k, v in summary["metrics"].items()}

    first = json.load(open(os.path.join(args.out, f"set0_{names[0]}_{seeds[0]}.json")))
    baseline = {
        "schema": "bench-suite-baseline/2",
        "host": dict(first["host"], seconds=args.seconds, sets=args.sets,
                     seeds=seeds),
        "end_to_end": study,
        "worst_spread_or_drift": worst,
        "per_layer": layers,
        "failures": failures,
    }
    if args.baseline:
        with open(args.baseline, "w") as f:
            json.dump(baseline, f, indent=1, sort_keys=False)
            f.write("\n")
    if args.pins:
        pins = {w: {str(seed): digests[(w, seed)][0] for seed in seeds}
                for w in names}
        with open(args.pins, "w") as f:
            f.write("{\n" + ",\n".join(
                f'  "{w}": {{\n' + ",\n".join(
                    f'    "{seed}": {json.dumps(ds)}' for seed, ds in per.items())
                + "\n  }" for w, per in pins.items()) + "\n}\n")
    for line in failures:
        print("FAILED", line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
