#!/usr/bin/env python3
"""Collect sets of benchmark runs and compare two of them.

    # run every workload once per seed and append the results to a set
    python3 perfbench/compare.py collect --out base.jsonl --seeds 1-10
    # one set: per metric and workload, median, quartiles and spread
    python3 perfbench/compare.py base.jsonl
    # two sets: the same for each side, pairs won and a verdict
    python3 perfbench/compare.py base.jsonl change.jsonl

A set is a JSON-lines file, one untraced run a line:
{"workload": ..., "seed": ..., "result": <run.py result line>}.
Run `collect` from the root of each checkout with the same seeds, alternating
which side runs first. Runs pair up by workload, in seed order.

No verdict is given for a workload where a run of either set has
`correct: false`, or where the change fails a larger share of its attempted
operations than the base: a gain does not count when outputs are wrong or
more operations fail.

Verdict for each end-to-end metric and workload (choosing-metrics guide,
section 8), with the spread taken as the base's interquartile range over
its median:
  improved    the change wins at least 9/10 of the pairs (ties count for
              neither) and the medians differ, in the better direction, by
              more than the base's spread;
  no worse    otherwise, if the spread is within the metric's bound and the
              change's median is not worse than the base's by more than it;
  worse       the spread is within the bound and the median is worse by
              more than it;
  unresolved  the spread is wider than the bound, unless every run of the
              change reads better than every run of the base (improved).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def collect(args):
    spec = load_spec()
    with open(args.out, "a") as out:
        for seed in parse_seeds(args.seeds):
            for w in (w["name"] for w in spec["workloads"]):
                cmd = spec["command"] + [
                    "--workload", w, "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]), "--trace", "0"]
                proc = subprocess.run(cmd, stdout=subprocess.PIPE)
                lines = proc.stdout.decode().strip().splitlines()
                if proc.returncode != 0 or not lines:
                    sys.exit(f"run failed: {' '.join(cmd)}")
                result = json.loads(lines[-1])
                out.write(json.dumps({"workload": w, "seed": seed,
                                      "result": result}) + "\n")
                out.flush()
                print(f"{w} seed {seed}: correct={result['correct']}", file=sys.stderr)


def load_set(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                r = json.loads(line)
                runs.setdefault(r["workload"], []).append(r)
    for rs in runs.values():
        rs.sort(key=lambda r: r["seed"])
    return runs


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (
        values[0],) * 3
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def values(runs, metric):
    return [r["result"]["metrics"][metric]["value"] for r in runs]


def failed_share(runs):
    return (sum(r["result"]["failed"] for r in runs)
            / sum(r["result"]["attempted"] for r in runs))


def refusal(base_runs, change_runs):
    """Why no verdict can be given for a workload, or None."""
    for side, runs in (("base", base_runs), ("change", change_runs or [])):
        bad = [r["seed"] for r in runs if not r["result"]["correct"]]
        if bad:
            return f"incorrect outputs in {side} runs (seeds {bad})"
    if change_runs and failed_share(change_runs) > failed_share(base_runs):
        return (f"more operations failed: {failed_share(change_runs):.4%} of "
                f"attempted vs {failed_share(base_runs):.4%}")
    return None


def verdict(m, base_runs, change_runs):
    higher = m["better"] == "higher"
    better = (lambda a, b: a > b) if higher else (lambda a, b: a < b)
    pairs = list(zip(values(base_runs, m["name"]), values(change_runs, m["name"])))
    won = sum(1 for b, c in pairs if better(c, b))
    b = summary(values(base_runs, m["name"]))
    c = summary(values(change_runs, m["name"]))
    diff = (c["median"] - b["median"]) / b["median"]
    gain = diff if higher else -diff
    every = all(better(cv, bv) for cv in values(change_runs, m["name"])
                for bv in values(base_runs, m["name"]))
    if pairs and won >= 0.9 * len(pairs) and gain > b["spread"]:
        v = "improved"
    elif every:
        v = "improved"
    elif b["spread"] > m["bound"]:
        v = "unresolved"
    elif -gain > m["bound"]:
        v = "worse"
    else:
        v = "no worse"
    return b, c, won, len(pairs), diff, v


def fmt(s):
    return f"{s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}] spread {s['spread']:.3f}"


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "collect":
        ap = argparse.ArgumentParser(prog="compare.py collect")
        ap.add_argument("--out", required=True)
        ap.add_argument("--seeds", default="1-10")
        collect(ap.parse_args(sys.argv[2:]))
        return
    ap = argparse.ArgumentParser(description="Compare benchmark run sets.")
    ap.add_argument("base")
    ap.add_argument("change", nargs="?")
    args = ap.parse_args()
    spec = load_spec()
    base = load_set(args.base)
    change = load_set(args.change) if args.change else None
    for w in spec["workloads"]:
        name = w["name"]
        if name not in base:
            continue
        print(f"{name} ({len(base[name])} base runs)")
        why = refusal(base[name], change.get(name) if change else None)
        if why:
            print(f"  no verdict: {why}")
            continue
        for m in spec["end_to_end"]:
            if change is None or name not in change:
                print(f"  {m['name']:<20} {fmt(summary(values(base[name], m['name'])))}"
                      f"  bound {m['bound']}")
                continue
            b, c, won, n, diff, v = verdict(m, base[name], change[name])
            print(f"  {m['name']:<20} base {fmt(b)}\n  {'':<20} change {fmt(c)}"
                  f"\n  {'':<20} pairs won {won}/{n}, median {diff:+.2%}: {v}")


if __name__ == "__main__":
    main()
