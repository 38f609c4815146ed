#!/usr/bin/env python3
"""Steadiness tool: run workloads K times and summarize every metric.

    python3 perfbench/steady.py --workload daemon_mix --runs 10 \
        [--seed0 1] [--out runs.json]
    python3 perfbench/steady.py --compare first.json second.json

Each run measures the end-to-end metrics (--trace 0) for BENCHMARK.json's
run_seconds, with its own seed (seed0, seed0+1, ...). For every metric it
prints the median, the quartiles (statistics.quantiles, n=4) and the
spread (q3 - q1) / median, and flags an end-to-end spread that is not
below a third of the metric's BENCHMARK.json bound. --out saves the runs
with the environment (nproc, ISA, build type, git rev) they came from.
--compare checks that two sets agree: neither set's median is worse than
the other's by more than the metric's bound. Exit code 1 if any is.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def summarize(values):
    """Median, quartiles and relative spread of one metric's values."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return {"median": med, "q1": q1, "q3": q3, "spread": spread}


def worse_by(first, second, better):
    """Relative amount by which `second` is worse than `first` (<= 0: not)."""
    if first == 0:
        return 0.0 if second == first else float("inf")
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def parse_env(stdout):
    for line in stdout.splitlines():
        if line.startswith("# perfbench "):
            fields = dict(f.split("=", 1) for f in line[2:].split()[1:] if "=" in f)
            return {k: fields.get(k, "unknown")
                    for k in ("nproc", "isa", "build", "git_rev")}
    return {}


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           + proc.stdout)
    result = json.loads(lines[-1])
    return result, parse_env(proc.stdout)


def collect(args, bench):
    seconds = bench["run_seconds"]
    out = {"env": {}, "seconds": seconds, "workloads": {}}
    for workload in args.workload:
        runs = []
        for k in range(args.runs):
            result, env = run_once(workload, args.seed0 + k, seconds)
            out["env"] = env
            runs.append({name: m["value"] for name, m in result["metrics"].items()})
            print(f"{workload} seed {args.seed0 + k}: " + " ".join(
                f"{n}={v:.6g}" for n, v in runs[-1].items()), flush=True)
        out["workloads"][workload] = runs
    return out


def report(data, bench):
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    env = data.get("env", {})
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    steady = True
    for workload, runs in data["workloads"].items():
        print(f"\n{workload} ({len(runs)} runs)")
        print(f"  {'metric':44} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
        for name in runs[0]:
            s = summarize([r[name] for r in runs])
            flag = ""
            if name in bounds and name != "setup_s":
                if s["spread"] >= bounds[name]["bound"] / 3:
                    flag = f"  NOT STEADY (bound {bounds[name]['bound']})"
                    steady = False
            print(f"  {name:44} {s['median']:12.6g} {s['q1']:12.6g} "
                  f"{s['q3']:12.6g} {s['spread']:8.4f}{flag}")
    return steady


def compare(first, second, bench):
    """Two sets agree when, on every end-to-end metric of every workload
    they share, neither median is worse than the other's by more than the
    metric's bound."""
    ok = True
    for workload, runs_a in first["workloads"].items():
        runs_b = second["workloads"].get(workload)
        if runs_b is None:
            continue
        for m in bench["end_to_end"]:
            a = statistics.median(r[m["name"]] for r in runs_a)
            b = statistics.median(r[m["name"]] for r in runs_b)
            worse = worse_by(a, b, m["better"])
            gap = max(worse, worse_by(b, a, m["better"]))
            verdict = "ok" if gap <= m["bound"] else "DISAGREE"
            ok = ok and verdict == "ok"
            print(f"{workload:18} {m['name']:16} {a:12.6g} -> {b:12.6g} "
                  f"second worse by {worse:+.4f} (bound {m['bound']}) {verdict}")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", default=[])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args()
    bench = load_benchmark()

    if args.compare:
        first, second = (json.loads(Path(p).read_text()) for p in args.compare)
        if first["seconds"] != second["seconds"]:
            print("the two sets ran for different run lengths")
            return 1
        return 0 if compare(first, second, bench) else 1
    if not args.workload:
        args.workload = [w["name"] for w in bench["workloads"]]
    data = collect(args, bench)
    if args.out:
        Path(args.out).write_text(json.dumps(data, indent=1) + "\n")
    return 0 if report(data, bench) else 1


if __name__ == "__main__":
    sys.exit(main())
