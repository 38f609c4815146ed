#!/usr/bin/env python3
"""The repository benchmark: build from source, then run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The flip library and the perfbench binary
are built with CMake (Release) into $CARGO_TARGET_DIR/perfbench, where
CARGO_TARGET_DIR defaults to .bench_build; an up-to-date build costs about
a second. The binary's report lines start with '#'; the last line of
standard output is the JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones and
writes every span to $CARGO_TARGET_DIR/perfbench/spans/. The exit code is 0
only when the build succeeded and every output check passed. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def run_quiet(cmd) -> bool:
    """Runs a build step; on failure its output goes to stderr."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write(f"perfbench: build step failed: {' '.join(cmd)}\n")
    return proc.returncode == 0


def build() -> Path:
    """Configures once, then builds incrementally; returns the binary."""
    bdir = build_dir()
    if not (bdir / "Makefile").exists():  # absent after a failed configure
        if not run_quiet(["cmake", "-S", str(HERE), "-B", str(bdir),
                          "-DCMAKE_BUILD_TYPE=Release"]):
            sys.exit(2)
    if not run_quiet(["cmake", "--build", str(bdir), "--target", "perfbench",
                      "-j", "4"]):
        sys.exit(2)
    return bdir / "perfbench"


def git_rev() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-rev", git_rev()]
    if args.trace == 1:
        spans = binary.parent / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--spans", str(spans / f"{args.workload}-seed{args.seed}.jsonl")]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write(f"perfbench: run exceeded {RUN_TIMEOUT_S} s\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
