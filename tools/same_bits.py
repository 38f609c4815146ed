#!/usr/bin/env python3
"""Same-bits check: two flipsim builds must print the same results.

    python3 tools/same_bits.py PARENT_FLIPSIM CHANGE_FLIPSIM

For every entry of `flipsim --list`, runs both binaries in each mode:

    batch      --engine batch --trials 4
    classic    --engine classic --trials 4
    shards8    --engine batch --shards 8 --trials 4
    surrogate  --engine surrogate --n 1000000,1000000000 --eps 0.1,0.2,0.4
    churn      --engine batch --churn 0.005:0.1 --trials 4

each with `--scenario <entry> --jsonl --quiet`. Where both exit 0, every
JSONL line is cut at "trial_seconds" (the rest is wall-clock timing) and
the two outputs must match byte for byte. Where both exit non-zero (an
entry that rejects shards, the surrogate engine or churn), their exit
codes and stderr must match. Prints one row per (entry, mode); exit 1 on any
difference, 2 on a usage error.
"""

import subprocess
import sys

MODES = {
    "batch": ["--engine", "batch", "--trials", "4"],
    "classic": ["--engine", "classic", "--trials", "4"],
    "shards8": ["--engine", "batch", "--shards", "8", "--trials", "4"],
    "surrogate": ["--engine", "surrogate", "--n", "1000000,1000000000",
                  "--eps", "0.1,0.2,0.4"],
    "churn": ["--engine", "batch", "--churn", "0.005:0.1", "--trials", "4"],
}
TIMING_KEY = '"trial_seconds"'


def entries(flipsim):
    """Registry names: the first column of --list, below the dashed rule."""
    out = subprocess.run([flipsim, "--list"], stdout=subprocess.PIPE,
                         text=True, check=True).stdout.splitlines()
    rule = next(i for i, line in enumerate(out) if line.startswith("---"))
    return [line.split()[0] for line in out[rule + 1:] if line.strip()]


def run(flipsim, entry, mode):
    """(exit code, deterministic stdout, stderr) of one flipsim run."""
    proc = subprocess.run(
        [flipsim, "--scenario", entry, *MODES[mode], "--jsonl", "--quiet"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    kept = [line.split(TIMING_KEY, 1)[0] for line in proc.stdout.splitlines()]
    return proc.returncode, "\n".join(kept), proc.stderr


def compare(parent, change):
    """Row verdict for one (entry, mode): 'same' or what differs."""
    (p_code, p_out, p_err), (c_code, c_out, c_err) = parent, change
    if p_code == 0 and c_code == 0:
        return "same" if p_out == c_out else "DIFF stdout"
    if p_code != 0 and c_code != 0:
        return ("same (both reject)" if (p_code, p_err) == (c_code, c_err)
                else "DIFF rejection")
    return f"DIFF exit {p_code} vs {c_code}"


def main():
    if len(sys.argv) != 3:
        sys.stderr.write(__doc__)
        return 2
    parent, change = sys.argv[1:]
    names = entries(change)
    differs = names != entries(parent)
    if differs:
        print("registry lists differ")
    for entry in names:
        for mode in MODES:
            verdict = compare(run(parent, entry, mode),
                              run(change, entry, mode))
            differs |= verdict.startswith("DIFF")
            print(f"{entry:<26} {mode:<10} {verdict}", flush=True)
    print("DIFFERENT" if differs else f"same bits: {len(names)} entries x "
          f"{len(MODES)} modes")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
