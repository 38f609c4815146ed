#!/usr/bin/env python3
"""flip_lint: mechanical enforcement of the repo's determinism contract.

Every draw in this codebase must be a pure function of
(seed, trial, round, agent, purpose) — the counter-keyed RNG contract of
docs/ARCHITECTURE.md. The differential test suites prove engines equal to
each other; this linter removes whole *classes* of violation at the source
level, before a test ever runs:

  nondeterminism     No ambient randomness or wall-clock reads in the
                     simulation layers (src/core, src/sim, src/simd,
                     src/workload): rand()/srand(), <random> engines and
                     distributions (std::mt19937, std::random_device, ...),
                     system_clock / steady_clock / time() / gettimeofday.
                     Allowlisted files: sim/trial.* (wall-clock timing
                     FIELDS of trial results, explicitly outside the
                     determinism contract).

  unordered-iteration
                     No std::unordered_{map,set,multimap,multiset} in the
                     simulation layers at all. Hash-table iteration order
                     is unspecified and libstdc++-version-dependent; one
                     `for (auto& kv : table)` in a round phase silently
                     breaks bit-equality across toolchains. Ordered or
                     indexed containers only.

  noalloc            No allocation inside regions annotated
                     `// flip-lint: noalloc` ... `// flip-lint: end-noalloc`
                     (the warm TrialArena paths that
                     tests/trial_arena_test.cpp proves allocation-free at
                     runtime): operator new, malloc/calloc/realloc/strdup,
                     make_unique/make_shared, and container
                     resize()/reserve() are all findings. The runtime test
                     catches regressions on the configs it runs; the lint
                     catches them on every path at review time.

  rng-lane-pin       The RngPurpose enum in src/util/rng.hpp must have
                     exactly the lane count pinned by the
                     `flip-lint: rng-lane-count=N` marker next to the
                     golden-vector tests in tests/rng_test.cpp. A new lane
                     changes the round_stream_key packing contract, so it
                     cannot land without the author touching the golden
                     file — where the comment tells them to add goldens.

Suppression: a finding line (or the line directly above it) may carry
`// flip-lint: allow(<rule>) -- <justification>`. The justification is
mandatory; an empty one is itself a finding. Suppressions are grep-able:
the allowlist IS the audit trail.

Exit status: 0 = clean, 1 = findings (printed as `path:line: [rule] msg`),
2 = usage / layout error. Run from anywhere: `python3 tools/flip_lint.py`.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import Iterable, List, Optional, Tuple

# Directories (relative to the repo root) whose sources must be free of
# ambient nondeterminism. src/cli and src/net are deliberately absent:
# they own wall-clock sweep timing and socket I/O. src/util hosts the rng
# implementation itself.
SCANNED_DIRS = ("src/core", "src/sim", "src/simd", "src/workload")

# Files inside SCANNED_DIRS that may legitimately name forbidden tokens.
# Keep this list short and justified — it is part of the contract.
NONDETERMINISM_ALLOWLIST = {
    "src/sim/trial.hpp",   # wall-clock timing *fields* of trial results
    "src/sim/trial.cpp",   # ... and the steady_clock reads that fill them
}

CXX_EXTENSIONS = (".hpp", ".cpp", ".h", ".cc", ".cxx", ".hxx", ".inl")

# token regex -> short reason, matched against comment/string-stripped code.
NONDETERMINISM_PATTERNS: List[Tuple[re.Pattern, str]] = [
    (re.compile(r"\b(?:std::)?s?rand\s*\("), "C rand()/srand() is ambient global state"),
    (re.compile(r"\bmt19937(?:_64)?\b"), "stateful <random> engine breaks the counter-keyed contract"),
    (re.compile(r"\brandom_device\b"), "random_device is irreproducible by design"),
    (re.compile(r"\bdefault_random_engine\b"), "stateful <random> engine breaks the counter-keyed contract"),
    (re.compile(r"\b(?:minstd_rand0?|ranlux\w+|knuth_b)\b"), "stateful <random> engine breaks the counter-keyed contract"),
    (re.compile(r"\b\w*(?:uniform_int|uniform_real|normal|bernoulli|binomial|poisson|geometric|exponential)_distribution\b"),
     "<random> distributions consume hidden engine state; draw via util/rng.hpp"),
    (re.compile(r"#\s*include\s*<random>"), "<random> has no place in the simulation layers"),
    (re.compile(r"\bsystem_clock\b"), "wall clock read in simulation code"),
    (re.compile(r"\bsteady_clock\b"), "clock read in simulation code (timing lives in sim/trial.*)"),
    (re.compile(r"\bhigh_resolution_clock\b"), "clock read in simulation code (timing lives in sim/trial.*)"),
    (re.compile(r"\btime\s*\(\s*(?:NULL|nullptr|0|&)"), "time() read in simulation code"),
    (re.compile(r"\b(?:gettimeofday|clock_gettime|localtime|gmtime|mktime)\s*\("), "OS time read in simulation code"),
]

UNORDERED_PATTERN = re.compile(r"\bunordered_(?:multi)?(?:map|set)\b")

NOALLOC_PATTERNS: List[Tuple[re.Pattern, str]] = [
    (re.compile(r"\bnew\b(?!\s*\()"), "operator new in a noalloc region"),
    (re.compile(r"\bnew\s*\("), "placement/operator new in a noalloc region"),
    (re.compile(r"\b(?:malloc|calloc|realloc|strdup|aligned_alloc)\s*\("), "C allocation in a noalloc region"),
    (re.compile(r"\bmake_(?:unique|shared)\b"), "make_unique/make_shared allocates"),
    (re.compile(r"\.\s*(?:resize|reserve|shrink_to_fit)\s*\("), "container capacity change in a noalloc region"),
    # A *named object* of an allocating container type (reference/pointer
    # bindings like `std::vector<T>& v = ...` are not construction).
    (re.compile(r"\bstd::(?:vector|string|deque|list|map|set)\s*<[^&;]*>\s+\w+\s*[({=;]"),
     "container construction in a noalloc region"),
]

NOALLOC_BEGIN = re.compile(r"//\s*flip-lint:\s*noalloc\b(?!\S)")
NOALLOC_END = re.compile(r"//\s*flip-lint:\s*end-noalloc\b")
ALLOW_MARKER = re.compile(r"//\s*flip-lint:\s*allow\(([a-z-]+)\)\s*(?:--\s*(.*))?")
LANE_MARKER = re.compile(r"flip-lint:\s*rng-lane-count=(\d+)")

RULES = ("nondeterminism", "unordered-iteration", "noalloc", "rng-lane-pin")


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text: str) -> List[str]:
    """Returns the file's lines with comments, string literals, and char
    literals blanked out (newlines preserved, so line numbers survive).
    The lint markers are read from the RAW lines — this stripped view is
    only what the token patterns run against, so a comment *discussing*
    rand() is not a finding."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
            out.append(" " if c != "\n" else "\n")
        i += 1
    return "".join(out).split("\n")


def allow_entries(raw_lines: List[str], code_lines: List[str]) -> dict:
    """Maps line number (1-based) -> (rule, justification or None) for
    every `flip-lint: allow(...)` marker. A marker suppresses findings on
    its own line and on the next CODE line after it (comment-only lines in
    between are skipped, so wrapped justification comments work)."""
    allows = {}
    for idx, line in enumerate(raw_lines, start=1):
        m = ALLOW_MARKER.search(line)
        if not m:
            continue
        entry = (m.group(1), (m.group(2) or "").strip())
        allows[idx] = entry
        for follow in range(idx + 1, min(idx + 12, len(raw_lines) + 1)):
            code = code_lines[follow - 1] if follow - 1 < len(code_lines) else ""
            if code.strip():
                allows.setdefault(follow, entry)
                break
    return allows


def is_allowed(allows: dict, line: int, rule: str,
               findings: List[Finding], path: str) -> bool:
    entry = allows.get(line)
    if entry and entry[0] == rule:
        if not entry[1]:
            findings.append(Finding(
                path, line, rule,
                "allow() marker without a justification "
                "(write `// flip-lint: allow(%s) -- <why>`)" % rule))
        return True
    return False


def lint_file(root: str, rel: str, findings: List[Finding]) -> None:
    path = os.path.join(root, rel)
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as fh:
            text = fh.read()
    except OSError as e:
        findings.append(Finding(rel, 0, "nondeterminism", f"unreadable: {e}"))
        return
    raw_lines = text.split("\n")
    code_lines = strip_comments_and_strings(text)
    allows = allow_entries(raw_lines, code_lines)
    scanned = any(rel.startswith(d + "/") or rel.startswith(d.replace("/", os.sep) + os.sep)
                  for d in SCANNED_DIRS)
    allowlisted = rel.replace(os.sep, "/") in NONDETERMINISM_ALLOWLIST

    in_noalloc = False
    noalloc_open_line = 0
    for idx, raw in enumerate(raw_lines, start=1):
        code = code_lines[idx - 1] if idx - 1 < len(code_lines) else ""
        if NOALLOC_BEGIN.search(raw) and not NOALLOC_END.search(raw):
            if in_noalloc:
                findings.append(Finding(rel, idx, "noalloc",
                                        "nested noalloc region (previous "
                                        f"opened at line {noalloc_open_line})"))
            in_noalloc = True
            noalloc_open_line = idx
            continue
        if NOALLOC_END.search(raw):
            if not in_noalloc:
                findings.append(Finding(rel, idx, "noalloc",
                                        "end-noalloc without a matching "
                                        "noalloc marker"))
            in_noalloc = False
            continue

        if scanned and not allowlisted:
            for pattern, reason in NONDETERMINISM_PATTERNS:
                if pattern.search(code):
                    if not is_allowed(allows, idx, "nondeterminism",
                                      findings, rel):
                        findings.append(Finding(rel, idx, "nondeterminism",
                                                reason))
                    break
            if UNORDERED_PATTERN.search(code):
                if not is_allowed(allows, idx, "unordered-iteration",
                                  findings, rel):
                    findings.append(Finding(
                        rel, idx, "unordered-iteration",
                        "unordered container in a simulation layer: "
                        "iteration order is unspecified and breaks "
                        "bit-equality; use an ordered/indexed container"))

        if in_noalloc:
            for pattern, reason in NOALLOC_PATTERNS:
                if pattern.search(code):
                    if not is_allowed(allows, idx, "noalloc", findings, rel):
                        findings.append(Finding(rel, idx, "noalloc", reason))
                    break
    if in_noalloc:
        findings.append(Finding(rel, noalloc_open_line, "noalloc",
                                "noalloc region never closed "
                                "(missing `// flip-lint: end-noalloc`)"))


def count_rng_lanes(root: str) -> Optional[Tuple[int, int]]:
    """Returns (lane_count, enum_line) from src/util/rng.hpp, or None when
    the file/enum is absent (fixture trees)."""
    path = os.path.join(root, "src/util/rng.hpp")
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        lines = fh.read().split("\n")
    start = None
    for idx, line in enumerate(lines):
        if re.search(r"\benum\s+class\s+RngPurpose\b", line):
            start = idx
            break
    if start is None:
        return None
    count = 0
    for line in lines[start:]:
        if re.match(r"\s*k[A-Za-z0-9_]+\s*[=,]", line):
            count += 1
        if "};" in line and line is not lines[start]:
            break
    return count, start + 1


def lint_rng_lane_pin(root: str, findings: List[Finding]) -> None:
    counted = count_rng_lanes(root)
    golden = os.path.join(root, "tests/rng_test.cpp")
    if counted is None:
        return  # no rng.hpp in this tree (unit-test fixtures)
    lanes, enum_line = counted
    if not os.path.exists(golden):
        findings.append(Finding("src/util/rng.hpp", enum_line, "rng-lane-pin",
                                "tests/rng_test.cpp (the golden-vector pin) "
                                "is missing"))
        return
    with open(golden, "r", encoding="utf-8", errors="replace") as fh:
        text = fh.read()
    m = LANE_MARKER.search(text)
    if not m:
        findings.append(Finding(
            "tests/rng_test.cpp", 0, "rng-lane-pin",
            "no `flip-lint: rng-lane-count=N` marker next to the golden "
            "vectors; the RngPurpose lane count is unpinned"))
        return
    pinned = int(m.group(1))
    if pinned != lanes:
        findings.append(Finding(
            "src/util/rng.hpp", enum_line, "rng-lane-pin",
            f"RngPurpose has {lanes} lanes but tests/rng_test.cpp pins "
            f"{pinned}: a new lane changes the round_stream_key packing — "
            "add golden vectors for it in tests/rng_test.cpp and bump the "
            "rng-lane-count marker in the same commit"))


def collect_files(root: str) -> Iterable[str]:
    for scan_dir in SCANNED_DIRS:
        base = os.path.join(root, scan_dir)
        if not os.path.isdir(base):
            continue
        for dirpath, _dirnames, filenames in os.walk(base):
            for name in sorted(filenames):
                if name.endswith(CXX_EXTENSIONS):
                    yield os.path.relpath(os.path.join(dirpath, name), root)
    # noalloc regions may be annotated anywhere under src/ (the warm arena
    # paths live in src/sim but the rule should not silently die if one
    # moves); scan the rest of src/ for markers only.
    src = os.path.join(root, "src")
    if os.path.isdir(src):
        for dirpath, _dirnames, filenames in os.walk(src):
            for name in sorted(filenames):
                rel = os.path.relpath(os.path.join(dirpath, name), root)
                if name.endswith(CXX_EXTENSIONS) and not any(
                        rel.replace(os.sep, "/").startswith(d + "/")
                        for d in SCANNED_DIRS):
                    yield rel


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of this script)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule ids and exit")
    args = parser.parse_args(argv)
    if args.list_rules:
        for rule in RULES:
            print(rule)
        return 0
    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isdir(os.path.join(root, "src")):
        print(f"flip_lint: no src/ under '{root}'", file=sys.stderr)
        return 2

    findings: List[Finding] = []
    seen = set()
    for rel in collect_files(root):
        if rel in seen:
            continue
        seen.add(rel)
        lint_file(root, rel, findings)
    lint_rng_lane_pin(root, findings)

    for finding in sorted(findings, key=lambda f: (f.path, f.line)):
        print(finding)
    if findings:
        print(f"flip_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print(f"flip_lint: clean ({len(seen)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
