#!/usr/bin/env python3
"""Unit tests for tools/flip_lint.py.

Each rule class is proven with SEEDED violations in throwaway fixture
trees: the gate is only trustworthy if a planted rand() / unordered_map /
noalloc-region allocation / lane-count drift is actually caught, and if
the legitimate idioms (allowlisted files, comments, reference bindings,
justified allow() markers) are actually NOT caught. The final test runs
the linter over the real repository and requires zero findings — the same
invocation ctest and ci.sh gate on.

Run: python3 tools/flip_lint_test.py
"""

import os
import shutil
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import flip_lint  # noqa: E402

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class FixtureTree:
    """A temp dir shaped like the repo (src/core, src/sim, ...)."""

    def __init__(self):
        self.root = tempfile.mkdtemp(prefix="flip_lint_test_")

    def write(self, rel, content):
        path = os.path.join(self.root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)

    def cleanup(self):
        shutil.rmtree(self.root, ignore_errors=True)


def run_lint(root):
    """Returns the linter's findings for a tree, as (path, rule) pairs."""
    findings = []
    seen = set()
    for rel in flip_lint.collect_files(root):
        if rel in seen:
            continue
        seen.add(rel)
        flip_lint.lint_file(root, rel, findings)
    flip_lint.lint_rng_lane_pin(root, findings)
    return findings


class LintFixtureTest(unittest.TestCase):
    def setUp(self):
        self.tree = FixtureTree()
        self.addCleanup(self.tree.cleanup)

    def findings(self):
        return run_lint(self.tree.root)

    def assert_rules(self, expected):
        got = sorted((f.path, f.rule) for f in self.findings())
        self.assertEqual(got, sorted(expected))

    # --- nondeterminism -------------------------------------------------

    def test_each_forbidden_token_class_is_caught(self):
        cases = [
            ("int x = rand();", True),
            ("std::mt19937 gen(42);", True),
            ("std::mt19937_64 gen(42);", True),
            ("std::random_device rd;", True),
            ("std::uniform_int_distribution<int> d(0, 9);", True),
            ("#include <random>", True),
            ("auto t = std::chrono::system_clock::now();", True),
            ("auto t = std::chrono::steady_clock::now();", True),
            ("auto t = std::chrono::high_resolution_clock::now();", True),
            ("time_t t = time(nullptr);", True),
            ("gettimeofday(&tv, nullptr);", True),
            ("clock_gettime(CLOCK_MONOTONIC, &ts);", True),
            # Benign near-misses must NOT be caught.
            ("int operand = 3; // not rand()", False),
            ("double grand_total = 0;", False),
            ("int timer = runtime(x);", False),
        ]
        for idx, (line, _) in enumerate(cases):
            self.tree.write(f"src/core/case{idx}.cpp", line + "\n")
        findings = self.findings()
        for idx, (line, should_flag) in enumerate(cases):
            flagged = any(f.path.endswith(f"case{idx}.cpp") and
                          f.rule == "nondeterminism" for f in findings)
            self.assertEqual(flagged, should_flag, f"case {idx}: {line!r}")

    def test_every_scanned_layer_is_scanned(self):
        for layer in ("core", "sim", "simd", "workload"):
            self.tree.write(f"src/{layer}/bad.cpp", "int x = rand();\n")
        self.assert_rules([(f"src/{layer}/bad.cpp", "nondeterminism")
                           for layer in ("core", "sim", "simd", "workload")])

    def test_allowlisted_files_are_exempt(self):
        self.tree.write("src/sim/trial.cpp",
                        "auto t = std::chrono::steady_clock::now();\n")
        self.assert_rules([])

    def test_out_of_scope_layers_are_not_scanned(self):
        self.tree.write("src/cli/sweep2.cpp",
                        "auto t = std::chrono::steady_clock::now();\n")
        self.tree.write("src/net/timing.cpp", "time_t t = time(nullptr);\n")
        self.assert_rules([])

    def test_tokens_in_comments_and_strings_are_ignored(self):
        self.tree.write("src/core/doc.cpp", "\n".join([
            "// discussing std::mt19937 in a comment is fine",
            "/* block comment: rand() system_clock */",
            'const char* msg = "do not use random_device";',
            "int real_code = 1;",
        ]) + "\n")
        self.assert_rules([])

    def test_allow_marker_with_justification_suppresses(self):
        self.tree.write("src/core/justified.cpp", "\n".join([
            "// flip-lint: allow(nondeterminism) -- fixture proves allows",
            "int x = rand();",
        ]) + "\n")
        self.assert_rules([])

    def test_allow_marker_without_justification_is_a_finding(self):
        self.tree.write("src/core/unjustified.cpp", "\n".join([
            "// flip-lint: allow(nondeterminism)",
            "int x = rand();",
        ]) + "\n")
        self.assert_rules([("src/core/unjustified.cpp", "nondeterminism")])

    def test_allow_marker_for_wrong_rule_does_not_suppress(self):
        self.tree.write("src/core/wrongrule.cpp", "\n".join([
            "// flip-lint: allow(noalloc) -- wrong rule",
            "int x = rand();",
        ]) + "\n")
        self.assert_rules([("src/core/wrongrule.cpp", "nondeterminism")])

    # --- unordered-iteration --------------------------------------------

    def test_unordered_containers_are_caught_in_simulation_layers(self):
        self.tree.write("src/sim/table.cpp",
                        "std::unordered_map<int, int> counts;\n")
        self.tree.write("src/core/members.hpp",
                        "std::unordered_set<AgentId> seen_;\n")
        self.assert_rules([("src/sim/table.cpp", "unordered-iteration"),
                           ("src/core/members.hpp", "unordered-iteration")])

    def test_unordered_outside_simulation_layers_is_fine(self):
        self.tree.write("src/net/cache.cpp",
                        "std::unordered_map<int, int> sessions;\n")
        self.assert_rules([])

    # --- noalloc --------------------------------------------------------

    def test_allocations_inside_noalloc_region_are_caught(self):
        cases = [
            "auto* p = new int[8];",
            "void* m = malloc(64);",
            "auto u = std::make_unique<int>(3);",
            "buffer.resize(100);",
            "buffer.reserve(100);",
            "std::vector<int> local(8);",
        ]
        for idx, line in enumerate(cases):
            self.tree.write(f"src/sim/hot{idx}.cpp", "\n".join([
                "// flip-lint: noalloc",
                line,
                "// flip-lint: end-noalloc",
            ]) + "\n")
        findings = self.findings()
        for idx, line in enumerate(cases):
            flagged = any(f.path.endswith(f"hot{idx}.cpp") and
                          f.rule == "noalloc" for f in findings)
            self.assertTrue(flagged, f"not caught: {line!r}")

    def test_same_tokens_outside_region_are_fine(self):
        self.tree.write("src/sim/cold.cpp", "\n".join([
            "void prepare() { buffer.resize(100); }",
            "// flip-lint: noalloc",
            "void hot() { buffer[0] = 1; }",
            "// flip-lint: end-noalloc",
            "void teardown() { auto* p = new int[8]; }",
        ]) + "\n")
        self.assert_rules([])

    def test_reference_binding_is_not_construction(self):
        self.tree.write("src/sim/ref.cpp", "\n".join([
            "// flip-lint: noalloc",
            "std::vector<Msg>& bucket = src.out[d];",
            "bucket.clear();",
            "// flip-lint: end-noalloc",
        ]) + "\n")
        self.assert_rules([])

    def test_justified_allow_inside_region(self):
        self.tree.write("src/sim/coldpath.cpp", "\n".join([
            "// flip-lint: noalloc",
            "// flip-lint: allow(noalloc) -- cold path, grows once then",
            "// recycles forever",
            "arenas.push_back(std::make_unique<Arena>());",
            "// flip-lint: end-noalloc",
        ]) + "\n")
        self.assert_rules([])

    def test_unclosed_region_is_a_finding(self):
        self.tree.write("src/sim/unclosed.cpp", "\n".join([
            "// flip-lint: noalloc",
            "int x = 1;",
        ]) + "\n")
        self.assert_rules([("src/sim/unclosed.cpp", "noalloc")])

    def test_end_without_begin_is_a_finding(self):
        self.tree.write("src/sim/stray.cpp", "\n".join([
            "int x = 1;",
            "// flip-lint: end-noalloc",
        ]) + "\n")
        self.assert_rules([("src/sim/stray.cpp", "noalloc")])

    def test_noalloc_regions_work_outside_scanned_dirs(self):
        # The warm arena paths could move (e.g. into src/net's runner);
        # regions must still bite there.
        self.tree.write("src/net/runner.cpp", "\n".join([
            "// flip-lint: noalloc",
            "auto* p = new Job();",
            "// flip-lint: end-noalloc",
        ]) + "\n")
        self.assert_rules([("src/net/runner.cpp", "noalloc")])

    # --- rng-lane-pin ---------------------------------------------------

    RNG_HPP = "\n".join([
        "enum class RngPurpose : std::uint64_t {",
        "  kRoute = 0,",
        "  kChannel = 1,",
        "  kProtocol = 2,",
        "};",
    ]) + "\n"

    def test_matching_lane_pin_is_clean(self):
        self.tree.write("src/util/rng.hpp", self.RNG_HPP)
        self.tree.write("tests/rng_test.cpp", "// flip-lint: rng-lane-count=3\n")
        self.assert_rules([])

    def test_lane_count_drift_is_caught(self):
        self.tree.write("src/util/rng.hpp", self.RNG_HPP)
        self.tree.write("tests/rng_test.cpp", "// flip-lint: rng-lane-count=2\n")
        self.assert_rules([("src/util/rng.hpp", "rng-lane-pin")])

    def test_missing_marker_is_caught(self):
        self.tree.write("src/util/rng.hpp", self.RNG_HPP)
        self.tree.write("tests/rng_test.cpp", "// no marker here\n")
        self.assert_rules([("tests/rng_test.cpp", "rng-lane-pin")])

    def test_new_lane_without_new_goldens_is_caught(self):
        grown = self.RNG_HPP.replace("};", "  kNewLane = 3,\n};")
        self.tree.write("src/util/rng.hpp", grown)
        self.tree.write("tests/rng_test.cpp", "// flip-lint: rng-lane-count=3\n")
        self.assert_rules([("src/util/rng.hpp", "rng-lane-pin")])


class RealTreeTest(unittest.TestCase):
    def test_repository_is_clean(self):
        findings = run_lint(REPO_ROOT)
        self.assertEqual([str(f) for f in findings], [])

    def test_repository_lane_pin_matches_reality(self):
        counted = flip_lint.count_rng_lanes(REPO_ROOT)
        self.assertIsNotNone(counted)
        lanes, _line = counted
        # The 3-bit purpose field of round_stream_key: 8 lanes, full.
        self.assertEqual(lanes, 8)


if __name__ == "__main__":
    unittest.main()
