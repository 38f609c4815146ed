#!/usr/bin/env sh
# Local mirror of .github/workflows/ci.yml: the repo's tier-1 verification
# plus the flipsim CLI and daemon smokes.
# Usage: ./ci.sh [build-dir]   (default: build)
set -eu

BUILD_DIR="${1:-build}"

# Determinism lint gate, before anything compiles: zero findings over the
# tree, and the linter's own unit suite (seeded violations per rule class)
# must hold. ctest registers the same two checks when a Python interpreter
# is found at configure time; here in the CI mirror the interpreter is a
# hard requirement so the gate cannot silently vanish.
if command -v python3 >/dev/null 2>&1; then
  python3 tools/flip_lint.py
  python3 tools/flip_lint_test.py
else
  echo "python3 is required for the flip_lint gate" >&2
  exit 1
fi

# FLIP_BUILD_BENCH is forced ON because the perf gate below needs
# bench_engine_perf (a stale cache could have it disabled). FLIP_FUZZ adds
# the fuzz/ harnesses and their per-target corpus-replay smoke to ctest.
cmake -B "$BUILD_DIR" -S . -DFLIP_WERROR=ON -DFLIP_BUILD_BENCH=ON \
  -DFLIP_FUZZ=ON
cmake --build "$BUILD_DIR" -j
# Note: pass -j an explicit value — bare `ctest -j` swallows the next
# argument as the job count on CMake < 3.29.
(cd "$BUILD_DIR" && ctest --output-on-failure -j "$(nproc)")

# Curated clang-tidy profile (.clang-tidy at the repo root) over the
# exported compile database. Self-skips when the toolchain has no
# clang-tidy (the reference CI container is GCC-only); environments that
# do ship it — developer machines, editor integrations — get the full
# pass. docs/TOOLING.md describes what this layer catches.
if command -v clang-tidy >/dev/null 2>&1 && \
   [ -f "$BUILD_DIR/compile_commands.json" ]; then
  find src tools -name '*.cpp' -print | \
    xargs clang-tidy -p "$BUILD_DIR" --quiet
else
  echo "clang-tidy not found (or no compile database); skipping tidy pass" >&2
fi

# CLI and daemon smokes (tools/cli_smoke.sh): three flipsim sweeps with
# their JSON validated, then a resident daemon whose served sweeps must
# match the one-shot CLI. The JSON lands in the build dir; CI uploads it
# as an artifact.
sh tools/cli_smoke.sh "$BUILD_DIR"

# Surrogate accuracy gate: run the CI-sized surrogate-vs-batch error-band
# harness (flipsim --validate-surrogate over every supported registry
# entry) and audit the flipsim-validate-v1 document it writes — the script
# recomputes each cell's |error| <= band verdict from the raw numbers, so
# a broken emitter fails like a broken model. The committed trajectory
# artifact (larger n, more trials) is audited the same way so an
# out-of-band cell can't be committed as "reference". Then a bench_surrogate
# smoke: the mean-field engine must answer an n = 10^8 cell without the
# exact engines' hours.
if command -v python3 >/dev/null 2>&1; then
  python3 tools/check_surrogate_accuracy.py "$BUILD_DIR/tools/flipsim" \
    "$BUILD_DIR/flipsim_validate_surrogate.json" --n 1024 --trials 24
  python3 tools/check_surrogate_accuracy.py --check \
    bench/results/VALIDATION_surrogate.json
else
  echo "python3 not found; skipping surrogate accuracy gate" >&2
fi
"$BUILD_DIR/bench/bench_surrogate" --n 100000000 --evals 2 \
  --json "$BUILD_DIR/bench_surrogate_smoke.json" >/dev/null

# Fast-path perf gate (Release builds only — the batch/classic speedup is
# an optimization property, meaningless at -O0): re-run the CI-sized
# engine A/B from docs/PERFORMANCE.md and fail if the measured speedup
# regressed more than 20% against the committed
# bench/results/BENCH_engine_perf.json point. The shared script gates the
# speedup RATIO, not absolute wall-clock, so slower CI machines don't
# trip it.
BUILD_TYPE="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$BUILD_DIR/CMakeCache.txt")"
if [ "$BUILD_TYPE" = "Release" ] && command -v python3 >/dev/null 2>&1; then
  python3 tools/check_engine_perf.py "$BUILD_DIR/bench/bench_engine_perf" \
    bench/results/BENCH_engine_perf.json "$BUILD_DIR/bench_engine_perf.json"
  # Sharded-engine gate: single-trial shard scaling at the CI size. The
  # script is hardware-aware (docstring): it gates the committed speedup
  # on machines with a matching committed core count, and bounded shard
  # OVERHEAD everywhere else, so 1-core and 64-core runners both get a
  # meaningful check.
  python3 tools/check_engine_perf.py --shards "$BUILD_DIR/bench/bench_shards" \
    bench/results/BENCH_shards.json "$BUILD_DIR/bench_shards.json"
else
  echo "skipping perf gates (build type: ${BUILD_TYPE:-unknown})"
fi

# Repository benchmark: perfbench/ calls the pooled run_breathe and the
# detail:: phase loops directly, so a library change that breaks it must
# fail here. The suite builds the perfbench binary (always Release, into
# .bench_build/), runs its --selftest, checks the metric catalogue, and
# runs every workload for 1 s traced and untraced:
# the per-trial conservation check, the run_sweep aggregate replay and the
# shards=4 == shards=1 digest run on the build the benchmark measures, and
# each run must report failed == 0 (~1 min).
if command -v python3 >/dev/null 2>&1; then
  python3 perfbench/test_perfbench.py
else
  echo "python3 not found; skipping the perfbench checks" >&2
fi

# ThreadSanitizer pass over the sharded engine: the intra-trial shard
# phases (route/deliver AND the churn liveness phase with its per-shard
# delta merge) and the ThreadPool's queue-free fork-join are the only
# cross-thread code in the repo; race-check them under a dedicated
# instrumented build.
# The filter includes the churn-enabled sharded tests, the
# dynamic-scenario AND sparse-topology sweep matrices (per-round graph
# rewiring + the locality-partitioned sharded route run under
# SweepDeterminism/Registry/PropertyDifferential), whose sharded
# complete-graph trials drive the same route_scatter and deliver loops
# every build ships. The service layer runs here too: the sweep
# daemon's ingest/runner threads, the ring-buffer handoff, the framing
# helpers, and the per-thread TrialArena leases with warm sharded trials
# on a real pool (ServiceTest/RingBufferTest/FrameTest/TrialArenaTest —
# none need the flipsim binary, so FLIP_BUILD_TOOLS=OFF is fine). Skip
# with FLIP_SKIP_TSAN=1 (e.g. toolchains without tsan runtimes).
if [ "${FLIP_SKIP_TSAN:-0}" != "1" ]; then
  TSAN_DIR="${BUILD_DIR}-tsan"
  cmake -B "$TSAN_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DFLIP_TSAN=ON -DFLIP_BUILD_BENCH=OFF \
    -DFLIP_BUILD_EXAMPLES=OFF -DFLIP_BUILD_TOOLS=OFF
  cmake --build "$TSAN_DIR" -j
  (cd "$TSAN_DIR" && ctest --output-on-failure -j "$(nproc)" \
    -R 'BatchEngineTest|SweepDeterminismTest|ThreadPoolTest|PropertyDifferentialTest|ServiceTest|RingBufferTest|FrameTest|TrialArenaTest|RegistryTest.TopologyEntriesRunBitEqualAcrossSubstratesAndShards')
else
  echo "skipping ThreadSanitizer pass (FLIP_SKIP_TSAN=1)"
fi

# AddressSanitizer + UndefinedBehaviorSanitizer pass: the FULL ctest suite
# (the 21-second suite is cheap even instrumented; the build dominates) —
# the packed SoA paths and the per-thread arenas are exactly where a
# one-past-the-end write hides from the uninstrumented build — plus the
# fuzz harnesses' corpus smoke and tools/cli_smoke.sh (the flipsim sweeps
# and the live daemon smoke, served streams checked against the one-shot
# CLI under instrumentation). halt_on_error + detect_leaks: any report
# is a hard failure. Skip with FLIP_SKIP_ASAN=1 (e.g. toolchains without
# the runtimes). TSan is mutually exclusive with ASan (CMake enforces it),
# hence the separate tree.
if [ "${FLIP_SKIP_ASAN:-0}" != "1" ]; then
  ASAN_OPTIONS="detect_leaks=1:strict_string_checks=1:check_initialization_order=1:detect_stack_use_after_return=1"
  UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"
  export ASAN_OPTIONS UBSAN_OPTIONS
  ASAN_DIR="${BUILD_DIR}-asan"
  cmake -B "$ASAN_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DFLIP_ASAN=ON -DFLIP_UBSAN=ON -DFLIP_FUZZ=ON \
    -DFLIP_WERROR=ON -DFLIP_BUILD_BENCH=OFF -DFLIP_BUILD_EXAMPLES=OFF
  cmake --build "$ASAN_DIR" -j
  (cd "$ASAN_DIR" && ctest --output-on-failure -j "$(nproc)")

  # The CLI and daemon smokes under ASan+UBSan: the resident service is
  # the one component whose lifetime outlives a test binary — leases, ring
  # buffer, framing and shutdown all run instrumented here.
  sh tools/cli_smoke.sh "$ASAN_DIR"
  unset ASAN_OPTIONS UBSAN_OPTIONS
else
  echo "skipping ASan+UBSan pass (FLIP_SKIP_ASAN=1)"
fi
