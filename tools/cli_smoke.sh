#!/usr/bin/env sh
# End-to-end smokes of the flipsim CLI and its sweep daemon, shared by
# ci.sh and .github/workflows/ci.yml for the plain build and the
# ASan+UBSan build alike.
# Usage: tools/cli_smoke.sh BUILD_DIR   (needs BUILD_DIR/tools/flipsim and
# python3; writes its JSON, JSONL and log files into BUILD_DIR)
#
# 1. Sweeps: flipsim must enumerate the registry and emit schema-valid
#    flipsim-sweep-v1 JSON for a small static sweep, a dynamic-environment
#    one (correlated noise bursts) and a sparse-topology one (the
#    --topology override on a graph preset, exercising the GraphRecipient
#    route and per-round rewiring end to end).
# 2. Daemon: `flipsim --serve` on an ephemeral port answers --ping, streams
#    an exact and a surrogate client sweep whose lines are valid JSON and
#    identical (timing fields cut) to the one-shot CLI's --jsonl output,
#    and exits cleanly on the wire shutdown command (docs/SERVICE.md).
# 3. Checkpoint/resume: a 3-cell --jsonl sweep with --checkpoint leaves
#    the request's flipsvc/1 text at resume_from=3; set back to 1 with
#    the JSONL cut to its first line, --resume writes the uninterrupted
#    run's lines (timing fields cut), one-shot and through the daemon,
#    and one-shot at another --threads and --shards. --resume with
#    another --n list exits 2, and so does a resumed --json (its document
#    would hold only the resumed cells).
set -eu

if [ "$#" -ne 1 ]; then
  echo "usage: $0 BUILD_DIR" >&2
  exit 2
fi
BUILD_DIR="$1"
FLIPSIM="$BUILD_DIR/tools/flipsim"

"$FLIPSIM" --list >/dev/null
"$FLIPSIM" --scenario broadcast_small --trials 8 \
  --json "$BUILD_DIR/flipsim_smoke.json"
"$FLIPSIM" --scenario broadcast_burst --n 256 --eps 0.3 --trials 4 \
  --json "$BUILD_DIR/flipsim_dynamic.json"
"$FLIPSIM" --scenario broadcast_dynamic_rewire --n 256 --eps 0.3 \
  --trials 4 --topology dynamic:8:0.2 \
  --json "$BUILD_DIR/flipsim_topology.json"
python3 - "$BUILD_DIR/flipsim_smoke.json" "$BUILD_DIR/flipsim_dynamic.json" \
  "$BUILD_DIR/flipsim_topology.json" <<'EOF'
import json, sys

def first_point(path, scenario):
    doc = json.load(open(path))
    assert doc["schema"] == "flipsim-sweep-v1", doc.get("schema")
    assert doc["scenario"] == scenario, doc.get("scenario")
    assert doc["engine"] == "batch", doc.get("engine")
    assert doc["points"], path + ": sweep produced no grid points"
    return doc["points"][0]

static_path, dynamic_path, topology_path = sys.argv[1:]
point = first_point(static_path, "broadcast_small")
assert point["trials"] == 8
assert {"params", "success_rate", "rounds", "messages", "wall_seconds"} \
    <= point.keys(), sorted(point.keys())
assert point["params"]["schedule"] == "static", point["params"]
assert point["params"]["churn"] == "none", point["params"]
print("flipsim smoke JSON ok:", static_path)

point = first_point(dynamic_path, "broadcast_burst")
assert point["params"]["schedule"].startswith("burst("), point["params"]
assert point["params"]["topology"] == "complete", point["params"]
assert "convergence_rounds" in point, sorted(point.keys())
print("flipsim dynamic-scenario JSON ok:", dynamic_path)

point = first_point(topology_path, "broadcast_dynamic_rewire")
assert point["params"]["topology"] == "dynamic(k=8 p=0.2)", point["params"]
print("flipsim topology JSON ok:", topology_path)
EOF

"$FLIPSIM" --serve 0 > "$BUILD_DIR/flipsim_serve.log" &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT
PORT=""
# Up to 10 s: an instrumented build starts slowly.
for _ in $(seq 1 100); do
  PORT="$(sed -n 's/^flipsim: serving on 127\.0\.0\.1://p' \
    "$BUILD_DIR/flipsim_serve.log")"
  [ -n "$PORT" ] && break
  sleep 0.1
done
if [ -z "$PORT" ]; then
  echo "flipsim --serve never reported its port" >&2
  exit 1
fi
"$FLIPSIM" --connect "$PORT" --ping >/dev/null
"$FLIPSIM" --connect "$PORT" --scenario broadcast_small --trials 8 \
  --jsonl "$BUILD_DIR/flipsim_served.jsonl" --quiet
"$FLIPSIM" --scenario broadcast_small --trials 8 \
  --jsonl "$BUILD_DIR/flipsim_oneshot.jsonl" --quiet
"$FLIPSIM" --connect "$PORT" --scenario broadcast --engine surrogate \
  --n 1000000,1000000000 --eps 0.1,0.4 --trials 16 \
  --jsonl "$BUILD_DIR/flipsim_served_surrogate.jsonl" --quiet
"$FLIPSIM" --scenario broadcast --engine surrogate \
  --n 1000000,1000000000 --eps 0.1,0.4 --trials 16 \
  --jsonl "$BUILD_DIR/flipsim_oneshot_surrogate.jsonl" --quiet
python3 - "$BUILD_DIR/flipsim_served.jsonl" \
  "$BUILD_DIR/flipsim_oneshot.jsonl" \
  "$BUILD_DIR/flipsim_served_surrogate.jsonl" \
  "$BUILD_DIR/flipsim_oneshot_surrogate.jsonl" <<'EOF'
import json, sys
strip = lambda lines: [l.split('"trial_seconds"')[0] for l in lines]
for served_path, oneshot_path in zip(sys.argv[1::2], sys.argv[2::2]):
    served = open(served_path).read().splitlines()
    oneshot = open(oneshot_path).read().splitlines()
    assert served, served_path + ": served sweep streamed no lines"
    for line in served:
        point = json.loads(line)
        assert {"params", "success_rate", "rounds",
                "messages"} <= point.keys(), sorted(point.keys())
    assert strip(served) == strip(oneshot), \
        served_path + ": served sweep diverged from the one-shot CLI"
    print("flipsim service smoke ok:", served_path, len(served), "line(s)")
EOF

CHK="$BUILD_DIR/flipsim_resume.chk"
printf 'flipsvc/1 sweep\nscenario=broadcast_small\nn=64,128,256\ntrials=2\nresume_from=3\n' \
  > "$BUILD_DIR/flipsim_resume_expected.chk"
printf 'flipsvc/1 sweep\nscenario=broadcast_small\nn=64,128,256\ntrials=2\nshards=2\nresume_from=3\n' \
  > "$BUILD_DIR/flipsim_resume_expected_threads.chk"
printf 'flipsvc/1 sweep\nscenario=broadcast_small\nn=64,128,256\ntrials=2\nthreads=1\nresume_from=3\n' \
  > "$BUILD_DIR/flipsim_resume_resumed_threads.chk"
# threads: written at the default thread count on 2 shards, resumed on one
# thread and one shard (no output bit depends on either).
for MODE in oneshot connect threads; do
  CONNECT=""
  WRITE_AT=""
  RESUME_AT=""
  EXPECTED="$BUILD_DIR/flipsim_resume_expected.chk"
  RESUMED_CHK="$EXPECTED"
  if [ "$MODE" = connect ]; then CONNECT="--connect $PORT"; fi
  if [ "$MODE" = threads ]; then
    WRITE_AT="--shards 2"
    RESUME_AT="--threads 1"
    EXPECTED="$BUILD_DIR/flipsim_resume_expected_threads.chk"
    RESUMED_CHK="$BUILD_DIR/flipsim_resume_resumed_threads.chk"
  fi
  FULL="$BUILD_DIR/flipsim_resume_full_$MODE.jsonl"
  RESUMED="$BUILD_DIR/flipsim_resume_$MODE.jsonl"
  rm -f "$CHK"
  # $CONNECT, $WRITE_AT and $RESUME_AT are unquoted on purpose: empty, or
  # two words.
  "$FLIPSIM" $CONNECT --scenario broadcast_small --n 64,128,256 --trials 2 \
    $WRITE_AT --jsonl "$FULL" --checkpoint "$CHK" --quiet
  cmp "$CHK" "$EXPECTED"
  sed 's/^resume_from=3$/resume_from=1/' "$CHK" > "$CHK.edit"
  mv "$CHK.edit" "$CHK"
  head -n 1 "$FULL" > "$RESUMED"
  "$FLIPSIM" $CONNECT --scenario broadcast_small --n 64,128,256 --trials 2 \
    $RESUME_AT --jsonl "$RESUMED" --checkpoint "$CHK" --resume --quiet
  cmp "$CHK" "$RESUMED_CHK"
  python3 - "$FULL" "$RESUMED" <<'EOF'
import sys
strip = lambda path: [l.split('"trial_seconds"')[0]
                      for l in open(path).read().splitlines()]
full, resumed = sys.argv[1:]
assert len(strip(full)) == 3, full
assert strip(resumed) == strip(full), resumed + ": resumed sweep diverged"
print("flipsim resume smoke ok:", resumed)
EOF
done
CODE=0
"$FLIPSIM" --scenario broadcast_small --n 64,128 --trials 2 --quiet \
  --checkpoint "$CHK" --resume 2> "$BUILD_DIR/flipsim_resume.err" || CODE=$?
if [ "$CODE" -ne 2 ] || \
   ! grep -q "records a different sweep" "$BUILD_DIR/flipsim_resume.err"; then
  echo "flipsim --resume with another --n list: exit $CODE" >&2
  cat "$BUILD_DIR/flipsim_resume.err" >&2
  exit 1
fi
echo "flipsim resume smoke ok: a different sweep is refused"
CODE=0
"$FLIPSIM" --scenario broadcast_small --n 64,128,256 --trials 2 --threads 1 \
  --json "$BUILD_DIR/flipsim_resume.json" --checkpoint "$CHK" --resume \
  2> "$BUILD_DIR/flipsim_resume.err" || CODE=$?
if [ "$CODE" -ne 2 ] || ! grep -q -- "--jsonl" "$BUILD_DIR/flipsim_resume.err"
then
  echo "flipsim --resume --json: exit $CODE" >&2
  cat "$BUILD_DIR/flipsim_resume.err" >&2
  exit 1
fi
echo "flipsim resume smoke ok: a resumed --json is refused"

"$FLIPSIM" --connect "$PORT" --shutdown
wait "$SERVE_PID"
trap - EXIT
