#!/usr/bin/env bash
# CLI smoke test: runs every madtn command on the packaged task and on small
# hand-written tasks, and checks exit codes, stderr lines and written bytes.
# Run it from anywhere with
#
#     bash tools/cli_smoke.sh
#
# It exits 0 when every check passes, and prints the failing check otherwise.
set -eo pipefail
cd "$(dirname "$0")/.."
task=src/madtn/data/packaging.daisy.json
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
check() {
  expected=$1
  shift
  status=0
  PYTHONPATH=src python -m madtn "$@" >"$out/stdout" 2>"$out/stderr" || status=$?
  cat "$out/stdout" "$out/stderr"
  if [ "$status" -ne "$expected" ]; then
    echo "madtn $*: exit $status, expected $expected"
    exit 1
  fi
  if grep -q Traceback "$out/stderr"; then
    echo "madtn $*: printed a traceback"
    exit 1
  fi
}
check 0 validate "$task"
check 0 compile "$task"
check 0 schedule "$task"
check 0 plan "$task"
check 0 simulate "$task" --seed 7 --out "$out"
check 0 analyze "$task" "$out/trace-7.json"
# Written documents are byte for byte what json.dumps(indent=2) writes.
cp "$out/stdout" "$out/report.json"
python -c 'import json, sys
for path in sys.argv[1:]:
    with open(path) as f:
        text = f.read()
    if text != json.dumps(json.loads(text), indent=2) + "\n":
        sys.exit(f"{path}: not the bytes json.dumps(indent=2) writes")' "$out/trace-7.json" "$out/report.json"
# Runs of one simulate share a compiled network; each trace is what a run of its own writes.
printf '%s\n' '{"human": {"duration_mode": "uniform", "reaction_delay": 0.5}, "robot": {"duration_mode": "truncated_normal"}}' > "$out/profiles.json"
mkdir "$out/runs" "$out/single"
check 0 simulate "$task" --seed 7 --runs 3 --profiles "$out/profiles.json" --out "$out/runs"
for seed in 7 8 9; do
  check 0 simulate "$task" --seed "$seed" --profiles "$out/profiles.json" --out "$out/single"
  cmp "$out/runs/trace-$seed.json" "$out/single/trace-$seed.json" || { echo "simulate --runs 3: trace-$seed.json differs from a single run"; exit 1; }
  check 0 analyze "$task" "$out/runs/trace-$seed.json"
done
# A profile for an agent the task does not declare is refused, and no trace is written.
printf '%s\n' '{"ghost": {"duration_mode": "uniform"}}' > "$out/ghost-profiles.json"
mkdir "$out/haunted"
check 1 simulate "$task" --seed 1 --profiles "$out/ghost-profiles.json" --out "$out/haunted"
grep -q ghost "$out/stderr" || { echo "simulate --profiles ghost-profiles.json: agent not named"; exit 1; }
test -z "$(ls -A "$out/haunted")" || { echo "simulate --profiles ghost-profiles.json: wrote a trace"; exit 1; }
# A trace with an event for a petal the task lacks is no run of the task.
python -c 'import json, sys; d = json.load(open(sys.argv[1])); d["events"].append(dict(d["events"][-1], petal="Ghost", action="Haunt")); json.dump(d, open(sys.argv[2], "w"))' "$out/trace-7.json" "$out/ghost.json"
check 1 analyze "$task" "$out/ghost.json"
grep -q Ghost "$out/stderr" || { echo "analyze ghost.json: extra event not named"; exit 1; }
python -c 'import json, sys; d = json.load(open(sys.argv[1])); d["start_time"] = 1.0; json.dump(d, open(sys.argv[2], "w"))' "$out/trace-7.json" "$out/early.json"
check 1 analyze "$task" "$out/early.json"
grep -q "before start_time" "$out/stderr" || { echo "analyze early.json: early event not named"; exit 1; }
# A window from -1.7e308 to 1.7e308 overflows the makespan; text output refuses it as JSON does.
python -c 'import json, sys; d = json.load(open(sys.argv[1])); d["start_time"] = -1.7e308; d["events"][-1]["end"] = 1.7e308; json.dump(d, open(sys.argv[2], "w"))' "$out/trace-7.json" "$out/overflow.json"
check 1 analyze "$task" "$out/overflow.json" --output text
grep -q "makespan: inf is not a finite number" "$out/stderr" || { echo "analyze --output text overflow.json: figure not named"; exit 1; }
test ! -s "$out/stdout" || { echo "analyze --output text overflow.json: printed a report"; exit 1; }
printf '\xff\xfe{}' > "$out/undecodable.json"
check 1 validate "$out/undecodable.json"
check 1 compile "$task" --transition nan
grep -q transition "$out/stderr" || { echo "compile --transition nan: flag not named"; exit 1; }
check 1 schedule "$task" --transition inf
grep -q transition "$out/stderr" || { echo "schedule --transition inf: flag not named"; exit 1; }
# Three arcs of -0.9 ns make a ring weighing -2.7 ns; plan must end on it.
printf '%s\n' '{"agents":[{"id":"human"},{"id":"robot"}],"petals":[{"name":"P","owner":"robot","actions":[{"name":"a","lower":0,"upper":0}]},{"name":"Q","owner":"robot","actions":[{"name":"b","lower":0,"upper":0}]},{"name":"R","owner":"robot","actions":[{"name":"c","lower":0,"upper":0}]},{"name":"T","owner":"robot","actions":[{"name":"t","lower":5,"upper":6}]}],"constraints":[{"kind":"other","source":"P.a.end","target":"Q.b.start","lower":null,"upper":-9e-10},{"kind":"other","source":"Q.b.end","target":"R.c.start","lower":null,"upper":-9e-10},{"kind":"other","source":"R.c.end","target":"P.a.start","lower":null,"upper":-9e-10}]}' > "$out/ring.json"
status=0
PYTHONPATH=src timeout 60 python -m madtn plan "$out/ring.json" || status=$?
if [ "$status" -ne 0 ]; then
  echo "madtn plan ring.json: exit $status, expected 0"
  exit 1
fi
# Two lanes, R0 -> H0 and H1 -> R1: four of plan's orders share one projection
# (each agent's own petal sequence), and every order it prints must compile.
printf '%s\n' '{"agents":[{"id":"human"},{"id":"robot"}],"petals":[{"name":"H0","owner":"human","actions":[{"name":"a","lower":1,"upper":2}]},{"name":"R0","owner":"robot","actions":[{"name":"a","lower":1,"upper":2}]},{"name":"H1","owner":"human","actions":[{"name":"a","lower":1,"upper":2}]},{"name":"R1","owner":"robot","actions":[{"name":"a","lower":1,"upper":2}]}],"constraints":[{"kind":"handoff","source":"R0.a.end","target":"H0.a.start","lower":0,"upper":null},{"kind":"handoff","source":"H1.a.end","target":"R1.a.start","lower":0,"upper":null}],"makespan":[0,2]}' > "$out/lanes.json"
check 0 plan "$out/lanes.json"
cp "$out/stdout" "$out/lanes-orders"
test "$(wc -l < "$out/lanes-orders")" -eq 4 || { echo "madtn plan lanes.json: expected 4 orders"; exit 1; }
while read -r order; do
  check 0 compile "$out/lanes.json" --ordering "$(echo "$order" | tr -d ' ')"
  grep -qx "consistent: yes" "$out/stdout" || { echo "plan lanes.json printed $order, which compile rejects"; exit 1; }
done < "$out/lanes-orders"
# Runs under an explicit ordering, a transition and anticipating profiles: each of
# three runs is what a run of its own writes, and the traces and their reports are
# byte for byte what json.dumps(indent=2) writes.
printf '%s\n' '{"human": {"duration_mode": "uniform", "reaction_delay": 0.25, "anticipation_probability": 0.5, "anticipation_offset": 0.5}, "robot": {"duration_mode": "truncated_normal", "anticipation_probability": 1.0, "anticipation_offset": 0.25}}' > "$out/lanes-profiles.json"
lanes_flags=(--ordering H1,R1,H0,R0 --transition 0.5 --profiles "$out/lanes-profiles.json")
mkdir "$out/lanes-runs" "$out/lanes-single"
check 0 simulate "$out/lanes.json" --seed 3 --runs 3 "${lanes_flags[@]}" --out "$out/lanes-runs"
for seed in 3 4 5; do
  check 0 simulate "$out/lanes.json" --seed "$seed" "${lanes_flags[@]}" --out "$out/lanes-single"
  cmp "$out/lanes-runs/trace-$seed.json" "$out/lanes-single/trace-$seed.json" || { echo "simulate lanes.json --runs 3: trace-$seed.json differs from a single run"; exit 1; }
  check 0 analyze "$out/lanes.json" "$out/lanes-runs/trace-$seed.json"
  cp "$out/stdout" "$out/lanes-report-$seed.json"
done
python -c 'import json, sys
for path in sys.argv[1:]:
    with open(path) as f:
        text = f.read()
    if text != json.dumps(json.loads(text), indent=2) + "\n":
        sys.exit(f"{path}: not the bytes json.dumps(indent=2) writes")' "$out"/lanes-runs/trace-*.json "$out"/lanes-report-*.json
# A run of lanes.json where H1 starts at -0.0 and R0 at 0.0: concurrent activity
# starts at the -0.0, the endpoint the interval-set algebra keeps.
printf '%s\n' '{"agents":["human","robot"],"seed":0,"feasible":true,"start_time":0.0,"events":[{"agent":"robot","petal":"R0","action":"a","start":0.0,"end":1.0},{"agent":"human","petal":"H1","action":"a","start":-0.0,"end":1.5},{"agent":"human","petal":"H0","action":"a","start":1.0,"end":2.0},{"agent":"robot","petal":"R1","action":"a","start":1.5,"end":2.5}]}' > "$out/signed-zero.json"
check 0 analyze "$out/lanes.json" "$out/signed-zero.json" --output text
for line in "concurrent activity: 1.5s (60.0% of makespan)" "idle human: 0.5s (waiting 0s, resting 0.5s)" "R0.a -> H0.a: stale, readiness -0.5s, functional -0.5s"; do
  grep -qF "$line" "$out/stdout" || { echo "analyze --output text signed-zero.json: no line '$line'"; exit 1; }
done
check 0 analyze "$out/lanes.json" "$out/signed-zero.json"
python -c 'import json, math, sys
spans = json.load(open(sys.argv[1]))["concurrent_activity"]["intervals"]
if spans != [[-0.0, 1.0], [1.5, 2.0]] or math.copysign(1.0, spans[0][0]) > 0:
    sys.exit(f"analyze signed-zero.json: concurrent activity {spans}, expected [[-0.0, 1.0], [1.5, 2.0]]")' "$out/stdout"
# A roster that names one agent twice is rejected where the trace is read, so
# one worker alone is never scored as working alongside itself.
printf '%s\n' '{"agents":[{"id":"human"}],"petals":[{"name":"H0","owner":"human","actions":[{"name":"a","lower":1,"upper":2}]}],"constraints":[]}' > "$out/solo.json"
printf '%s\n' '{"agents":["human","human"],"seed":0,"feasible":true,"start_time":0.0,"events":[{"agent":"human","petal":"H0","action":"a","start":0.0,"end":1.0}]}' > "$out/repeated-roster.json"
check 1 analyze "$out/solo.json" "$out/repeated-roster.json"
grep -qF 'agents[1]' "$out/stderr" || { echo "analyze repeated-roster.json: agents[1] not named"; exit 1; }
if [ -s "$out/stdout" ]; then echo "analyze repeated-roster.json: printed a report"; exit 1; fi
# Three-action petals fold to their ends before plan adds an arc, but H0.b.end
# carries a 5 s deadline and stays: it rules out H1, R1, R0, H0 of six candidates.
printf '%s\n' '{"agents":[{"id":"human"},{"id":"robot"}],"petals":[{"name":"H0","owner":"human","actions":[{"name":"a","lower":1,"upper":2},{"name":"b","lower":1,"upper":2},{"name":"c","lower":1,"upper":2}]},{"name":"R0","owner":"robot","actions":[{"name":"a","lower":1,"upper":2},{"name":"b","lower":1,"upper":2},{"name":"c","lower":1,"upper":2}]},{"name":"H1","owner":"human","actions":[{"name":"a","lower":1,"upper":2},{"name":"b","lower":1,"upper":2},{"name":"c","lower":1,"upper":2}]},{"name":"R1","owner":"robot","actions":[{"name":"a","lower":1,"upper":2},{"name":"b","lower":1,"upper":2},{"name":"c","lower":1,"upper":2}]}],"constraints":[{"kind":"handoff","source":"R0.c.end","target":"H0.a.start","lower":0,"upper":null},{"kind":"handoff","source":"H1.c.end","target":"R1.a.start","lower":0,"upper":null},{"kind":"other","source":"Vs","target":"H0.b.end","lower":null,"upper":5}]}' > "$out/deadline.json"
check 0 plan "$out/deadline.json"
cp "$out/stdout" "$out/deadline-orders"
test "$(wc -l < "$out/deadline-orders")" -eq 5 || { echo "madtn plan deadline.json: expected 5 orders"; exit 1; }
while read -r order; do
  check 0 compile "$out/deadline.json" --ordering "$(echo "$order" | tr -d ' ')"
  grep -qx "consistent: yes" "$out/stdout" || { echo "plan deadline.json printed $order, which compile rejects"; exit 1; }
done < "$out/deadline-orders"
# Names with non-ASCII letters, a quote and a backslash: traces and reports are
# written straight from their records, to the bytes json.dumps(indent=2) writes.
printf '%s\n' '{"agents":[{"id":"hümä\"n\\"},{"id":"rø\\bot"}],"petals":[{"name":"Pé\"tal\\1","owner":"hümä\"n\\","actions":[{"name":"añ\"a","lower":1,"upper":2},{"name":"b\\ü","lower":1,"upper":2}]},{"name":"Rø\\2","owner":"rø\\bot","actions":[{"name":"ç\"c","lower":1,"upper":2}]}],"constraints":[{"kind":"handoff","source":"Pé\"tal\\1.b\\ü.end","target":"Rø\\2.ç\"c.start","lower":0,"upper":null}]}' > "$out/names.json"
mkdir "$out/names-runs"
check 0 simulate "$out/names.json" --seed 11 --runs 2 --out "$out/names-runs"
for seed in 11 12; do
  check 0 analyze "$out/names.json" "$out/names-runs/trace-$seed.json"
  cp "$out/stdout" "$out/names-report-$seed.json"
done
python -c 'import json, sys
for path in sys.argv[1:]:
    with open(path) as f:
        text = f.read()
    if text != json.dumps(json.loads(text), indent=2) + "\n":
        sys.exit(f"{path}: not the bytes json.dumps(indent=2) writes")
    if "\\u00fc" not in text or "\\\"" not in text:
        sys.exit(f"{path}: names not escaped")' "$out"/names-runs/trace-*.json "$out"/names-report-*.json
# Two actions of at least 1e308 s under the 60 s cap: their sums overflow, so
# compile refuses the task instead of calling it consistent.
python -c 'import json, sys; d = json.load(open(sys.argv[1])); p = next(p for p in d["petals"] if p["name"] == "Retrieve Object A"); [a.update(lower=1e308, upper=1.5e308) for a in p["actions"][:2]]; json.dump(d, open(sys.argv[2], "w"))' "$task" "$out/overflow-task.json"
check 1 compile "$out/overflow-task.json"
grep -q "^error: bounds too large" "$out/stderr" || { echo "compile overflow-task.json: no error line"; exit 1; }
test ! -s "$out/stdout" || { echo "compile overflow-task.json: printed a verdict"; exit 1; }
# An ordering that names two of the six petals parses, so validate passes the
# task with a warning, and compile refuses it.
python -c 'import json, sys; d = json.load(open(sys.argv[1])); d["ordering"] = ["Retrieve Object A", "Prepare and Pack Object B"]; json.dump(d, open(sys.argv[2], "w"))' "$task" "$out/two-of-six.json"
check 0 validate "$out/two-of-six.json"
grep -q "^warning: .*ordering" "$out/stderr" || { echo "validate two-of-six.json: no ordering warning"; exit 1; }
check 1 compile "$out/two-of-six.json"
check 1 simulate "$task" --seed 7 --out "$out/missing/"
grep -q missing "$out/stderr" || { echo "simulate --out missing/: directory not named"; exit 1; }
if grep -q '\.tmp' "$out/stderr"; then echo "simulate --out missing/: names a temporary file"; exit 1; fi
# An --out target that is a directory is named in the error, not the temporary
# file the write goes through, and nothing is left beside it.
mkdir -p "$out/blocked/trace-7.json"
check 1 simulate "$task" --seed 7 --out "$out/blocked"
grep -q "blocked/trace-7.json'" "$out/stderr" || { echo "simulate --out blocked: target not named"; exit 1; }
if grep -q '\.tmp' "$out/stderr"; then echo "simulate --out blocked: names a temporary file"; exit 1; fi
test "$(ls -A "$out/blocked")" = "trace-7.json" || { echo "simulate --out blocked: left a file behind"; exit 1; }
# Seed 4 of six uniform runs draws two 1.7e308 s actions, which end at
# infinity: stdout stays empty although seeds 1 to 3 wrote their traces.
printf '%s\n' '{"agents":[{"id":"h"},{"id":"r"}],"petals":[{"name":"P","owner":"h","actions":[{"name":"a","lower":0.0,"upper":1.7e308},{"name":"b","lower":0.0,"upper":1.7e308}]},{"name":"Q","owner":"r","actions":[{"name":"c","lower":1,"upper":2}]}],"constraints":[]}' > "$out/huge.json"
printf '%s\n' '{"h": {"duration_mode": "uniform"}}' > "$out/huge-profiles.json"
mkdir "$out/huge-runs"
check 1 simulate "$out/huge.json" --seed 1 --runs 6 --profiles "$out/huge-profiles.json" --out "$out/huge-runs"
test ! -s "$out/stdout" || { echo "simulate huge.json --runs 6: printed to stdout"; exit 1; }
grep -qF "events[2].end" "$out/stderr" || { echo "simulate huge.json --runs 6: events[2].end not named"; exit 1; }
test "$(ls -A "$out/huge-runs" | tr '\n' ' ')" = "trace-1.json trace-2.json trace-3.json " || { echo "simulate huge.json --runs 6: expected trace-1.json to trace-3.json"; exit 1; }
