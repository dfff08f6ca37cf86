#!/usr/bin/env bash
#===- tests/run_benches_failfast_test.sh - fail-fast regression ---------===#
#
# Regression test for bench/run_benches.sh's failure discipline, run
# against stub benchmark binaries in a sandbox (no real benches needed).
#
# The bug this pins down: the old script ignored suite exit codes and
# merged each trajectory file directly over the committed copy as it
# went, so a crash or malformed JSON in a *contention* suite left
# BENCH_fastpath.json half-regenerated while BENCH_contention.json kept
# the previous run — a torn, unpublishable trajectory.  The script must
# now (a) propagate non-zero suite exits, (b) fail on malformed suite
# JSON, and in both cases (c) leave every prior BENCH_*.json
# bit-for-bit untouched.
#
#===----------------------------------------------------------------------===#
set -u

SCRIPT_DIR="$(cd "$(dirname "$0")" && pwd)"
RUN_BENCHES="$SCRIPT_DIR/../bench/run_benches.sh"
[ -f "$RUN_BENCHES" ] || { echo "FAIL: $RUN_BENCHES not found" >&2; exit 1; }

SANDBOX="$(mktemp -d)"
trap 'rm -rf "$SANDBOX"' EXIT

Failures=0
fail() { echo "FAIL: $*" >&2; Failures=$((Failures + 1)); }
pass() { echo "ok: $*" >&2; }

# Builds a fresh stub build tree.  Each stub understands just enough of
# the google-benchmark CLI to honor --benchmark_out=PATH; per-suite
# behavior is scripted via marker files in the sandbox:
#   $SANDBOX/exitcode.<suite>   -> stub exits with this status
#   $SANDBOX/garbage.<suite>    -> stub writes non-JSON output
#   $SANDBOX/debugctx.<suite>   -> stub reports a debug-build context
# A real suite always stamps thinlocks_build_type via BenchContext.h, so
# the default stub context says "release" (the publishable case).
make_build_tree() {
  local Build="$1"
  mkdir -p "$Build/bench"
  local Suite
  for Suite in bench_fastpath bench_inflation_storm bench_wakeup; do
    cat >"$Build/bench/$Suite" <<STUB
#!/usr/bin/env bash
Out=""
for Arg in "\$@"; do
  case "\$Arg" in --benchmark_out=*) Out="\${Arg#--benchmark_out=}" ;; esac
done
BuildType=release
if [ -f "$SANDBOX/debugctx.$Suite" ]; then
  BuildType=debug
fi
if [ -f "$SANDBOX/garbage.$Suite" ]; then
  echo "this is not json {" > "\$Out"
else
  printf '{"context":{"executable":"%s","thinlocks_build_type":"%s"},"benchmarks":[{"name":"%s/op","real_time":1.0}]}\n' \
    "$Suite" "\$BuildType" "$Suite" > "\$Out"
fi
if [ -f "$SANDBOX/exitcode.$Suite" ]; then
  exit "\$(cat "$SANDBOX/exitcode.$Suite")"
fi
exit 0
STUB
    chmod +x "$Build/bench/$Suite"
  done
}

# Seeds the output dir with sentinel trajectory files whose bytes must
# survive any failed run.
seed_sentinels() {
  local Out="$1"
  mkdir -p "$Out"
  echo '{"sentinel":"fastpath"}' >"$Out/BENCH_fastpath.json"
  echo '{"sentinel":"contention"}' >"$Out/BENCH_contention.json"
}

sentinels_untouched() {
  local Out="$1"
  [ "$(cat "$Out/BENCH_fastpath.json")" = '{"sentinel":"fastpath"}' ] &&
    [ "$(cat "$Out/BENCH_contention.json")" = '{"sentinel":"contention"}' ]
}

BUILD="$SANDBOX/build"
make_build_tree "$BUILD"

#--- Scenario A: a suite exits non-zero -> script propagates it ----------#
OUT_A="$SANDBOX/out-a"
seed_sentinels "$OUT_A"
echo 3 >"$SANDBOX/exitcode.bench_inflation_storm"
BENCH_OUT_DIR="$OUT_A" bash "$RUN_BENCHES" "$BUILD" >/dev/null 2>&1
Status=$?
rm -f "$SANDBOX/exitcode.bench_inflation_storm"
if [ "$Status" -eq 0 ]; then
  fail "scenario A: crashing suite did not fail the script"
else
  pass "scenario A: crashing suite propagated exit status $Status"
fi
if sentinels_untouched "$OUT_A"; then
  pass "scenario A: committed BENCH_*.json untouched after suite crash"
else
  fail "scenario A: a BENCH_*.json was clobbered by a failed run"
fi

#--- Scenario B: malformed contention JSON -> no partial publish ---------#
# The historical regression: bench_fastpath succeeds and used to be
# written out before the contention merge discovered the garbage.
OUT_B="$SANDBOX/out-b"
seed_sentinels "$OUT_B"
touch "$SANDBOX/garbage.bench_wakeup"
BENCH_OUT_DIR="$OUT_B" bash "$RUN_BENCHES" "$BUILD" >/dev/null 2>&1
Status=$?
rm -f "$SANDBOX/garbage.bench_wakeup"
if [ "$Status" -eq 0 ]; then
  fail "scenario B: malformed suite JSON did not fail the script"
else
  pass "scenario B: malformed suite JSON failed the script (status $Status)"
fi
if sentinels_untouched "$OUT_B"; then
  pass "scenario B: no partial publish (fastpath sentinel survived)"
else
  fail "scenario B: partial publish — fastpath was overwritten before the contention merge failed"
fi

#--- Scenario C: happy path -> both files regenerated together -----------#
OUT_C="$SANDBOX/out-c"
seed_sentinels "$OUT_C"
if BENCH_OUT_DIR="$OUT_C" bash "$RUN_BENCHES" "$BUILD" >/dev/null 2>&1; then
  pass "scenario C: clean run exits zero"
else
  fail "scenario C: clean run failed"
fi
if grep -q '"suite": "bench_fastpath"' "$OUT_C/BENCH_fastpath.json" &&
   grep -q '"suite": "bench_wakeup"' "$OUT_C/BENCH_contention.json" &&
   ! grep -q sentinel "$OUT_C/BENCH_fastpath.json" &&
   ! grep -q sentinel "$OUT_C/BENCH_contention.json"; then
  pass "scenario C: both trajectory files regenerated"
else
  fail "scenario C: trajectory files not regenerated as expected"
fi

#--- Scenario D: BENCH_TRACE=1 without macro_trace built -> hard error ---#
OUT_D="$SANDBOX/out-d"
seed_sentinels "$OUT_D"
if BENCH_OUT_DIR="$OUT_D" BENCH_TRACE=1 bash "$RUN_BENCHES" "$BUILD" \
     >/dev/null 2>&1; then
  fail "scenario D: missing macro_trace did not fail BENCH_TRACE run"
else
  pass "scenario D: missing macro_trace fails BENCH_TRACE run"
fi
if sentinels_untouched "$OUT_D"; then
  pass "scenario D: committed BENCH_*.json untouched"
else
  fail "scenario D: BENCH_*.json clobbered despite trace failure"
fi

#--- Scenario E: a suite built without NDEBUG -> publish refused ---------#
# The stub reports thinlocks_build_type "debug" for one suite; the merge
# must refuse the whole trajectory and leave the sentinels untouched —
# a debug-build timing must never overwrite the committed numbers.
OUT_E="$SANDBOX/out-e"
seed_sentinels "$OUT_E"
touch "$SANDBOX/debugctx.bench_wakeup"
BENCH_OUT_DIR="$OUT_E" bash "$RUN_BENCHES" "$BUILD" >/dev/null 2>&1
Status=$?
rm -f "$SANDBOX/debugctx.bench_wakeup"
if [ "$Status" -eq 0 ]; then
  fail "scenario E: debug-build suite context did not fail the script"
else
  pass "scenario E: debug-build suite context refused (status $Status)"
fi
if sentinels_untouched "$OUT_E"; then
  pass "scenario E: committed BENCH_*.json untouched after refusal"
else
  fail "scenario E: a BENCH_*.json was clobbered by a debug-build run"
fi

#--- Scenario F: BENCH_MATRIX=1 without bench_matrix built -> hard error -#
OUT_F="$SANDBOX/out-f"
seed_sentinels "$OUT_F"
if BENCH_OUT_DIR="$OUT_F" BENCH_MATRIX=1 bash "$RUN_BENCHES" "$BUILD" \
     >/dev/null 2>&1; then
  fail "scenario F: missing bench_matrix did not fail BENCH_MATRIX run"
else
  pass "scenario F: missing bench_matrix fails BENCH_MATRIX run"
fi
if sentinels_untouched "$OUT_F"; then
  pass "scenario F: committed BENCH_*.json untouched"
else
  fail "scenario F: BENCH_*.json clobbered despite matrix failure"
fi

#--- Scenario G: bench_matrix emits an off-schema grid -> refused --------#
# A stub bench_matrix writes a syntactically valid document that fails
# the coverage gate (3 protocols < the 4 the schema requires); the
# publish must be refused with the sentinels intact.
OUT_G="$SANDBOX/out-g"
seed_sentinels "$OUT_G"
cat >"$BUILD/bench/bench_matrix" <<'STUB'
#!/usr/bin/env bash
Out=""
Prev=""
for Arg in "$@"; do
  [ "$Prev" = "--out" ] && Out="$Arg"
  Prev="$Arg"
done
printf '%s\n' '{"schema": "thinlocks-bench-matrix-v1", "build_type": "release", "protocols": ["A", "B", "C"], "workloads": ["w1", "w2", "w3"], "rows": [{"protocol": "A", "protocol_impl": "A", "workload": "w1", "ops": 1, "elapsed_ns": 1, "ns_per_op": 1.0}]}' > "$Out"
STUB
chmod +x "$BUILD/bench/bench_matrix"
BENCH_OUT_DIR="$OUT_G" BENCH_MATRIX=1 bash "$RUN_BENCHES" "$BUILD" \
  >/dev/null 2>&1
Status=$?
rm -f "$BUILD/bench/bench_matrix"
if [ "$Status" -eq 0 ]; then
  fail "scenario G: off-schema matrix did not fail the script"
else
  pass "scenario G: off-schema matrix refused (status $Status)"
fi
if sentinels_untouched "$OUT_G"; then
  pass "scenario G: committed BENCH_*.json untouched after refusal"
else
  fail "scenario G: a BENCH_*.json was clobbered by an off-schema matrix"
fi

#--- Scenario H: BENCH_TXN failure modes -> hard error, no publish -------#
# H1: BENCH_TXN=1 without bench_txn built must be a hard error (the
# opt-in is explicit, so a missing binary is a broken invocation, not a
# skip).  H2: a stub bench_txn emitting a syntactically valid but
# off-schema document (grid incomplete, accounting identity broken) must
# be refused by the schema gate with the sentinels intact.
OUT_H="$SANDBOX/out-h"
seed_sentinels "$OUT_H"
if BENCH_OUT_DIR="$OUT_H" BENCH_TXN=1 bash "$RUN_BENCHES" "$BUILD" \
     >/dev/null 2>&1; then
  fail "scenario H: missing bench_txn did not fail BENCH_TXN run"
else
  pass "scenario H: missing bench_txn fails BENCH_TXN run"
fi
if sentinels_untouched "$OUT_H"; then
  pass "scenario H: committed BENCH_*.json untouched"
else
  fail "scenario H: BENCH_*.json clobbered despite txn failure"
fi

OUT_H2="$SANDBOX/out-h2"
seed_sentinels "$OUT_H2"
cat >"$BUILD/bench/bench_txn" <<'STUB'
#!/usr/bin/env bash
Out=""
Prev=""
for Arg in "$@"; do
  [ "$Prev" = "--out" ] && Out="$Arg"
  Prev="$Arg"
done
printf '%s\n' '{"schema": "thinlocks-bench-txn-v1", "build_type": "release", "protocols": ["A", "B", "C", "D", "E"], "policies": ["NoWait", "WaitDie", "Validated"], "rows": [{"protocol": "A", "protocol_impl": "A", "policy": "NoWait", "started": 10, "committed": 4, "aborted": 5, "commits_per_sec": 1.0, "consistency_violations": 0, "abort_p99_ns": 1, "commit_p99_ns": 1}]}' > "$Out"
STUB
chmod +x "$BUILD/bench/bench_txn"
BENCH_OUT_DIR="$OUT_H2" BENCH_TXN=1 bash "$RUN_BENCHES" "$BUILD" \
  >/dev/null 2>&1
Status=$?
rm -f "$BUILD/bench/bench_txn"
if [ "$Status" -eq 0 ]; then
  fail "scenario H: off-schema txn grid did not fail the script"
else
  pass "scenario H: off-schema txn grid refused (status $Status)"
fi
if sentinels_untouched "$OUT_H2"; then
  pass "scenario H: committed BENCH_*.json untouched after refusal"
else
  fail "scenario H: a BENCH_*.json was clobbered by an off-schema txn grid"
fi

#--- Scenario I: BENCH_SOAK=1 with a debug-build soak -> refused ---------#
# The soak artifact goes through the same gate as every other one: a
# stub bench_soak writing a well-formed document stamped
# "build_type": "debug" must be refused with the sentinels intact.
OUT_I="$SANDBOX/out-i"
seed_sentinels "$OUT_I"
cat >"$BUILD/bench/bench_soak" <<'STUB'
#!/usr/bin/env bash
Out=""
Prev=""
for Arg in "$@"; do
  [ "$Prev" = "--out" ] && Out="$Arg"
  Prev="$Arg"
done
printf '%s\n' '{"schema": "thinlocks-bench-soak-v1", "build_type": "debug", "config": {"protocol": "ThinLock", "chaos": false, "adaptive": false}, "slo": {"protocol": "ThinLock", "acquire": {"p50_ns": 1, "p99_ns": 2, "p999_ns": 3, "max_ns": 4}, "session": {"p50_ns": 1, "p99_ns": 2, "p999_ns": 3, "max_ns": 4}, "dispatch": {"p50_ns": 1, "p99_ns": 2, "p999_ns": 3, "max_ns": 4}, "wake": {"p50_ns": 1, "p99_ns": 2, "p999_ns": 3, "max_ns": 4}, "sessions_offered": 3, "sessions_completed": 3, "sessions_shed": 0, "final_level": 0}}' > "$Out"
STUB
chmod +x "$BUILD/bench/bench_soak"
BENCH_OUT_DIR="$OUT_I" BENCH_SOAK=1 bash "$RUN_BENCHES" "$BUILD" \
  >/dev/null 2>&1
Status=$?
rm -f "$BUILD/bench/bench_soak"
if [ "$Status" -eq 0 ]; then
  fail "scenario I: debug-build soak document did not fail the script"
else
  pass "scenario I: debug-build soak document refused (status $Status)"
fi
if sentinels_untouched "$OUT_I" && [ ! -e "$OUT_I/BENCH_soak.json" ]; then
  pass "scenario I: nothing published after refusal"
else
  fail "scenario I: a BENCH_*.json was published by a debug-build soak"
fi

#--- Scenario J: BENCH_SOAK=1 stages the adaptive soak baseline ---------#
# The nightly job runs bench_soak --adaptive and tools/soak_slo_diff.py
# refuses to compare documents that disagree on "adaptive", so the
# default BENCH_SOAK run must pass --adaptive.  The stub writes
# "adaptive": true (and the policy block the gate then asks for) only
# when it receives the flag.
OUT_J="$SANDBOX/out-j"
seed_sentinels "$OUT_J"
cat >"$BUILD/bench/bench_soak" <<'STUB'
#!/usr/bin/env bash
Out=""
Prev=""
Adaptive=false
Policy=""
for Arg in "$@"; do
  [ "$Prev" = "--out" ] && Out="$Arg"
  [ "$Arg" = "--adaptive" ] && Adaptive=true
  Prev="$Arg"
done
[ "$Adaptive" = true ] && Policy=', "policy": {"ticks": 1}'
Q='{"p50_ns": 1, "p99_ns": 2, "p999_ns": 3, "max_ns": 4}'
printf '%s\n' "{\"schema\": \"thinlocks-bench-soak-v1\", \"build_type\": \"release\", \"config\": {\"protocol\": \"ThinLock\", \"chaos\": false, \"adaptive\": $Adaptive}, \"slo\": {\"protocol\": \"ThinLock\", \"acquire\": $Q, \"session\": $Q, \"dispatch\": $Q, \"wake\": $Q, \"sessions_offered\": 3, \"sessions_completed\": 3, \"sessions_shed\": 0, \"final_level\": 0}$Policy}" > "$Out"
STUB
chmod +x "$BUILD/bench/bench_soak"
BENCH_OUT_DIR="$OUT_J" BENCH_SOAK=1 bash "$RUN_BENCHES" "$BUILD" \
  >/dev/null 2>&1
Status=$?
rm -f "$BUILD/bench/bench_soak"
if [ "$Status" -eq 0 ]; then
  pass "scenario J: soak baseline staged"
else
  fail "scenario J: the stub soak run failed (status $Status)"
fi
if python3 -c 'import json, sys; sys.exit(not json.load(open(sys.argv[1]))["config"]["adaptive"])' \
     "$OUT_J/BENCH_soak.json" 2>/dev/null; then
  pass "scenario J: the published soak baseline is adaptive"
else
  fail "scenario J: the published soak baseline is not the --adaptive soak"
fi

if [ "$Failures" -ne 0 ]; then
  echo "$Failures scenario check(s) failed" >&2
  exit 1
fi
echo "all run_benches fail-fast scenarios passed"
