#!/usr/bin/env bash
#===- bench/run_benches.sh - Machine-readable bench trajectory ----------===#
#
# Runs the google-benchmark suites in JSON mode and merges their results
# into BENCH_fastpath.json and BENCH_contention.json at the repo root,
# plus the opt-in artifacts below.  These files are the committed perf
# trajectory: regenerate them from a `bench` preset build when a PR
# touches a hot path, and compare against the committed copy before
# overwriting it.
#
# Failure discipline: every artifact is staged in a temp directory, one
# tools/bench_gate.py call checks all of them against their schema (a
# timing artifact must come from an NDEBUG build), and only then are
# they moved over the committed copies together.  A crashing binary, a
# malformed JSON or a refused document therefore fails the script
# (non-zero exit) and leaves every prior BENCH_*.json bit-for-bit
# untouched.
#
# Usage:
#   cmake --preset bench && cmake --build --preset bench -j
#   bench/run_benches.sh [build-dir]     # default: build-bench
#
# Environment:
#   BENCH_OUT_DIR   where the BENCH_*.json land (default: repo root).
#                   Used by tests to exercise the script against stub
#                   binaries without touching the committed files.
#   BENCH_TRACE=1   also run macro_trace and stage BENCH_trace.json, a
#                   Chrome trace of a traced macro replay (DESIGN.md §10).
#   BENCH_ADAPTIVE=1  also run bench_adaptive (the adaptive engine A/B,
#                   DESIGN.md §13; it oversubscribes the host on purpose)
#                   and stage BENCH_adaptive.json.
#   BENCH_SOAK=1    also run bench_soak and stage BENCH_soak.json, the
#                   nightly soak's baseline; BENCH_SOAK_ARGS overrides the
#                   default --duration-s 10 --adaptive (the nightly job
#                   runs --adaptive, and tools/soak_slo_diff.py compares
#                   only documents that agree on it).
#   BENCH_MATRIX=1  also run bench_matrix (every registered protocol x
#                   the shared workload battery, DESIGN.md §14) and stage
#                   BENCH_matrix.json; BENCH_MATRIX_ARGS overrides the
#                   default (full-size) profile, e.g. --smoke.
#   BENCH_TXN=1     also run bench_txn (every registered protocol x every
#                   conflict policy, DESIGN.md §15) and stage
#                   BENCH_txn.json; BENCH_TXN_ARGS overrides the default
#                   (full-size) profile, e.g. --smoke.
#
#===----------------------------------------------------------------------===#
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-$ROOT/build-bench}"
case "$BUILD_DIR" in /*) ;; *) BUILD_DIR="$ROOT/$BUILD_DIR" ;; esac
OUT_DIR="${BENCH_OUT_DIR:-$ROOT}"
GATE="$ROOT/tools/bench_gate.py"

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
mkdir -p "$TMP/staged"
STAGED=()

die() {
  echo "error: $1; aborting without touching the committed BENCH_*.json" \
       "files." >&2
  exit "${2:-1}"
}

bin() {
  local Hint="cmake --preset bench && cmake --build --preset bench -j"
  [ -x "$BUILD_DIR/bench/$1" ] || die "$BUILD_DIR/bench/$1 not found ($Hint)"
  echo "== $1" >&2
}

# suites OUT SUITE...: runs google-benchmark suites and merges their JSON
# into OUT.  bench_fastpath is single-run by default (interactive use),
# so the committed trajectory forces repetitions to record medians; the
# other suites set Repetitions(5) per benchmark.
suites() {
  local Out="$1" Suite Status Inputs=(); shift
  for Suite in "$@"; do
    local Args=()
    [ "$Suite" != bench_fastpath ] ||
      Args=(--benchmark_repetitions=5 --benchmark_report_aggregates_only=true)
    bin "$Suite"
    Status=0
    "$BUILD_DIR/bench/$Suite" "${Args[@]}" --benchmark_format=console \
      --benchmark_out="$TMP/$Suite.json" --benchmark_out_format=json >&2 ||
      Status=$?
    [ "$Status" -eq 0 ] || die "$Suite exited with status $Status" "$Status"
    Inputs+=("$TMP/$Suite.json")
  done
  python3 "$GATE" merge "$Out" "${Inputs[@]}" || die "merging $Out failed"
}

# driver OUT BINARY [ARGS...]: runs a self-checking driver that writes
# its artifact to OUT through --out.
driver() {
  local Out="$1" Bin="$2"; shift 2
  bin "$Bin"
  "$BUILD_DIR/bench/$Bin" "$@" --out "$Out" >&2 || die "$Bin failed"
}

# stage NAME HOW [ARGS...]: produces artifact NAME in the staging
# directory with `suites` or `driver`.
stage() {
  local Name="$1" How="$2"; shift 2
  "$How" "$TMP/staged/$Name" "$@"
  STAGED+=("$Name")
}

stage BENCH_fastpath.json suites bench_fastpath
stage BENCH_contention.json suites bench_inflation_storm bench_wakeup
# shellcheck disable=SC2086  # word-splitting of the *_ARGS is the point
{
  [ "${BENCH_ADAPTIVE:-0}" = 0 ] ||
    stage BENCH_adaptive.json suites bench_adaptive
  [ "${BENCH_TRACE:-0}" = 0 ] || stage BENCH_trace.json driver macro_trace
  [ "${BENCH_SOAK:-0}" = 0 ] ||
    stage BENCH_soak.json driver bench_soak \
      ${BENCH_SOAK_ARGS:---duration-s 10 --adaptive}
  [ "${BENCH_MATRIX:-0}" = 0 ] ||
    stage BENCH_matrix.json driver bench_matrix ${BENCH_MATRIX_ARGS:-}
  [ "${BENCH_TXN:-0}" = 0 ] ||
    stage BENCH_txn.json driver bench_txn ${BENCH_TXN_ARGS:-}
}

python3 "$GATE" check "${STAGED[@]/#/$TMP/staged/}" ||
  die "the bench gate refused a staged artifact"

# Everything passed: publish the staged files together.
for Name in "${STAGED[@]}"; do
  mv -f "$TMP/staged/$Name" "$OUT_DIR/$Name"
  echo "wrote $OUT_DIR/$Name"
done
