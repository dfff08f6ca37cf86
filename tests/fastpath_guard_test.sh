#!/usr/bin/env bash
# Regression test for tools/lint/fastpath_guard.py.
#
# Two halves:
#   1. Positive: compile core/ThinLock.cpp and protocols/FissileLock.cpp
#      exactly as the release build does (-O2, no instrumentation) and
#      assert the guard passes against the committed budget.
#      Recompiling here — instead of reusing the current preset's
#      objects — keeps the test meaningful under the sanitizer presets,
#      whose instrumented codegen is not what the guard polices.
#   2. Negative: recompile ThinLock.cpp with
#      -DTHINLOCKS_FASTPATH_GUARD_PROBE, which injects an opaque
#      external call into the lock/unlock fast path, and assert the
#      guard FAILS and names the call (the clean Fissile object rides
#      along, proving one bad object poisons the whole verdict).  This
#      proves the guard actually detects the regression class it exists
#      for.
#
# Usage: fastpath_guard_test.sh <cxx> <src-dir> <guard.py>
set -u

CXX=${1:?usage: fastpath_guard_test.sh <cxx> <src-dir> <guard.py>}
SRC=${2:?missing src dir}
GUARD=${3:?missing guard script}

command -v python3 >/dev/null || { echo "SKIP: python3 not found"; exit 77; }
command -v objdump >/dev/null || { echo "SKIP: objdump not found"; exit 77; }

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

CXXFLAGS="-std=c++20 -O2 -I$SRC"

echo "== positive: clean -O2 objects pass the guard =="
"$CXX" $CXXFLAGS -c "$SRC/core/ThinLock.cpp" -o "$WORK/clean.o" \
  || { echo "FAIL: could not compile ThinLock.cpp"; exit 1; }
"$CXX" $CXXFLAGS -c "$SRC/protocols/FissileLock.cpp" -o "$WORK/fissile.o" \
  || { echo "FAIL: could not compile FissileLock.cpp"; exit 1; }
if ! python3 "$GUARD" --object "$WORK/clean.o" --object "$WORK/fissile.o"; then
  echo "FAIL: guard rejected a clean fast path"
  exit 1
fi

echo "== negative: probe-injected call must be caught =="
"$CXX" $CXXFLAGS -DTHINLOCKS_FASTPATH_GUARD_PROBE \
  -c "$SRC/core/ThinLock.cpp" -o "$WORK/probe.o" \
  || { echo "FAIL: could not compile probe object"; exit 1; }
OUT=$(python3 "$GUARD" --object "$WORK/probe.o" --object "$WORK/fissile.o" 2>&1)
STATUS=$?
echo "$OUT"
if [ "$STATUS" -eq 0 ]; then
  echo "FAIL: guard passed an object with a call injected into the fast path"
  exit 1
fi
if ! echo "$OUT" | grep -q "call instruction"; then
  echo "FAIL: guard failed for the wrong reason (expected a call-instruction finding)"
  exit 1
fi

echo "PASS: guard accepts the clean fast path and rejects the injected call"
