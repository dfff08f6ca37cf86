#!/usr/bin/env python3
"""The bench gate: every schema rule of the BENCH_* artifacts, once.

Usage:
  tools/bench_gate.py check FILE...       refuse any document that breaks
                                          the rules of its kind
  tools/bench_gate.py merge OUT SUITE...  merge google-benchmark JSON
                                          outputs into one document

`check` tells a document's kind from its content: a google-benchmark
merge (`context` + `benchmarks`), a Chrome trace (`traceEvents`), or a
driver artifact named by its `schema` (matrix, txn, soak).  Timing
artifacts must come from an NDEBUG build (`build_type: release`); a
trace carries no timing trajectory, so it only has to be valid
trace_event.  It exits 1 when any file is refused.
"""

import json
import sys


class Refused(Exception):
    pass


def need(ok, what):
    if not ok:
        raise Refused(what)


def release(build_type):
    need(build_type == "release",
         f"build_type is {build_type!r}, not 'release'; rebuild with the "
         "bench preset (cmake --preset bench) before publishing")


def check_gbench(doc):
    release(doc["context"].get("thinlocks_build_type"))
    benches = doc["benchmarks"]
    need(benches, "no benchmarks")
    for b in benches:
        need(isinstance(b.get("name"), str) and
             isinstance(b.get("suite"), str),
             f"benchmark without a name and a suite tag: {b}")
        need(not b.get("error_occurred"), f"{b['name']} failed")
    return f"{len(benches)} benchmarks"


def check_grid(doc, axis, key, min_protocols):
    """Rows cover protocols x doc[axis], each labeled cell exactly once."""
    release(doc.get("build_type"))
    protocols, values, rows = doc["protocols"], doc[axis], doc["rows"]
    need(len(protocols) >= min_protocols,
         f"{len(protocols)} protocols, fewer than {min_protocols}")
    need(len(values) >= 3, f"{len(values)} {axis}, fewer than 3")
    need(len(rows) == len(protocols) * len(values) and
         {(r["protocol"], r[key]) for r in rows} ==
         {(p, v) for p in protocols for v in values},
         f"{len(rows)} rows do not cover {len(protocols)} protocols x "
         f"{len(values)} {axis} once each")
    for r in rows:
        need(r["protocol_impl"], f"row without protocol_impl: {r}")
    return f"{len(protocols)} protocols x {len(values)} {axis}"


def check_matrix(doc):
    summary = check_grid(doc, "workloads", "workload", 4)
    for r in doc["rows"]:
        need(r["ops"] > 0, f"row measured no operations: {r}")
    return summary


def check_txn(doc):
    summary = check_grid(doc, "policies", "policy", 5)
    need(len(doc["policies"]) == 3, "not the 3 conflict policies")
    for r in doc["rows"]:
        need(r["started"] > 0 and r["committed"] > 0 and
             r["commits_per_sec"] > 0, f"cell committed nothing: {r}")
        need(r["started"] == r["committed"] + r["aborted"],
             f"started != committed + aborted: {r}")
        need(r["consistency_violations"] == 0 and
             r.get("attach_failures", 0) == 0, f"cell is not clean: {r}")
        need("abort_p99_ns" in r and "commit_p99_ns" in r,
             f"cell without its p99s: {r}")
    return summary


def check_soak(doc):
    release(doc.get("build_type"))
    config, slo = doc["config"], doc["slo"]
    need(config["protocol"] == slo["protocol"],
         "config and slo name different protocols")
    for name in ("acquire", "session", "dispatch", "wake"):
        q = slo[name]
        need(q["p50_ns"] <= q["p99_ns"] <= q["p999_ns"] <= q["max_ns"],
             f"{name} quantiles are not monotone")
    # Each session's dispatch delay (scheduled instant to start) is part
    # of its latency.
    need(slo["dispatch"]["p50_ns"] <= slo["session"]["p50_ns"],
         "dispatch p50 is above session p50")
    need(slo["sessions_completed"] > 0, "no sessions completed")
    need(slo["sessions_offered"] ==
         slo["sessions_completed"] + slo["sessions_shed"],
         "sessions offered != completed + shed")
    if config["adaptive"]:
        need(doc["policy"]["ticks"] > 0, "adaptive engine never ticked")
    if config["chaos"]:
        need(slo["final_level"] == 0, "chaos run did not recover")
    return f"{slo['sessions_completed']} sessions"


def check_trace(doc):
    events = doc["traceEvents"]
    need(isinstance(events, list) and events, "traceEvents missing or empty")
    for e in events:
        need(isinstance(e.get("name"), str) and
             isinstance(e.get("ph"), str) and len(e["ph"]) == 1,
             f"event without a name and a one-letter ph: {e}")
        for key in ("ts", "pid", "tid"):
            need(isinstance(e.get(key), (int, float)),
                 f"event without a numeric {key}: {e}")
        if e["ph"] == "X":
            need(isinstance(e.get("dur"), (int, float)) and e["dur"] >= 0,
                 f"X event without a non-negative dur: {e}")
    return f"{len(events)} trace events"


SCHEMAS = {
    "thinlocks-bench-matrix-v1": check_matrix,
    "thinlocks-bench-txn-v1": check_txn,
    "thinlocks-bench-soak-v1": check_soak,
}


def checker_for(doc):
    if "traceEvents" in doc:
        return check_trace
    if "context" in doc and "benchmarks" in doc:
        return check_gbench
    return SCHEMAS.get(doc.get("schema"))


def check(paths):
    refused = 0
    for path in paths:
        try:
            with open(path) as f:
                doc = json.load(f)
            checker = checker_for(doc) if isinstance(doc, dict) else None
            need(checker, "not a BENCH artifact of any known kind")
            print(f"ok: {path} ({checker(doc)})", file=sys.stderr)
        except (Refused, OSError, ValueError, KeyError, TypeError) as err:
            why = err if isinstance(err, Refused) else repr(err)
            print(f"refused: {path}: {why}", file=sys.stderr)
            refused += 1
    return 1 if refused else 0


def merge(out_path, inputs):
    """One shared context plus every suite's records, tagged `suite`.  The
    merged thinlocks_build_type is "mixed" unless every suite agrees."""
    merged = {"context": None, "benchmarks": []}
    build_types = set()
    for path in inputs:
        with open(path) as f:
            doc = json.load(f)
        suite = path.rsplit("/", 1)[-1].removesuffix(".json")
        context = doc.get("context", {})
        build_types.add(context.get("thinlocks_build_type"))
        if merged["context"] is None:
            context.pop("executable", None)  # the suite tag replaces it
            merged["context"] = context
        for bench in doc.get("benchmarks", []):
            bench["suite"] = suite
            merged["benchmarks"].append(bench)
    if len(build_types) > 1:
        merged["context"]["thinlocks_build_type"] = "mixed"
    with open(out_path, "w") as f:
        json.dump(merged, f, indent=2)
        f.write("\n")
    print(f"merged {out_path.rsplit('/', 1)[-1]} "
          f"({len(merged['benchmarks'])} benchmarks)", file=sys.stderr)


def main(argv):
    if len(argv) >= 2 and argv[0] == "check":
        return check(argv[1:])
    if len(argv) >= 3 and argv[0] == "merge":
        merge(argv[1], argv[2:])
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
