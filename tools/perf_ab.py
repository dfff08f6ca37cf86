#!/usr/bin/env python3
"""A/B-compare the repository benchmark between two git revisions.

Run from anywhere inside a checkout:

    python3 tools/perf_ab.py BASE CHANGE [--workload W]... [--pairs 10] [--seed S]

BASE and CHANGE are any git revisions (for an uncommitted change, pass
the commit that `git stash create` prints).  The tool exports each with
`git archive` into two sibling directories whose paths have the same
length, so the binary path and the stamp that the benchmark passes on its
command line are equally long on both sides; both live in one temporary
directory (under $TMPDIR) that is deleted at exit.  It reads the command,
`run_seconds` and each end-to-end metric's direction and bound from
BENCHMARK.json at the root of the checkout it runs from.

Each side first runs once briefly, which builds its benchmark.  Then each
workload (every workload in BENCHMARK.json unless --workload names some)
gets a sequence of its own: one discarded warm-up run, then the pairs.
Pair i runs both sides with seed S + i, and the side that runs first
alternates: BASE first in even pairs, CHANGE first in odd ones.

For each metric the tool prints both medians, both interquartile ranges
as fractions of their median, and the pairs each side won (ties count for
neither), and one verdict, checked in this order:

  better      CHANGE wins at least 9 in 10 pairs, and its median beats
              BASE's by more than BASE's interquartile range;
  unresolved  either IQR fraction exceeds the metric's bound, and not
              every CHANGE run beats every BASE run;
  worse       CHANGE's median is worse than BASE's by more than the bound;
  within      otherwise.

It exits 1 if any run reported `correct: false` or `failed > 0`, and 2
on a bad argument, a failed export, or a run that printed no result
line.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

RUN_TIMEOUT_S = 600


def load_benchmark(path):
    """Returns the command, run_seconds, workload names and end-to-end
    metrics ([(name, better, bound)]) that BENCHMARK.json declares."""
    with open(path) as f:
        spec = json.load(f)
    metrics = [(m["name"], m["better"], float(m["bound"]))
               for m in spec["end_to_end"]]
    return (list(spec["command"]), float(spec["run_seconds"]),
            [w["name"] for w in spec["workloads"]], metrics)


def median_iqr(values):
    """Returns the median and the interquartile range divided by the
    median (0 when the median is 0).  Quartiles interpolate linearly
    between order statistics, the 'inclusive' method."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return med, (q3 - q1) / abs(med) if med else 0.0


def beats(a, b, better):
    """True when value a is strictly better than value b."""
    return a > b if better == "higher" else a < b


def relative_gain(base, change, better):
    """CHANGE's improvement over BASE as a fraction of BASE: positive
    when CHANGE is better, negative when it is worse."""
    if base == 0:
        if change == base:
            return 0.0
        return float("inf") if beats(change, base, better) else float("-inf")
    delta = (change - base) / abs(base)
    return delta if better == "higher" else -delta


def compare(base, change, better, bound):
    """Summarizes one metric over paired runs: base[i] and change[i] come
    from pair i.  Returns a dict with both medians, both IQR fractions,
    the pairs each side won, CHANGE's relative gain and the verdict."""
    assert len(base) == len(change) and base, "one value per side and pair"
    base_med, base_iqr = median_iqr(base)
    change_med, change_iqr = median_iqr(change)
    wins = sum(beats(c, b, better) for b, c in zip(base, change))
    losses = sum(beats(b, c, better) for b, c in zip(base, change))
    pairs = len(base)
    gain = relative_gain(base_med, change_med, better)
    if better == "higher":
        separated = min(change) > max(base)
    else:
        separated = max(change) < min(base)

    if 10 * wins >= 9 * pairs and gain > base_iqr:
        verdict = "better"
    elif max(base_iqr, change_iqr) > bound and not separated:
        verdict = "unresolved"
    elif -gain > bound:
        verdict = "worse"
    else:
        verdict = "within"
    return {"base_median": base_med, "base_iqr": base_iqr,
            "change_median": change_med, "change_iqr": change_iqr,
            "wins": wins, "losses": losses, "pairs": pairs, "gain": gain,
            "verdict": verdict}


def run_failed(result):
    """True when a result object reports a failed self-check."""
    return result.get("correct") is not True or result.get("failed", 0) > 0


def parse_result(stdout):
    """Returns (stamp, result) from a benchmark run's stdout: its first
    line and its last line parsed as JSON; result is None when the last
    line is not a result object."""
    lines = stdout.strip().splitlines()
    if not lines:
        return "", None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return lines[0], None
    if not isinstance(result, dict) or "metrics" not in result:
        return lines[0], None
    return lines[0], result


def format_value(value):
    if value == 0 or 1e-3 <= abs(value) < 1e5:
        return "%.4g" % value
    return "%.4e" % value


def format_report(workload, seeds, rows):
    """Renders one workload's table.  rows: [(metric, compare() dict)]."""
    out = ["== %s: %d pairs, seeds %d-%d, BASE first in even pairs"
           % (workload, len(seeds), seeds[0], seeds[-1])]
    header = ("metric", "base", "iqr", "change", "iqr", "gain", "won",
              "lost", "verdict")
    table = [header]
    for metric, c in rows:
        table.append((metric, format_value(c["base_median"]),
                      "%.1f%%" % (100 * c["base_iqr"]),
                      format_value(c["change_median"]),
                      "%.1f%%" % (100 * c["change_iqr"]),
                      "%+.1f%%" % (100 * c["gain"]),
                      "%d/%d" % (c["wins"], c["pairs"]),
                      "%d/%d" % (c["losses"], c["pairs"]), c["verdict"]))
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    for row in table:
        out.append("  ".join(cell.ljust(w) for cell, w in
                             zip(row, widths)).rstrip())
    return "\n".join(out)


def git(*args, cwd):
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(toplevel, rev, dest):
    """Writes the tree of rev into dest with git archive."""
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "archive", rev], cwd=toplevel,
                               stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        raise RuntimeError("exporting %s failed" % rev)


class Side:
    """One exported revision and the runs made in it."""

    def __init__(self, label, rev, root, command):
        self.label, self.rev, self.root = label, rev, root
        self.command = command
        self.stamp = ""
        self.failed_runs = 0

    def run(self, workload, seed, seconds):
        cmd = self.command + ["--workload", workload, "--seed", str(seed),
                              "--seconds", "%g" % seconds]
        try:
            proc = subprocess.run(cmd, cwd=self.root, stdout=subprocess.PIPE,
                                  text=True, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise RuntimeError("%s: %s seed %d exceeded %ds"
                               % (self.label, workload, seed, RUN_TIMEOUT_S))
        stamp, result = parse_result(proc.stdout)
        if result is None:
            raise RuntimeError("%s: %s seed %d printed no result line"
                               % (self.label, workload, seed))
        self.stamp = stamp
        if run_failed(result):
            self.failed_runs += 1
            print("perf_ab: %s %s seed %d: correct=%s failed=%s"
                  % (self.label, workload, seed, result.get("correct"),
                     result.get("failed")), file=sys.stderr)
        return {name: m["value"] for name, m in result["metrics"].items()}


def measure(sides, workload, first_seed, pairs, seconds):
    """Runs one workload's warm-up and pairs.  Returns, per side label,
    one {metric: value} dict per pair in pair order, and the seeds."""
    base, change = sides
    print("perf_ab: %s warm-up" % workload, file=sys.stderr)
    base.run(workload, first_seed, seconds)
    values = {base.label: [], change.label: []}
    seeds = [first_seed + i for i in range(pairs)]
    for i, seed in enumerate(seeds):
        order = (base, change) if i % 2 == 0 else (change, base)
        for side in order:
            values[side.label].append(side.run(workload, seed, seconds))
        print("perf_ab: %s pair %d/%d done" % (workload, i + 1, pairs),
              file=sys.stderr)
    return values, seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", metavar="BASE")
    parser.add_argument("change", metavar="CHANGE")
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the first pair; pair i uses seed + i")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    toplevel = git("rev-parse", "--show-toplevel", cwd=os.getcwd())
    command, seconds, workloads, metrics = load_benchmark(
        os.path.join(toplevel, "BENCHMARK.json"))
    for name in args.workload or []:
        if name not in workloads:
            parser.error("unknown workload %r (BENCHMARK.json has %s)"
                         % (name, ", ".join(workloads)))
    selected = args.workload or workloads
    commits = []
    for rev in (args.base, args.change):
        try:
            commits.append(git("rev-parse", "--verify", "--quiet",
                               rev + "^{commit}", cwd=toplevel))
        except subprocess.CalledProcessError:
            parser.error("%r is not a commit" % rev)

    work = tempfile.mkdtemp(prefix="perf_ab-")
    sides = []
    try:
        for label, commit, sub in (("BASE", commits[0], "base"),
                                   ("CHANGE", commits[1], "chng")):
            dest = os.path.join(work, sub)  # "base" and "chng": same length.
            export(toplevel, commit, dest)
            sides.append(Side(label, commit, dest, command))
        for side in sides:
            print("perf_ab: building %s (%s)" % (side.label, side.rev[:12]),
                  file=sys.stderr)
            side.run(selected[0], args.seed, 1)
            print("%s %s %s" % (side.label, side.rev[:12], side.stamp))

        for workload in selected:
            values, seeds = measure(sides, workload, args.seed, args.pairs,
                                    seconds)
            rows = []
            for name, better, bound in metrics:
                runs = values["BASE"] + values["CHANGE"]
                if any(name not in run for run in runs):
                    raise RuntimeError("%s: a run did not report %s"
                                       % (workload, name))
                base = [run[name] for run in values["BASE"]]
                change = [run[name] for run in values["CHANGE"]]
                rows.append((name, compare(base, change, better, bound)))
            print(format_report(workload, seeds, rows), flush=True)
    except (RuntimeError, subprocess.CalledProcessError) as e:
        print("perf_ab: %s" % e, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(side.failed_runs for side in sides)
    if failed:
        print("perf_ab: %d run(s) failed a self-check" % failed,
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
