#!/usr/bin/env python3
"""Which of the library's code does a shipped program reach?

    python3 tools/reach_census.py BUILD PERFBENCH_BUILD

BUILD is a build of the repository and PERFBENCH_BUILD a build of
perfbench/, both compiled at -O0 with -ffunction-sections
-fdata-sections and linked with -Wl,--gc-sections, so that a linked
binary keeps exactly the functions something in it calls:

    cmake -S . -B BUILD -DCMAKE_BUILD_TYPE=Debug \\
      -DCMAKE_CXX_FLAGS="-O0 -ffunction-sections -fdata-sections" \\
      -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections"
    cmake -S perfbench -B PERFBENCH_BUILD -DCMAKE_BUILD_TYPE=None \\
      -DCMAKE_CXX_FLAGS="-O0 -DNDEBUG -ffunction-sections -fdata-sections" \\
      -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections"

(thinbench.cpp refuses a build without NDEBUG.)  The tool builds nothing;
it reads `nm` output only.

The shipped binaries are the executables in BUILD/bench and
BUILD/examples, and PERFBENCH_BUILD/thinbench; the tests are the
executables in BUILD/tests.

What it counts: the text symbols (nm types T, t, W and w) that each
member of BUILD/src/libthinlocks.a defines, by demangled name, so the
constructor and destructor variants the compiler emits for one
declaration (C1/C2, D0/D1/D2) are one symbol, weighing as much as its
largest variant.  A symbol is reached by a binary that defines a text
symbol of the same demangled name.  Each symbol falls in one column:
"shipped" when a shipped binary reaches it, else "tests" when a test
binary does, else "nothing".  The "symbols" columns count the symbols
whose demangled name contains `thinlocks` (the project's own functions,
and std instantiations over its types); the "KB" columns weigh every
text symbol by its nm size (1 KB = 1000 bytes).  A weak definition
that several members emit counts in each member's row, and the total
row is the sum of the rows.  Matching is by name only, so a std
instantiation that a binary's own objects also emit counts as reached.

After the table it lists the counted symbols that nothing reaches, then
those that only tests reach, one per line under its file.
"""

import argparse
import os
import subprocess
import sys

TEXT_KINDS = frozenset("TtWw")
PROJECT_MARK = "thinlocks"
COLUMNS = ("shipped", "tests", "nothing")


def parse_nm(text):
    """Parses `nm --defined-only -S -C` output into {member: {demangled
    name: size}} over text symbols.  An archive's symbols go under each
    member's name (the `member.o:` header lines); a binary's under ''.
    A symbol nm prints without a size weighs 0."""
    members = {}
    current = members.setdefault("", {})
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.endswith(":") and " " not in line:
            current = members.setdefault(line[:-1], {})
            continue
        fields = line.split(None, 3)
        if len(fields) < 3:
            continue
        if len(fields[1]) == 1:  # No size column: address, kind, name.
            size, (_, kind, name) = "0", line.split(None, 2)
        else:
            _, size, kind, name = fields
        if kind in TEXT_KINDS:
            current[name] = max(current.get(name, 0), int(size, 16))
    if not members[""]:
        del members[""]
    return members


def text_symbols(nm_text):
    """The names of the text symbols in `nm` output of one binary."""
    names = set()
    for symbols in parse_nm(nm_text).values():
        names.update(symbols)
    return names


def census(library, shipped, tests):
    """Classifies each text symbol of each library member.

    library: {member: {name: size}}; shipped, tests: sets of the names
    the binaries define.  Returns {member: {column: [count, bytes,
    [names]]}}, where count and the name list cover the project's
    symbols only."""
    rows = {}
    for member, symbols in library.items():
        row = {column: [0, 0, []] for column in COLUMNS}
        for name, size in symbols.items():
            column = ("shipped" if name in shipped else
                      "tests" if name in tests else "nothing")
            cell = row[column]
            cell[1] += size
            if PROJECT_MARK in name:
                cell[0] += 1
                cell[2].append(name)
        rows[member] = row
    return rows


def source_name(member):
    """ThinLock.cpp.o -> ThinLock.cpp"""
    return member[:-2] if member.endswith(".o") else member


def format_census(rows):
    """Renders census() rows: one line per source file, the total, each
    column's share of the bytes, then the symbols that nothing reaches
    and those that only tests reach."""
    width = max([len(source_name(m)) for m in rows] + [len("total")])
    head = "%-*s  %s  |  %s" % (
        width, "file", "symbols: " + " ".join("%8s" % c for c in COLUMNS),
        "KB: " + " ".join("%8s" % c for c in COLUMNS))
    lines = [head, "-" * len(head)]
    total = {column: [0, 0] for column in COLUMNS}

    def render(name, cells):
        return "%-*s  %s  |  %s" % (
            width, name,
            "         " + " ".join("%8d" % cells[c][0] for c in COLUMNS),
            "    " + " ".join("%8.1f" % (cells[c][1] / 1000)
                              for c in COLUMNS))

    for member in sorted(rows, key=source_name):
        lines.append(render(source_name(member), rows[member]))
        for column in COLUMNS:
            total[column][0] += rows[member][column][0]
            total[column][1] += rows[member][column][1]
    lines.append("-" * len(head))
    lines.append(render("total", total))
    all_bytes = sum(total[c][1] for c in COLUMNS)
    if all_bytes:
        lines.append("bytes: %.2f MB; %s" % (all_bytes / 1e6, ", ".join(
            "%s %.1f%%" % (c, 100.0 * total[c][1] / all_bytes)
            for c in COLUMNS)))
    for column, title in (("nothing", "nothing"), ("tests", "tests only")):
        listed = [(source_name(m), sorted(rows[m][column][2]))
                  for m in sorted(rows, key=source_name)
                  if rows[m][column][2]]
        lines.append("")
        lines.append("reached by %s (%d):" % (
            title, sum(len(names) for _, names in listed)))
        for name, names in listed:
            lines.append("  " + name)
            lines.extend("    " + n for n in names)
    return "\n".join(lines)


def run_nm(path):
    result = subprocess.run(["nm", "--defined-only", "-S", "-C", path],
                            capture_output=True, text=True)
    if result.returncode != 0:
        sys.exit("reach_census: nm failed on %s: %s" %
                 (path, result.stderr.strip()))
    return result.stdout


def executables(directory):
    """The ELF executables directly inside directory."""
    found = []
    for entry in sorted(os.listdir(directory)):
        path = os.path.join(directory, entry)
        if os.path.isfile(path) and os.access(path, os.X_OK):
            with open(path, "rb") as f:
                if f.read(4) == b"\x7fELF":
                    found.append(path)
    return found


def main(argv):
    parser = argparse.ArgumentParser(
        description="Per library source file: the text symbols a shipped "
                    "binary reaches, only tests reach, or nothing reaches.")
    parser.add_argument("build")
    parser.add_argument("perfbench_build")
    args = parser.parse_args(argv)

    archive = os.path.join(args.build, "src", "libthinlocks.a")
    thinbench = os.path.join(args.perfbench_build, "thinbench")
    for path in (archive, thinbench):
        if not os.path.isfile(path):
            sys.exit("reach_census: missing %s (build it with the recipe "
                     "in this script's docstring)" % path)
    shipped_bins = (executables(os.path.join(args.build, "bench")) +
                    executables(os.path.join(args.build, "examples")) +
                    [thinbench])
    test_bins = executables(os.path.join(args.build, "tests"))

    library = parse_nm(run_nm(archive))
    shipped = set().union(*(text_symbols(run_nm(b)) for b in shipped_bins))
    tests = set().union(*(text_symbols(run_nm(b)) for b in test_bins))
    rows = census(library, shipped, tests)
    print("reach census of %s: %d members, %d shipped binaries, %d test "
          "binaries" % (archive, len(library), len(shipped_bins),
                        len(test_bins)))
    print(format_census(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
