#!/usr/bin/env python3
"""tools/reach_census.py's parsing and classification on canned `nm`
output.

Builds and runs nothing: each case feeds `nm --defined-only -S -C` text
straight into the functions that the tool applies to real binaries.
"""

import importlib.util
import os
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True  # Leave no __pycache__ in tools/.
SPEC = importlib.util.spec_from_file_location(
    "reach_census", os.path.join(ROOT, "tools", "reach_census.py"))
reach_census = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(reach_census)

# Two archive members.  Lock.cpp.o emits a destructor as three variants
# (one demangled name), a function only tests call, one nothing calls, a
# std instantiation over a project type, a data symbol and a plain
# std helper; Util.cpp.o re-emits the weak instantiation.
ARCHIVE = """
Lock.cpp.o:
0000000000000000 000000000000002b T thinlocks::Lock::~Lock()
0000000000000000 0000000000000019 T thinlocks::Lock::~Lock()
0000000000000000 0000000000000019 T thinlocks::Lock::~Lock()
0000000000000000 0000000000000040 T thinlocks::Lock::lock(thinlocks::Object*)
0000000000000000 0000000000000020 T thinlocks::Lock::isSealed() const
0000000000000000 0000000000000010 t thinlocks::(anonymous namespace)::unused(int, int)
0000000000000000 0000000000000030 W std::vector<thinlocks::Object*, std::allocator<thinlocks::Object*> >::size() const
0000000000000000 0000000000000008 V DW.ref.__gxx_personality_v0
0000000000000000 0000000000000100 W std::char_traits<char>::length(char const*)
0000000000000000 0000000000000004 D thinlocks::Lock::Counter

Util.cpp.o:
0000000000000000 0000000000000030 W std::vector<thinlocks::Object*, std::allocator<thinlocks::Object*> >::size() const
0000000000000000 0000000000000050 T thinlocks::util::format(int)
"""

SHIPPED_BINARY = """
0000000000401000 0000000000000019 T thinlocks::Lock::~Lock()
0000000000401020 0000000000000040 T thinlocks::Lock::lock(thinlocks::Object*)
0000000000401070 0000000000000100 W std::char_traits<char>::length(char const*)
0000000000401200 T _start
"""

TEST_BINARY = """
0000000000401000 0000000000000020 T thinlocks::Lock::isSealed() const
0000000000401020 0000000000000040 T thinlocks::Lock::lock(thinlocks::Object*)
0000000000401070 0000000000000030 W std::vector<thinlocks::Object*, std::allocator<thinlocks::Object*> >::size() const
0000000000402000 0000000000000050 T thinlocks::util::format(int)
"""


def run_census():
    library = reach_census.parse_nm(ARCHIVE)
    return reach_census.census(library,
                               reach_census.text_symbols(SHIPPED_BINARY),
                               reach_census.text_symbols(TEST_BINARY))


class Parsing(unittest.TestCase):
    def test_archive_members_keep_text_symbols_by_demangled_name(self):
        library = reach_census.parse_nm(ARCHIVE)
        self.assertEqual(sorted(library), ["Lock.cpp.o", "Util.cpp.o"])
        lock = library["Lock.cpp.o"]
        self.assertEqual(len(lock), 6)  # Not the V and D symbols.
        self.assertNotIn("DW.ref.__gxx_personality_v0", lock)
        self.assertNotIn("thinlocks::Lock::Counter", lock)
        # Three destructor variants are one symbol, as large as the
        # largest.
        self.assertEqual(lock["thinlocks::Lock::~Lock()"], 0x2b)
        self.assertEqual(
            lock["thinlocks::(anonymous namespace)::unused(int, int)"], 0x10)

    def test_binary_symbols_without_a_size_are_kept(self):
        names = reach_census.text_symbols(SHIPPED_BINARY)
        self.assertIn("_start", names)
        self.assertIn("std::char_traits<char>::length(char const*)", names)
        self.assertEqual(reach_census.parse_nm("0000000000401200 T _start"),
                         {"": {"_start": 0}})


class Classification(unittest.TestCase):
    def test_each_symbol_falls_in_one_column(self):
        lock = run_census()["Lock.cpp.o"]
        self.assertEqual(sorted(lock["shipped"][2]), [
            "thinlocks::Lock::lock(thinlocks::Object*)",
            "thinlocks::Lock::~Lock()"])
        self.assertEqual(lock["tests"][2], [
            "thinlocks::Lock::isSealed() const",
            "std::vector<thinlocks::Object*, std::allocator<thinlocks::Object*>"
            " >::size() const"])
        self.assertEqual(lock["nothing"][2], [
            "thinlocks::(anonymous namespace)::unused(int, int)"])

    def test_counts_cover_project_symbols_and_bytes_cover_all(self):
        lock = run_census()["Lock.cpp.o"]
        # The std helper weighs in the shipped bytes but is not counted.
        self.assertEqual(lock["shipped"][:2], [2, 0x2b + 0x40 + 0x100])
        self.assertEqual(lock["tests"][:2], [2, 0x20 + 0x30])
        self.assertEqual(lock["nothing"][:2], [1, 0x10])

    def test_a_weak_definition_counts_in_each_member(self):
        util = run_census()["Util.cpp.o"]
        self.assertEqual(util["tests"][:2], [2, 0x30 + 0x50])
        self.assertEqual(util["shipped"][:2], [0, 0])


class Report(unittest.TestCase):
    def test_total_row_sums_the_rows(self):
        text = reach_census.format_census(run_census())
        lines = text.splitlines()
        self.assertTrue(lines[2].startswith("Lock.cpp "))
        self.assertTrue(lines[3].startswith("Util.cpp "))
        total = lines[5].split()
        self.assertEqual(total[0], "total")
        self.assertEqual(total[1:4], ["2", "4", "1"])
        self.assertIn("nothing 2.", lines[6])

    def test_listings_name_each_symbol_under_its_file(self):
        text = reach_census.format_census(run_census())
        nothing, tests_only = text.split("\n\n")[1:]
        self.assertEqual(nothing.splitlines(), [
            "reached by nothing (1):",
            "  Lock.cpp",
            "    thinlocks::(anonymous namespace)::unused(int, int)"])
        self.assertEqual(tests_only.splitlines(), [
            "reached by tests only (4):",
            "  Lock.cpp",
            "    std::vector<thinlocks::Object*, std::allocator<"
            "thinlocks::Object*> >::size() const",
            "    thinlocks::Lock::isSealed() const",
            "  Util.cpp",
            "    std::vector<thinlocks::Object*, std::allocator<"
            "thinlocks::Object*> >::size() const",
            "    thinlocks::util::format(int)"])


if __name__ == "__main__":
    sys.exit(unittest.main())
