#!/usr/bin/env python3
"""tools/dead_surface.py's classification and verdict on canned nm lines.

    python3 tools/test_dead_surface.py

Builds nothing: every input below is written in the form
`nm -C --defined-only` prints for an archive or a program.
"""

import io
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import dead_surface  # noqa: E402

ARCHIVE = """
medium.cpp.o:
0000000000000000 T jmb::chan::Medium::receive(unsigned long, double, unsigned long)
0000000000000000 T jmb::chan::Medium::link(unsigned long, unsigned long)
0000000000000000 T jmb::chan::Medium::link(unsigned long, unsigned long) const
0000000000000000 W std::vector<double, std::allocator<double> >::~vector()
0000000000000000 t jmb::chan::(anonymous namespace)::first_where(unsigned long)
0000000000000000 b jmb::chan::(anonymous namespace)::g_state
                 U jmb::chan::Oscillator::cfo_hz() const

cmatrix.cpp.o:
0000000000000000 T jmb::CMatrix::str[abi:cxx11]() const
0000000000000000 T jmb::CMatrix::CMatrix(std::initializer_list<std::initializer_list<std::complex<double> > >)
0000000000000000 T jmb::CMatrix::CMatrix(unsigned long, unsigned long)
0000000000000000 W void jmb::fill<double>(std::vector<double, std::allocator<double> >&)
0000000000000000 T jmb::phy::Transmitter::build_frame(int) const
""".splitlines()

BENCH = """
0000000000001000 T main
0000000000001100 T jmb::chan::Medium::receive(unsigned long, double, unsigned long)
0000000000001200 T jmb::chan::Medium::link(unsigned long, unsigned long)
0000000000001300 T jmb::CMatrix::CMatrix(unsigned long, unsigned long)
""".splitlines()

MICRO = """
0000000000001000 T main
0000000000001300 T jmb::phy::Transmitter::build_frame(int) const
0000000000001400 W void jmb::fill<double>(std::vector<double, std::allocator<double> >&)
""".splitlines()

PROGRAMS = {"fig07_phase_cdf": BENCH, "perf_micro": MICRO}


class QualifiedName(unittest.TestCase):
    def test_strips_parameters_qualifiers_and_tags(self):
        q = dead_surface.qualified_name
        self.assertEqual(q("jmb::CMatrix::str[abi:cxx11]() const"),
                         "jmb::CMatrix::str")
        self.assertEqual(q("jmb::a::f(std::vector<int, std::allocator<int> >"
                           " const&) const &&"), "jmb::a::f")
        self.assertEqual(q("jmb::CMatrix::operator*=(std::complex<double>)"),
                         "jmb::CMatrix::operator*=")
        self.assertEqual(q("jmb::X::operator()(int) const"),
                         "jmb::X::operator()")

    def test_drops_a_template_function_return_type(self):
        self.assertEqual(
            dead_surface.qualified_name(
                "std::vector<int, std::allocator<int> > jmb::g<int>(int)"),
            "jmb::g<int>")


class Classify(unittest.TestCase):
    def setUp(self):
        self.dead, self.micro = dead_surface.classify(ARCHIVE, PROGRAMS)

    def test_dead_is_per_signature_grouped_by_name(self):
        # The const overload of link is dead although its twin is linked.
        self.assertEqual(self.dead["jmb::chan::Medium::link"],
                         ["jmb::chan::Medium::link(unsigned long, unsigned "
                          "long) const"])
        self.assertIn("jmb::CMatrix::str", self.dead)
        self.assertNotIn("jmb::chan::Medium::receive", self.dead)

    def test_only_library_functions_count(self):
        names = set(self.dead) | set(self.micro)
        self.assertFalse(any(n.startswith("std::") for n in names))
        # Local (t) and data (b) symbols are not part of the surface.
        self.assertFalse(any("first_where" in n or "g_state" in n
                             for n in names))

    def test_perf_micro_only_names_are_listed_apart(self):
        self.assertEqual(sorted(self.micro),
                         ["jmb::fill<double>",
                          "jmb::phy::Transmitter::build_frame"])
        self.assertNotIn("jmb::phy::Transmitter::build_frame", self.dead)


class Verdict(unittest.TestCase):
    def setUp(self):
        self.dead, self.micro = dead_surface.classify(ARCHIVE, PROGRAMS)

    def test_a_name_off_the_keep_list_fails(self):
        keep = {"jmb::CMatrix::str": "diagnostics"}
        unexpected, stale = dead_surface.verdict(self.dead, keep)
        self.assertEqual(len(unexpected), 2)  # the link overload, the ctor
        self.assertEqual(stale, [])
        out = io.StringIO()
        self.assertEqual(dead_surface.report(self.dead, self.micro, keep, out),
                         1)
        self.assertIn("NOT ON KEEP", out.getvalue())

    def test_keep_matches_a_signature_or_a_name(self):
        keep = {
            "jmb::CMatrix::str": "diagnostics",
            "jmb::chan::Medium::link(unsigned long, unsigned long) const":
                "tests",
            "jmb::CMatrix::CMatrix(std::initializer_list<std::initializer_list"
            "<std::complex<double> > >)": "literals",
            "jmb::gone": "no longer dead",
        }
        unexpected, stale = dead_surface.verdict(self.dead, keep)
        self.assertEqual(unexpected, [])
        self.assertEqual(stale, ["jmb::gone"])
        out = io.StringIO()
        self.assertEqual(dead_surface.report(self.dead, self.micro, keep, out),
                         0)
        self.assertIn("keep entry jmb::gone matches nothing dead",
                      out.getvalue())

    def test_the_shipped_keep_list_gives_every_entry_a_reason(self):
        for entry, why in dead_surface.KEEP.items():
            self.assertTrue(entry.startswith("jmb::"), entry)
            self.assertTrue(why.strip(), entry)


if __name__ == "__main__":
    unittest.main()
