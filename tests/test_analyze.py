#!/usr/bin/env python3
"""Unit tests for the AST-grounded analyzer (tools/analyze/).

Covers the contract the fixtures encode: every fixture fires exactly
the checks it declares (and nothing else), suppression annotations
swallow findings without hiding that the check ran, a clean file
produces zero findings, the token rules keep their scopes and ignore
prose and directives, and the suppression/annotation plumbing in the
parser behaves line-accurately.
"""

import os
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))

from analyze import analyze, checks  # noqa: E402
from analyze import parser  # noqa: E402

FIXDIR = os.path.join("tools", "analyze", "fixtures")


def _scan_fixtures():
    pairs, kept, suppressed = analyze.run(ROOT, FIXDIR)
    expected = {}
    for full, rel in pairs:
        expected.setdefault(rel, set())
        with open(full, encoding="utf-8") as f:
            for m in analyze.EXPECT_RE.finditer(f.read()):
                expected[rel].add(m.group(1))
    return expected, kept, suppressed


class FixtureContract(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.expected, cls.kept, cls.suppressed = _scan_fixtures()

    def test_each_fixture_fires_exactly_its_own_checks(self):
        found = {}
        for f in self.kept:
            found.setdefault(f.rel, set()).add(f.rule)
        for rel, want in sorted(self.expected.items()):
            self.assertEqual(
                found.get(rel, set()), want,
                "fixture %s fired the wrong rule set" % rel)

    def test_every_rule_has_a_firing_fixture(self):
        fired = {f.rule for f in self.kept}
        for rule in checks.ALL_RULES:
            self.assertIn(rule, fired,
                          "rule %s has no firing fixture" % rule)

    def test_suppressed_fixture_is_silent_but_check_ran(self):
        rel = "tools/analyze/fixtures/suppressed_ok.cpp"
        self.assertEqual([f for f in self.kept if f.rel == rel], [],
                         "suppression failed to silence the finding")
        swallowed = {f.rule for f in self.suppressed if f.rel == rel}
        for rule in ("determinism-taint", "determinism-unordered"):
            self.assertIn(rule, swallowed,
                          "the suppressed check %s never actually fired"
                          % rule)

    def test_clean_fixture_has_zero_findings(self):
        rel = "tools/analyze/fixtures/clean.cpp"
        hits = [f for f in self.kept + self.suppressed if f.rel == rel]
        self.assertEqual(hits, [], "clean fixture produced findings")


def _findings(rel, text):
    """(line, rule) pairs the checks report on one parsed file, with
    the file's own suppressions applied."""
    fir = parser.parse_file(rel, text)
    kept, _suppressed = analyze.apply_suppressions(
        checks.run_checks([fir]), [fir])
    return sorted((f.line, f.rule) for f in kept)


class TokenRules(unittest.TestCase):
    BANNED = (
        '#pragma once\n'
        'std::unordered_map<int, int> a;\n'     # 2
        'std::mt19937 b;\n'                     # 3
        'std::priority_queue<int> c;\n'         # 4
        'long d = std::rand();\n'               # 5
    )

    def test_determinism_rules_skip_the_harness(self):
        self.assertEqual(
            _findings("src/harness/x.hpp", self.BANNED),
            [(4, "event-core-priority-queue")])

    def test_priority_queue_rule_skips_the_event_core(self):
        self.assertEqual(
            _findings("src/sim/x.hpp", self.BANNED),
            [(2, "determinism-unordered"), (3, "determinism-std-random"),
             (5, "determinism-taint")])

    def test_include_of_random_is_not_a_use(self):
        self.assertEqual(_findings("src/x.cpp", (
            '#include <random>\n'
            '#include <unordered_map>\n'
            '#include <queue>\n'
            '#include <chrono>\n'
        )), [])

    def test_comments_and_literals_do_not_fire(self):
        self.assertEqual(_findings("src/x.cpp", (
            '// std::unordered_map, std::mt19937, rand(), time(nullptr)\n'
            '/* std::chrono::steady_clock, make_heap */\n'
            'const char *k = "priority_queue unordered_set clock()";\n'
        )), [])

    def test_header_without_pragma_once_fires_on_line_one(self):
        self.assertEqual(_findings("src/x.hpp", (
            '// no pragma here\n'
            'int f();\n'
        )), [(1, "header-pragma-once")])
        self.assertEqual(
            _findings("src/y.hpp", '#pragma once\nint f();\n'), [])

    def test_wall_clock_and_rand_calls_fire(self):
        self.assertEqual(_findings("src/x.cpp", (
            'long a = time(nullptr) + ::time(NULL) + time(0);\n'  # 1
            'long b = clock() + std::rand() + srand(1);\n'        # 2
            'std::chrono::nanoseconds c;\n'                       # 3
            'long d = disk.time(req) + rng.rand() + p->clock();\n'
        )), [(1, "determinism-taint")] * 3 +
            [(2, "determinism-taint")] * 3 +
            [(3, "determinism-taint")])

    def test_suppress_silences_the_next_statement_only(self):
        self.assertEqual(_findings("src/x.cpp", (
            'void f()\n'
            '{\n'
            '    DECLUST_ANALYZE_SUPPRESS(\n'
            '        "determinism-unordered: lookup cache, never "\n'
            '        "iterated");\n'
            '    std::unordered_map<int, int> byId;\n'   # 6
            '    std::unordered_set<int> seen;\n'        # 7
            '}\n'
        )), [(7, "determinism-unordered")])


class SuppressionPlumbing(unittest.TestCase):
    def test_covers_macro_call_and_whole_next_statement(self):
        fir = parser.parse_file("src/x.cpp", (
            'void f()\n'                             # 1
            '{\n'                                    # 2
            '    DECLUST_ANALYZE_SUPPRESS(\n'        # 3
            '        "rule-a,rule-b: reason "\n'     # 4
            '        "continued");\n'                # 5
            '    call(one,\n'                        # 6
            '         two);\n'                       # 7
            '    after();\n'                         # 8
            '}\n'
        ))
        for line in (3, 4, 5, 6, 7):
            self.assertEqual(fir.suppressions.get(line),
                             {"rule-a", "rule-b"},
                             "line %d not covered" % line)
        self.assertNotIn(8, fir.suppressions,
                         "suppression leaked past the next statement")

    def test_wildcard_all_swallows_any_rule(self):
        fir = parser.parse_file("src/y.cpp", (
            'void g()\n'
            '{\n'
            '    DECLUST_ANALYZE_SUPPRESS("all: bootstrap");\n'
            '    anything();\n'
            '}\n'
        ))
        finding = checks.Finding("src/y.cpp", 4, "hot-path-alloc", "m")
        kept, suppressed = analyze.apply_suppressions([finding], [fir])
        self.assertEqual(kept, [])
        self.assertEqual(suppressed, [finding])

    def test_unsuppressed_line_keeps_its_finding(self):
        fir = parser.parse_file("src/z.cpp", 'void h() { }\n')
        finding = checks.Finding("src/z.cpp", 1, "hot-path-alloc", "m")
        kept, suppressed = analyze.apply_suppressions([finding], [fir])
        self.assertEqual(kept, [finding])
        self.assertEqual(suppressed, [])


class ParserPlumbing(unittest.TestCase):
    def test_hot_path_annotation_marks_the_function(self):
        fir = parser.parse_file("src/h.hpp", (
            '#pragma once\n'
            'DECLUST_HOT_PATH\n'
            'void fast();\n'
            'void slow();\n'
        ))
        hot = {fn.name: fn.hot_path for fn in fir.functions}
        self.assertEqual(hot, {"fast": True, "slow": False})

    def test_hot_annotation_seeds_closure_across_calls(self):
        fir = parser.parse_file("src/c.cpp", (
            'void helper(int v) { sink(v); }\n'
            'DECLUST_HOT_PATH\n'
            'void root() { helper(1); }\n'
            'void bystander() { helper(2); }\n'
        ))
        reached = checks.hot_closure([fir])
        names = {fn.name for _fir, fn, _root in reached.values()}
        self.assertEqual(names, {"root", "helper"})


if __name__ == "__main__":
    unittest.main()
