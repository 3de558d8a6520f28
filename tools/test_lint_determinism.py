#!/usr/bin/env python3
"""Selftests for tools/lint_determinism.py (ctest: lint_selftest).

The linter is a CI gate, so it gets the same treatment as check_perf: a
positive fixture (the rule fires) and a negative fixture (the compliant
idiom stays clean) for every rule ID in the table, plus the suppression
semantics and the stale-suppression cross-check. Fixtures are written to a
temp dir and linted as explicit paths with --root pointed at the temp dir,
so path-scoped rules (DET-STATIC-LOCAL, SER-FLOAT-FMT) see the repo-relative
layout they expect.
"""

import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import lint_determinism as lint  # noqa: E402


class LintFixtureCase(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.root = self._tmp.name

    def tearDown(self):
        self._tmp.cleanup()

    def run_lint(self, rel_path, source):
        """Writes `source` at root/rel_path and returns its findings."""
        path = os.path.join(self.root, rel_path)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(source)
        return lint.lint_file(path, rel_path)

    def assert_fires(self, rule_id, rel_path, source, line=None):
        findings = self.run_lint(rel_path, source)
        hits = [f for f in findings if f.rule_id == rule_id]
        self.assertTrue(hits, f"{rule_id} did not fire on:\n{source}\n"
                              f"got: {findings}")
        if line is not None:
            self.assertIn(line, [f.line for f in hits])

    def assert_clean(self, rel_path, source, rule_id=None):
        findings = self.run_lint(rel_path, source)
        if rule_id is not None:
            findings = [f for f in findings if f.rule_id == rule_id]
        self.assertEqual(findings, [],
                         f"expected clean but got {findings} on:\n{source}")


HPP_PREFIX = "#pragma once\n"


class UnorderedContainer(LintFixtureCase):
    def test_positive_map_and_set(self):
        self.assert_fires(
            "DET-UNORDERED-CONTAINER", "src/x/a.cpp",
            "#include <unordered_map>\n"
            "std::unordered_map<int, double> loads;\n")
        self.assert_fires(
            "DET-UNORDERED-CONTAINER", "src/x/a.cpp",
            "std::unordered_set<std::size_t> cells;\n")

    def test_negative_ordered_and_comment(self):
        self.assert_clean(
            "src/x/a.cpp",
            "#include <map>\n"
            "// an unordered_map here would break iteration order\n"
            "std::map<int, double> loads;\n")


class Wallclock(LintFixtureCase):
    def test_positive_each_source(self):
        for snippet in ("int r = rand();",
                        "srand(42);",
                        "std::random_device rd;",
                        "auto t = time(nullptr);",
                        "auto c = clock();",
                        "auto n = std::chrono::system_clock::now();",
                        "auto n = std::chrono::steady_clock::now();",
                        "auto n = std::chrono::high_resolution_clock::now();"):
            self.assert_fires("DET-WALLCLOCK", "src/x/a.cpp",
                              f"void f() {{ {snippet} }}\n")

    def test_negative_seeded_rng_and_identifiers(self):
        self.assert_clean(
            "src/x/a.cpp",
            "void f(common::Rng& rng) {\n"
            "  double u = rng.uniform();\n"
            "  double s = frame_time(3);  // suffix match must not fire\n"
            "  advance_clock_s(0.02);\n"
            "}\n", rule_id="DET-WALLCLOCK")

    def test_allowlisted_bench_file(self):
        # perf_smoke is wholesale-allowlisted: wall-clock is its purpose.
        self.assert_clean(
            "tools/perf_smoke.cpp",
            "auto t0 = std::chrono::steady_clock::now();\n",
            rule_id="DET-WALLCLOCK")

    def test_allowlisted_directory_prefix(self):
        # src/runner/ is directory-allowlisted (a trailing-"/" entry): the
        # supervisor's timeouts and backoff are wall-clock by design.
        self.assert_clean(
            "src/runner/supervisor.cpp",
            "auto now = std::chrono::steady_clock::now();\n",
            rule_id="DET-WALLCLOCK")
        # The prefix is a directory boundary, not a substring: a sibling
        # file whose name merely starts with "runner" still fires...
        self.assert_fires(
            "DET-WALLCLOCK", "src/runner_utils.cpp",
            "auto now = std::chrono::steady_clock::now();\n")
        # ...and simulation code stays guarded.
        self.assert_fires(
            "DET-WALLCLOCK", "src/sim/a.cpp",
            "auto now = std::chrono::steady_clock::now();\n")


class Shuffle(LintFixtureCase):
    def test_positive(self):
        self.assert_fires(
            "DET-SHUFFLE", "src/x/a.cpp",
            "std::shuffle(v.begin(), v.end(), gen);\n")

    def test_negative_index_sort(self):
        self.assert_clean(
            "src/x/a.cpp",
            "std::sort(idx.begin(), idx.end(),\n"
            "          [&](int a, int b) { return key[a] < key[b]; });\n")


class NonStrictSort(LintFixtureCase):
    def test_positive_lambda_leq(self):
        self.assert_fires(
            "DET-NONSTRICT-SORT", "src/x/a.cpp",
            "std::sort(v.begin(), v.end(),"
            " [](double a, double b) { return a <= b; });\n")

    def test_positive_stable_sort_geq(self):
        self.assert_fires(
            "DET-NONSTRICT-SORT", "src/x/a.cpp",
            "std::stable_sort(v.begin(), v.end(),"
            " [](const P& a, const P& b) { return a.w >= b.w; });\n")

    def test_negative_strict_comparator(self):
        self.assert_clean(
            "src/x/a.cpp",
            "std::sort(ranked.begin(), ranked.end(),\n"
            "          [](const auto& a, const auto& b)"
            " { return a.first > b.first; });\n")


class FloatEq(LintFixtureCase):
    def test_positive_literal_and_f64(self):
        self.assert_fires("DET-FLOAT-EQ", "src/x/a.cpp",
                          "if (x == 0.0) return;\n")
        self.assert_fires("DET-FLOAT-EQ", "src/x/a.cpp",
                          "if (1.5e-3 != y) return;\n")
        self.assert_fires("DET-FLOAT-EQ", "src/x/a.cpp",
                          "if (r.f64() != config_.frame_s) return false;\n")

    def test_negative_inequalities_and_ints(self):
        self.assert_clean(
            "src/x/a.cpp",
            "if (x <= 0.0) return;\n"
            "if (n == 0) return;\n"
            "if (std::abs(x - y) < 1e-9) return;\n", rule_id="DET-FLOAT-EQ")


class StaticLocal(LintFixtureCase):
    def test_positive_mutable_static(self):
        self.assert_fires(
            "DET-STATIC-LOCAL", "src/x/a.cpp",
            "void f() {\n"
            "  static int calls = 0;\n"
            "  ++calls;\n"
            "}\n", line=2)
        self.assert_fires(
            "DET-STATIC-LOCAL", "src/x/a.cpp",
            "double g() {\n"
            "  static std::vector<double> cache;\n"
            "  return cache.empty() ? 0.0 : cache[0];\n"
            "}\n")

    def test_negative_const_tables_and_decls(self):
        self.assert_clean(
            "src/x/a.cpp",
            "void f() {\n"
            "  static const int kTable[3] = {1, 2, 3};\n"
            "  static constexpr double kPi = 3.14159;\n"
            "}\n", rule_id="DET-STATIC-LOCAL")

    def test_out_of_scope_outside_src(self):
        # Path-scoped: tools/ bench scaffolding is exempt.
        self.assert_clean(
            "tools/perf_smoke.cpp",
            "void f() { static int calls = 0; ++calls; }\n",
            rule_id="DET-STATIC-LOCAL")


class PortLibm(LintFixtureCase):
    def test_positive_qualified_global_and_unqualified(self):
        for snippet in ("double g = std::pow(10.0, db / 10.0);",
                        "double r = ::exp(-x);",
                        "double l = log10 (x);",
                        "double d = std::hypot(dx, dy);",
                        "double j = std::cyl_bessel_j(0.0, x);",
                        "double c = std::cos(theta) * r;"):
            self.assert_fires("PORT-LIBM", "src/sim/a.cpp", snippet + "\n",
                              line=1)

    def test_negative_refmath_roots_and_lookalikes(self):
        self.assert_clean(
            "src/sim/a.cpp",
            "double g = common::refmath::pow(10.0, db / 10.0);\n"
            "double s = std::sqrt(x) + common::fast_exp2(y);\n"
            "double l = rm::log10(x) + logger.log(x) + p->exp(x);\n"
            "double e = std::ldexp(m, q);\n"
            "// std::pow(10, x) would depend on the host's libm\n",
            rule_id="PORT-LIBM")

    def test_refmath_itself_and_tools_are_out_of_scope(self):
        self.assert_clean("src/common/refmath.cpp",
                          "double exp(double x) { return exp2(x * k); }\n",
                          rule_id="PORT-LIBM")
        self.assert_clean("tools/sweep_main.cpp",
                          "double v = std::log(x);\n", rule_id="PORT-LIBM")

    def test_suppressed_with_reason(self):
        self.assert_clean(
            "src/common/stats.cpp",
            "// lint-allow(PORT-LIBM): test-only statistic, no trajectory\n"
            "double t = std::exp(a);\n")


class PragmaOnce(LintFixtureCase):
    def test_positive_missing(self):
        self.assert_fires("PORT-PRAGMA-ONCE", "src/x/a.hpp",
                          "struct Foo { int x; };\n", line=1)

    def test_positive_commented_out_does_not_count(self):
        self.assert_fires("PORT-PRAGMA-ONCE", "src/x/a.hpp",
                          "// #pragma once\nstruct Foo { int x; };\n")

    def test_negative_present(self):
        self.assert_clean("src/x/a.hpp",
                          "#pragma once\nstruct Foo { int x; };\n")

    def test_not_applied_to_cpp(self):
        self.assert_clean("src/x/a.cpp", "struct Foo { int x; };\n",
                          rule_id="PORT-PRAGMA-ONCE")


class SerFloatFmt(LintFixtureCase):
    def test_positive_bare_float_formats(self):
        for fmt in ("%f", "%g", "%e", "%12f", "%lf"):
            self.assert_fires(
                "SER-FLOAT-FMT", "src/service/trace.cpp",
                f'std::snprintf(buf, sizeof(buf), "{fmt}", v);\n')

    def test_positive_in_the_metrics_json_writer(self):
        self.assert_fires(
            "SER-FLOAT-FMT", "src/sim/metrics.cpp",
            'std::snprintf(buf, sizeof(buf), "%g", m.mean());\n')

    def test_negative_17g_and_out_of_scope(self):
        self.assert_clean(
            "src/service/trace.cpp",
            'std::snprintf(buf, sizeof(buf), "%.17g", v);\n',
            rule_id="SER-FLOAT-FMT")
        # Only serialization paths are in scope; bench table output is not.
        self.assert_clean(
            "src/sim/simulator.cpp",
            'std::printf("%f\\n", fps);\n', rule_id="SER-FLOAT-FMT")


class Suppressions(LintFixtureCase):
    def test_same_line_suppression(self):
        self.assert_clean(
            "src/x/a.cpp",
            "if (x == 0.0) return;"
            "  // lint-allow(DET-FLOAT-EQ): exact-zero guard\n")

    def test_comment_only_line_covers_next_code_line(self):
        self.assert_clean(
            "src/x/a.cpp",
            "// lint-allow(DET-FLOAT-EQ): exact-zero guard\n"
            "if (x == 0.0) return;\n")

    def test_multiline_comment_block_covers_next_code_line(self):
        self.assert_clean(
            "src/x/a.cpp",
            "// lint-allow(DET-WALLCLOCK): bench-only timing span;\n"
            "// the duration never reaches simulation state\n"
            "auto t0 = std::chrono::steady_clock::now();\n")

    def test_suppression_is_rule_specific(self):
        # A DET-WALLCLOCK allow does not silence a DET-FLOAT-EQ finding.
        findings = self.run_lint(
            "src/x/a.cpp",
            "// lint-allow(DET-WALLCLOCK): wrong rule\n"
            "if (x == 0.0) return;\n")
        self.assertIn("DET-FLOAT-EQ", [f.rule_id for f in findings])

    def test_stale_suppression_is_an_error(self):
        findings = self.run_lint(
            "src/x/a.cpp",
            "// lint-allow(DET-FLOAT-EQ): nothing here anymore\n"
            "int n = 0;\n")
        self.assertEqual([f.rule_id for f in findings], ["LINT-STALE-ALLOW"])

    def test_unknown_rule_and_missing_reason_are_errors(self):
        findings = self.run_lint(
            "src/x/a.cpp",
            "// lint-allow(NO-SUCH-RULE): whatever\n"
            "int n = 0;\n")
        self.assertEqual([f.rule_id for f in findings], ["LINT-BAD-ALLOW"])
        findings = self.run_lint(
            "src/x/b.cpp",
            "if (x == 0.0) return;  // lint-allow(DET-FLOAT-EQ)\n")
        self.assertIn("LINT-BAD-ALLOW", [f.rule_id for f in findings])
        # ...and the unjustified finding still fires.
        self.assertIn("DET-FLOAT-EQ", [f.rule_id for f in findings])


class CommentAndStringStripping(LintFixtureCase):
    def test_comments_never_fire(self):
        self.assert_clean(
            "src/x/a.cpp",
            "// steady_clock would be wrong here; rand() too\n"
            "/* std::unordered_map<int,int> sketch;\n"
            "   if (x == 0.0) {} */\n"
            "int n = 0;\n")

    def test_strings_never_fire(self):
        self.assert_clean(
            "src/x/a.cpp",
            'const char* kHelp = "uses steady_clock and rand()";\n'
            'const char* kFmt = "%f";\n')

    def test_code_after_block_comment_still_fires(self):
        self.assert_fires(
            "DET-WALLCLOCK", "src/x/a.cpp",
            "/* block */ auto t = std::chrono::steady_clock::now();\n")


class RuleTableContract(LintFixtureCase):
    def test_rule_ids_unique_and_documented_format(self):
        ids = [r.rule_id for r in lint.RULES]
        self.assertEqual(len(ids), len(set(ids)))
        for rule_id in ids:
            self.assertRegex(rule_id, r"^(DET|PORT|SER)-[A-Z0-9-]+$")

    def test_every_rule_has_a_lint_rules_md_section(self):
        # The same mapping check_docs.sh enforces in CI, kept here so the
        # selftest fails fast locally when a rule lands undocumented.
        rules_md = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "lint_rules.md")
        with open(rules_md, encoding="utf-8") as f:
            doc = f.read()
        for rule in lint.RULES:
            self.assertIn(f"`{rule.rule_id}`", doc,
                          f"{rule.rule_id} missing from tools/lint_rules.md")


if __name__ == "__main__":
    unittest.main()
