#!/usr/bin/env python3
"""Determinism and portability linter for the WCDMA simulator tree.

Every scaling lever in this repo -- sharded frames (sim.threads), CRN-paired
sweeps, trace replay, checkpoint/resume -- rests on a bit-identity contract
that golden tests enforce only after the fact and only on pinned seeds.  This
linter makes the contract machine-checked at the source level: it scans
src/**/*.{cpp,hpp} and tools/*.{cpp,hpp} for constructs that are known to
break bit-identity or portability, before any test ever runs.

There is no clang-tidy in the build container, so the pass is self-contained
Python over the C++ sources: comments and string literals are stripped before
rule matching (a mention of "steady_clock" in a design comment is not a
finding), and every rule is a row in RULES with an ID, a regex, an optional
path scope, and a one-line message.  The full rationale for each rule lives
in tools/lint_rules.md; `--list-rules` prints the IDs so tools/check_docs.sh
can gate that the doc and the table never drift.

Suppressions are inline and cross-checked:

    some_code();  // lint-allow(DET-WALLCLOCK): wall-clock never enters results

A suppression applies to its own line, or -- when the comment is the only
thing on the line -- to the next source line.  A suppression must carry a
non-empty reason and must match at least one finding; a stale or unknown-rule
suppression is itself an error, so dead annotations cannot accumulate.

Exit status: 0 when the scanned tree is clean, 1 when any finding (or stale
suppression, or unreadable file) survives, 2 on usage errors.

Usage:
    tools/lint_determinism.py                 # lint the repository tree
    tools/lint_determinism.py FILE [FILE...]  # lint specific files
    tools/lint_determinism.py --list-rules    # print "ID<TAB>summary" rows
"""

import argparse
import os
import re
import sys
from typing import List, NamedTuple, Optional, Sequence, Tuple


class Rule(NamedTuple):
    rule_id: str
    pattern: "re.Pattern[str]"
    message: str
    # Findings only fire in files whose repo-relative path matches; None
    # means every scanned file.
    path_filter: Optional["re.Pattern[str]"]
    # Repo-relative paths where the rule is allowlisted wholesale (bench-style
    # files whose whole purpose is wall-clock measurement).  An entry ending
    # in "/" allowlists the whole directory subtree (e.g. "src/runner/" for
    # the process supervisor, whose timeouts are wall-clock by design).
    # Inline lint-allow comments are the per-line mechanism; this is the
    # per-file one.
    allow_paths: Tuple[str, ...]
    # Match against string-literal contents instead of code (printf format
    # strings live inside literals, which the code view blanks).
    in_strings: bool


def _rule(rule_id, pattern, message, path_filter=None, allow_paths=(),
          in_strings=False):
    return Rule(rule_id, re.compile(pattern), message,
                re.compile(path_filter) if path_filter else None,
                tuple(allow_paths), in_strings)


# The rule table.  One row per rule ID; tools/lint_rules.md documents the
# rationale for every row and tools/check_docs.sh enforces that mapping.
RULES: List[Rule] = [
    _rule(
        "DET-UNORDERED-CONTAINER",
        r"\bstd::unordered_(?:map|set|multimap|multiset)\b",
        "std::unordered_* iteration order is implementation-defined; use the "
        "ordered container or an index-sorted vector",
    ),
    _rule(
        "DET-WALLCLOCK",
        r"(?:\bstd::random_device\b|(?<![\w:.])(?:rand|srand|time|clock)\s*\(|"
        r"\b(?:system_clock|steady_clock|high_resolution_clock)\b)",
        "wall-clock / ambient-entropy source in simulation code; all "
        "randomness must come from seeded common::Rng streams and all time "
        "from the frame clock",
        allow_paths=("tools/perf_smoke.cpp", "src/runner/"),
    ),
    _rule(
        "DET-SHUFFLE",
        r"\bstd::(?:shuffle|random_shuffle)\b",
        "std::shuffle's draw count is unspecified per element; permute via "
        "index sort keyed on seeded draws instead",
    ),
    _rule(
        "DET-NONSTRICT-SORT",
        r"\bstd::(?:sort|stable_sort|partial_sort|nth_element)\b"
        r"[^;]{0,200}?[^<>=!](?:<=|>=)",
        "sort comparator uses <= or >=: non-strict weak ordering is UB in "
        "std::sort and breaks ties nondeterministically on float keys",
    ),
    _rule(
        "DET-FLOAT-EQ",
        r"(?:(?:\d+\.\d*|\.\d+)(?:[eE][-+]?\d+)?f?\s*(?:==|!=)|"
        r"(?:==|!=)\s*(?:\d+\.\d*|\.\d+)(?:[eE][-+]?\d+)?f?|"
        r"\bf64\(\)\s*(?:==|!=)|(?:==|!=)\s*[\w.\->]*\bf64\(\))",
        "direct ==/!= on floating-point expressions; compare against an "
        "explicit tolerance, or justify the bit-exact intent inline",
    ),
    _rule(
        "DET-STATIC-LOCAL",
        r"^\s+static\s+(?!const\b|constexpr\b|_Thread_local\b|thread_local\b)"
        r"[A-Za-z_][\w:<>,\s*&]*?[\w>]\s*(?:=[^=]|;|\{)",
        "static mutable local: hidden cross-run (and cross-thread) state "
        "breaks replay and sharded bit-identity",
        path_filter=r"^src/.*\.(?:cpp|hpp)$",
        # The cached CPUID/WCDMA_SIMD dispatch level: writable only through
        # the test hook, and every level selects between element-wise
        # identical kernels, so it cannot influence results (lint_rules.md).
        allow_paths=("src/common/simd.hpp",),
    ),
    _rule(
        "PORT-LIBM",
        r"(?<![\w.>:])(?:std::|::)?"
        r"(?:exp|exp2|log|log2|log10|pow|sin|cos|hypot|cyl_bessel_j)\s*\(",
        "C-library transcendental in simulation code: glibc picks FMA or "
        "non-FMA variants at run time, so the bits depend on the host; call "
        "common::refmath (src/common/refmath.hpp) instead",
        path_filter=r"^src/",
        allow_paths=("src/common/refmath.cpp", "src/common/refmath.hpp"),
    ),
    _rule(
        "PORT-PRAGMA-ONCE",
        r"\A(?![\s\S]*^\s*#\s*pragma\s+once\b)",
        "header is missing #pragma once",
        path_filter=r"\.hpp$",
    ),
    _rule(
        "SER-FLOAT-FMT",
        r'%[-+ 0#]*\d*(?:l|ll|L)?[fFgGeE]',
        "float printf format without an explicit precision in a "
        "serialization path; the trace/metrics contract mandates %.17g "
        "(IEEE-754 round-trip)",
        path_filter=r"^(?:src/service/|src/common/serialize|src/sim/metrics|"
        r"tools/service_main)",
        in_strings=True,
    ),
]

RULE_IDS = {r.rule_id for r in RULES}

# Files the linter walks when no explicit paths are given, relative to the
# repository root (the parent of this script's directory).
SCAN_GLOBS = ("src", "tools")
SCAN_EXTENSIONS = (".cpp", ".hpp")

ALLOW_RE = re.compile(r"lint-allow\(([A-Za-z0-9-]+)\)\s*(?::\s*(.*?))?\s*$")


class Suppression(NamedTuple):
    rule_id: str
    line: int          # line the suppression applies to
    comment_line: int  # line the comment physically sits on
    reason: str
    used: bool = False


def strip_code(source: str) -> Tuple[List[str], List[str], List[str]]:
    """Returns (code_lines, comment_lines, string_lines): line-aligned views
    of `source` with comments/strings blanked from the code view, everything
    except comment text blanked from the comment view, and everything except
    string-literal contents blanked from the string view.  Blanking (not
    deleting) keeps column positions stable for messages."""
    code: List[str] = []
    comments: List[str] = []
    strings: List[str] = []
    in_block = False
    for raw in source.splitlines():
        code_chars: List[str] = []
        comment_chars: List[str] = []
        string_chars: List[str] = []
        i, n = 0, len(raw)
        in_string: Optional[str] = None
        while i < n:
            ch = raw[i]
            nxt = raw[i + 1] if i + 1 < n else ""
            if in_block:
                if ch == "*" and nxt == "/":
                    in_block = False
                    comment_chars.append("  ")
                    code_chars.append("  ")
                    string_chars.append("  ")
                    i += 2
                    continue
                comment_chars.append(ch)
                code_chars.append(" ")
                string_chars.append(" ")
                i += 1
                continue
            if in_string:
                code_chars.append(" ")
                comment_chars.append(" ")
                if ch == "\\":
                    string_chars.append(ch)
                    if i + 1 < n:
                        code_chars.append(" ")
                        comment_chars.append(" ")
                        string_chars.append(raw[i + 1])
                    i += 2
                    continue
                if ch == in_string:
                    in_string = None
                    string_chars.append(" ")
                else:
                    string_chars.append(ch)
                i += 1
                continue
            if ch == "/" and nxt == "/":
                comment_chars.append(raw[i:])
                code_chars.extend(" " * (n - i))
                string_chars.extend(" " * (n - i))
                break
            if ch == "/" and nxt == "*":
                in_block = True
                code_chars.append("  ")
                comment_chars.append("  ")
                string_chars.append("  ")
                i += 2
                continue
            if ch in "\"'":
                in_string = ch
                code_chars.append(ch)
                comment_chars.append(" ")
                string_chars.append(" ")
                i += 1
                continue
            code_chars.append(ch)
            comment_chars.append(" ")
            string_chars.append(" ")
            i += 1
        code.append("".join(code_chars))
        comments.append("".join(comment_chars))
        strings.append("".join(string_chars))
    return code, comments, strings


class Finding(NamedTuple):
    path: str
    line: int
    rule_id: str
    message: str


def collect_suppressions(path: str, code_lines: Sequence[str],
                         comment_lines: Sequence[str],
                         errors: List[Finding]) -> List[Suppression]:
    sups: List[Suppression] = []
    for idx, comment in enumerate(comment_lines):
        m = ALLOW_RE.search(comment)
        if not m:
            continue
        lineno = idx + 1
        rule_id, reason = m.group(1), (m.group(2) or "").strip()
        if rule_id not in RULE_IDS:
            errors.append(Finding(path, lineno, "LINT-BAD-ALLOW",
                                  f"suppression names unknown rule "
                                  f"'{rule_id}'"))
            continue
        if not reason:
            errors.append(Finding(path, lineno, "LINT-BAD-ALLOW",
                                  f"suppression of {rule_id} has no reason; "
                                  f"write lint-allow({rule_id}): <why>"))
            continue
        # Comment-only line: the suppression covers the next line that
        # carries code, skipping the rest of its own comment block.
        target = lineno
        if code_lines[idx].strip() == "":
            j = idx + 1
            while j < len(code_lines) and code_lines[j].strip() == "":
                j += 1
            target = j + 1
        sups.append(Suppression(rule_id, target, lineno, reason))
    return sups


def lint_file(path: str, rel: str) -> List[Finding]:
    try:
        with open(path, encoding="utf-8") as f:
            source = f.read()
    except (OSError, UnicodeDecodeError) as e:
        return [Finding(rel, 0, "LINT-IO", f"unreadable source file: {e}")]

    code_lines, comment_lines, string_lines = strip_code(source)
    findings: List[Finding] = []
    errors: List[Finding] = []
    sups = collect_suppressions(rel, code_lines, comment_lines, errors)
    used = [False] * len(sups)

    def suppressed(rule_id: str, lineno: int) -> bool:
        for i, s in enumerate(sups):
            if s.rule_id == rule_id and s.line == lineno:
                used[i] = True
                return True
        return False

    for rule in RULES:
        if rule.path_filter and not rule.path_filter.search(rel):
            continue
        if any(rel == p or (p.endswith("/") and rel.startswith(p))
               for p in rule.allow_paths):
            continue
        if rule.rule_id == "PORT-PRAGMA-ONCE":
            # Whole-file rule: match against the stripped source so a
            # commented-out pragma does not count.
            if rule.pattern.match("\n".join(code_lines)):
                if not suppressed(rule.rule_id, 1):
                    findings.append(Finding(rel, 1, rule.rule_id, rule.message))
            continue
        view = string_lines if rule.in_strings else code_lines
        for idx, line in enumerate(view):
            if rule.pattern.search(line):
                lineno = idx + 1
                if not suppressed(rule.rule_id, lineno):
                    findings.append(Finding(rel, lineno, rule.rule_id,
                                            rule.message))

    for i, s in enumerate(sups):
        if not used[i]:
            errors.append(Finding(rel, s.comment_line, "LINT-STALE-ALLOW",
                                  f"suppression of {s.rule_id} matches no "
                                  f"finding; delete it"))
    return findings + errors


def default_paths(root: str) -> List[str]:
    paths: List[str] = []
    for top in SCAN_GLOBS:
        base = os.path.join(root, top)
        if top == "tools":
            # tools/ is flat by convention; no recursion needed, and the
            # fixture dirs a selftest might scatter must never leak in.
            entries = (os.path.join(base, e) for e in sorted(os.listdir(base)))
            paths.extend(p for p in entries
                         if os.path.isfile(p) and p.endswith(SCAN_EXTENSIONS))
            continue
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(SCAN_EXTENSIONS):
                    paths.append(os.path.join(dirpath, name))
    return paths


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        description="Determinism/portability linter (see tools/lint_rules.md)")
    parser.add_argument("paths", nargs="*",
                        help="files to lint (default: the repository tree)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print 'ID<TAB>summary' for every rule and exit")
    parser.add_argument("--root", default=None,
                        help="repository root (default: the script's parent)")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in RULES:
            print(f"{rule.rule_id}\t{rule.message}")
        return 0

    root = os.path.abspath(
        args.root or os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                  os.pardir))
    if args.paths:
        targets = [os.path.abspath(p) for p in args.paths]
    else:
        targets = default_paths(root)

    all_findings: List[Finding] = []
    for path in targets:
        rel = os.path.relpath(path, root).replace(os.sep, "/")
        all_findings.extend(lint_file(path, rel))

    for f in sorted(all_findings):
        print(f"{f.path}:{f.line}: {f.rule_id}: {f.message}")
    if all_findings:
        print(f"lint_determinism: {len(all_findings)} finding(s) in "
              f"{len(targets)} file(s)", file=sys.stderr)
        return 1
    print(f"lint_determinism: OK ({len(targets)} files clean)",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
