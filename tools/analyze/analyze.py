#!/usr/bin/env python3
"""AST-grounded invariant analyzer — command-line driver.

Usage:
    python3 tools/analyze/analyze.py --root . [--json FILE]
    python3 tools/analyze/analyze.py --root . --self-test

Scans src/ (or tools/analyze/fixtures/ with --self-test) with the
dependency-free heuristic C++ parser (tools/analyze/parser.py) and runs
every check in checks.py over the IR it builds: token rules over the
identifier stream, includes and pragmas, and semantic rules over the
statement trees, call graph and include graph.

Suppression is annotation-based (src/util/annotations.hpp):

    DECLUST_ANALYZE_SUPPRESS("rule-a,rule-b: reason");
    ... the suppressed construct on the same or next code line ...

Self-test mode: fixture files declare expected findings with
`// EXPECT-ANALYZE: rule-id` comments; the run fails unless the
(file, rule) finding set matches exactly AND every rule in
checks.ALL_RULES fires in at least one fixture.

Exit status: 0 clean, 1 findings (or self-test mismatch), 2 usage error.
"""

import argparse
import json
import os
import re
import sys

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    from analyze import checks, parser  # type: ignore
else:
    from . import checks, parser

EXPECT_RE = re.compile(r"//\s*EXPECT-ANALYZE:\s*([A-Za-z0-9-]+)")
SOURCE_EXTS = (".cpp", ".hpp", ".h", ".cc")


def collect_files(root, subdir):
    base = os.path.join(root, subdir)
    hits = []
    for dirpath, _dirnames, filenames in os.walk(base):
        for name in sorted(filenames):
            if name.endswith(SOURCE_EXTS):
                full = os.path.join(dirpath, name)
                rel = os.path.relpath(full, root).replace(os.sep, "/")
                hits.append((full, rel))
    return sorted(hits, key=lambda pair: pair[1])


def parse_all(pairs):
    """Parse every (full, rel) pair into a FileIR."""
    firs = []
    for full, rel in pairs:
        with open(full, encoding="utf-8") as f:
            firs.append(parser.parse_file(rel, f.read()))
    return firs


def apply_suppressions(findings, firs):
    by_rel = {fir.rel: fir for fir in firs}
    kept = []
    suppressed = []
    for f in findings:
        fir = by_rel.get(f.rel)
        rules = fir.suppressions.get(f.line, set()) if fir else set()
        if f.rule in rules or "all" in rules:
            suppressed.append(f)
        else:
            kept.append(f)
    return kept, suppressed


def run(root, subdir):
    pairs = collect_files(root, subdir)
    if not pairs:
        raise FileNotFoundError("no sources under %s" % subdir)
    firs = parse_all(pairs)
    findings = checks.run_checks(firs)
    kept, suppressed = apply_suppressions(findings, firs)
    kept.sort(key=lambda f: (f.rel, f.line, f.rule))
    return pairs, kept, suppressed


def self_test(root):
    subdir = os.path.join("tools", "analyze", "fixtures")
    pairs, kept, _suppressed = run(root, subdir)
    expected = set()
    for full, rel in pairs:
        with open(full, encoding="utf-8") as f:
            for m in EXPECT_RE.finditer(f.read()):
                expected.add((rel, m.group(1)))
    found = {(f.rel, f.rule) for f in kept}
    ok = True
    for pair in sorted(expected - found):
        print("self-test: expected %s in %s but it did not fire"
              % (pair[1], pair[0]), file=sys.stderr)
        ok = False
    for pair in sorted(found - expected):
        print("self-test: unexpected %s at %s" % (pair[1], pair[0]),
              file=sys.stderr)
        ok = False
    fired = {rule for _rel, rule in found}
    for rule in checks.ALL_RULES:
        if rule not in fired:
            print("self-test: rule %s has no firing fixture" % rule,
                  file=sys.stderr)
            ok = False
    if ok:
        print("analyze self-test: all %d rules fire and match (%d "
              "fixtures)" % (len(checks.ALL_RULES), len(pairs)))
        return 0
    return 1


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=".",
                    help="repository root (default: cwd)")
    ap.add_argument("--self-test", action="store_true",
                    help="scan tools/analyze/fixtures/ and compare "
                         "against EXPECT-ANALYZE annotations")
    ap.add_argument("--json", default=None,
                    help="write findings as a JSON record")
    ap.add_argument("--list-rules", action="store_true")
    args = ap.parse_args(argv)

    if args.list_rules:
        for rule in checks.ALL_RULES:
            print(rule)
        return 0

    root = os.path.abspath(args.root)
    try:
        if args.self_test:
            return self_test(root)
        pairs, kept, suppressed = run(root, "src")
    except FileNotFoundError as e:
        print("analyze: %s" % e, file=sys.stderr)
        return 2

    for f in kept:
        print("%s:%d: [%s] %s" % (f.rel, f.line, f.rule, f.message))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as out:
            json.dump({
                "files_scanned": len(pairs),
                "findings": [f._asdict() for f in kept],
                "suppressed": [f._asdict() for f in suppressed],
            }, out, indent=1, sort_keys=True)
            out.write("\n")
    if kept:
        print("analyze: %d finding(s) in %d file(s) scanned (%d "
              "suppressed)" % (len(kept), len(pairs), len(suppressed)),
              file=sys.stderr)
        return 1
    print("analyze: clean (%d files scanned, %d suppressed finding(s))"
          % (len(pairs), len(suppressed)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
