"""ttra-lint pass: allocation inventory of the operator kernels.

Counts heap traffic — `new`, `make_shared`/`make_unique`, and growing
container calls — inside the snapshot/historical operator kernels and
the expression evaluator, the per-tuple hot paths of every query. The
output is a ranked JSON report (functions by allocation-site count) that
seeds the arena-memory roadmap item with a concrete trajectory: which
kernels allocate, where, and whether a PR moved the needle.

This pass is an inventory, not a prohibition: it fails only when a file
REGRESSES against the checked-in baseline (more allocation sites in a
category than recorded, or a new file in the hot set with no baseline
entry). Improvements are reported and should be banked by regenerating:

    python3 tools/ttralint/ttralint.py hot-alloc --update-baseline

`reserve()` calls are tallied as a mitigation metric (more is better)
and never fail the gate.
"""

import json
import re

from core import build_analyzer

# The per-tuple hot set. Storage and executor code allocate on control
# paths (commit, checkpoint) where an arena buys nothing. The shared
# payload behind Tuple, Schema and TemporalElement allocates once per
# built tuple, so it is in the set too.
DEFAULT_PATHS = ["src/snapshot", "src/historical", "src/lang/evaluator.cc",
                 "src/util/shared_array.h"]

CATEGORIES = {
    "new": re.compile(r"\bnew\s+[A-Za-z_(]"),
    "make_shared": re.compile(r"\bmake_shared\s*<"),
    "make_unique": re.compile(r"\bmake_unique\s*<"),
    "container_growth": re.compile(
        r"\.\s*(?:push_back|emplace_back|emplace|insert|resize|append)\s*\("),
}
MITIGATION = {"reserve": re.compile(r"\.\s*reserve\s*\(")}


def scan(analyzer):
    """Returns (per_file, per_function) count tables."""
    per_file = {}
    per_function = []
    for f in analyzer.functions:
        counts = {}
        first = {}
        for lineno, code in f.body:
            for cat, regex in list(CATEGORIES.items()) + list(
                    MITIGATION.items()):
                n = len(regex.findall(code))
                if n:
                    counts[cat] = counts.get(cat, 0) + n
                    first.setdefault(cat, lineno)
        if counts:
            ftable = per_file.setdefault(f.file, {})
            for cat, n in counts.items():
                ftable[cat] = ftable.get(cat, 0) + n
            total = sum(n for cat, n in counts.items()
                        if cat in CATEGORIES)
            if total:
                per_function.append({
                    "function": f.qualified, "file": f.file,
                    "line": f.line, "total": total, "counts": counts,
                    "first_sites": {c: "%s:%d" % (f.file, n)
                                    for c, n in first.items()}})
    per_function.sort(key=lambda d: (-d["total"], d["function"]))
    return per_file, per_function


def compare(per_file, baseline):
    """Regressions/improvements of per_file vs the baseline table."""
    regressions = []
    improvements = []
    base_files = baseline.get("files", {})
    for path in sorted(per_file):
        counts = per_file[path]
        base = base_files.get(path)
        for cat in sorted(counts):
            if cat in MITIGATION:
                continue
            now = counts[cat]
            then = (base or {}).get(cat, 0)
            if base is None:
                regressions.append({
                    "file": path, "category": cat, "now": now,
                    "then": None,
                    "message": "%s: %d %s site(s) but file missing from "
                               "baseline" % (path, now, cat)})
            elif now > then:
                regressions.append({
                    "file": path, "category": cat, "now": now,
                    "then": then,
                    "message": "%s: %s sites %d -> %d"
                               % (path, cat, then, now)})
            elif now < then:
                improvements.append({
                    "file": path, "category": cat, "now": now,
                    "then": then})
    for path in sorted(base_files):
        if path not in per_file:
            improvements.append({"file": path, "category": "*",
                                 "now": 0, "then": None})
    return regressions, improvements


def report(per_file, per_function, regressions, improvements):
    return {
        "pass": "hot-alloc",
        "files": per_file,
        "functions": per_function,
        "regressions": regressions,
        "improvements": improvements,
    }


def run(paths, excludes=(), baseline=None):
    """Returns (report_dict, files, error). Regressions live in the
    report; the driver turns them into findings."""
    analyzer, files, err = build_analyzer(paths, excludes)
    if err:
        return None, files, err
    per_file, per_function = scan(analyzer)
    regressions, improvements = compare(per_file, baseline or {"files": {}})
    return report(per_file, per_function, regressions, improvements), \
        files, None


def baseline_from(per_file):
    return {
        "version": 1,
        "note": "regenerate: python3 tools/ttralint/ttralint.py hot-alloc "
                "--update-baseline",
        "files": {path: {cat: n for cat, n in sorted(counts.items())
                         if cat not in MITIGATION}
                  for path, counts in sorted(per_file.items())},
    }


def load_baseline(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
