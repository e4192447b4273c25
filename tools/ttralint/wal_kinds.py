"""ttra-lint pass: WAL record-kind exhaustiveness.

The on-disk format has six record kinds across two enums — the
single-writer WAL's RecordKind (0 sentence / 1 atomic / 2 group) and the
sharded commit protocol's ShardRecordKind (3 prepare / 4 commit /
5 cross-prepare; 6 is reserved). Every reader of those bytes —
recovery replay, salvage scanning, and the fsck CLI wiring — must handle
every kind: a new kind that one reader silently skips is data loss that
no checksum will catch.

Driven by a JSON config (tools/ttralint/wal_kinds.json) listing each
enum, its declaring file, and its readers. A reader either names every
enumerator in its body (a switch/if chain the pass can see) or declares
`requires`: symbols it must reference (delegation — e.g. ReplayRecord
handles all kinds *because* it calls DecodeWalRecord). The pass fails
when an enum value is implicit, the union of values is not exactly the
configured domain, a reader function disappeared (rename protection), or
a reader misses an enumerator/required symbol.

Waiver columns: <check-glob> <subject-glob> <detail-glob>.
"""

import json
import re

from core import build_analyzer

ENUM_RE = re.compile(
    r"\benum\s+(?:class\s+)?(\w+)\s*(?::\s*[\w:]+\s*)?\{")
ENUMERATOR_RE = re.compile(r"^\s*(k\w+)\s*(?:=\s*(\d+))?\s*,?")


def parse_enum(lines, name):
    """[(enumerator, value|None, lineno)] for `enum [class] name` or None."""
    start = None
    for lineno, line in enumerate(lines, 1):
        match = ENUM_RE.search(line)
        if match and match.group(1) == name:
            start = lineno
            break
    if start is None:
        return None
    out = []
    for lineno in range(start, len(lines)):
        code = lines[lineno]  # line after the `{` line (1-based offset)
        if "}" in code:
            break
        code = re.sub(r"//.*", "", code)
        match = ENUMERATOR_RE.match(code)
        if match:
            value = int(match.group(2)) if match.group(2) else None
            out.append((match.group(1), value, lineno + 1))
    return out


def find_reader(analyzer, spec):
    """Resolve `Cls::Name` or bare `Name` to a Function, or None."""
    if "::" in spec:
        cls, name = spec.rsplit("::", 1)
    else:
        cls, name = None, spec
    candidates = analyzer.by_name.get(name, [])
    if cls:
        candidates = [f for f in candidates if f.cls == cls]
    else:
        candidates = [f for f in candidates if not f.cls]
    return candidates[0] if candidates else None


def check(config, analyzer, contents):
    findings = []

    def add(kind, subject, detail, witness):
        findings.append({"check": kind, "subject": subject,
                         "detail": detail, "witness": witness})

    domain = set(config.get("domain", []))
    seen_values = {}  # value -> "Enum::kName"

    for enum in config.get("enums", []):
        name, path = enum["name"], enum["file"]
        lines = contents.get(path)
        if lines is None:
            add("enum-missing", name, path, path)
            continue
        enumerators = parse_enum(lines, name)
        if enumerators is None:
            add("enum-missing", name, path, path)
            continue
        for label, value, lineno in enumerators:
            where = "%s:%d" % (path, lineno)
            if value is None:
                add("implicit-value", name, label, where)
                continue
            if value not in domain:
                add("domain", name, "%s=%d outside domain" % (label, value),
                    where)
            prior = seen_values.get(value)
            if prior:
                add("domain", name,
                    "%s=%d collides with %s" % (label, value, prior), where)
            seen_values[value] = "%s::%s" % (name, label)

        labels = [label for label, _, _ in enumerators]
        for reader in enum.get("readers", []):
            spec = reader["function"]
            func = find_reader(analyzer, spec)
            if func is None:
                add("reader-missing", name, spec,
                    "function %s not found (renamed?)" % spec)
                continue
            body = "\n".join(code for _, code in func.body)
            where = "%s:%d" % (func.file, func.line)
            required = reader.get("requires")
            if required:
                for symbol in required:
                    if not re.search(r"\b%s\b" % re.escape(symbol), body):
                        add("missing-delegation", spec, symbol, where)
            else:
                for label in labels:
                    if not re.search(r"\b%s\b" % re.escape(label), body):
                        add("unhandled-kind", spec, "%s::%s" % (name, label),
                            where)

    missing = domain - set(seen_values)
    if missing:
        add("domain", "all-enums",
            "values %s not declared by any enum"
            % sorted(missing), "wal_kinds.json")
    return findings


def run(paths, excludes=(), config=None):
    analyzer, files, err = build_analyzer(paths, excludes)
    if err:
        return None, files, err
    # Re-read the enum files raw (the analyzer does not keep raw lines).
    contents = {}
    for enum in config.get("enums", []):
        path = enum["file"]
        try:
            with open(path, "r", encoding="utf-8",
                      errors="replace") as fh:
                contents[path] = fh.read().splitlines()
        except OSError:
            contents[path] = None
    findings = check(config, analyzer, contents)
    findings.sort(key=lambda d: (d["check"], d["subject"], d["detail"]))
    return findings, files, None


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def describe(finding):
    return "%s: %s — %s (%s)" % (
        finding["check"], finding["subject"], finding["detail"],
        finding["witness"])


def waiver_columns(finding):
    return (finding["check"], finding["subject"], finding["detail"])
