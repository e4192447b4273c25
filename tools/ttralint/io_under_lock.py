"""ttra-lint pass: blocking I/O reachable while a mutex is held.

Walks every function body with the core held-lock tracker and flags call
sites that can reach a blocking sink — Env file operations, WalWriter
appends/syncs, SaveDatabase/ReadWal style whole-file helpers, raw
fsync/write, or sleeps — while at least one Mutex/SharedMutex guard is
held. Reachability is transitive over the class-aware call graph, so an
innocent-looking helper that eventually calls `env_->Sync()` is charged
to every locked caller, with a `file:line [via callee()]` chain.

Why this matters here: the commit pipeline deliberately performs WAL
appends under the single-writer commit lock (append order IS the commit
order — that is the design, and it is waived), but *fsync* and checkpoint
image writes under an executor-wide mutex stall every committer and every
stats() probe for the duration of a disk flush. Those are the latency
hazards that will dominate once the network service layer lands.

Waiver columns: <lock-glob> <sink-glob> <function-glob>.
"""

from core import build_analyzer

# Blocking methods on the Env abstraction (internally synchronized, may
# touch the disk). Resolved through the qualifier's declared type, so a
# same-named method on an unrelated class is not a sink.
ENV_SINKS = {
    "Append", "Sync", "Truncate", "TruncateTo", "Rename", "Remove",
    "CreateDir", "Read", "List", "Crash",
}
# WalWriter forwards to Env; callers serialize it externally, usually by
# holding exactly the lock this pass is watching.
WAL_SINKS = {
    "AddRecord", "AddRecords", "Create", "OpenForAppend", "ResetTail",
    "TrimTail", "Sync",
}
# Whole-file helpers that loop Env IO internally.
FREE_SINKS = {
    "SaveDatabase", "LoadDatabase", "ReadWal", "ScanStorage",
    "RepairStorage", "ScanOneLog", "RepairOneLog",
}
# Name-only sinks: blocking regardless of receiver.
NAME_SINKS = {
    "sleep_for", "sleep_until", "usleep", "nanosleep",
    "fsync", "fdatasync", "pwrite",
}


def classify(callee, hint, env_classes, wal_classes):
    """Sink label for a call site, or None."""
    if hint:
        if hint in env_classes and callee in ENV_SINKS:
            return "Env::%s" % callee
        if hint in wal_classes and callee in WAL_SINKS:
            return "WalWriter::%s" % callee
    if callee in FREE_SINKS:
        return callee
    if callee in NAME_SINKS:
        return callee
    return None


def collect_findings(analyzer):
    env_classes = analyzer.with_descendants("Env")
    wal_classes = analyzer.with_descendants("WalWriter")

    resolved = analyzer.resolved_call_sites()
    direct = {}
    for f in analyzer.functions:
        facts = {}
        for callee, hint, _, _, path, lineno in f.call_sites:
            sink = classify(callee, hint, env_classes, wal_classes)
            if sink and sink not in facts:
                facts[sink] = "%s:%d" % (path, lineno)
        if facts:
            direct[id(f)] = facts
    reachable = analyzer.propagate_facts(direct, resolved)

    findings = {}
    for f in analyzer.functions:
        own = direct.get(id(f), {})
        for (targets, held, path, lineno, callee), site in zip(
                resolved[id(f)], f.call_sites):
            if not held:
                continue
            _, hint, _, _, _, _ = site
            here = "%s:%d" % (path, lineno)
            sinks = {}
            sink = classify(callee, hint, env_classes, wal_classes)
            if sink:
                sinks[sink] = here
            for g in targets:
                if g is f:
                    continue
                for key, witness in reachable.get(id(g), {}).items():
                    sinks.setdefault(
                        key, "%s [via %s()] -> %s"
                        % (here, callee, witness.split(" -> ")[0]))
            for key, witness in sinks.items():
                for lock in sorted(held):
                    findings.setdefault(
                        (lock, key, f.qualified),
                        {"lock": lock, "sink": key,
                         "function": f.qualified, "witness": witness,
                         "file": path, "line": lineno})
    return sorted(findings.values(),
                  key=lambda d: (d["lock"], d["sink"], d["function"]))


def run(paths, excludes=()):
    """Returns (findings, files, error)."""
    analyzer, files, err = build_analyzer(paths, excludes)
    if err:
        return None, files, err
    return collect_findings(analyzer), files, None


def describe(finding):
    return "%s held across %s in %s (%s)" % (
        finding["lock"], finding["sink"], finding["function"],
        finding["witness"])


def waiver_columns(finding):
    return (finding["lock"], finding["sink"], finding["function"])
