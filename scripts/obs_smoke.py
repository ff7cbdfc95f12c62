#!/usr/bin/env python3
"""End-to-end validation of pathix_online's observability exports.

Runs the binary on a trace spec with every export flag, then checks:

  * the binary's own exact metrics cross-check passed (counter deltas ==
    the serve driver's operation tallies; the binary exits 1 otherwise and
    prints the reconciliation line we also assert on);
  * the Prometheus text parses line by line (TYPE declarations, sanitized
    names, numeric values) and carries the expected metric families;
  * the metrics JSON parses, carries exactly its `mode` and `metrics`
    keys, and its op counters are self-consistent with the Prometheus
    rendering;
  * the trace JSON parses, is non-empty, and every thread's B/E events
    form a properly nested span stack (what chrome://tracing requires);
  * the expected span names from the online reconfiguration stack appear;
  * the decision ledger JSONL parses line by line, starts with a schema-
    versioned meta record, every decision record carries the full audit
    schema (workload, search stats, candidates, both hysteresis sides,
    changes; the search stats exactly, with a greedy_seed object on every
    solved one), and its install/switch verdict count equals
    pathix_controller_reconfigurations_total;
  * the ledger's commit records chain: holds change nothing, every commit
    changes at least one path, and each change starts from the
    configuration the previous commit of that path left ("{}" before its
    first);
  * (for the shipped vehicle_joint_trace.pix) the ledger reproduces the
    shipped examples/ledgers/vehicle_joint_demo.jsonl field by field,
    except the meta record's spec path and the phase summaries' wall-clock
    latency_us tables — the golden of the deterministic one-worker replay
    every experiment runs on;
  * (when a pathix_serve binary is supplied) the buffer pool's accounting
    is honest: serving the same trace single-threaded with and without
    --buffer-pages, the buffered run's `pager:` line must reconcile
    hits + reads == the unbuffered run's reads — the pool may absorb
    read touches as hits, but it may never lose or invent one.

Usage: obs_smoke.py <pathix_online-binary> <trace.pix> [<pathix_serve-binary>]
"""

import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

PROM_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (-?[0-9.eE+-]+|[+-]Inf|NaN)$"
)
PROM_TYPE = re.compile(r"^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]*"
                       r" (counter|gauge|histogram)$")
LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')

EXPECTED_FAMILIES = [
    "pathix_db_ops_total",
    "pathix_db_op_latency_us_bucket",
    "pathix_pager_io_total",
    "pathix_pager_pages_total",
    "pathix_parts_built_total",
    "pathix_monitor_ops_observed_total",
    "pathix_controller_checks_total",
    "pathix_controller_transition_pages_total",
    "pathix_advisor_nodes_explored_total",
    "pathix_advisor_resolve_duration_us_bucket",
]

LEDGER_SCHEMA_VERSION = 3
DECISION_KEYS = ("check", "op_index", "controller", "phase", "verdict",
                 "hold_reason", "changes", "workload", "search",
                 "candidates", "hysteresis")
# Exactly these: a key outside them is schema drift too.
SEARCH_KEYS = ("pool_entries", "configs_enumerated", "nodes_explored",
               "nodes_pruned", "lower_bound", "bound_gap", "greedy_seed")
HYSTERESIS_KEYS = ("evaluated", "current_cost_per_op", "best_cost_per_op",
                   "savings_per_op", "horizon_ops", "theta", "lhs_pages",
                   "modeled", "rhs_modeled_pages", "measured",
                   "rhs_measured_pages", "passed")


def fail(message):
    print(f"obs_smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check_prometheus(text):
    families = set()
    samples = {}
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            if not PROM_TYPE.match(line):
                fail(f"bad comment/TYPE line: {line!r}")
            continue
        if not PROM_LINE.match(line):
            fail(f"unparseable exposition line: {line!r}")
        name_and_labels, value = line.rsplit(" ", 1)
        name = name_and_labels.split("{", 1)[0]
        families.add(name)
        labels = tuple(sorted(LABEL.findall(name_and_labels)))
        key = (name, labels)
        if key in samples:
            fail(f"duplicate series: {line!r}")
        samples[key] = float(value)
    for family in EXPECTED_FAMILIES:
        if family not in families:
            fail(f"expected metric family missing: {family}")
    # Histogram invariant on one family: +Inf bucket == _count.
    for (name, labels), value in samples.items():
        if not name.endswith("_bucket"):
            continue
        label_map = dict(labels)
        if label_map.get("le") != "+Inf":
            continue
        bare = dict(labels)
        del bare["le"]
        count_key = (name[: -len("_bucket")] + "_count",
                     tuple(sorted(bare.items())))
        if count_key not in samples:
            fail(f"histogram {name}{labels} has no _count series")
        if samples[count_key] != value:
            fail(f"+Inf bucket {value} != _count {samples[count_key]} "
                 f"for {name}{labels}")
    return samples


def check_metrics_json(path, prom_samples):
    doc = json.loads(Path(path).read_text())
    if sorted(doc) != ["metrics", "mode"]:
        fail(f"metrics JSON keys {sorted(doc)} != ['metrics', 'mode']")
    by_name = {}
    for sample in doc["metrics"]:
        labels = tuple(sorted(sample.get("labels", {}).items()))
        by_name[(sample["name"], labels)] = sample
    # Every non-histogram Prometheus series appears with the same value.
    for (name, labels), value in prom_samples.items():
        if any(name.endswith(s) for s in ("_bucket", "_sum", "_count")):
            continue
        key = (name, labels)
        if key not in by_name:
            fail(f"series {key} in Prometheus text but not in JSON")
        if by_name[key].get("value") != value:
            fail(f"value mismatch for {key}: JSON {by_name[key].get('value')}"
                 f" vs Prometheus {value}")
    ops = [s for (name, _), s in by_name.items()
           if name == "pathix_db_ops_total"]
    if not ops or sum(s["value"] for s in ops) <= 0:
        fail("no database operations recorded in pathix_db_ops_total")


def check_trace(path):
    doc = json.loads(Path(path).read_text())
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail("trace has no traceEvents")
    stacks = {}
    names = set()
    for event in events:
        for key in ("name", "cat", "ph", "ts", "pid", "tid"):
            if key not in event:
                fail(f"trace event missing {key!r}: {event}")
        names.add(event["name"])
        stack = stacks.setdefault(event["tid"], [])
        if event["ph"] == "B":
            stack.append(event)
        elif event["ph"] == "E":
            if not stack:
                fail(f"unmatched E event on tid {event['tid']}: {event}")
            top = stack.pop()
            if top["name"] != event["name"]:
                fail(f"E {event['name']!r} closes B {top['name']!r}")
            if event["ts"] < top["ts"]:
                fail(f"span {event['name']!r} ends before it begins")
        else:
            fail(f"unexpected phase {event['ph']!r}")
    for tid, stack in stacks.items():
        if stack:
            fail(f"unclosed spans on tid {tid}: "
                 f"{[e['name'] for e in stack]}")
    for expected in ("part_build", "joint_drift_check"):
        if expected not in names:
            fail(f"expected span {expected!r} missing (got {sorted(names)})")
    return names


def check_changes(i, rec, installed):
    """Checks one decision record's changes against `installed`.

    A hold changes nothing. A commit changes at least one path, each from
    the configuration the previous commit of that path left ("{}" before
    its first) to a different one. `installed` maps each path to the
    configuration its latest commit left, and is updated here.
    """
    changes = rec["changes"]
    if rec["verdict"] == "hold":
        if changes:
            fail(f"ledger line {i}: hold lists changes {changes}")
        return
    if not changes:
        fail(f"ledger line {i}: commit changes no path")
    for change in changes:
        for key in ("path", "from", "to"):
            if key not in change:
                fail(f"ledger line {i}: change missing {key!r}")
        want = installed.get(change["path"], "{}")
        if change["from"] != want:
            fail(f"ledger line {i}: {change['path']} changes from "
                 f"{change['from']!r}, but the previous commit left {want!r}")
        if change["to"] == change["from"]:
            fail(f"ledger line {i}: {change['path']} changes to itself")
        installed[change["path"]] = change["to"]


def check_ledger(path, prom_samples):
    lines = Path(path).read_text().splitlines()
    if not lines:
        fail("decision ledger is empty")
    records = []
    for i, line in enumerate(lines, 1):
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as err:
            fail(f"ledger line {i} is not valid JSON: {err}")
    meta = records[0]
    if meta.get("type") != "meta":
        fail("ledger does not start with a meta record")
    if meta.get("schema_version") != LEDGER_SCHEMA_VERSION:
        fail(f"ledger schema_version {meta.get('schema_version')} != "
             f"{LEDGER_SCHEMA_VERSION}")
    for key in ("mode", "spec", "options", "paths", "phases"):
        if key not in meta:
            fail(f"ledger meta missing key {key!r}")
    commit_verdicts = 0
    decisions = 0
    phase_summaries = 0
    installed = {}
    for i, rec in enumerate(records[1:], 2):
        kind = rec.get("type")
        if kind == "phase_summary":
            phase_summaries += 1
            for key in ("phase", "ops", "pages", "reconfigurations",
                        "decisions", "latency_us", "op_pages"):
                if key not in rec:
                    fail(f"ledger line {i}: phase_summary missing {key!r}")
            continue
        if kind != "decision":
            fail(f"ledger line {i}: unexpected record type {kind!r}")
        decisions += 1
        for key in DECISION_KEYS:
            if key not in rec:
                fail(f"ledger line {i}: decision missing {key!r}")
        search = rec["search"]
        if set(search) != set(SEARCH_KEYS):
            fail(f"ledger line {i}: search keys {sorted(search)} != "
                 f"{sorted(SEARCH_KEYS)}")
        if search["nodes_explored"] > 0 and not isinstance(
                search["greedy_seed"], dict):
            fail(f"ledger line {i}: solved decision's greedy_seed is not an "
                 "object")
        hyst = rec["hysteresis"]
        for key in HYSTERESIS_KEYS:
            if key not in hyst:
                fail(f"ledger line {i}: hysteresis missing {key!r}")
        verdict = rec["verdict"]
        if verdict in ("install", "switch"):
            commit_verdicts += 1
            if hyst["measured"] is None:
                fail(f"ledger line {i}: committed decision has no measured "
                     "hysteresis side")
            if not rec["candidates"]:
                fail(f"ledger line {i}: committed decision has no candidates")
        elif verdict == "hold":
            if not rec["hold_reason"]:
                fail(f"ledger line {i}: hold without a hold_reason")
        else:
            fail(f"ledger line {i}: unknown verdict {verdict!r}")
        check_changes(i, rec, installed)
    if decisions == 0:
        fail("ledger has no decision records")
    if phase_summaries != len(meta["phases"]):
        fail(f"{phase_summaries} phase summaries for "
             f"{len(meta['phases'])} phases")
    # The ledger and the metrics must count the same reconfigurations.
    recon = sum(v for (name, _), v in prom_samples.items()
                if name == "pathix_controller_reconfigurations_total")
    if commit_verdicts != recon:
        fail(f"ledger commit verdicts {commit_verdicts} != "
             f"pathix_controller_reconfigurations_total {recon}")
    return decisions


SHIPPED_LEDGER_SPEC = "vehicle_joint_trace.pix"
SHIPPED_LEDGER = (Path(__file__).resolve().parent.parent / "examples" /
                  "ledgers" / "vehicle_joint_demo.jsonl")


def json_differences(got, want, where):
    """Yields every path at which two parsed JSON values differ."""
    if isinstance(got, dict) and isinstance(want, dict):
        for key in sorted(set(got) | set(want)):
            if key not in got or key not in want:
                yield f"{where}.{key}: present on one side only"
            else:
                yield from json_differences(got[key], want[key],
                                            f"{where}.{key}")
    elif isinstance(got, list) and isinstance(want, list):
        if len(got) != len(want):
            yield f"{where}: {len(got)} entries, shipped {len(want)}"
        else:
            for i, (g, w) in enumerate(zip(got, want)):
                yield from json_differences(g, w, f"{where}[{i}]")
    elif got != want or type(got) is not type(want):
        yield f"{where}: {got!r}, shipped {want!r}"


def check_shipped_ledger(path):
    """The shipped trace's ledger must reproduce the shipped golden.

    Only wall-clock values may differ (the phase summaries' latency_us
    tables), plus the meta record's spec path, which names wherever the
    spec was read from.
    """
    got = [json.loads(line) for line in Path(path).read_text().splitlines()]
    want = [json.loads(line)
            for line in SHIPPED_LEDGER.read_text().splitlines()]
    if len(got) != len(want):
        fail(f"ledger has {len(got)} lines, shipped {SHIPPED_LEDGER.name} "
             f"has {len(want)}")
    differences = []
    for i, (g, w) in enumerate(zip(got, want), 1):
        skip = {"meta": "spec", "phase_summary": "latency_us"}.get(
            g.get("type"))
        if skip is not None:
            g = {k: v for k, v in g.items() if k != skip}
            w = {k: v for k, v in w.items() if k != skip}
        differences.extend(json_differences(g, w, f"line {i}"))
    if differences:
        fail(f"ledger differs from shipped {SHIPPED_LEDGER.name} in "
             f"{len(differences)} field(s): " + "; ".join(differences[:5]))
    return len(got)


PAGER_LINE = re.compile(
    r"pager: reads=(\d+) writes=(\d+) buffer_hits=(\d+) "
    r"evictions=(\d+) writebacks=(\d+) buffer_pages=(\d+)"
)

SERVE_BUFFER_PAGES = 256


def serve_pager_counters(serve_binary, spec, buffer_pages):
    args = [serve_binary, "--threads=1"]
    if buffer_pages:
        args.append(f"--buffer-pages={buffer_pages}")
    args.append(spec)
    proc = subprocess.run(args, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"pathix_serve {' '.join(args[1:])} exited {proc.returncode}")
    match = PAGER_LINE.search(proc.stdout)
    if not match:
        fail(f"no pager accounting line in pathix_serve output "
             f"(buffer_pages={buffer_pages})")
    reads, writes, hits, evictions, writebacks, pages = map(
        int, match.groups())
    if pages != buffer_pages:
        fail(f"pathix_serve reports buffer_pages={pages}, "
             f"expected {buffer_pages}")
    return {"reads": reads, "writes": writes, "hits": hits,
            "evictions": evictions, "writebacks": writebacks}


def check_buffered_serving(serve_binary, spec):
    """Buffered serving must account every read touch exactly once.

    The op stream is deterministic and independent of the buffer capacity
    (selection prices workloads with cold-model logical touches), so the
    buffered run sees the identical read-touch sequence: each touch is
    either one charged read or one buffer hit, never both, never neither.
    """
    cold = serve_pager_counters(serve_binary, spec, 0)
    warm = serve_pager_counters(serve_binary, spec, SERVE_BUFFER_PAGES)
    if cold["hits"] != 0:
        fail(f"unbuffered serve reports {cold['hits']} buffer hits")
    if warm["hits"] + warm["reads"] != cold["reads"]:
        fail(f"buffered serve lost read touches: hits {warm['hits']} + "
             f"reads {warm['reads']} != unbuffered reads {cold['reads']}")
    if warm["hits"] == 0:
        fail("buffered serve recorded no buffer hits at all")
    # Write-back may only collapse repeated writes, never add any.
    if warm["writes"] > cold["writes"]:
        fail(f"buffered serve charged more writes ({warm['writes']}) than "
             f"the unbuffered run ({cold['writes']})")
    return cold, warm


def main():
    if len(sys.argv) not in (3, 4):
        fail(f"usage: {sys.argv[0]} <pathix_online> <trace.pix> "
             "[<pathix_serve>]")
    binary, spec = sys.argv[1], sys.argv[2]
    serve_binary = sys.argv[3] if len(sys.argv) == 4 else None
    with tempfile.TemporaryDirectory(prefix="obs_smoke.") as tmp:
        metrics_out = str(Path(tmp) / "metrics.prom")
        metrics_json = str(Path(tmp) / "metrics.json")
        trace_out = str(Path(tmp) / "trace.json")
        decisions_out = str(Path(tmp) / "decisions.jsonl")
        proc = subprocess.run(
            [binary, spec, "--metrics",
             f"--metrics-out={metrics_out}",
             f"--metrics-json={metrics_json}",
             f"--trace-out={trace_out}",
             f"--decisions-out={decisions_out}"],
            capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        # 0 = envelope met, 2 = envelope missed but the run (and all
        # exports + the exact cross-check) succeeded; 1 = hard error.
        if proc.returncode not in (0, 2):
            fail(f"pathix_online exited {proc.returncode}")
        if "metrics cross-check: ok" not in proc.stdout:
            fail("exact counters-vs-replay cross-check line missing")
        if "decision ledger cross-check: ok" not in proc.stdout:
            fail("decision ledger cross-check line missing")
        prom = check_prometheus(Path(metrics_out).read_text())
        check_metrics_json(metrics_json, prom)
        names = check_trace(trace_out)
        decisions = check_ledger(decisions_out, prom)
        golden_note = ""
        if Path(spec).name == SHIPPED_LEDGER_SPEC:
            lines = check_shipped_ledger(decisions_out)
            golden_note = (f", all {lines} lines match the shipped "
                           f"{SHIPPED_LEDGER.name}")
    serve_note = ""
    if serve_binary is not None:
        cold, warm = check_buffered_serving(serve_binary, spec)
        serve_note = (f", buffered serving reconciled: {warm['hits']} hits"
                      f" + {warm['reads']} reads == {cold['reads']} cold"
                      " reads")
    print(f"obs_smoke: ok ({len(prom)} Prometheus series, "
          f"{decisions} ledgered decisions{golden_note}, "
          f"span names: {', '.join(sorted(names))}{serve_note})")


if __name__ == "__main__":
    main()
