"""Exporters and readers for traced runs.

Three formats, one source of truth (the tracer's in-memory records):

* **JSONL** (:func:`write_jsonl` / :func:`read_jsonl`) — one record per
  line: a header (schema version, label), every span and event in
  completion order, and a final metrics record.  This is the durable,
  diffable format; the decision-audit events round-trip bit-identically
  (floats survive JSON via shortest-repr).
* **Chrome trace-event JSON** (:func:`write_chrome_trace`) — loadable
  in ``chrome://tracing`` / Perfetto: spans become complete (``"X"``)
  events, typed events become instant (``"i"``) marks.
* **Human summary** (:func:`summarize`) — per-span-name totals, the
  decision/reconfiguration digest, probe accounting, metrics.

:func:`diff` compares two parsed runs (decision sequences, span
timings); :func:`agreement` computes tree-vs-oracle (dis)agreement
rates from the decision-audit events.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import ConfigurationError
from .events import SCHEMA_VERSION, validate_record

__all__ = [
    "TraceData",
    "tracer_records",
    "write_jsonl",
    "read_jsonl",
    "write_chrome_trace",
    "decision_sequence",
    "summarize",
    "diff",
    "agreement",
]


def tracer_records(tracer) -> List[dict]:
    """Header + collected records + metrics, ready to serialise."""
    header = {
        "type": "header",
        "schema": SCHEMA_VERSION,
        "label": getattr(tracer, "label", "run"),
    }
    metrics = {"type": "metrics", "metrics": tracer.metrics.snapshot()}
    return [header, *tracer.records, metrics]


def write_jsonl(tracer, path: str) -> None:
    """Serialise a traced run to one-record-per-line JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in tracer_records(tracer):
            fh.write(json.dumps(record, sort_keys=True))
            fh.write("\n")


@dataclass
class TraceData:
    """A parsed JSONL run."""

    header: dict = field(default_factory=dict)
    spans: List[dict] = field(default_factory=list)
    events: List[dict] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)

    def events_of(self, kind: str) -> List[dict]:
        """Event records of one kind, in emission order."""
        return [e for e in self.events if e.get("event") == kind]

    @property
    def label(self) -> str:
        return str(self.header.get("label", "run"))


def read_jsonl(path: str) -> TraceData:
    """Parse a JSONL export (validating the header's schema version)."""
    data = TraceData()
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ConfigurationError(
                    f"{path}:{line_no}: not valid JSON ({exc})"
                ) from exc
            kind = record.get("type")
            if kind == "header":
                if record.get("schema") != SCHEMA_VERSION:
                    raise ConfigurationError(
                        f"{path}: schema {record.get('schema')!r} is not "
                        f"the supported version {SCHEMA_VERSION}"
                    )
                data.header = record
            elif kind == "span":
                data.spans.append(record)
            elif kind == "event":
                data.events.append(record)
            elif kind == "metrics":
                data.metrics = record.get("metrics", {})
            else:
                raise ConfigurationError(
                    f"{path}:{line_no}: unknown record type {kind!r}"
                )
    return data


def validate_file(path: str) -> List[str]:
    """Schema-validate every record of a JSONL export (see events.py)."""
    problems: List[str] = []
    saw_header = False
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                problems.append(f"line {line_no}: not valid JSON ({exc})")
                continue
            if isinstance(record, dict) and record.get("type") == "header":
                saw_header = True
            for problem in validate_record(record):
                problems.append(f"line {line_no}: {problem}")
    if not saw_header:
        problems.append("no header record found")
    return problems


__all__.append("validate_file")


# ----------------------------------------------------------------------
# Chrome trace-event format
# ----------------------------------------------------------------------
def chrome_trace_events(source) -> List[dict]:
    """Trace-event objects for a :class:`Tracer` or :class:`TraceData`."""
    if isinstance(source, TraceData):
        spans, events = source.spans, source.events
    else:
        spans = [r for r in source.records if r["type"] == "span"]
        events = [r for r in source.records if r["type"] == "event"]
    out: List[dict] = []
    for s in spans:
        args = dict(s.get("attrs", {}))
        args.update(s.get("counters", {}))
        out.append(
            {
                "name": s["name"],
                "cat": "repro",
                "ph": "X",
                "ts": s["start_s"] * 1e6,
                "dur": s["dur_s"] * 1e6,
                "pid": 1,
                "tid": s.get("worker", {}).get("pid", 1),
                "args": args,
            }
        )
    for e in events:
        args = {
            k: v
            for k, v in e.items()
            if k not in ("type", "event", "t_s") and v is not None
        }
        out.append(
            {
                "name": e["event"],
                "cat": "repro.event",
                "ph": "i",
                "s": "t",
                "ts": e["t_s"] * 1e6,
                "pid": 1,
                "tid": e.get("worker", {}).get("pid", 1),
                "args": args,
            }
        )
    return out


__all__.append("chrome_trace_events")


def write_chrome_trace(source, path: str) -> None:
    """Write a ``chrome://tracing``/Perfetto-loadable trace file."""
    payload = {
        "traceEvents": chrome_trace_events(source),
        "displayTimeUnit": "ms",
        "otherData": {"exporter": "repro.obs", "schema": SCHEMA_VERSION},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


# ----------------------------------------------------------------------
# Analysis over parsed runs
# ----------------------------------------------------------------------
def decision_sequence(data: TraceData) -> List[Tuple[str, str, float]]:
    """Per-iteration ``(algorithm, hw_mode, density)`` from the audit
    events — comparable 1:1 with the live ``ReconfigurationLog``."""
    return [
        (e["algorithm"], e["hw_mode"], e["vector_density"])
        for e in data.events_of("decision")
    ]


def _span_totals(spans) -> Dict[str, Tuple[int, float]]:
    totals: Dict[str, Tuple[int, float]] = {}
    for s in spans:
        count, total_s = totals.get(s["name"], (0, 0.0))
        totals[s["name"]] = (count + 1, total_s + s["dur_s"])
    return totals


def agreement(data: TraceData) -> dict:
    """Tree-vs-chosen and tree-vs-oracle disagreement rates.

    ``tree_vs_chosen`` compares the shadow decision-tree walk against
    what the active policy actually ran; ``tree_vs_oracle`` compares it
    against the cycle-argmin of the priced alternatives (only decisions
    that priced alternatives count toward it).
    """
    decisions = data.events_of("decision")
    audited = [d for d in decisions if d.get("tree_algorithm")]
    chosen_disagree = sum(
        1
        for d in audited
        if (d["algorithm"], d["hw_mode"])
        != (d["tree_algorithm"], d["tree_hw_mode"])
    )
    priced = [d for d in audited if d.get("alternatives")]
    oracle_disagree = 0
    for d in priced:
        best = min(d["alternatives"].items(), key=lambda kv: kv[1]["cycles"])
        tree_label = f"{d['tree_algorithm'].upper()}/{d['tree_hw_mode']}"
        if best[0] != tree_label:
            oracle_disagree += 1
    return {
        "decisions": len(decisions),
        "audited": len(audited),
        "tree_vs_chosen_disagree": chosen_disagree,
        "tree_vs_chosen_rate": (
            chosen_disagree / len(audited) if audited else 0.0
        ),
        "priced": len(priced),
        "tree_vs_oracle_disagree": oracle_disagree,
        "tree_vs_oracle_rate": (
            oracle_disagree / len(priced) if priced else 0.0
        ),
    }


def summarize(data: TraceData) -> str:
    """Multi-line human digest of one parsed run."""
    lines = [f"trace {data.label!r}: {len(data.spans)} spans, "
             f"{len(data.events)} events"]
    totals = _span_totals(data.spans)
    if totals:
        lines.append("spans (count, total wall time):")
        width = max(len(name) for name in totals)
        for name in sorted(totals, key=lambda n: -totals[n][1]):
            count, total_s = totals[name]
            lines.append(
                f"  {name:<{width}}  {count:6d}x  {total_s * 1e3:10.2f} ms"
            )
    decisions = data.events_of("decision")
    if decisions:
        configs: Dict[str, int] = {}
        for d in decisions:
            label = f"{d['algorithm'].upper()}/{d['hw_mode']}"
            configs[label] = configs.get(label, 0) + 1
        densities = [d["vector_density"] for d in decisions]
        lines.append(
            f"decisions: {len(decisions)} "
            f"(density {min(densities):.4%}..{max(densities):.4%})"
        )
        for label in sorted(configs, key=configs.get, reverse=True):
            lines.append(f"  {label:6s} x{configs[label]}")
        ag = agreement(data)
        if ag["audited"]:
            lines.append(
                f"tree vs chosen: {ag['tree_vs_chosen_disagree']}"
                f"/{ag['audited']} disagree "
                f"({ag['tree_vs_chosen_rate']:.1%})"
            )
        if ag["priced"]:
            lines.append(
                f"tree vs oracle: {ag['tree_vs_oracle_disagree']}"
                f"/{ag['priced']} disagree "
                f"({ag['tree_vs_oracle_rate']:.1%})"
            )
    reconfigs = data.events_of("reconfig")
    if reconfigs:
        sw = sum(1 for e in reconfigs if e["sw_switched"])
        hw = sum(1 for e in reconfigs if e["hw_switched"])
        lines.append(f"reconfigurations: {sw} SW / {hw} HW")
    discarded = data.events_of("probe_discarded")
    if discarded:
        lines.append(f"discarded pricing probes: {len(discarded)}")
    violations = data.events_of("sanitizer_violation")
    for v in violations:
        lines.append(f"SANITIZER VIOLATION {v['label']}: {v['message']}")
    warnings = data.events_of("warning")
    for w in warnings:
        lines.append(f"warning [{w['source']}]: {w['message']}")
    counters = data.metrics.get("counters", {})
    if counters:
        lines.append("metrics counters:")
        for name in sorted(counters):
            lines.append(f"  {name} = {counters[name]:g}")
    observations = data.metrics.get("observations", {})
    if observations:
        lines.append("metrics observations (count, total):")
        for name in sorted(observations):
            o = observations[name]
            lines.append(
                f"  {name}: {o['count']:g} samples, total {o['total']:g}"
            )
    return "\n".join(lines)


def diff(a: TraceData, b: TraceData) -> str:
    """Human-readable comparison of two parsed runs."""
    lines = [f"diff {a.label!r} vs {b.label!r}"]
    seq_a, seq_b = decision_sequence(a), decision_sequence(b)
    if seq_a == seq_b:
        lines.append(f"decision sequences identical ({len(seq_a)} iterations)")
    else:
        lines.append(
            f"decision sequences differ: {len(seq_a)} vs {len(seq_b)} "
            "iterations"
        )
        for i, (da, db) in enumerate(zip(seq_a, seq_b)):
            if da != db:
                lines.append(
                    f"  first divergence at iteration {i}: "
                    f"{da[0].upper()}/{da[1]} (d={da[2]:.4%}) vs "
                    f"{db[0].upper()}/{db[1]} (d={db[2]:.4%})"
                )
                break
    totals_a, totals_b = _span_totals(a.spans), _span_totals(b.spans)
    names = sorted(set(totals_a) | set(totals_b))
    if names:
        lines.append("span wall time (a -> b):")
        width = max(len(n) for n in names)
        for name in names:
            count_a, sa = totals_a.get(name, (0, 0.0))
            count_b, sb = totals_b.get(name, (0, 0.0))
            ratio = f"{sb / sa:5.2f}x" if sa else "  new "
            lines.append(
                f"  {name:<{width}}  {sa * 1e3:9.2f} ms ({count_a}x) -> "
                f"{sb * 1e3:9.2f} ms ({count_b}x)  {ratio}"
            )
    ag_a, ag_b = agreement(a), agreement(b)
    if ag_a["priced"] or ag_b["priced"]:
        lines.append(
            f"tree-vs-oracle disagreement: {ag_a['tree_vs_oracle_rate']:.1%}"
            f" -> {ag_b['tree_vs_oracle_rate']:.1%}"
        )
    return "\n".join(lines)
