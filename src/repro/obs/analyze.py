"""Offline trace analysis: the engine behind ``repro trace``.

Pure functions over saved JSONL traces — no simulator required — so a
run captured once can be summarized, bucketed into a timeline, or
ranked by per-node traffic long after (and far from) the machine that
produced it.
"""

from __future__ import annotations

import json
from collections import Counter as TallyCounter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from .trace import SCHEMA_VERSION, TraceError

TRACE_SUFFIX = ".trace.jsonl"

# Events emitted by the fault-injection engine (repro.scenarios).
FAULT_EVENTS = (
    "node_crash",
    "node_restart",
    "partition",
    "heal",
    "link_degrade",
    "link_restore",
    "msg_loss",
)


def find_traces(path: str | Path) -> list[Path]:
    """Trace files under ``path``: itself if a file, else ``*.trace.jsonl``."""
    target = Path(path)
    if target.is_file():
        return [target]
    if target.is_dir():
        traces = sorted(target.glob(f"*{TRACE_SUFFIX}"))
        if not traces:
            raise TraceError(f"no {TRACE_SUFFIX} files under {target}")
        return traces
    raise TraceError(f"no such file or directory: {target}")


def iter_records(path: str | Path) -> Iterator[dict]:
    """Parse one JSONL trace, validating the schema version per record."""
    with Path(path).open("r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceError(
                    f"{path}:{line_no}: not valid JSON: {exc}"
                ) from exc
            version = record.get("v")
            if version != SCHEMA_VERSION:
                raise TraceError(
                    f"{path}:{line_no}: unsupported schema version {version!r}"
                )
            yield record


def load_records(path: str | Path) -> list[dict]:
    return list(iter_records(path))


# -- summarize ---------------------------------------------------------------


@dataclass
class TraceSummary:
    """Aggregates of one trace file."""

    records: int = 0
    t_min: float = 0.0
    t_max: float = 0.0
    events: dict[str, int] = field(default_factory=dict)
    sends_by_kind: dict[str, int] = field(default_factory=dict)
    bytes_by_kind: dict[str, int] = field(default_factory=dict)
    queue_delay_count: int = 0
    queue_delay_sum: float = 0.0
    queue_delay_max: float = 0.0
    blocks_by_kind: dict[str, int] = field(default_factory=dict)
    tip_changes: int = 0
    epochs_started: int = 0
    epochs_ended: int = 0
    gossip_retries: int = 0
    rejects: int = 0
    drops: int = 0
    peak_queued_bytes: float = 0.0
    peak_busy_fraction: float = 0.0
    peak_mempool: int = 0
    peak_tips: int = 0
    faults: dict[str, int] = field(default_factory=dict)
    meta: dict = field(default_factory=dict)
    # Epoch spans from the profiler (``prof_span`` records), when the
    # trace was captured under ``repro prof``.
    prof_spans: int = 0
    prof_spans_closed: int = 0
    span_duration_sum: float = 0.0
    span_micros_sum: int = 0

    @property
    def queue_delay_mean(self) -> float:
        if not self.queue_delay_count:
            return 0.0
        return self.queue_delay_sum / self.queue_delay_count

    @property
    def span_duration_mean(self) -> float:
        if not self.prof_spans_closed:
            return 0.0
        return self.span_duration_sum / self.prof_spans_closed

    @property
    def span_micros_mean(self) -> float:
        if not self.prof_spans_closed:
            return 0.0
        return self.span_micros_sum / self.prof_spans_closed

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes_by_kind.values())


def summarize(records: Iterable[dict]) -> TraceSummary:
    """Fold a record stream into a :class:`TraceSummary`."""
    summary = TraceSummary()
    events: TallyCounter = TallyCounter()
    t_min = None
    t_max = None
    for record in records:
        ev = record["ev"]
        events[ev] += 1
        t = record.get("t", 0.0)
        if ev not in ("trace_start", "trace_end"):
            t_min = t if t_min is None else min(t_min, t)
            t_max = t if t_max is None else max(t_max, t)
        if ev == "trace_start":
            summary.meta = {
                k: v for k, v in record.items() if k not in ("v", "ev", "t")
            }
        elif ev == "send":
            kind = record.get("kind", "?")
            summary.sends_by_kind[kind] = summary.sends_by_kind.get(kind, 0) + 1
            summary.bytes_by_kind[kind] = summary.bytes_by_kind.get(
                kind, 0
            ) + record.get("size", 0)
            delay = record.get("qd", 0.0)
            if delay > 0:
                summary.queue_delay_count += 1
                summary.queue_delay_sum += delay
                summary.queue_delay_max = max(summary.queue_delay_max, delay)
        elif ev == "block_gen":
            kind = record.get("kind", "?")
            summary.blocks_by_kind[kind] = (
                summary.blocks_by_kind.get(kind, 0) + 1
            )
        elif ev == "tip_change":
            summary.tip_changes += 1
        elif ev == "epoch_start":
            summary.epochs_started += 1
        elif ev == "epoch_end":
            summary.epochs_ended += 1
        elif ev == "gossip_retry":
            summary.gossip_retries += 1
        elif ev == "obj_reject":
            summary.rejects += 1
        elif ev == "drop":
            summary.drops += 1
        elif ev == "sample_links":
            summary.peak_queued_bytes = max(
                summary.peak_queued_bytes, record.get("queued_bytes", 0.0)
            )
            summary.peak_busy_fraction = max(
                summary.peak_busy_fraction, record.get("frac", 0.0)
            )
        elif ev == "sample_mempool":
            summary.peak_mempool = max(
                summary.peak_mempool, record.get("max", 0)
            )
        elif ev == "sample_forks":
            summary.peak_tips = max(summary.peak_tips, record.get("tips", 0))
        elif ev == "prof_span":
            summary.prof_spans += 1
            if record.get("closed", True):
                summary.prof_spans_closed += 1
                summary.span_duration_sum += t - record.get("start", t)
                summary.span_micros_sum += record.get("micros", 0)
        elif ev in FAULT_EVENTS:
            summary.faults[ev] = summary.faults.get(ev, 0) + 1
    summary.events = dict(sorted(events.items()))
    summary.records = sum(events.values())
    summary.t_min = t_min if t_min is not None else 0.0
    summary.t_max = t_max if t_max is not None else 0.0
    return summary


def format_summary(summary: TraceSummary, name: str = "") -> str:
    """Human-readable report of one trace."""
    lines: list[str] = []
    if name:
        lines.append(f"== {name} ==")
    if summary.meta:
        meta = ", ".join(f"{k}={v}" for k, v in sorted(summary.meta.items()))
        lines.append(f"run:                 {meta}")
    lines.append(f"records:             {summary.records}")
    lines.append(
        f"time span:           {summary.t_min:.1f} .. {summary.t_max:.1f} s"
    )
    if summary.events:
        lines.append("event types:")
        total_records = summary.records or 1
        for ev, count in summary.events.items():
            lines.append(
                f"  {ev + ':':<19}{count:>8}  {count / total_records:>6.1%}"
            )
    if summary.sends_by_kind:
        lines.append("traffic by kind:")
        for kind in sorted(summary.sends_by_kind):
            lines.append(
                f"  {kind + ':':<19}{summary.sends_by_kind[kind]} msgs, "
                f"{summary.bytes_by_kind.get(kind, 0):,} bytes"
            )
        lines.append(f"total bytes sent:    {summary.total_bytes:,}")
    lines.append(
        "queueing delay:      "
        f"{summary.queue_delay_count} delayed sends, "
        f"mean {summary.queue_delay_mean:.3f} s, "
        f"max {summary.queue_delay_max:.3f} s"
    )
    if summary.blocks_by_kind:
        blocks = ", ".join(
            f"{kind}={count}"
            for kind, count in sorted(summary.blocks_by_kind.items())
        )
        lines.append(f"blocks generated:    {blocks}")
    lines.append(f"tip changes:         {summary.tip_changes}")
    if summary.epochs_started or summary.epochs_ended:
        lines.append(
            f"leader epochs:       {summary.epochs_started} started, "
            f"{summary.epochs_ended} ended"
        )
    if summary.prof_spans:
        open_spans = summary.prof_spans - summary.prof_spans_closed
        suffix = f", {open_spans} open at run end" if open_spans else ""
        lines.append(
            f"epoch spans:         {summary.prof_spans} profiled, "
            f"mean {summary.span_duration_mean:.1f} s, "
            f"mean {summary.span_micros_mean:.1f} microblocks{suffix}"
        )
    if summary.gossip_retries or summary.rejects or summary.drops:
        lines.append(
            f"anomalies:           {summary.gossip_retries} retries, "
            f"{summary.rejects} rejects, {summary.drops} drops"
        )
    if summary.faults:
        faults = ", ".join(
            f"{ev}={count}" for ev, count in sorted(summary.faults.items())
        )
        lines.append(f"faults injected:     {faults}")
    lines.append(
        "sampled peaks:       "
        f"queued {summary.peak_queued_bytes:,.0f} B, "
        f"busy {summary.peak_busy_fraction:.1%}, "
        f"mempool {summary.peak_mempool}, "
        f"tips {summary.peak_tips}"
    )
    return "\n".join(lines)


# -- timeline ----------------------------------------------------------------


def format_timeline(
    records: Iterable[dict], buckets: int = 20, width: int = 40
) -> str:
    """Bucketed activity over virtual time, with an ASCII bytes bar."""
    if buckets < 1:
        raise ValueError("need at least one bucket")
    rows = [
        {"sends": 0, "bytes": 0, "blocks": 0, "tips": 0, "faults": 0}
        for _ in range(buckets)
    ]
    t_min = t_max = None
    materialized = []
    for record in records:
        if record["ev"] in ("trace_start", "trace_end"):
            continue
        materialized.append(record)
        t = record.get("t", 0.0)
        t_min = t if t_min is None else min(t_min, t)
        t_max = t if t_max is None else max(t_max, t)
    if t_min is None:
        return "(empty trace)"
    span = max(t_max - t_min, 1e-9)
    for record in materialized:
        index = min(
            int((record.get("t", 0.0) - t_min) / span * buckets), buckets - 1
        )
        row = rows[index]
        ev = record["ev"]
        if ev == "send":
            row["sends"] += 1
            row["bytes"] += record.get("size", 0)
        elif ev == "block_gen":
            row["blocks"] += 1
        elif ev == "tip_change":
            row["tips"] += 1
        elif ev in FAULT_EVENTS:
            row["faults"] += 1
    peak_bytes = max(row["bytes"] for row in rows) or 1
    show_faults = any(row["faults"] for row in rows)
    header = (
        f"{'t [s]':>12}  {'sends':>8}  {'bytes':>12}  {'blocks':>6}  "
        f"{'tips':>5}  "
    )
    if show_faults:
        header += f"{'faults':>6}  "
    lines = [header + "traffic"]
    for index, row in enumerate(rows):
        start = t_min + span * index / buckets
        bar = "#" * round(row["bytes"] / peak_bytes * width)
        line = (
            f"{start:>12.1f}  {row['sends']:>8}  {row['bytes']:>12,}  "
            f"{row['blocks']:>6}  {row['tips']:>5}  "
        )
        if show_faults:
            line += f"{row['faults']:>6}  "
        lines.append(line + bar)
    return "\n".join(lines)


# -- toptalkers --------------------------------------------------------------


def format_toptalkers(records: Iterable[dict], top: int = 10) -> str:
    """Rank nodes by bytes booked onto their outgoing links.

    Node identifiers are interned through an
    :class:`~repro.net.interning.ObjectIdTable` into dense array
    indices, so per-node tallies are list-indexed integer adds instead
    of hash probes — the same layout trick the gossip hot path uses,
    applied to a trace with millions of ``send`` records.
    """
    from ..net.interning import ObjectIdTable

    node_ids: ObjectIdTable = ObjectIdTable()
    bytes_out: list[int] = []
    msgs_out: list[int] = []
    blocks_gen: list[int] = []
    for record in records:
        ev = record["ev"]
        if ev == "send":
            iid = node_ids.intern(record.get("src"))
            if iid == len(bytes_out):
                bytes_out.append(0)
                msgs_out.append(0)
                blocks_gen.append(0)
            bytes_out[iid] += record.get("size", 0)
            msgs_out[iid] += 1
        elif ev == "block_gen":
            iid = node_ids.intern(record.get("miner"))
            if iid == len(bytes_out):
                bytes_out.append(0)
                msgs_out.append(0)
                blocks_gen.append(0)
            blocks_gen[iid] += 1
    if not any(msgs_out):
        return "(no traffic recorded)"
    ranked = sorted(
        (iid for iid in range(len(bytes_out)) if msgs_out[iid]),
        key=lambda iid: (-bytes_out[iid], node_ids.obj_id(iid)),
    )[:top]
    lines = [f"{'node':>6}  {'bytes out':>14}  {'msgs out':>10}  {'blocks':>6}"]
    for iid in ranked:
        lines.append(
            f"{node_ids.obj_id(iid):>6}  {bytes_out[iid]:>14,}  "
            f"{msgs_out[iid]:>10}  {blocks_gen[iid]:>6}"
        )
    return "\n".join(lines)
