"""Structured event traces: schema-versioned JSONL records.

A :class:`Tracer` turns instrumented call sites into one flat JSON
object per line in a pluggable :class:`TraceSink`.  Every record carries
the schema version (``v``), the event name (``ev``), and the virtual
timestamp (``t``); the remaining fields are event-specific.  Block
hashes appear as 12-hex-char prefixes — unambiguous within a run and a
quarter the bytes of the full digest.

Record vocabulary (schema version 1):

=======================  ===================================================
``trace_start``          run metadata (protocol, nodes, seed)
``send``                 a message booked onto a link (src, dst, kind, size,
                         qd = sender-side queueing delay, arr = arrival time)
``drop``                 a send discarded by churn or a partition
``deliver``              a message handed to the destination handler
``gossip_retry``         a getdata timed out and was retried elsewhere
``obj_reject``           a delivered object failed validation (veto)
``block_gen``            a block was created (hash, kind, miner, size, n_tx)
``block_arrival``        a node first learned of a block
``tip_change``           a node's main-chain tip moved (node, tip, height)
``epoch_start``          an NG node became leader (its key block heads the
                         chain)
``epoch_end``            an NG node observed loss of its leadership
``sample_links``         periodic: busy links, busy fraction, queued bytes
``sample_mempool``       periodic: per-node mempool depth summary
``sample_forks``         periodic: distinct tips across nodes
``node_crash``           a scenario took a node offline (node, down_for?)
``node_restart``         a crashed node came back online and resynced
``partition``            a scenario split the network (groups, cut links)
``heal``                 the active partition was removed (restored links)
``link_degrade``         link latency/bandwidth multipliers applied
``link_restore``         degraded links reset to pristine parameters
``msg_loss``             the probabilistic send-loss rate changed
``invariant_violation``  a sanitizer checker fired (code, name, node,
                         message, snapshot) — checked (``--check``) runs only
``state_digest``         a sanitizer digest snapshot was captured (index =
                         events processed, nodes covered)
``prof_span``            a profiled NG leader epoch closed (leader, key_block,
                         start, micros, closed) — profiled runs only
``trace_end``            final counters, closes the file
=======================  ===================================================

The schema is append-only: new record types or fields may appear within
a version; removals or meaning changes bump ``SCHEMA_VERSION``.

Encoding: the :class:`Tracer` is the only place a record becomes text.
Sinks receive finished lines — compact JSON plus ``"\n"`` — and only
store them.  The generic :meth:`Tracer.emit` encodes its record with one
shared :class:`json.JSONEncoder`.  The per-message records (``send``,
``deliver``, ``drop``), about nine in ten of a run's records, go through
the typed :meth:`Tracer.send` and :meth:`Tracer.message`, which fill a
line template instead.  Their lines are byte-identical to what ``emit``
writes for the same record: a float that JSON would spell ``NaN`` or
``Infinity`` sends the record through ``emit`` instead.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO

SCHEMA_VERSION = 1


class TraceError(Exception):
    """Raised when a trace cannot be written or understood."""


class JsonlSink:
    """Appends finished lines to a ``.jsonl`` file."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._file: IO[str] | None = None
        self._closed = False
        self.records_written = 0

    def write(self, line: str) -> None:
        if self._file is None:
            if self._closed:
                # Lazily reopening in "w" mode would truncate a finished
                # trace; a write after trace_end is always a caller bug.
                raise TraceError(f"write to closed trace {self.path}")
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._file = self.path.open("w", encoding="utf-8")
        self._file.write(line)
        self.records_written += 1

    def close(self) -> None:
        self._closed = True
        if self._file is not None:
            self._file.close()
            self._file = None


class MemorySink:
    """Decodes lines back into a list of records — unit tests and
    in-process analysis.  Decoding checks every line is one JSON object
    followed by a newline."""

    def __init__(self) -> None:
        self.records: list[dict] = []

    @property
    def records_written(self) -> int:
        return len(self.records)

    def write(self, line: str) -> None:
        if not line.endswith("\n"):
            raise TraceError(f"trace line without newline: {line!r}")
        self.records.append(json.loads(line))

    def close(self) -> None:
        pass


def short_hash(block_hash: bytes) -> str:
    """The 12-hex-char prefix used for hashes in trace records."""
    return block_hash.hex()[:12]


# One encoder for every generic record: ``json.dumps`` with non-default
# separators would build a fresh encoder per call.
_encode = json.JSONEncoder(separators=(",", ":")).encode

# Templates for the per-message records.  ``%r`` spells an int or a
# finite float exactly as the JSON encoder does; strings arrive
# already JSON-encoded.
_SEND = (
    f'{{"v":{SCHEMA_VERSION},"ev":"send","t":%r,"src":%r,"dst":%r,'
    '"kind":%s,"size":%r,"qd":%r,"arr":%r}\n'
)
_MESSAGE = (
    f'{{"v":{SCHEMA_VERSION},"ev":%s,"t":%r,"src":%r,"dst":%r,'
    '"kind":%s,"size":%r}\n'
)


class Tracer:
    """Encodes schema-versioned records into lines for a sink.

    Instrumented code holds either a ``Tracer`` or ``None``; hot paths
    guard with ``if tracer is not None`` so a disabled run pays one
    attribute check and nothing else.
    """

    __slots__ = ("sink", "_write", "_quoted")

    def __init__(self, sink) -> None:
        self.sink = sink
        self._write = sink.write
        # String -> its JSON literal, quotes included (message kinds
        # and the two message event names: a handful per run).
        self._quoted: dict[str, str] = {}

    @property
    def records_written(self) -> int:
        return self.sink.records_written

    def emit(self, ev: str, t: float, **fields) -> None:
        record = {"v": SCHEMA_VERSION, "ev": ev, "t": t}
        record.update(fields)
        self._write(_encode(record) + "\n")

    def _quote(self, text: str) -> str:
        """Encode ``text`` and remember it (the memo's miss path)."""
        quoted = self._quoted[text] = _encode(text)
        return quoted

    def send(
        self,
        t: float,
        src: int,
        dst: int,
        kind: str,
        size: int,
        qd: float,
        arr: float,
    ) -> None:
        """A ``send`` record; ``src``, ``dst`` and ``size`` are ints."""
        # x - x is 0 for every finite number and NaN for NaN and ±inf.
        if t - t == qd - qd == arr - arr == 0:
            kind_json = self._quoted.get(kind) or self._quote(kind)
            self._write(_SEND % (t, src, dst, kind_json, size, qd, arr))
        else:
            self.emit(
                "send", t, src=src, dst=dst, kind=kind, size=size,
                qd=qd, arr=arr,
            )

    def message(
        self, ev: str, t: float, src: int, dst: int, kind: str, size: int
    ) -> None:
        """A ``deliver`` or ``drop`` record (``ev`` names which)."""
        if t - t == 0:
            quoted = self._quoted
            ev_json = quoted.get(ev) or self._quote(ev)
            kind_json = quoted.get(kind) or self._quote(kind)
            self._write(_MESSAGE % (ev_json, t, src, dst, kind_json, size))
        else:
            self.emit(ev, t, src=src, dst=dst, kind=kind, size=size)

    def close(self) -> None:
        self.sink.close()
