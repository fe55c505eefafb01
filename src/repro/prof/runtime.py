"""The profiler runtime: hot-loop phase attribution and epoch spans.

:class:`ProfilerRuntime` plugs into the simulator's profiler slot (a
second ``None``-checked slot beside the sanitizer probe — see
:meth:`repro.net.simulator.Simulator.set_profiler`).  The profiled
dispatch loop hands it three wall-clock readings per event; everything
else — callback classification, per-phase and per-node accumulation,
NG epoch span tracking — happens here, out of the bare loop entirely.

Design constraints, in priority order:

* **Zero perturbation.**  The runtime never schedules events, never
  draws randomness, never touches node state.  All it consumes is the
  event object already dispatched and wall-clock deltas from
  :func:`repro.clock.wall_clock`.  Profiled runs are bit-identical to
  bare runs, including ``events_processed`` (pinned in
  ``tests/test_determinism.py``).
* **Cheap attribution.**  Callbacks are classified once per distinct
  function (a dict keyed on the underlying function object, built
  lazily), so the steady-state per-event cost is two dict probes and
  float adds — the loop's own wall-clock reads dominate.
* **No layer coupling.**  Classification matches ``__qualname__``
  strings, so the profiler never imports protocol modules and unknown
  callbacks (custom adapters, tests) degrade to an ``other:`` phase
  rather than breaking.

Epoch spans come from the node event path, not from the trace: the
runner puts the runtime in the network's ``epoch_spans`` slot before
building nodes, so every NG node reports ``epoch_started`` /
``epoch_ended`` / ``block_generated`` to it directly (the
:class:`~repro.net.gossip.EpochSpanTracker` protocol), tracer or no
tracer.  Those calls fold into key-block → microblock-stream → handover
spans.  Closed spans are emitted as schema-v1 ``prof_span`` records
when the run has a tracer.
"""

from __future__ import annotations

from ..clock import wall_clock
from ..obs.trace import short_hash
from .profile import (
    PHASE_DISPATCH,
    PHASE_HEAPPOP,
    PHASE_SANITIZE,
    EpochSpan,
    PhaseStat,
    Profile,
)

# Classification tags: how to derive (phase, node) from a callback.
_TAG_STATIC = 0  # fixed phase string, no node attribution
_TAG_NODE = 1  # fixed phase string, node = callback.__self__.node_id
_TAG_SAMPLER = 2  # phase = "obs:" + sampler class name
_TAG_DELIVER = 3  # phase by message kind (and object kind), node = dst

# Known hot callbacks by qualified name.  Anything else lands in
# "other:<qualname>" — visible in reports rather than silently dropped.
_KNOWN_CALLBACKS: dict[str, tuple[str | None, int]] = {
    "Network._deliver": (None, _TAG_DELIVER),
    "MiningScheduler._fire": ("mining:block", _TAG_STATIC),
    "NGNode._maybe_generate_microblock": ("mining:microblock", _TAG_NODE),
    "GossipNode._on_request_timeout": ("gossip:timeout", _TAG_NODE),
    "GossipNode._accept": ("gossip:verify", _TAG_NODE),
    "PeriodicSampler._fire": (None, _TAG_SAMPLER),
}


class ProfilerRuntime:
    """Accumulates phase/node/checker attribution for one experiment."""

    def __init__(self) -> None:
        # Phase name -> [calls, seconds].  Plain lists: the two-element
        # mutation pattern is the cheapest accumulator CPython offers.
        self._phases: dict[str, list] = {}
        # Underlying function object -> (phase | None, tag).
        self._by_func: dict[object, tuple[str | None, int]] = {}
        # (message kind, object kind | None) -> interned phase string.
        self._deliver_phases: dict[tuple[str, str | None], str] = {}
        self._node_calls: list[int] = []
        self._node_seconds: list[float] = []
        self._pop_calls = 0
        self._pop_seconds = 0.0
        self._probe_calls = 0
        self._probe_seconds = 0.0
        self._checkers: dict[str, list] = {}
        self._loop_wall = 0.0
        self._loop_mark: float | None = None
        # Span tracking: leader id -> open EpochSpan.
        self._open_spans: dict[int, EpochSpan] = {}
        self.spans: list[EpochSpan] = []
        self._span_sink = None  # the run's tracer, for prof_span records

    # -- wiring --------------------------------------------------------------

    def install(self, sim, n_nodes: int, tracer=None) -> None:
        """Claim the simulator's profiler slot and size per-node arrays.

        ``tracer`` (the run's, or None) receives the ``prof_span``
        records of closed epochs.
        """
        self._node_calls = [0] * n_nodes
        self._node_seconds = [0.0] * n_nodes
        self._span_sink = tracer
        sim.set_profiler(self)

    # -- hot-loop callbacks (invoked by Simulator._run_profiled) -------------

    def loop_started(self) -> None:
        self._loop_mark = wall_clock()

    def loop_ended(self) -> None:
        if self._loop_mark is not None:
            self._loop_wall += wall_clock() - self._loop_mark
            self._loop_mark = None

    def record(
        self, event, pop_seconds: float, callback_seconds: float
    ) -> None:
        """Attribute one dispatched event's pop and callback cost."""
        self._pop_calls += 1
        self._pop_seconds += pop_seconds
        callback = event.callback
        func = getattr(callback, "__func__", callback)
        classified = self._by_func.get(func)
        if classified is None:
            qualname = getattr(func, "__qualname__", None) or repr(func)
            classified = _KNOWN_CALLBACKS.get(qualname)
            if classified is None:
                classified = ("other:" + qualname, _TAG_STATIC)
            self._by_func[func] = classified
        phase, tag = classified
        node = -1
        if tag == _TAG_DELIVER:
            args = event.args
            message = args[2]
            kind = message.kind
            if kind == "object":
                key = (kind, message.payload.kind)
            elif kind == "inv":
                key = (kind, message.payload[1])
            else:
                key = (kind, None)
            phase = self._deliver_phases.get(key)
            if phase is None:
                phase = "deliver:" + (
                    key[0] if key[1] is None else f"{key[0]}:{key[1]}"
                )
                self._deliver_phases[key] = phase
            node = args[1]
        elif tag == _TAG_NODE:
            node = getattr(callback.__self__, "node_id", -1)
        elif tag == _TAG_SAMPLER:
            phase = "obs:" + type(callback.__self__).__name__
        stat = self._phases.get(phase)
        if stat is None:
            stat = self._phases[phase] = [0, 0.0]
        stat[0] += 1
        stat[1] += callback_seconds
        if 0 <= node < len(self._node_calls):
            self._node_calls[node] += 1
            self._node_seconds[node] += callback_seconds

    def record_probe(self, seconds: float) -> None:
        """One sanitizer probe invocation (sweep or countdown no-op)."""
        self._probe_calls += 1
        self._probe_seconds += seconds

    # -- sanitizer attribution (invoked by SanitizerRuntime._sweep) ----------

    def record_checker(self, code: str, seconds: float) -> None:
        """One checker call's cost, keyed by invariant code (INV1xx)."""
        stat = self._checkers.get(code)
        if stat is None:
            stat = self._checkers[code] = [0, 0.0]
        stat[0] += 1
        stat[1] += seconds

    # -- epoch spans (invoked by the node event path) -----------------------

    def epoch_started(self, leader: int, key_block: bytes, t: float) -> None:
        stale = self._open_spans.pop(leader, None)
        if stale is not None:
            # The leader regained leadership without observing loss
            # (e.g. a fork resolved back); close the earlier span at
            # the new epoch's start.
            self._close_span(stale, t, closed=True)
        self._open_spans[leader] = EpochSpan(
            leader=leader, key_block=short_hash(key_block), start=t, end=t
        )

    def epoch_ended(self, leader: int, t: float) -> None:
        span = self._open_spans.pop(leader, None)
        if span is not None:
            self._close_span(span, t, closed=True)

    def block_generated(self, miner: int, kind: str) -> None:
        if kind == "micro":
            span = self._open_spans.get(miner)
            if span is not None:
                span.micros += 1

    def _close_span(
        self, span: EpochSpan, end: float, closed: bool, emit: bool = True
    ) -> None:
        span.end = end
        span.closed = closed
        self.spans.append(span)
        if emit and self._span_sink is not None:
            self._span_sink.emit(
                "prof_span",
                end,
                leader=span.leader,
                key_block=span.key_block,
                start=round(span.start, 6),
                micros=span.micros,
                closed=closed,
            )

    # -- assembly ------------------------------------------------------------

    def build_profile(
        self,
        meta: dict,
        wall_setup: float,
        wall_simulate: float,
        events: int,
        end_time: float = 0.0,
    ) -> Profile:
        """Fold everything accumulated into a :class:`Profile`.

        Open epoch spans (the run ended mid-epoch) are closed at
        ``end_time`` with ``closed=False`` — into the profile only, not
        the trace: the run's tracer is already sealed with
        ``trace_end`` by the time the profile is assembled, and an emit
        here would lazily reopen (and truncate) the finished trace
        file.  The ``dispatch`` phase
        absorbs the profiled loop's residual wall time — heap scanning,
        cancelled-event skips, and the profiler's own bookkeeping — so
        the phase table always sums to the measured loop wall.
        """
        for leader in sorted(self._open_spans):
            span = self._open_spans.pop(leader)
            self._close_span(
                span, max(end_time, span.start), closed=False, emit=False
            )
        phases = {
            name: PhaseStat(calls=stat[0], seconds=stat[1])
            for name, stat in self._phases.items()
        }
        phases[PHASE_HEAPPOP] = PhaseStat(
            calls=self._pop_calls, seconds=self._pop_seconds
        )
        if self._probe_calls:
            phases[PHASE_SANITIZE] = PhaseStat(
                calls=self._probe_calls, seconds=self._probe_seconds
            )
        accounted = sum(stat.seconds for stat in phases.values())
        phases[PHASE_DISPATCH] = PhaseStat(
            calls=events, seconds=max(self._loop_wall - accounted, 0.0)
        )
        return Profile(
            meta=dict(meta),
            wall_setup_seconds=wall_setup,
            wall_simulate_seconds=wall_simulate,
            loop_wall_seconds=self._loop_wall,
            events_processed=events,
            phases=phases,
            checkers={
                code: PhaseStat(calls=stat[0], seconds=stat[1])
                for code, stat in self._checkers.items()
            },
            nodes=[
                [calls, seconds]
                for calls, seconds in zip(self._node_calls, self._node_seconds)
            ],
            spans=list(self.spans),
        )
