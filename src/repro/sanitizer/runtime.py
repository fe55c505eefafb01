"""The sanitizer runtime: event-boundary sweeps over live node state.

:class:`SanitizerRuntime` installs itself as the simulator's probe (one
``None``-check per event when nothing is installed) and, every
``stride`` processed events, sweeps each node.  Two sweep strategies:

* **incremental** (the default): a dirty-set tracker snapshots each
  node's cheap change indicators — main-chain tip hash, the mempool and
  UTXO mutation counters, the published-poison count — and skips nodes
  whose state provably did not change since the last sweep.  For dirty
  nodes, block checkers run once per newly adopted main-chain block
  (oldest first, exactly as before) and state checkers run through
  :meth:`~repro.sanitizer.checkers.InvariantChecker.check_dirty`, which
  gates on the components each checker declares in ``depends``.  INV104
  additionally memoizes signature verdicts in the process-wide
  :class:`~repro.crypto.sigcache.SignatureCache`.
* **full**: the original strategy — every state checker runs against
  every node on every sweep, and INV104 verifies uncached.  Kept as the
  independent cross-check path (``--check=full``).

**audit** mode runs incremental sweeps *plus* a periodic from-scratch
full sweep (every ``audit_stride`` sweeps and once at finalize) using
fresh replica checkers that share no state with the incremental set
(signature replicas carry a private cache, never the process-wide
one).  Any audit finding the incremental
path has not already reported is a dirty-tracking or cache bug in the
sanitizer itself and is surfaced as an ``audit-divergence`` violation
alongside the missed finding.  Transient violations that appeared and
cleared between audits are legitimately absent from an audit, so the
asserted relation is *audit findings ⊆ incremental findings*, per
``(code, node)``.

Violations are collected (deduplicated per ``(code, node)`` so one
broken invariant does not flood the report) and, when a tracer is
attached, emitted as schema-v1 ``invariant_violation`` trace events.

With ``digest_stride > 0`` the runtime also captures a
:class:`~repro.sanitizer.digests.DigestSnapshot` of every node on that
stride — the raw material for ``repro check diverge``.  Digests are
cached per node keyed on the same change indicators, so an unchanged
node never re-hashes its UTXO set.

Everything here is read-only with respect to simulation state: no
events scheduled, no RNG draws, no node mutation.  That is the whole
bit-identicality argument, and ``tests/test_determinism.py`` pins it.
Skipping a read (the incremental strategy's only trick) is trivially
unobservable to the simulation.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .checkers import InvariantChecker, NodeDelta, chain_of
from .digests import DigestSnapshot, NodeDigest, node_digest
from .violations import ViolationRecord, make_violation

#: Sweep strategies the runtime understands (``audit`` = incremental
#: sweeps + periodic full-sweep cross-checks).
RUNTIME_MODES = ("incremental", "full", "audit")

#: Audit cadence, in *sweeps* (not events), for ``mode="audit"``.  Each
#: audit re-walks every node's entire main chain from scratch, so the
#: cadence is deliberately sparse — with the default event stride of 64
#: this is one audit per ~64k simulator events, plus the unconditional
#: audit at finalize.
DEFAULT_AUDIT_STRIDE = 1024

#: Sentinel for "this node has no such component" in dirty tracking —
#: distinct from ``None``, which means "present but untracked" and is
#: treated as always-dirty.
_ABSENT = -1


class AuditDivergence(InvariantChecker):
    """Marker for audit findings the incremental path missed.

    Not a protocol invariant: it flags a bug in the *sanitizer* — the
    dirty-set tracker skipped a node it should not have, or the
    signature cache served a wrong verdict.  Recorded alongside the
    missed finding itself.
    """

    code = "SAN901"
    name = "audit-divergence"
    description = (
        "The periodic full-sweep audit found a violation the "
        "incremental path had not reported."
    )
    depends = frozenset()


class SanitizerRuntime:
    """Runs invariant checkers and digest captures during a simulation."""

    def __init__(
        self,
        checkers: Iterable[InvariantChecker],
        *,
        stride: int = 64,
        mode: str = "incremental",
        audit_stride: int | None = None,
        tracer: object | None = None,
        digest_stride: int = 0,
        profiler: object | None = None,
    ) -> None:
        if mode not in RUNTIME_MODES:
            raise ValueError(
                f"unknown sanitizer mode {mode!r} (choose from {RUNTIME_MODES})"
            )
        self.checkers = list(checkers)
        self.stride = max(1, int(stride))
        self.mode = mode
        self.tracer = tracer
        # A repro.prof ProfilerRuntime (or None): when set, sweeps time
        # each checker call with wall_clock and attribute the seconds
        # per invariant code.  Call order, violation recording, and
        # everything the simulation can observe are unchanged.
        self.profiler = profiler
        self.digest_stride = max(0, int(digest_stride))
        if audit_stride is None:
            audit_stride = DEFAULT_AUDIT_STRIDE if mode == "audit" else 0
        self.audit_stride = max(0, int(audit_stride)) if mode != "full" else 0
        self.violations: list[ViolationRecord] = []
        self.digests: list[DigestSnapshot] = []
        self.sweeps = 0
        self.audits = 0
        self.events_seen = 0
        self._sim: object | None = None
        self._nodes: Sequence[object] = ()
        self._node_ids: list[int] = []
        self._seen_blocks: list[set[bytes]] = []
        self._reported: set[tuple[str, int]] = set()
        self._sweep_countdown = self.stride
        self._digest_countdown = self.digest_stride
        self._audit_countdown = self.audit_stride
        # Dirty tracking: last observed (tip hash, mempool version,
        # UTXO version, poison count) per node; None = never swept.
        self._node_state: list[tuple | None] = []
        # Digest cache: (change-indicator key, NodeDigest) per node.
        self._digest_cache: list[tuple[tuple, NodeDigest] | None] = []
        # Fresh uncached replicas for the periodic audit, built lazily.
        self._audit_checkers: list[InvariantChecker] | None = None
        self._audit_marker = AuditDivergence()
        base = InvariantChecker
        # Partitions for the incremental strategy: skip hook calls that
        # are base-class no-ops.  Duck-typed checkers (no subclassing)
        # are included conservatively wherever they define the hook.
        self._block_checkers = [
            checker
            for checker in self.checkers
            if getattr(type(checker), "check_block", None)
            is not base.check_block
            and hasattr(checker, "check_block")
        ]
        self._event_checkers = [
            checker
            for checker in self.checkers
            if getattr(type(checker), "on_event", None) is not None
            and getattr(type(checker), "on_event") is not base.on_event
        ]
        self._dirty_checkers = []
        for checker in self.checkers:
            has_dirty = getattr(type(checker), "check_dirty", None)
            if has_dirty is not None and has_dirty is not base.check_dirty:
                self._dirty_checkers.append(checker)
            elif (
                getattr(type(checker), "check_state", None)
                is not base.check_state
                and hasattr(checker, "check_state")
            ):
                # Overridden state hook behind the default (or absent)
                # check_dirty: the base delegation covers subclasses;
                # legacy duck-typed checkers get a delegating shim.
                self._dirty_checkers.append(
                    checker
                    if has_dirty is not None
                    else _LegacyDirtyShim(checker)
                )

    # -- lifecycle ------------------------------------------------------

    def install(self, sim: object, nodes: Sequence[object]) -> None:
        """Attach to a simulator and the nodes to sweep."""
        self._sim = sim
        self._nodes = list(nodes)
        self._node_ids = [
            getattr(node, "node_id", index)
            for index, node in enumerate(self._nodes)
        ]
        self._seen_blocks = [set() for _ in self._nodes]
        self._node_state = [None for _ in self._nodes]
        self._digest_cache = [None for _ in self._nodes]
        sim.set_probe(self._probe)  # type: ignore[attr-defined]

    def finalize(self) -> None:
        """Final sweep (+ audit) + digest, then detach from the simulator."""
        if self._sim is None:
            return
        self._sweep()
        if self.checkers and self.audit_stride > 0 and self.mode != "full":
            self._audit()
        if self.digest_stride > 0:
            self._capture_digest()
        self._sim.set_probe(None)  # type: ignore[attr-defined]
        self._sim = None

    # -- the probe ------------------------------------------------------

    def _probe(self) -> None:
        self.events_seen += 1
        self._sweep_countdown -= 1
        if self._sweep_countdown <= 0:
            self._sweep_countdown = self.stride
            self._sweep()
        if self.digest_stride > 0:
            self._digest_countdown -= 1
            if self._digest_countdown <= 0:
                self._digest_countdown = self.digest_stride
                self._capture_digest()

    # -- sweeping -------------------------------------------------------

    def _sweep(self) -> None:
        if not self.checkers or self._sim is None:
            return
        if self.mode == "full":
            if self.profiler is not None:
                self._sweep_full_profiled()
            else:
                self._sweep_full()
            return
        if self.profiler is not None:
            self._sweep_incremental_profiled()
        else:
            self._sweep_incremental()
        if self.audit_stride > 0:
            self._audit_countdown -= 1
            if self._audit_countdown <= 0:
                self._audit_countdown = self.audit_stride
                self._audit()

    def _observe(
        self, index: int, node: object, chain: object
    ) -> tuple[list, NodeDelta | None]:
        """One node's dirty-set bookkeeping for this sweep.

        Returns the newly adopted main-chain records (tip-first) and the
        node's :class:`NodeDelta` — or ``None`` for the delta when the
        node provably did not change, in which case the caller skips it.
        """
        seen = self._seen_blocks[index]
        tip = chain.tip_record  # type: ignore[attr-defined]
        cursor = tip
        fresh = []
        while cursor is not None and cursor.hash not in seen:
            fresh.append(cursor)
            cursor = chain.get(cursor.parent_hash)  # type: ignore[attr-defined]
        mempool = getattr(node, "mempool", None)
        utxo = getattr(node, "utxo", None)
        poisons = getattr(node, "poisons_published", None)
        state = (
            tip.hash if tip is not None else None,
            _ABSENT if mempool is None else getattr(mempool, "version", None),
            _ABSENT if utxo is None else getattr(utxo, "version", None),
            len(poisons) if poisons is not None else _ABSENT,
        )
        last = self._node_state[index]
        self._node_state[index] = state
        if last is None:
            # First sweep: everything present is dirty.
            return fresh, NodeDelta(
                chain=True,
                mempool=mempool is not None,
                utxo=utxo is not None,
                poisons=bool(poisons),
                fresh_blocks=tuple(fresh),
            )
        chain_dirty = bool(fresh) or state[0] != last[0]
        mempool_dirty = _component_dirty(state[1], last[1])
        utxo_dirty = _component_dirty(state[2], last[2])
        poisons_dirty = _component_dirty(state[3], last[3])
        if not (chain_dirty or mempool_dirty or utxo_dirty or poisons_dirty):
            return fresh, None
        return fresh, NodeDelta(
            chain=chain_dirty,
            mempool=mempool_dirty,
            utxo=utxo_dirty,
            poisons=poisons_dirty,
            fresh_blocks=tuple(fresh),
        )

    def _sweep_incremental(self) -> None:
        now = self._sim.now  # type: ignore[attr-defined]
        self.sweeps += 1
        for index, node in enumerate(self._nodes):
            node_id = self._node_ids[index]
            chain = chain_of(node)
            fresh, delta = self._observe(index, node, chain)
            if delta is None:
                continue
            seen = self._seen_blocks[index]
            for checker in self._event_checkers:
                checker.on_event(node, node_id, delta, now)
            for record in reversed(fresh):
                seen.add(record.hash)
                for checker in self._block_checkers:
                    for violation in checker.check_block(
                        node, node_id, record, now
                    ):
                        self._record(violation)
            for checker in self._dirty_checkers:
                for violation in checker.check_dirty(
                    node, node_id, delta, now
                ):
                    self._record(violation)

    def _sweep_incremental_profiled(self) -> None:
        """The incremental sweep with per-checker wall-time attribution.

        A verbatim mirror of :meth:`_sweep_incremental` — same node
        order, same checker order, same violation recording — with each
        checker call bracketed by :func:`~repro.clock.wall_clock` reads.
        Kept separate so non-profiled checked runs never pay the clock
        reads.
        """
        from ..clock import wall_clock

        record_checker = self.profiler.record_checker  # type: ignore[attr-defined]
        now = self._sim.now  # type: ignore[attr-defined]
        self.sweeps += 1
        for index, node in enumerate(self._nodes):
            node_id = self._node_ids[index]
            chain = chain_of(node)
            fresh, delta = self._observe(index, node, chain)
            if delta is None:
                continue
            seen = self._seen_blocks[index]
            for checker in self._event_checkers:
                checker.on_event(node, node_id, delta, now)
            for record in reversed(fresh):
                seen.add(record.hash)
                for checker in self._block_checkers:
                    started = wall_clock()
                    violations = checker.check_block(node, node_id, record, now)
                    record_checker(checker.code, wall_clock() - started)
                    for violation in violations:
                        self._record(violation)
            for checker in self._dirty_checkers:
                started = wall_clock()
                violations = checker.check_dirty(node, node_id, delta, now)
                record_checker(checker.code, wall_clock() - started)
                for violation in violations:
                    self._record(violation)

    def _sweep_full(self) -> None:
        now = self._sim.now  # type: ignore[attr-defined]
        self.sweeps += 1
        for index, node in enumerate(self._nodes):
            node_id = self._node_ids[index]
            seen = self._seen_blocks[index]
            chain = chain_of(node)
            cursor = chain.tip_record  # type: ignore[attr-defined]
            fresh = []
            while cursor is not None and cursor.hash not in seen:
                fresh.append(cursor)
                cursor = chain.get(cursor.parent_hash)  # type: ignore[attr-defined]
            for record in reversed(fresh):
                seen.add(record.hash)
                for checker in self.checkers:
                    for violation in checker.check_block(
                        node, node_id, record, now
                    ):
                        self._record(violation)
            for checker in self.checkers:
                for violation in checker.check_state(node, node_id, now):
                    self._record(violation)

    def _sweep_full_profiled(self) -> None:
        """The full sweep with per-checker wall-time attribution.

        A verbatim mirror of :meth:`_sweep_full` — same node order, same
        checker order, same violation recording — with each checker
        call bracketed by :func:`~repro.clock.wall_clock` reads and the
        delta fed to ``profiler.record_checker`` keyed by the checker's
        invariant code.  Checkers return eager lists, so timing the
        call captures the whole verification cost.  Kept separate so
        non-profiled checked runs never pay the clock reads.
        """
        from ..clock import wall_clock

        record_checker = self.profiler.record_checker  # type: ignore[attr-defined]
        now = self._sim.now  # type: ignore[attr-defined]
        self.sweeps += 1
        for index, node in enumerate(self._nodes):
            node_id = self._node_ids[index]
            seen = self._seen_blocks[index]
            chain = chain_of(node)
            cursor = chain.tip_record  # type: ignore[attr-defined]
            fresh = []
            while cursor is not None and cursor.hash not in seen:
                fresh.append(cursor)
                cursor = chain.get(cursor.parent_hash)  # type: ignore[attr-defined]
            for record in reversed(fresh):
                seen.add(record.hash)
                for checker in self.checkers:
                    started = wall_clock()
                    violations = checker.check_block(node, node_id, record, now)
                    record_checker(checker.code, wall_clock() - started)
                    for violation in violations:
                        self._record(violation)
            for checker in self.checkers:
                started = wall_clock()
                violations = checker.check_state(node, node_id, now)
                record_checker(checker.code, wall_clock() - started)
                for violation in violations:
                    self._record(violation)

    # -- the audit ------------------------------------------------------

    def _audit_replicas(self) -> list[InvariantChecker]:
        """Fresh checker instances for the from-scratch audit.

        Built once and reused across audits (stateful checkers like
        tip-monotonicity then track across audit points too).  Checkers
        whose constructors need arguments cannot be replicated blindly
        and are skipped — the audit is a cross-check, not a guarantee of
        total coverage, and skipping is the conservative direction.

        Signature replicas get a *private* per-runtime cache: it shares
        nothing with the process-wide incremental cache (so a bug there
        cannot leak into the audit) while keeping repeat audits from
        re-verifying the same chain prefix every time — without it the
        audit's cost would grow quadratically with run length.
        """
        if self._audit_checkers is None:
            from .checkers import MicroblockSignature, SignatureCache

            audit_cache = SignatureCache()
            replicas: list[InvariantChecker] = []
            for checker in self.checkers:
                try:
                    replica = type(checker)()
                except TypeError:
                    continue
                if isinstance(replica, MicroblockSignature):
                    replica.cache = audit_cache
                replicas.append(replica)
            self._audit_checkers = replicas
        return self._audit_checkers

    def _audit(self) -> None:
        """From-scratch full sweep cross-checking the incremental path.

        Walks every node's entire main chain (ignoring the seen-sets)
        and runs every replica checker's block and state hooks.  Any
        finding whose ``(code, node)`` the incremental path has not
        reported is recorded, plus an ``audit-divergence`` marker.
        """
        if self._sim is None:
            return
        now = self._sim.now  # type: ignore[attr-defined]
        self.audits += 1
        replicas = self._audit_replicas()
        findings: list[ViolationRecord] = []
        for index, node in enumerate(self._nodes):
            node_id = self._node_ids[index]
            chain = chain_of(node)
            cursor = chain.tip_record  # type: ignore[attr-defined]
            records = []
            while cursor is not None:
                records.append(cursor)
                cursor = chain.get(cursor.parent_hash)  # type: ignore[attr-defined]
            for record in reversed(records):
                for checker in replicas:
                    findings.extend(
                        checker.check_block(node, node_id, record, now)
                    )
            for checker in replicas:
                findings.extend(checker.check_state(node, node_id, now))
        for violation in findings:
            if (violation.code, violation.node) in self._reported:
                continue
            self._record(violation)
            self._record(
                make_violation(
                    self._audit_marker,
                    violation.node,
                    now,
                    "full-sweep audit caught a violation the incremental "
                    "path missed",
                    missed_code=violation.code,
                    audit=self.audits,
                )
            )

    def _record(self, violation: ViolationRecord) -> None:
        key = (violation.code, violation.node)
        if key in self._reported:
            return
        self._reported.add(key)
        self.violations.append(violation)
        if self.tracer is not None:
            self.tracer.emit(  # type: ignore[attr-defined]
                "invariant_violation", violation.time, **violation.to_dict()
            )

    # -- digests --------------------------------------------------------

    def _node_digest_cached(self, index: int, node: object) -> NodeDigest:
        """Per-node digest, recomputed only when change indicators moved.

        Hashing a node's UTXO set and mempool is the expensive part of a
        digest capture; the same version counters the dirty tracker uses
        tell us when the previous digest is still exact.  Nodes whose
        ledger objects carry no version counter are recomputed every
        time (correct, just slower).
        """
        chain = chain_of(node)
        tip = chain.tip_record  # type: ignore[attr-defined]
        mempool = getattr(node, "mempool", None)
        utxo = getattr(node, "utxo", None)
        key = (
            tip.hash if tip is not None else None,
            _ABSENT if mempool is None else getattr(mempool, "version", None),
            _ABSENT if utxo is None else getattr(utxo, "version", None),
        )
        cached = self._digest_cache[index]
        if (
            cached is not None
            and key[1] is not None
            and key[2] is not None
            and cached[0] == key
        ):
            return cached[1]
        digest = node_digest(node, self._node_ids[index])
        self._digest_cache[index] = (key, digest)
        return digest

    def _capture_digest(self) -> None:
        if self._sim is None:
            return
        snapshot = DigestSnapshot(
            index=self.events_seen,
            time=self._sim.now,  # type: ignore[attr-defined]
            digests=tuple(
                self._node_digest_cached(index, node)
                for index, node in enumerate(self._nodes)
            ),
        )
        self.digests.append(snapshot)
        if self.tracer is not None:
            self.tracer.emit(  # type: ignore[attr-defined]
                "state_digest",
                snapshot.time,
                index=snapshot.index,
                nodes=len(snapshot.digests),
            )


class _LegacyDirtyShim:
    """Adapts a duck-typed checker with only ``check_state`` to the
    incremental loop: delegates unconditionally (no ``depends`` to gate
    on, so every dirty sweep re-checks — correct, just not minimal)."""

    def __init__(self, checker: object) -> None:
        self._checker = checker
        self.code = getattr(checker, "code", "INV000")

    def check_dirty(
        self, node: object, node_id: int, delta: NodeDelta, now: float
    ) -> list[ViolationRecord]:
        return self._checker.check_state(node, node_id, now)  # type: ignore[attr-defined]


def _component_dirty(current: object, last: object) -> bool:
    """Dirty verdict for one change indicator.

    ``_ABSENT`` (no such component) is never dirty; ``None`` (component
    present but untracked — a foreign mempool type without a ``version``
    counter) is *always* dirty, the conservative direction.
    """
    if current == _ABSENT and last == _ABSENT:
        return False
    if current is None or last is None:
        return True
    return current != last
