"""Object relay over the peer-to-peer network.

Bitcoin relays blocks with an announce/request/deliver handshake
(``inv`` → ``getdata`` → object), which avoids sending large objects to
peers that already have them.  :class:`GossipNode` implements that
protocol as a reusable base class; protocol nodes subclass it and get
epidemic dissemination with de-duplication for free.

Two relay modes are provided for the ablation DESIGN.md calls out:

* ``RelayMode.INV`` — the Bitcoin handshake (default).
* ``RelayMode.FLOOD`` — push full objects immediately; lower latency,
  higher bandwidth, as used by fast-relay networks [Corallo 2013].

De-duplication state (`_store`, `_requested`, `_rejected`, …) is keyed
by dense interned ints from the network's shared
:class:`~repro.net.interning.ObjectIdTable`, not by the raw 32-byte
ids: with every node in a 1000-node run asking "seen this hash?" per
announcement, small-int set probes measurably beat hashing 32-byte
keys.  Wire messages still carry raw ``bytes`` ids — interning is a
receiver-side detail, invisible on the wire.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Protocol

from ..metrics.collector import BlockInfo, ObservationLog
from ..obs.registry import NULL_METRIC
from ..obs.trace import short_hash
from .events import Event
from .network import Message, Network
from .simulator import Simulator

# Wire sizes for control messages, matching Bitcoin's protocol framing:
# an inv/getdata with one entry is 24 byte header + 37 byte payload.
INV_SIZE = 61
GETDATA_SIZE = 61
# A tip solicitation is an empty getheaders in miniature: header only.
GETTIP_SIZE = 24


class RelayMode(enum.Enum):
    """How newly learned objects are pushed to peers."""

    INV = "inv"
    FLOOD = "flood"


class EpochSpanTracker(Protocol):
    """What the node event path feeds a leader-epoch span tracker.

    Structural typing keeps :mod:`repro.net` free of any import of the
    profiling layer (:class:`repro.prof.runtime.ProfilerRuntime`
    implements this protocol).
    """

    def block_generated(self, miner: int, kind: str) -> None: ...

    def epoch_started(self, leader: int, key_block: bytes, t: float) -> None: ...

    def epoch_ended(self, leader: int, t: float) -> None: ...


@dataclass(frozen=True, slots=True)
class StoredObject:
    """An object held in a node's relay store."""

    obj_id: bytes
    kind: str
    data: Any
    size: int


class GossipNode:
    """Base class providing de-duplicated epidemic relay.

    Subclasses implement :meth:`deliver`, called exactly once per new
    object, and may call :meth:`announce` to inject locally created
    objects (e.g. a freshly mined block) into the gossip layer.  They
    report protocol facts through the typed methods under "protocol
    facts" below, which fan out to every attached observation sink.
    """

    # Whether this protocol has leader epochs (Bitcoin-NG): only then is
    # the ``ng_leader_epochs`` counter registered.
    LEADER_EPOCHS = False

    def __init__(
        self,
        node_id: int,
        sim: Simulator,
        network: Network,
        relay_mode: RelayMode = RelayMode.INV,
        verification_delay: float = 0.0,
        verification_seconds_per_byte: float = 0.0,
        request_timeout: float = 120.0,
    ) -> None:
        self.node_id = node_id
        self.sim = sim
        self.network = network
        self.relay_mode = relay_mode
        # Per-object processing cost before relaying (block verification);
        # the paper notes large blocks "take longer to verify and propagate",
        # so the delay has a fixed part and a size-proportional part.
        self.verification_delay = verification_delay
        self.verification_seconds_per_byte = verification_seconds_per_byte
        # How long to wait for a requested object before giving up on
        # that peer and retrying elsewhere (0 disables).  Generous by
        # default: a 1 MB block takes ~80 s to serialize at the paper's
        # 100 kbit/s, and a premature timeout would duplicate traffic.
        self.request_timeout = request_timeout
        # All relay bookkeeping is keyed by the run-wide interned id
        # (dense int), never the raw bytes — see the module docstring.
        self._ids = network.object_ids
        self._store: dict[int, StoredObject] = {}
        self._requested: set[int] = set()
        self._rejected: set[int] = set()
        # While a getdata is outstanding, remember *other* peers that
        # announced the same object: if the request times out (the
        # response lost to churn or a partition), the next announcer is
        # asked instead of the id being stuck in _requested forever.
        self._alt_sources: dict[int, list[int]] = {}
        self._request_timers: dict[int, Event] = {}
        # Adjacency never changes mid-run (churn is modelled as offline
        # sets, not edge removal), so the neighbor list is cached once
        # instead of looked up per relayed object.
        self._neighbors: list[int] = network.neighbors(node_id)
        # Observation sinks, each None (or a no-op counter) when
        # disabled, so a fact costs one check per detached sink.  The
        # paper-metrics log is attached by the protocol subclass.
        self.log: ObservationLog | None = None
        self._tracer = network.tracer
        self._spans: EpochSpanTracker | None = network.epoch_spans
        registry = network.obs.registry
        self._c_gen = registry.counter(
            "node_blocks_generated", "blocks created, by kind", ("kind",)
        )
        self._c_tip = registry.counter(
            "node_tip_changes", "main-chain tip movements across all nodes"
        )
        self._c_epochs = (
            registry.counter(
                "ng_leader_epochs", "leader epochs started across all nodes"
            )
            if self.LEADER_EPOCHS
            else NULL_METRIC
        )
        # DoS protection: peers accumulate misbehavior points for
        # invalid objects; at the threshold their traffic is ignored,
        # mirroring Bitcoin Core's ban score.
        self.misbehavior: dict[int, int] = {}
        self.ban_threshold = 100
        self.invalid_object_penalty = 20
        network.attach(node_id, self)

    # -- subclass interface -------------------------------------------------

    def deliver(self, obj: StoredObject, sender: int | None) -> bool | None:
        """Handle a newly learned object; ``sender`` is None if local.

        Return ``False`` to veto relay: the object is dropped from the
        store, remembered as rejected (so repeated invs are ignored),
        and not forwarded — the behaviour of a real client that fails
        block validation.  Any other return value relays normally.
        """
        raise NotImplementedError

    def best_object_id(self) -> bytes | None:
        """The id of the object a resyncing peer should fetch first.

        Protocol nodes return their chain tip; the base class has no
        chain, so peers asking it for a tip get nothing.  Returning an
        id that is not in the relay store (the genesis block, say) is
        fine — the tip solicitation is then simply not answered.
        """
        return None

    # -- protocol facts -----------------------------------------------------
    #
    # One call per fact.  Each writes the paper-metrics log, bumps its
    # registry counter, feeds the epoch-span tracker and emits the
    # schema-v1 trace record, for whichever of those sinks is attached.

    def attach_log(self, log: ObservationLog | None, genesis: bytes) -> None:
        """Attach the paper-metrics log; every node starts on ``genesis``."""
        self.log = log
        if log is not None:
            log.record_tip(self.node_id, genesis, self.sim.now)

    def block_generated(
        self,
        block_hash: bytes,
        parent: bytes,
        kind: str,
        size: int,
        n_tx: int,
        work: int = 0,
    ) -> None:
        """This node created a block; it is also the block's first arrival."""
        now = self.sim.now
        if self.log is not None:
            self.log.record_generation(
                BlockInfo(
                    hash=block_hash,
                    parent=parent,
                    miner=self.node_id,
                    gen_time=now,
                    work=work,
                    kind=kind,
                    n_tx=n_tx,
                    size=size,
                )
            )
            self.log.record_arrival(self.node_id, block_hash, now)
        self._c_gen.labels(kind=kind).inc()
        if self._spans is not None:
            self._spans.block_generated(self.node_id, kind)
        if self._tracer is not None:
            self._tracer.emit(
                "block_gen",
                now,
                hash=short_hash(block_hash),
                parent=short_hash(parent),
                kind=kind,
                miner=self.node_id,
                size=size,
                n_tx=n_tx,
            )

    def block_arrived(self, block_hash: bytes, kind: str) -> None:
        """A block relayed by a peer reached this node."""
        if self.log is not None:
            self.log.record_arrival(self.node_id, block_hash, self.sim.now)
        if self._tracer is not None:
            self._tracer.emit(
                "block_arrival",
                self.sim.now,
                node=self.node_id,
                hash=short_hash(block_hash),
                kind=kind,
            )

    def tip_changed(self, tip: bytes, height: int) -> None:
        """This node's main-chain tip moved to ``tip`` at ``height``."""
        if self.log is not None:
            self.log.record_tip(self.node_id, tip, self.sim.now)
        self._c_tip.inc()
        if self._tracer is not None:
            self._tracer.emit(
                "tip_change",
                self.sim.now,
                node=self.node_id,
                tip=short_hash(tip),
                height=height,
            )

    def epoch_started(self, key_block: bytes) -> None:
        """This node became leader: its ``key_block`` heads the chain."""
        self._c_epochs.inc()
        if self._spans is not None:
            self._spans.epoch_started(self.node_id, key_block, self.sim.now)
        if self._tracer is not None:
            self._tracer.emit(
                "epoch_start",
                self.sim.now,
                leader=self.node_id,
                key_block=short_hash(key_block),
            )

    def epoch_ended(self, key_block: bytes) -> None:
        """This node lost the leadership its ``key_block`` gave it."""
        if self._spans is not None:
            self._spans.epoch_ended(self.node_id, self.sim.now)
        if self._tracer is not None:
            self._tracer.emit(
                "epoch_end",
                self.sim.now,
                leader=self.node_id,
                key_block=short_hash(key_block),
            )

    # -- public operations --------------------------------------------------

    def knows(self, obj_id: bytes) -> bool:
        iid = self._ids.lookup(obj_id)
        return iid is not None and iid in self._store

    def get_object(self, obj_id: bytes) -> StoredObject | None:
        iid = self._ids.lookup(obj_id)
        return None if iid is None else self._store.get(iid)

    def has_requested(self, obj_id: bytes) -> bool:
        """Whether a getdata for ``obj_id`` is currently outstanding."""
        iid = self._ids.lookup(obj_id)
        return iid is not None and iid in self._requested

    def request_tips(self) -> None:
        """Ask every neighbor for its best tip (rejoin resync).

        Each peer answers a ``gettip`` with an inv of its chain tip;
        an unknown tip is then fetched through the normal handshake and
        orphan handling backfills the gap by recursive parent fetch —
        so a node that was down across several blocks catches up
        without waiting for the next block to be mined.
        """
        self.network.multicast(self.node_id, Message("gettip", None, GETTIP_SIZE))

    def reset_relay_state(self) -> None:
        """Drop volatile relay bookkeeping (crash-restart modeling).

        Outstanding requests, their retry timers, and alternate-source
        lists all describe in-flight handshakes that died with the
        node; keeping them would make :meth:`_on_inv` ignore fresh
        announcements of exactly the objects the node is missing until
        the stale timers expire.  Validation verdicts (``_rejected``)
        and peer bans survive — they are judgements, not bookkeeping.
        """
        for timer in self._request_timers.values():
            timer.cancel()
        self._request_timers.clear()
        self._requested.clear()
        self._alt_sources.clear()

    def request_object(self, peer: int, obj_id: bytes) -> None:
        """Explicitly fetch an object from a peer (ancestor backfill).

        Used by nodes that receive an orphan block: asking the sender
        for the missing parent recursively heals gaps after churn or
        partitions, Bitcoin's headers-first sync in miniature.  Unlike
        inv handling, an explicit request re-sends even if a previous
        attempt is outstanding — the earlier response may have been
        lost to churn.
        """
        iid = self._ids.intern(obj_id)
        if iid in self._store:
            return
        self._request_from(peer, obj_id, iid)

    def announce(self, obj_id: bytes, kind: str, data: Any, size: int) -> None:
        """Inject a locally created object and start relaying it.

        The :meth:`deliver` veto applies here exactly as on the remote
        path: a locally generated object that fails validation is
        dropped, remembered as rejected, and never relayed.
        """
        iid = self._ids.intern(obj_id)
        if iid in self._store or iid in self._rejected:
            return
        stored = StoredObject(obj_id, kind, data, size)
        self._store[iid] = stored
        if self.deliver(stored, sender=None) is False:
            self._store.pop(iid, None)
            self._rejected.add(iid)
            if self._tracer is not None:
                self._tracer.emit(
                    "obj_reject",
                    self.sim.now,
                    node=self.node_id,
                    obj=short_hash(obj_id),
                    kind=kind,
                    sender=-1,
                )
            return
        self._relay(stored, exclude=None)

    # -- network plumbing ---------------------------------------------------

    def penalize(self, peer: int, points: int) -> None:
        """Charge a peer misbehavior points; at the threshold, ban it."""
        self.misbehavior[peer] = self.misbehavior.get(peer, 0) + points

    def is_banned(self, peer: int) -> bool:
        return self.misbehavior.get(peer, 0) >= self.ban_threshold

    def on_message(self, sender: int, message: Message) -> None:
        # Inlined is_banned: the misbehavior dict is empty for honest
        # networks, so the truthiness check skips the lookup entirely.
        misbehavior = self.misbehavior
        if misbehavior and misbehavior.get(sender, 0) >= self.ban_threshold:
            return
        kind = message.kind
        if kind == "inv":
            self._on_inv(sender, message.payload)
        elif kind == "getdata":
            self._on_getdata(sender, message.payload)
        elif kind == "object":
            self._on_object(sender, message.payload)
        elif kind == "gettip":
            self._on_gettip(sender)
        else:
            self.handle_protocol_message(sender, message)

    def handle_protocol_message(self, sender: int, message: Message) -> None:
        """Hook for subclasses with extra message kinds; default drops."""

    def _relay(self, stored: StoredObject, exclude: int | None) -> None:
        # One immutable message shared by every neighbor send; the
        # network books the whole fan-out as a single batched
        # event-queue call instead of per-peer scheduling.
        if self.relay_mode is RelayMode.FLOOD:
            message = Message("object", stored, stored.size)
        else:
            message = Message("inv", (stored.obj_id, stored.kind), INV_SIZE)
        self.network.multicast(
            self.node_id, message, exclude=-1 if exclude is None else exclude
        )

    def _request_from(self, peer: int, obj_id: bytes, iid: int) -> None:
        """Send a getdata and arm the retry timer for it."""
        self._requested.add(iid)
        if self.request_timeout > 0:
            old = self._request_timers.get(iid)
            if old is not None:
                old.cancel()
            self._request_timers[iid] = self.sim.schedule(
                self.request_timeout, self._on_request_timeout, iid
            )
        self.network.send(
            self.node_id, peer, Message("getdata", obj_id, GETDATA_SIZE)
        )

    def _on_request_timeout(self, iid: int) -> None:
        self._request_timers.pop(iid, None)
        if iid in self._store or iid in self._rejected:
            self._alt_sources.pop(iid, None)
            return
        # The response was lost (churn, partition, or an offline peer):
        # clear the outstanding mark so future invs can retrigger, and
        # retry immediately from the next peer that announced it.
        self._requested.discard(iid)
        alternates = self._alt_sources.get(iid)
        if alternates:
            peer = alternates.pop(0)
            if not alternates:
                del self._alt_sources[iid]
            if self._tracer is not None:
                self._tracer.emit(
                    "gossip_retry",
                    self.sim.now,
                    node=self.node_id,
                    obj=short_hash(self._ids.obj_id(iid)),
                    peer=peer,
                )
            self._request_from(peer, self._ids.obj_id(iid), iid)

    def _on_inv(self, sender: int, payload: tuple[bytes, str]) -> None:
        obj_id, _kind = payload
        iid = self._ids.intern(obj_id)
        if iid in self._store or iid in self._rejected:
            return
        if iid in self._requested:
            # Already being fetched; remember this announcer as a
            # fallback in case the outstanding request times out.
            alternates = self._alt_sources.setdefault(iid, [])
            if sender not in alternates:
                alternates.append(sender)
            return
        self._request_from(sender, obj_id, iid)

    def _on_gettip(self, sender: int) -> None:
        """Answer a tip solicitation with an inv of our best object."""
        obj_id = self.best_object_id()
        if obj_id is None:
            return
        stored = self.get_object(obj_id)
        if stored is None:
            return  # tip not relayable (genesis): nothing useful to offer
        self.network.send(
            self.node_id,
            sender,
            Message("inv", (obj_id, stored.kind), INV_SIZE),
        )

    def _on_getdata(self, sender: int, obj_id: bytes) -> None:
        stored = self.get_object(obj_id)
        if stored is None:
            return
        self.network.send(
            self.node_id, sender, Message("object", stored, stored.size)
        )

    def _on_object(self, sender: int, stored: StoredObject) -> None:
        iid = self._ids.intern(stored.obj_id)
        self._requested.discard(iid)
        timer = self._request_timers.pop(iid, None)
        if timer is not None:
            timer.cancel()
        self._alt_sources.pop(iid, None)
        if iid in self._store:
            return
        self._store[iid] = stored
        delay = (
            self.verification_delay
            + self.verification_seconds_per_byte * stored.size
        )
        if delay > 0:
            self.sim.schedule(delay, self._accept, stored, sender)
        else:
            self._accept(stored, sender)

    def _accept(self, stored: StoredObject, sender: int) -> None:
        verdict = self.deliver(stored, sender)
        if verdict is False:
            # Validation failed: forget it, never forward it, and
            # charge the peer that sent it.
            iid = self._ids.intern(stored.obj_id)
            self._store.pop(iid, None)
            self._rejected.add(iid)
            self.penalize(sender, self.invalid_object_penalty)
            if self._tracer is not None:
                self._tracer.emit(
                    "obj_reject",
                    self.sim.now,
                    node=self.node_id,
                    obj=short_hash(stored.obj_id),
                    kind=stored.kind,
                    sender=sender,
                )
            return
        self._relay(stored, exclude=sender)
