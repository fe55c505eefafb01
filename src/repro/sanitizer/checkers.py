"""The invariant catalog: what the paper promises, checked against state.

Each checker is a small object with a code (``INV1xx``), a name, and
four hooks: :meth:`InvariantChecker.check_block` runs once per block the
sweeping node newly adopted onto its main chain (oldest first);
:meth:`InvariantChecker.check_state` runs against the node's current
mempool/UTXO/chain state (the *full-sweep* hook); and the incremental
pair — :meth:`InvariantChecker.on_event` observes a :class:`NodeDelta`
describing what changed since the last sweep, and
:meth:`InvariantChecker.check_dirty` runs the state check only when the
delta touches the components the checker declares in
:attr:`InvariantChecker.depends`.  The default ``check_dirty`` delegates
to ``check_state``, so a checker written against the full-sweep API is
automatically correct (if not maximally cheap) under the incremental
runtime.  Checkers only *read* node state — they never schedule events,
draw randomness, or mutate anything, which is what keeps checked runs
bit-identical to unchecked runs.

INV104 (microblock-leader-sig) is the one checker whose work is
expensive enough to dominate checked runs: a pure-Python ECDSA verify
per main-chain microblock per node.  Signature validity is a pure
function of ``(leader_pubkey, header, signature)``, so a process-wide
:class:`~repro.crypto.sigcache.SignatureCache` (shared with the nodes'
own ``check_signatures`` path) memoizes the verdict and each unique
pair is verified exactly once per process — a reorg that moves a microblock
under a different epoch leader produces a *different* cache key, so
entries can never be served stale (see the class docstring).

The catalog maps paper sections to executable assertions:

========  ==========================  ==============================
code      name                        paper anchor
========  ==========================  ==============================
INV101    value-conservation          Section 4.4 (subsidy + fees)
INV102    fee-split                   Section 4.4 (40%/60% split)
INV103    coinbase-maturity           Section 4.4 (100-block maturity)
INV104    microblock-leader-sig       Section 4.2 (epoch key signs)
INV105    microblock-rate             Section 4.2 (min interval)
INV106    microblock-size             Section 4.2 (size cap)
INV107    key-weight                  Section 4.1 (key blocks only)
INV108    poison-forfeiture           Section 4.5 (fraud proofs)
INV109    tip-monotonicity            Section 3 (heaviest chain)
INV110    mempool-consistency         ledger bookkeeping
========  ==========================  ==============================

:func:`ng_checkers` builds the full Bitcoin-NG set; :func:`chain_checkers`
builds the protocol-agnostic subset used for plain Bitcoin and GHOST
(their records carry no ``is_key``/leader structure to check).  All
three factories take a ``mode`` — ``"incremental"`` wires the shared
signature cache in, ``"full"`` builds independent uncached checkers for
the cross-check path.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from typing import ClassVar

from ..bitcoin.blocks import SyntheticPayload
from ..core.remuneration import split_fee
from ..crypto.sigcache import SignatureCache, shared_signature_cache
from ..obs.trace import short_hash
from .violations import ViolationRecord, make_violation

#: Tolerance when comparing virtual timestamps, matching the chain's own
#: microblock-interval validation slack.
TIME_EPSILON = 1e-9

#: The node-state components a checker can declare in
#: :attr:`InvariantChecker.depends` (and a :class:`NodeDelta` can dirty).
COMPONENTS = frozenset({"chain", "mempool", "utxo", "poisons"})

#: Checker modes the factories and the runtime understand.
CHECK_MODES = ("incremental", "full")


def validate_check_mode(mode: str) -> str:
    """Validate a checker-construction mode string and return it."""
    if mode not in CHECK_MODES:
        raise ValueError(
            f"unknown check mode {mode!r} (choose from {CHECK_MODES})"
        )
    return mode


@dataclass(frozen=True)
class NodeDelta:
    """What changed for one node since the sanitizer's last sweep.

    Built by the runtime's dirty-set tracker from cheap observations —
    the chain tip hash, the mempool/UTXO mutation counters, and the
    published-poison count — plus the main-chain records the node newly
    adopted (oldest first).  ``check_dirty`` uses it to skip state
    checks whose inputs cannot have changed.
    """

    chain: bool = False
    mempool: bool = False
    utxo: bool = False
    poisons: bool = False
    #: Newly adopted main-chain records, oldest first (the same records
    #: ``check_block`` is called with during this sweep).
    fresh_blocks: tuple = ()

    def touches(self, components: Iterable[str]) -> bool:
        """True if any of ``components`` is dirty in this delta."""
        for component in components:
            if getattr(self, component, False):
                return True
        return False

    @property
    def dirty_components(self) -> frozenset[str]:
        return frozenset(
            component
            for component in COMPONENTS
            if getattr(self, component)
        )


#: A delta with every component dirty — what full sweeps hand to
#: ``check_dirty`` so delegation to ``check_state`` is unconditional.
ALL_DIRTY = NodeDelta(chain=True, mempool=True, utxo=True, poisons=True)


def chain_of(node: object) -> object:
    """The node's block-tree view: ``.chain`` (NG) or ``.tree`` (bitcoin)."""
    chain = getattr(node, "chain", None)
    if chain is not None:
        return chain
    return node.tree  # type: ignore[attr-defined]


def _microblock_fees(node: object, micro: object) -> int:
    """Total entry fees a microblock carries, as the node accounts them.

    Mirrors ``NGNode._microblock_fees``: synthetic payloads price at the
    node's per-tx policy fee; real payloads use the fee total the node
    recorded when the microblock connected.
    """
    payload = getattr(micro, "payload", None)
    if isinstance(payload, SyntheticPayload):
        policy = getattr(node, "policy", None)
        per_tx = getattr(policy, "synthetic_fee_per_tx", 0)
        return int(getattr(micro, "n_tx", 0)) * int(per_tx)
    recorded = getattr(node, "_fees_by_micro", None)
    if recorded is None:
        return 0
    return int(recorded.get(micro.hash, 0))  # type: ignore[attr-defined]


def _epoch_fees_behind(node: object, chain: object, parent_hash: bytes) -> int:
    """Fees in the microblock run ending at ``parent_hash`` (exclusive of
    the key block that opened the epoch)."""
    fees = 0
    cursor = chain.get(parent_hash)  # type: ignore[attr-defined]
    while cursor is not None and not cursor.is_key:
        fees += _microblock_fees(node, cursor.block)
        cursor = chain.get(cursor.parent_hash)  # type: ignore[attr-defined]
    return fees


class InvariantChecker:
    """One protocol invariant: a code, a description, and four hooks.

    ``check_block``/``check_state`` are the original full-sweep surface;
    ``on_event``/``check_dirty`` are the incremental surface fed by the
    runtime's dirty-set tracker.  The defaults make every legacy checker
    incremental-correct for free: ``check_dirty`` delegates to
    ``check_state`` whenever the delta touches :attr:`depends`, and
    ``on_event`` is a no-op observation hook for checkers that maintain
    cross-sweep state.
    """

    code: ClassVar[str] = "INV000"
    name: ClassVar[str] = "unnamed"
    description: ClassVar[str] = ""
    #: Which node-state components the *state* hook reads.  The
    #: incremental runtime only calls ``check_dirty`` when the sweep's
    #: delta touches one of these; block-scoped checkers declare the
    #: empty set because their state hook checks nothing.
    depends: ClassVar[frozenset[str]] = COMPONENTS

    def check_block(
        self, node: object, node_id: int, record: object, now: float
    ) -> list[ViolationRecord]:
        """Called once per block newly adopted onto the node's main chain."""
        return []

    def check_state(
        self, node: object, node_id: int, now: float
    ) -> list[ViolationRecord]:
        """Called against the node's live state on every full sweep."""
        return []

    def on_event(
        self, node: object, node_id: int, delta: NodeDelta, now: float
    ) -> None:
        """Observe a node's delta before this sweep's checks run.

        Incremental mode only; called once per dirty node per sweep,
        before ``check_block``/``check_dirty``.  For checkers that track
        cross-sweep state; must not mutate node state.
        """

    def check_dirty(
        self, node: object, node_id: int, delta: NodeDelta, now: float
    ) -> list[ViolationRecord]:
        """The state check, gated on what actually changed.

        The default runs ``check_state`` when ``delta`` touches
        :attr:`depends` and skips it otherwise — sound whenever
        ``depends`` names every component the state check reads.
        """
        if delta.touches(self.depends):
            return self.check_state(node, node_id, now)
        return []


# -- block-scoped checkers ---------------------------------------------------
#
# All of these verify properties of individual (immutable) blocks via
# ``check_block``; their state hook checks nothing, so ``depends`` is
# empty and the incremental runtime never calls their ``check_dirty``.


class ValueConservation(InvariantChecker):
    code = "INV101"
    name = "value-conservation"
    description = (
        "Every key block's coinbase mints exactly key_block_reward plus "
        "the entry fees of the epoch it closes — no inflation, no burn."
    )
    depends = frozenset()

    def check_block(
        self, node: object, node_id: int, record: object, now: float
    ) -> list[ViolationRecord]:
        if not getattr(record, "is_key", False):
            return []
        chain = chain_of(node)
        parent = chain.get(record.parent_hash)  # type: ignore[attr-defined]
        if parent is None:
            return []  # genesis
        coinbase = getattr(record.block, "coinbase", None)  # type: ignore[attr-defined]
        if coinbase is None:
            return []
        params = node.params  # type: ignore[attr-defined]
        fees = _epoch_fees_behind(node, chain, record.parent_hash)  # type: ignore[attr-defined]
        expected = params.key_block_reward + fees
        minted = sum(out.value for out in coinbase.outputs)
        if minted != expected:
            return [
                make_violation(
                    self,
                    node_id,
                    now,
                    "coinbase mints a different total than subsidy plus "
                    "closed-epoch fees",
                    block=short_hash(record.hash),  # type: ignore[attr-defined]
                    minted=minted,
                    expected=expected,
                    epoch_fees=fees,
                    subsidy=params.key_block_reward,
                )
            ]
        return []


class FeeSplit(InvariantChecker):
    code = "INV102"
    name = "fee-split"
    description = (
        "The previous leader's coinbase payout is exactly "
        "int(fees * leader_fee_fraction) satoshis — the 40% share, "
        "integer-exact, with rounding dust to the new leader."
    )
    depends = frozenset()

    def check_block(
        self, node: object, node_id: int, record: object, now: float
    ) -> list[ViolationRecord]:
        if not getattr(record, "is_key", False):
            return []
        chain = chain_of(node)
        parent = chain.get(record.parent_hash)  # type: ignore[attr-defined]
        if parent is None:
            return []  # genesis
        coinbase = getattr(record.block, "coinbase", None)  # type: ignore[attr-defined]
        if coinbase is None or not coinbase.outputs:
            return []
        params = node.params  # type: ignore[attr-defined]
        fees = _epoch_fees_behind(node, chain, record.parent_hash)  # type: ignore[attr-defined]
        prev_cut, _self_cut = split_fee(fees, params.leader_fee_fraction)
        paid_prev = sum(out.value for out in coinbase.outputs[1:])
        if paid_prev != prev_cut:
            return [
                make_violation(
                    self,
                    node_id,
                    now,
                    "previous leader's fee share differs from the "
                    "integer-exact split",
                    block=short_hash(record.hash),  # type: ignore[attr-defined]
                    paid=paid_prev,
                    expected=prev_cut,
                    epoch_fees=fees,
                    fraction=params.leader_fee_fraction,
                )
            ]
        return []


class MicroblockSignature(InvariantChecker):
    code = "INV104"
    name = "microblock-leader-sig"
    description = (
        "Every microblock on the main chain verifies under the epoch "
        "leader's public key — the key in the latest key block before it."
    )
    depends = frozenset()

    def __init__(self, cache: SignatureCache | None = None) -> None:
        # ``cache=None`` verifies every call independently — the honest
        # path ``--check=full`` and the periodic audit use.  Incremental
        # factories pass the shared process-wide cache so each unique
        # (leader_pubkey, microblock, signature) triple is verified once.
        self.cache = cache

    def _verify(self, block: object, leader_pubkey: bytes) -> bool:
        if self.cache is not None:
            return self.cache.verify(block, leader_pubkey)
        return bool(block.verify_signature(leader_pubkey))  # type: ignore[attr-defined]

    def check_block(
        self, node: object, node_id: int, record: object, now: float
    ) -> list[ViolationRecord]:
        if getattr(record, "is_key", True):
            return []
        chain = chain_of(node)
        parent = chain.get(record.parent_hash)  # type: ignore[attr-defined]
        if parent is None:
            return []
        if not self._verify(record.block, parent.leader_pubkey):  # type: ignore[attr-defined]
            return [
                make_violation(
                    self,
                    node_id,
                    now,
                    "microblock signature does not verify under the epoch "
                    "leader's key",
                    block=short_hash(record.hash),  # type: ignore[attr-defined]
                    parent=short_hash(record.parent_hash),  # type: ignore[attr-defined]
                )
            ]
        return []


class MicroblockRate(InvariantChecker):
    code = "INV105"
    name = "microblock-rate"
    description = (
        "Adjacent microblock timestamps respect the protocol's minimum "
        "interval — the cap that stops a leader swamping the network."
    )
    depends = frozenset()

    def check_block(
        self, node: object, node_id: int, record: object, now: float
    ) -> list[ViolationRecord]:
        if getattr(record, "is_key", True):
            return []
        chain = chain_of(node)
        parent = chain.get(record.parent_hash)  # type: ignore[attr-defined]
        if parent is None:
            return []
        params = node.params  # type: ignore[attr-defined]
        gap = record.timestamp - parent.timestamp  # type: ignore[attr-defined]
        if gap < params.min_microblock_interval - TIME_EPSILON:
            return [
                make_violation(
                    self,
                    node_id,
                    now,
                    "microblock generated faster than the minimum interval",
                    block=short_hash(record.hash),  # type: ignore[attr-defined]
                    gap=round(gap, 9),
                    minimum=params.min_microblock_interval,
                )
            ]
        return []


class MicroblockSize(InvariantChecker):
    code = "INV106"
    name = "microblock-size"
    description = (
        "No main-chain microblock exceeds the protocol's maximum "
        "microblock size."
    )
    depends = frozenset()

    def check_block(
        self, node: object, node_id: int, record: object, now: float
    ) -> list[ViolationRecord]:
        if getattr(record, "is_key", True):
            return []
        params = node.params  # type: ignore[attr-defined]
        size = record.block.size  # type: ignore[attr-defined]
        if size > params.max_microblock_bytes:
            return [
                make_violation(
                    self,
                    node_id,
                    now,
                    "microblock exceeds the maximum size",
                    block=short_hash(record.hash),  # type: ignore[attr-defined]
                    size=size,
                    maximum=params.max_microblock_bytes,
                )
            ]
        return []


class ChainWeight(InvariantChecker):
    code = "INV107"
    name = "key-weight"
    description = (
        "Cumulative chain weight is the parent's weight plus the block's "
        "own work for key blocks, and unchanged for microblocks — "
        "microblocks carry zero weight in fork choice."
    )
    depends = frozenset()

    def check_block(
        self, node: object, node_id: int, record: object, now: float
    ) -> list[ViolationRecord]:
        chain = chain_of(node)
        parent = chain.get(record.parent_hash)  # type: ignore[attr-defined]
        if parent is None:
            return []
        is_key = getattr(record, "is_key", True)
        own_work = record.block.header.work if is_key else 0  # type: ignore[attr-defined]
        expected = parent.cumulative_work + own_work
        if record.cumulative_work != expected:  # type: ignore[attr-defined]
            return [
                make_violation(
                    self,
                    node_id,
                    now,
                    "cumulative work does not follow the key-blocks-only "
                    "weight recurrence",
                    block=short_hash(record.hash),  # type: ignore[attr-defined]
                    weight=record.cumulative_work,  # type: ignore[attr-defined]
                    expected=expected,
                    is_key=is_key,
                )
            ]
        return []


# -- state-scoped checkers ---------------------------------------------------


class CoinbaseMaturity(InvariantChecker):
    code = "INV103"
    name = "coinbase-maturity"
    description = (
        "No mempool transaction spends a coinbase output before it has "
        "matured (coinbase_maturity blocks deep)."
    )
    # The check also reads the chain tip height, but a violation can only
    # *appear* via a pool mutation (a new immature spend) or a UTXO
    # mutation (a reorg disconnecting blocks lowers the tip, and every
    # disconnect is an undo — a UTXO mutation).  Pure height growth only
    # clears violations, so "chain" need not be in the set.
    depends = frozenset({"mempool", "utxo"})

    def check_state(
        self, node: object, node_id: int, now: float
    ) -> list[ViolationRecord]:
        utxo = getattr(node, "utxo", None)
        mempool = getattr(node, "mempool", None)
        if utxo is None or mempool is None:
            return []
        next_height = chain_of(node).tip_record.height + 1  # type: ignore[attr-defined]
        violations: list[ViolationRecord] = []
        for tx in mempool.transactions():
            for txin in tx.inputs:
                coin = utxo.get(txin.outpoint)
                if (
                    coin is not None
                    and coin.is_coinbase
                    and next_height - coin.height < utxo.coinbase_maturity
                ):
                    violations.append(
                        make_violation(
                            self,
                            node_id,
                            now,
                            "mempool transaction spends an immature coinbase",
                            tx=short_hash(tx.txid),
                            coin_height=coin.height,
                            spend_height=next_height,
                            maturity=utxo.coinbase_maturity,
                        )
                    )
        return violations


class PoisonForfeiture(InvariantChecker):
    code = "INV108"
    name = "poison-forfeiture"
    description = (
        "Every published poison transaction carries a verifying fraud "
        "proof whose pruned microblock is genuinely off the main chain, "
        "and is registered (one poison per cheater)."
    )
    # Reads the published-poison list and the main-chain membership of
    # each pruned microblock (which a reorg can change).
    depends = frozenset({"poisons", "chain"})

    def check_state(
        self, node: object, node_id: int, now: float
    ) -> list[ViolationRecord]:
        published = getattr(node, "poisons_published", None)
        if not published:
            return []
        chain = chain_of(node)
        registry = getattr(node, "poison_registry", None)
        violations: list[ViolationRecord] = []
        for poison in published:
            pruned = poison.proof.pruned_micro
            if not poison.proof.verify():
                violations.append(
                    make_violation(
                        self,
                        node_id,
                        now,
                        "published poison carries a non-verifying fraud proof",
                        pruned=short_hash(pruned.hash),
                    )
                )
            elif chain.is_in_main_chain(pruned.hash):  # type: ignore[attr-defined]
                violations.append(
                    make_violation(
                        self,
                        node_id,
                        now,
                        "poisoned microblock is on the main chain — no fraud "
                        "to forfeit",
                        pruned=short_hash(pruned.hash),
                    )
                )
            elif registry is not None and poison.offender_pubkey not in registry:
                violations.append(
                    make_violation(
                        self,
                        node_id,
                        now,
                        "published poison missing from the one-per-cheater "
                        "registry",
                        pruned=short_hash(pruned.hash),
                    )
                )
        return violations


class TipMonotonicity(InvariantChecker):
    code = "INV109"
    name = "tip-monotonicity"
    description = (
        "A node's tip weight never decreases: fork choice only ever "
        "switches to a chain of equal or greater key-block work."
    )
    # A weight decrease implies a tip switch, and every tip switch
    # dirties the chain component — skipped sweeps can't miss one.
    depends = frozenset({"chain"})

    def __init__(self) -> None:
        self._last_weight: dict[int, int] = {}

    def check_state(
        self, node: object, node_id: int, now: float
    ) -> list[ViolationRecord]:
        weight = chain_of(node).tip_record.cumulative_work  # type: ignore[attr-defined]
        previous = self._last_weight.get(node_id)
        self._last_weight[node_id] = weight
        if previous is not None and weight < previous:
            return [
                make_violation(
                    self,
                    node_id,
                    now,
                    "tip weight decreased between sweeps",
                    weight=weight,
                    previous=previous,
                )
            ]
        return []


class MempoolConsistency(InvariantChecker):
    code = "INV110"
    name = "mempool-consistency"
    description = (
        "The mempool's spend index, entry map, and fee map agree with "
        "each other, and every entry's inputs exist in the UTXO set or "
        "as in-pool parents."
    )
    depends = frozenset({"mempool", "utxo"})

    def check_state(
        self, node: object, node_id: int, now: float
    ) -> list[ViolationRecord]:
        mempool = getattr(node, "mempool", None)
        utxo = getattr(node, "utxo", None)
        if mempool is None:
            return []
        violations: list[ViolationRecord] = []
        entries = {tx.txid: tx for tx in mempool.transactions()}
        spends = mempool.spend_index()
        fees = mempool.fee_index()
        for outpoint, txid in spends.items():
            tx = entries.get(txid)
            if tx is None:
                violations.append(
                    make_violation(
                        self,
                        node_id,
                        now,
                        "spend index references a transaction not in the pool",
                        spender=short_hash(txid),
                    )
                )
            elif all(txin.outpoint != outpoint for txin in tx.inputs):
                violations.append(
                    make_violation(
                        self,
                        node_id,
                        now,
                        "spend index maps an outpoint its transaction does "
                        "not spend",
                        spender=short_hash(txid),
                    )
                )
        for txid, tx in entries.items():
            for txin in tx.inputs:
                if spends.get(txin.outpoint) != txid:
                    violations.append(
                        make_violation(
                            self,
                            node_id,
                            now,
                            "pool entry's input missing from the spend index",
                            tx=short_hash(txid),
                        )
                    )
                elif (
                    utxo is not None
                    and txin.outpoint not in utxo
                    and txin.outpoint.txid not in entries
                ):
                    violations.append(
                        make_violation(
                            self,
                            node_id,
                            now,
                            "pool entry spends an output that exists neither "
                            "in the UTXO set nor in the pool",
                            tx=short_hash(txid),
                        )
                    )
            if txid not in fees:
                violations.append(
                    make_violation(
                        self,
                        node_id,
                        now,
                        "pool entry has no fee record",
                        tx=short_hash(txid),
                    )
                )
        for txid in fees:
            if txid not in entries:
                violations.append(
                    make_violation(
                        self,
                        node_id,
                        now,
                        "fee record for a transaction not in the pool",
                        tx=short_hash(txid),
                    )
                )
        return violations


def ng_checkers(mode: str = "incremental") -> list[InvariantChecker]:
    """Fresh instances of the full Bitcoin-NG invariant catalog.

    ``mode="incremental"`` (the default) wires the shared process-wide
    :class:`SignatureCache` into INV104 so each unique signature pair is
    verified once per process; ``mode="full"`` builds an uncached INV104
    — the genuinely independent verification path the cross-check mode
    and the periodic audit rely on.
    """
    validate_check_mode(mode)
    cache = shared_signature_cache() if mode == "incremental" else None
    return [
        ValueConservation(),
        FeeSplit(),
        CoinbaseMaturity(),
        MicroblockSignature(cache=cache),
        MicroblockRate(),
        MicroblockSize(),
        ChainWeight(),
        PoisonForfeiture(),
        TipMonotonicity(),
        MempoolConsistency(),
    ]


def chain_checkers(mode: str = "incremental") -> list[InvariantChecker]:
    """The protocol-agnostic subset (plain Bitcoin and the default for
    externally registered adapters).  No checker here caches, so the
    modes build identical sets — the parameter keeps the factory surface
    uniform across protocols."""
    validate_check_mode(mode)
    return [
        ChainWeight(),
        CoinbaseMaturity(),
        TipMonotonicity(),
        MempoolConsistency(),
    ]


def ghost_checkers(mode: str = "incremental") -> list[InvariantChecker]:
    """The GHOST subset: tip monotonicity is deliberately absent.

    GHOST picks tips by heaviest *subtree*, so a reorg can legitimately
    adopt a leaf whose chain work is lower than the old tip's — INV109
    is an invariant of heaviest-chain protocols only.
    """
    validate_check_mode(mode)
    return [
        ChainWeight(),
        CoinbaseMaturity(),
        MempoolConsistency(),
    ]
