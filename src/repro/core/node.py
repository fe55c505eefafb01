"""The Bitcoin-NG full node: miner, leader, and relay.

Mining wins (delivered by the shared scheduler) produce key blocks; the
winner becomes leader and generates microblocks at the configured rate
until it learns of a newer key block.  Received blocks are validated,
added to the chain, and relayed through the gossip layer.  Leader
equivocations observed on the chain yield poison entries that the node
publishes when it later becomes leader itself.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property

from ..bitcoin.blocks import SyntheticPayload, TxPayload
from ..crypto.hashing import hash160
from ..crypto.keys import PrivateKey
from ..ledger.errors import LedgerError
from ..ledger.mempool import Mempool
from ..ledger.transactions import Transaction
from ..ledger.utxo import UndoRecord, UtxoSet
from ..ledger.validation import compute_fee, validate_spend
from ..metrics.collector import BlockInfo, ObservationLog
from ..net.gossip import GossipNode, RelayMode, StoredObject
from ..obs.trace import short_hash
from ..net.network import Network
from ..net.simulator import Simulator
from .blocks import (
    InvalidNGBlock,
    KeyBlock,
    Microblock,
    build_key_block,
    build_microblock,
    check_key_block,
    check_microblock_structure,
)
from .chain import NGChain, Reorg
from ..bitcoin.chain import TieBreak
from .params import NGParams
from .poison import PoisonEntry, PoisonRegistry
from .remuneration import build_ng_coinbase

KIND_KEY = "key"
KIND_MICRO = "micro"


@dataclass
class MicroblockPolicy:
    """What the leader puts into its microblocks."""

    target_bytes: int = 50_000
    synthetic: bool = True
    synthetic_tx_size: int = 476
    synthetic_fee_per_tx: int = 0

    def synthetic_tx_count(self) -> int:
        return max(0, self.target_bytes // self.synthetic_tx_size)


class NGNode(GossipNode):
    """A Bitcoin-NG miner/relay node."""

    def __init__(
        self,
        node_id: int,
        sim: Simulator,
        network: Network,
        genesis: KeyBlock,
        params: NGParams,
        log: ObservationLog | None = None,
        policy: MicroblockPolicy | None = None,
        microblock_interval: float | None = None,
        tie_break: TieBreak = TieBreak.RANDOM,
        relay_mode: RelayMode = RelayMode.INV,
        require_pow: bool = False,
        check_signatures: bool = True,
        verification_seconds_per_byte: float = 0.0,
        key: PrivateKey | None = None,
        bits: int = 0x207FFFFF,
        ghost_fork_choice: bool = False,
    ) -> None:
        super().__init__(
            node_id,
            sim,
            network,
            relay_mode=relay_mode,
            verification_seconds_per_byte=verification_seconds_per_byte,
        )
        self.params = params
        self.log = log
        self.policy = policy or MicroblockPolicy()
        self.require_pow = require_pow
        self.check_signatures = check_signatures
        self.bits = bits
        # The rate the leader actually generates at; must respect the cap.
        self.microblock_interval = (
            microblock_interval
            if microblock_interval is not None
            else params.min_microblock_interval
        )
        if self.microblock_interval < params.min_microblock_interval:
            raise ValueError(
                "generation interval below the protocol minimum"
            )
        # Only the epoch leader needs its public key, so it is derived
        # on first use (see ``pubkey_bytes``), not here.
        self.key = key or PrivateKey.from_seed(f"ng-node-{node_id}")
        if ghost_fork_choice:
            # Section 9 future work: GHOST over key blocks, enabling
            # higher key-block frequencies.
            from .ghost_ng import GhostNGChain

            self.chain: NGChain = GhostNGChain(
                genesis, params, tie_break=tie_break, rng=sim.rng
            )
        else:
            self.chain = NGChain(
                genesis, params, tie_break=tie_break, rng=sim.rng
            )
        self.utxo = UtxoSet(coinbase_maturity=params.coinbase_maturity)
        self.mempool = Mempool()
        self._undo: dict[bytes, list[UndoRecord]] = {}
        self._fees_by_micro: dict[bytes, int] = {}
        self._micro_counter = 0
        self._leading_epoch: bytes | None = None  # our key block when leader
        self.key_blocks_mined = 0
        self.microblocks_generated = 0
        self.blocks_rejected = 0
        self.poison_registry = PoisonRegistry()
        self.poisons_published: list[PoisonEntry] = []
        # Pubkey → key-block hash of known leaders (for fee attribution).
        self._known_leader_hashes: dict[bytes, bytes] = {
            genesis.header.leader_pubkey: genesis.hash
        }
        registry = network.obs.registry
        self._c_gen = registry.counter(
            "node_blocks_generated", "blocks created, by kind", ("kind",)
        )
        self._c_tip = registry.counter(
            "node_tip_changes", "main-chain tip movements across all nodes"
        )
        self._c_epochs = registry.counter(
            "ng_leader_epochs", "leader epochs started across all nodes"
        )
        if log is not None:
            log.record_tip(node_id, genesis.hash, sim.now)

    @cached_property
    def pubkey_bytes(self) -> bytes:
        """The compressed public key this node's key blocks carry."""
        return self.key.public_key().to_bytes()

    @cached_property
    def pubkey_hash(self) -> bytes:
        """Where this node's leader payouts go."""
        return hash160(self.pubkey_bytes)

    # -- key block mining ---------------------------------------------------

    def generate_key_block(self) -> KeyBlock:
        """Mine a key block on the current tip and become leader."""
        tip = self.chain.tip
        tip_record = self.chain.record(tip)
        prev_leader_hash = self._prev_leader_payout_hash(tip)
        coinbase = build_ng_coinbase(
            miner_id=self.node_id,
            timestamp=self.sim.now,
            self_pubkey_hash=self.pubkey_hash,
            prev_leader_pubkey_hash=prev_leader_hash,
            prev_epoch_fees=self._epoch_fees_behind(tip),
            params=self.params,
        )
        block = build_key_block(
            prev_hash=tip,
            timestamp=self.sim.now,
            bits=self.bits,
            leader_pubkey=self.pubkey_bytes,
            coinbase=coinbase,
        )
        self.key_blocks_mined += 1
        if self.log is not None:
            self.log.record_generation(
                BlockInfo(
                    hash=block.hash,
                    parent=tip,
                    miner=self.node_id,
                    gen_time=self.sim.now,
                    work=block.header.work,
                    kind=KIND_KEY,
                    n_tx=0,
                    size=block.size,
                )
            )
            self.log.record_arrival(self.node_id, block.hash, self.sim.now)
        self._c_gen.labels(kind=KIND_KEY).inc()
        if self._tracer is not None:
            self._tracer.emit(
                "block_gen",
                self.sim.now,
                hash=short_hash(block.hash),
                parent=short_hash(tip),
                kind=KIND_KEY,
                miner=self.node_id,
                size=block.size,
                n_tx=0,
            )
        self.announce(block.hash, KIND_KEY, block, block.size)
        self._start_leading(block)
        return block

    def _prev_leader_payout_hash(self, tip: bytes) -> bytes | None:
        """Payout hash for the leader whose epoch this key block closes."""
        latest_key = self.chain.latest_key_block(tip)
        pubkey = latest_key.block.header.leader_pubkey  # type: ignore[union-attr]
        return hash160(pubkey)

    def _epoch_fees_behind(self, tip: bytes) -> int:
        """Total entry fees in the epoch ending at ``tip``."""
        fees = 0
        cursor = self.chain.record(tip)
        while not cursor.is_key:
            micro = cursor.block
            assert isinstance(micro, Microblock)
            fees += self._microblock_fees(micro)
            cursor = self.chain.record(cursor.parent_hash)
        return fees

    def _microblock_fees(self, micro: Microblock) -> int:
        if isinstance(micro.payload, SyntheticPayload):
            return micro.n_tx * self.policy.synthetic_fee_per_tx
        # Real fees need UTXO context at connect height; the node records
        # them as each microblock connects (see _connect_block).
        return self._fees_by_micro.get(micro.hash, 0)

    # -- leadership -----------------------------------------------------------

    def _start_leading(self, key_block: KeyBlock) -> None:
        self._leading_epoch = key_block.hash
        self._c_epochs.inc()
        if self._tracer is not None:
            self._tracer.emit(
                "epoch_start",
                self.sim.now,
                leader=self.node_id,
                key_block=short_hash(key_block.hash),
            )
        self._schedule_microblock(
            at=key_block.header.timestamp + self.microblock_interval
        )

    def _schedule_microblock(self, at: float) -> None:
        when = max(at, self.sim.now)
        self.sim.schedule_at(when, self._maybe_generate_microblock)

    def is_leader(self) -> bool:
        """True while our key block heads the epoch at the tip."""
        if self._leading_epoch is None:
            return False
        latest_key = self.chain.latest_key_block()
        return latest_key.hash == self._leading_epoch

    def abdicate(self) -> None:
        """Drop leadership immediately without a successor key block.

        Models the paper's crashed leader: "a benign leader that
        crashes during his epoch of leadership will publish no
        microblocks".  The pending generation timer finds
        ``_leading_epoch`` cleared and dies without rescheduling.
        """
        if self._leading_epoch is None:
            return
        if self._tracer is not None:
            self._tracer.emit(
                "epoch_end",
                self.sim.now,
                leader=self.node_id,
                key_block=short_hash(self._leading_epoch),
            )
        self._leading_epoch = None

    def _maybe_generate_microblock(self) -> None:
        if not self.is_leader():
            if self._leading_epoch is not None and self._tracer is not None:
                self._tracer.emit(
                    "epoch_end",
                    self.sim.now,
                    leader=self.node_id,
                    key_block=short_hash(self._leading_epoch),
                )
            self._leading_epoch = None
            return
        tip_record = self.chain.tip_record
        earliest = tip_record.timestamp + self.params.min_microblock_interval
        if self.sim.now < earliest - 1e-9:
            self._schedule_microblock(at=earliest)
            return
        self._generate_microblock()
        self._schedule_microblock(at=self.sim.now + self.microblock_interval)

    def _generate_microblock(self) -> Microblock:
        tip = self.chain.tip
        if self.policy.synthetic:
            payload: TxPayload | SyntheticPayload = SyntheticPayload(
                n_tx=self.policy.synthetic_tx_count(),
                tx_size=self.policy.synthetic_tx_size,
                salt=struct.pack("<iI", self.node_id, self._micro_counter) + tip,
            )
        else:
            selected = self.mempool.select(self.policy.target_bytes)
            payload = TxPayload(tuple(selected))
        self._micro_counter += 1
        micro = build_microblock(
            prev_hash=tip,
            timestamp=self.sim.now,
            payload=payload,
            leader_key=self.key,
        )
        self.microblocks_generated += 1
        if self.log is not None:
            self.log.record_generation(
                BlockInfo(
                    hash=micro.hash,
                    parent=tip,
                    miner=self.node_id,
                    gen_time=self.sim.now,
                    work=0,
                    kind=KIND_MICRO,
                    n_tx=micro.n_tx,
                    size=micro.size,
                )
            )
            self.log.record_arrival(self.node_id, micro.hash, self.sim.now)
        self._c_gen.labels(kind=KIND_MICRO).inc()
        if self._tracer is not None:
            self._tracer.emit(
                "block_gen",
                self.sim.now,
                hash=short_hash(micro.hash),
                parent=short_hash(tip),
                kind=KIND_MICRO,
                miner=self.node_id,
                size=micro.size,
                n_tx=micro.n_tx,
            )
        self.announce(micro.hash, KIND_MICRO, micro, micro.size)
        self._publish_poisons()
        return micro

    def _publish_poisons(self) -> None:
        """As leader, claim any outstanding fraud proofs (Section 4.5)."""
        placement_height = self.chain.tip_record.key_height
        for proof in self.chain.equivocations():
            if proof.offender_pubkey in self.poison_registry:
                continue
            poison = PoisonEntry(proof=proof, reporter_miner=self.node_id)
            try:
                if self.poison_registry.register(
                    self.chain, poison, placement_height
                ):
                    self.poisons_published.append(poison)
            except Exception:
                continue

    # -- transactions ---------------------------------------------------------

    def submit_transaction(self, tx: Transaction) -> None:
        """Accept a locally submitted transaction and gossip it."""
        height = self.chain.tip_record.height + 1
        fee = validate_spend(
            tx, self.utxo, height, check_signatures=self.check_signatures
        )
        self.mempool.add(tx, fee)
        self.announce(tx.txid, "tx", tx, tx.size)

    def _accept_relayed_transaction(self, tx: Transaction) -> None:
        """Admit a gossiped transaction if it validates; drop otherwise."""
        height = self.chain.tip_record.height + 1
        try:
            fee = validate_spend(
                tx, self.utxo, height, check_signatures=self.check_signatures
            )
            self.mempool.add(tx, fee)
        except LedgerError:
            return

    # -- delivery ---------------------------------------------------------------

    def deliver(self, obj: StoredObject, sender: int | None):
        if obj.kind == KIND_KEY:
            return self._deliver_key_block(obj.data, sender)
        if obj.kind == KIND_MICRO:
            return self._deliver_microblock(obj.data, sender)
        if obj.kind == "tx":
            if sender is not None:
                self._accept_relayed_transaction(obj.data)
            return None
        return False  # unknown object kinds are not relayed

    def _deliver_key_block(self, block: KeyBlock, sender: int | None):
        if sender is not None:
            if self.log is not None:
                self.log.record_arrival(self.node_id, block.hash, self.sim.now)
            if self._tracer is not None:
                self._tracer.emit(
                    "block_arrival",
                    self.sim.now,
                    node=self.node_id,
                    hash=short_hash(block.hash),
                    kind=KIND_KEY,
                )
        if sender is not None:
            try:
                check_key_block(block, require_pow=self.require_pow)
            except InvalidNGBlock:
                self.blocks_rejected += 1
                return False
        self._known_leader_hashes[block.header.leader_pubkey] = block.hash
        return self._add_and_apply(block, sender)

    def _deliver_microblock(self, micro: Microblock, sender: int | None):
        if sender is not None:
            if self.log is not None:
                self.log.record_arrival(self.node_id, micro.hash, self.sim.now)
            if self._tracer is not None:
                self._tracer.emit(
                    "block_arrival",
                    self.sim.now,
                    node=self.node_id,
                    hash=short_hash(micro.hash),
                    kind=KIND_MICRO,
                )
        if sender is not None:
            try:
                check_microblock_structure(
                    micro, self.params.max_microblock_bytes
                )
            except InvalidNGBlock:
                self.blocks_rejected += 1
                return False
        return self._add_and_apply(micro, sender)

    def _add_and_apply(
        self, block: KeyBlock | Microblock, sender: int | None = None
    ):
        try:
            reorgs = self.chain.add_block(
                block,
                arrival_time=self.sim.now,
                local_time=self.sim.now,
                check_signature=self.check_signatures,
            )
        except InvalidNGBlock:
            self.blocks_rejected += 1
            return False
        parent_hash = block.header.prev_hash
        if (
            sender is not None
            and block.hash not in self.chain
            and parent_hash not in self.chain
        ):
            # Orphan: backfill the missing ancestor from the sender.
            self.request_object(sender, parent_hash)
        for reorg in reorgs:
            self._apply_reorg(reorg)
        if reorgs:
            if self.log is not None:
                self.log.record_tip(self.node_id, self.chain.tip, self.sim.now)
            self._c_tip.inc()
            if self._tracer is not None:
                self._tracer.emit(
                    "tip_change",
                    self.sim.now,
                    node=self.node_id,
                    tip=short_hash(self.chain.tip),
                    height=self.chain.tip_record.height,
                )

    # -- state management ----------------------------------------------------

    def _apply_reorg(self, reorg: Reorg) -> None:
        for block_hash in reorg.disconnected:
            self._disconnect_block(block_hash)
        for block_hash in reorg.connected:
            self._connect_block(block_hash)

    def _connect_block(self, block_hash: bytes) -> None:
        record = self.chain.record(block_hash)
        block = record.block
        height = record.height
        undo_records: list[UndoRecord] = []
        if isinstance(block, KeyBlock):
            undo_records.append(self.utxo.apply(block.coinbase, height))
        elif isinstance(block.payload, TxPayload):
            fees = 0
            for tx in block.payload.transactions:
                try:
                    fees += validate_spend(
                        tx,
                        self.utxo,
                        height,
                        check_signatures=self.check_signatures,
                    )
                except LedgerError:
                    for done in reversed(undo_records):
                        self.utxo.undo(done)
                    raise InvalidNGBlock(
                        f"microblock {block_hash.hex()[:8]} has invalid spend"
                    )
                undo_records.append(self.utxo.apply(tx, height))
                self.mempool.evict_conflicts(tx)
            self._fees_by_micro[block_hash] = fees
        if undo_records:
            self._undo[block_hash] = undo_records

    def _disconnect_block(self, block_hash: bytes) -> None:
        undo_records = self._undo.pop(block_hash, None)
        if undo_records is None:
            return
        record = self.chain.record(block_hash)
        block = record.block
        for undo in reversed(undo_records):
            self.utxo.undo(undo)
        if isinstance(block, Microblock) and isinstance(block.payload, TxPayload):
            for tx in block.payload.transactions:
                try:
                    fee = compute_fee(tx, self.utxo, record.height)
                    self.mempool.add(tx, fee)
                except LedgerError:
                    continue

    # -- introspection ------------------------------------------------------

    def best_object_id(self) -> bytes | None:
        return self.chain.tip

    @property
    def tip(self) -> bytes:
        return self.chain.tip

    def balance_of(self, pubkey_hash: bytes) -> int:
        return self.utxo.balance(pubkey_hash)
