"""The Bitcoin full node.

Combines the block tree, UTXO state, and mempool behind the gossip
layer.  Two operating modes, selected by what the mining controller puts
in blocks:

* **library mode** — blocks carry real transactions taken from the
  mempool by fee rate; connects maintain the UTXO set with undo data so
  reorgs roll state back correctly.
* **experiment mode** — blocks carry :class:`SyntheticPayload` (the
  paper's artificial identical transactions); state tracking is skipped,
  matching the testbed's "no transaction propagation" setup.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property

from ..crypto.hashing import hash160
from ..crypto.keys import PrivateKey
from ..ledger.errors import LedgerError
from ..ledger.mempool import Mempool
from ..ledger.transactions import COIN, Transaction
from ..ledger.utxo import UndoRecord, UtxoSet
from ..ledger.validation import compute_fee, validate_spend
from ..metrics.collector import BlockInfo, ObservationLog
from ..net.gossip import GossipNode, RelayMode, StoredObject
from ..obs.trace import short_hash
from ..net.network import Network
from ..net.simulator import Simulator
from .blocks import (
    Block,
    InvalidBlock,
    SyntheticPayload,
    TxPayload,
    build_block,
    check_block,
)
from .chain import BlockTree, Reorg, TieBreak

# Default block subsidy (25 BTC, the 2015 value).
DEFAULT_BLOCK_REWARD = 25 * COIN


@dataclass
class BlockPolicy:
    """What a miner puts into the blocks it creates."""

    max_block_bytes: int = 1_000_000
    synthetic: bool = True
    synthetic_tx_size: int = 476
    bits: int = 0x207FFFFF
    reward: int = DEFAULT_BLOCK_REWARD

    def synthetic_tx_count(self) -> int:
        """Fill the block to its size cap with artificial transactions."""
        return max(0, self.max_block_bytes // self.synthetic_tx_size)


class BitcoinNode(GossipNode):
    """A miner/relay node running the Bitcoin blockchain protocol."""

    KIND = "block"

    def __init__(
        self,
        node_id: int,
        sim: Simulator,
        network: Network,
        genesis: Block,
        log: ObservationLog | None = None,
        policy: BlockPolicy | None = None,
        tie_break: TieBreak = TieBreak.FIRST_SEEN,
        relay_mode: RelayMode = RelayMode.INV,
        require_pow: bool = False,
        check_signatures: bool = True,
        verification_seconds_per_byte: float = 0.0,
        key: PrivateKey | None = None,
    ) -> None:
        super().__init__(
            node_id,
            sim,
            network,
            relay_mode=relay_mode,
            verification_seconds_per_byte=verification_seconds_per_byte,
        )
        self.log = log
        self.policy = policy or BlockPolicy()
        self.require_pow = require_pow
        self.check_signatures = check_signatures
        self.key = key or PrivateKey.from_seed(f"bitcoin-node-{node_id}")
        self.tree = BlockTree(genesis, tie_break=tie_break, rng=sim.rng)
        self.utxo = UtxoSet()
        self.mempool = Mempool()
        self._undo: dict[bytes, list[UndoRecord]] = {}
        self._block_counter = 0
        self.blocks_mined = 0
        self.blocks_rejected = 0
        registry = network.obs.registry
        self._c_gen = registry.counter(
            "node_blocks_generated", "blocks created, by kind", ("kind",)
        )
        self._c_tip = registry.counter(
            "node_tip_changes", "main-chain tip movements across all nodes"
        )
        if log is not None:
            log.record_tip(node_id, genesis.hash, sim.now)

    # -- mining ----------------------------------------------------------

    def generate_block(self) -> Block:
        """Create a block on the current tip and inject it into gossip.

        Called by the mining controller when this miner wins a
        proof-of-work event (the paper's in-situ controller analogue).
        """
        tip = self.tree.tip
        if self.policy.synthetic:
            payload: TxPayload | SyntheticPayload = SyntheticPayload(
                n_tx=self.policy.synthetic_tx_count(),
                tx_size=self.policy.synthetic_tx_size,
                salt=struct.pack("<iI", self.node_id, self._block_counter) + tip,
            )
            reward = self.policy.reward
        else:
            selected = self.mempool.select(self.policy.max_block_bytes)
            height = self.tree.height_of(tip) + 1
            fees = sum(
                compute_fee(tx, self.utxo, height) for tx in selected
            )
            payload = TxPayload(tuple(selected))
            reward = self.policy.reward + fees
        self._block_counter += 1
        block = build_block(
            prev_hash=tip,
            payload=payload,
            timestamp=self.sim.now,
            bits=self.policy.bits,
            miner_id=self.node_id,
            reward=reward,
            reward_pubkey_hash=self._payout_hash,
        )
        self.blocks_mined += 1
        if self.log is not None:
            self.log.record_generation(
                BlockInfo(
                    hash=block.hash,
                    parent=tip,
                    miner=self.node_id,
                    gen_time=self.sim.now,
                    work=block.header.work,
                    kind=self.KIND,
                    n_tx=block.n_tx,
                    size=block.size,
                )
            )
            self.log.record_arrival(self.node_id, block.hash, self.sim.now)
        self._c_gen.labels(kind=self.KIND).inc()
        if self._tracer is not None:
            self._tracer.emit(
                "block_gen",
                self.sim.now,
                hash=short_hash(block.hash),
                parent=short_hash(tip),
                kind=self.KIND,
                miner=self.node_id,
                size=block.size,
                n_tx=block.n_tx,
            )
        self.announce(block.hash, self.KIND, block, block.size)
        return block

    @cached_property
    def _payout_hash(self) -> bytes:
        # Memoized: deriving a public key is a full scalar multiplication.
        return hash160(self.key.public_key().to_bytes())

    # -- transaction entry points -----------------------------------------

    def submit_transaction(self, tx: Transaction) -> None:
        """Accept a locally submitted transaction and gossip it."""
        height = self.tree.height_of(self.tree.tip) + 1
        fee = validate_spend(
            tx, self.utxo, height, check_signatures=self.check_signatures
        )
        self.mempool.add(tx, fee)
        self.announce(tx.txid, "tx", tx, tx.size)

    def _accept_relayed_transaction(self, tx: Transaction) -> None:
        """Admit a gossiped transaction if it validates; drop otherwise."""
        height = self.tree.height_of(self.tree.tip) + 1
        try:
            fee = validate_spend(
                tx, self.utxo, height, check_signatures=self.check_signatures
            )
            self.mempool.add(tx, fee)
        except LedgerError:
            return

    # -- gossip delivery ---------------------------------------------------

    def deliver(self, obj: StoredObject, sender: int | None):
        if obj.kind == "tx":
            if sender is not None:
                self._accept_relayed_transaction(obj.data)
            return None
        if obj.kind != self.KIND:
            return False  # unknown object kinds are not relayed
        block: Block = obj.data
        if sender is not None:
            if self.log is not None:
                self.log.record_arrival(self.node_id, block.hash, self.sim.now)
            if self._tracer is not None:
                self._tracer.emit(
                    "block_arrival",
                    self.sim.now,
                    node=self.node_id,
                    hash=short_hash(block.hash),
                    kind=self.KIND,
                )
        if sender is not None:
            try:
                check_block(block, require_pow=self.require_pow)
            except InvalidBlock:
                self.blocks_rejected += 1
                return False
        reorgs = self.tree.add_block(block, self.sim.now)
        parent_hash = block.header.prev_hash
        if (
            sender is not None
            and block.hash not in self.tree
            and parent_hash not in self.tree
        ):
            # Orphan: backfill the gap from whoever sent this block.
            self.request_object(sender, parent_hash)
        for reorg in reorgs:
            self._apply_reorg(reorg)
        if reorgs:
            if self.log is not None:
                self.log.record_tip(self.node_id, self.tree.tip, self.sim.now)
            self._c_tip.inc()
            if self._tracer is not None:
                self._tracer.emit(
                    "tip_change",
                    self.sim.now,
                    node=self.node_id,
                    tip=short_hash(self.tree.tip),
                    height=self.tree.height_of(self.tree.tip),
                )

    # -- state management ----------------------------------------------------

    def _apply_reorg(self, reorg: Reorg) -> None:
        for block_hash in reorg.disconnected:
            self._disconnect_block(block_hash)
        for block_hash in reorg.connected:
            self._connect_block(block_hash)

    def _connect_block(self, block_hash: bytes) -> None:
        record = self.tree.record(block_hash)
        block = record.block
        if not isinstance(block.payload, TxPayload):
            return
        undo_records: list[UndoRecord] = []
        height = record.height
        undo_records.append(self.utxo.apply(block.coinbase, height))
        for tx in block.payload.transactions:
            try:
                validate_spend(
                    tx, self.utxo, height, check_signatures=self.check_signatures
                )
            except LedgerError:
                # Unwind the partial connect, then surface the failure.
                for done in reversed(undo_records):
                    self.utxo.undo(done)
                raise InvalidBlock(
                    f"block {block_hash.hex()[:8]} contains an invalid spend"
                )
            undo_records.append(self.utxo.apply(tx, height))
            self.mempool.evict_conflicts(tx)
        self._undo[block_hash] = undo_records

    def _disconnect_block(self, block_hash: bytes) -> None:
        undo_records = self._undo.pop(block_hash, None)
        if undo_records is None:
            return
        record = self.tree.record(block_hash)
        block = record.block
        for undo in reversed(undo_records):
            self.utxo.undo(undo)
        if isinstance(block.payload, TxPayload):
            # Returned transactions compete for inclusion again.
            height = record.height
            for tx in block.payload.transactions:
                try:
                    fee = compute_fee(tx, self.utxo, height)
                    self.mempool.add(tx, fee)
                except LedgerError:
                    continue

    # -- introspection ------------------------------------------------------

    def best_object_id(self) -> bytes | None:
        return self.tree.tip

    @property
    def tip(self) -> bytes:
        return self.tree.tip

    @property
    def height(self) -> int:
        return self.tree.height_of(self.tree.tip)

    def balance_of(self, pubkey_hash: bytes) -> int:
        return self.utxo.balance(pubkey_hash)
