"""A GHOST node: Bitcoin block format, heaviest-subtree fork choice.

Per the paper's evaluation of GHOST (Section 9), nodes propagate *all*
blocks — pruned-branch blocks still influence fork choice, so peers must
learn them.  The gossip base class relays everything accepted, which is
exactly that behaviour.
"""

from __future__ import annotations

import struct

from ..bitcoin.blocks import (
    Block,
    InvalidBlock,
    SyntheticPayload,
    build_block,
    check_block,
)
from ..bitcoin.chain import TieBreak
from ..bitcoin.node import DEFAULT_BLOCK_REWARD, BlockPolicy
from ..metrics.collector import ObservationLog
from ..net.gossip import GossipNode, RelayMode, StoredObject
from ..net.network import Network
from ..net.simulator import Simulator
from .chain import GhostTree


class GhostNode(GossipNode):
    """A miner/relay node running the GHOST selection rule."""

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
        verification_seconds_per_byte: float = 0.0,
    ) -> None:
        super().__init__(
            node_id,
            sim,
            network,
            relay_mode=relay_mode,
            verification_seconds_per_byte=verification_seconds_per_byte,
        )
        self.attach_log(log, genesis.hash)
        self.policy = policy or BlockPolicy()
        self.require_pow = require_pow
        self.tree = GhostTree(genesis, tie_break=tie_break, rng=sim.rng)
        self._block_counter = 0
        self.blocks_mined = 0
        self.blocks_rejected = 0

    def generate_block(self) -> Block:
        """Mine a block on the GHOST-selected tip and gossip it."""
        tip = self.tree.tip
        payload = SyntheticPayload(
            n_tx=self.policy.synthetic_tx_count(),
            tx_size=self.policy.synthetic_tx_size,
            salt=struct.pack("<iI", self.node_id, self._block_counter) + tip,
        )
        self._block_counter += 1
        block = build_block(
            prev_hash=tip,
            payload=payload,
            timestamp=self.sim.now,
            bits=self.policy.bits,
            miner_id=self.node_id,
            reward=DEFAULT_BLOCK_REWARD,
        )
        self.blocks_mined += 1
        self.block_generated(
            block.hash,
            tip,
            self.KIND,
            block.size,
            block.n_tx,
            work=block.header.work,
        )
        self.announce(block.hash, self.KIND, block, block.size)
        return block

    def deliver(self, obj: StoredObject, sender: int | None):
        if obj.kind != self.KIND:
            return False  # unknown object kinds are not relayed
        block: Block = obj.data
        if sender is not None:
            self.block_arrived(block.hash, self.KIND)
            try:
                check_block(block, require_pow=self.require_pow)
            except InvalidBlock:
                self.blocks_rejected += 1
                return False
        reorgs = self.tree.add_block(block, self.sim.now)
        if reorgs:
            self.tip_changed(self.tree.tip, self.tree.tip_record.height)

    def best_object_id(self) -> bytes | None:
        return self.tree.tip

    @property
    def tip(self) -> bytes:
        return self.tree.tip
