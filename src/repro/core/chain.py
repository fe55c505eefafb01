"""The Bitcoin-NG chain: fork choice by key-block weight only.

"In case of a fork, the chain is defined to be the one which represents
the most work done, aggregated over all key blocks, with random tie
breaking" (Section 4.1).  "Microblocks do not affect the weight of the
chain, as they do not contain proof of work" (Section 4.2) — this is
what produces the short microblock forks of Figure 2 (a new key block
prunes microblocks its miner had not yet heard) and the rare-but-long
key block forks of Figure 3.

The chain also validates microblocks in context: the signature must
match "the public key in the latest key block in the chain", and the
timestamp rate limit "prohibits a leader (malicious, greedy, or broken)
from swamping the system with microblocks".  Leader equivocation — two
microblocks extending the same predecessor — is detected here and
yields the fraud proof a poison transaction needs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..bitcoin.chain import Reorg, TieBreak
from ..crypto.sigcache import shared_signature_cache
from .blocks import InvalidNGBlock, KeyBlock, Microblock
from .params import NGParams

NGBlock = KeyBlock | Microblock


@dataclass
class NGRecord:
    """One block's position in the NG block tree."""

    block: NGBlock
    is_key: bool
    height: int  # blocks of any kind since genesis
    key_height: int  # key blocks on the path (epoch number)
    cumulative_work: int  # aggregated over key blocks only
    leader_pubkey: bytes  # epoch key in force after this block
    arrival_time: float
    children: list[bytes] = field(default_factory=list)

    @property
    def hash(self) -> bytes:
        return self.block.hash

    @property
    def parent_hash(self) -> bytes:
        return self.block.header.prev_hash

    @property
    def timestamp(self) -> float:
        return self.block.header.timestamp


@dataclass(frozen=True)
class FraudProof:
    """Evidence of leader equivocation: a pruned sibling microblock.

    "The entry ... contains the header of the first block in the pruned
    branch as a proof of fraud" (Section 4.5).  We keep the whole
    microblock header plus signature — exactly what a verifier needs.
    """

    offender_pubkey: bytes
    pruned_micro: Microblock
    retained_micro_hash: bytes

    def verify(self) -> bool:
        """The proof stands if the pruned header really was leader-signed."""
        return self.pruned_micro.verify_signature(self.offender_pubkey)


class NGChain:
    """One node's view of the Bitcoin-NG block tree."""

    def __init__(
        self,
        genesis: KeyBlock,
        params: NGParams,
        tie_break: TieBreak = TieBreak.RANDOM,
        rng: random.Random | None = None,
    ) -> None:
        self.params = params
        self.tie_break = tie_break
        self.rng = rng or random.Random(0)
        self.genesis_hash = genesis.hash
        self._records: dict[bytes, NGRecord] = {}
        self._orphans: dict[bytes, list[tuple[NGBlock, float]]] = {}
        self._records[genesis.hash] = NGRecord(
            block=genesis,
            is_key=True,
            height=0,
            key_height=0,
            cumulative_work=0,
            leader_pubkey=genesis.header.leader_pubkey,
            arrival_time=0.0,
        )
        self._tip = genesis.hash
        self._equivocations: list[FraudProof] = []

    # -- queries --------------------------------------------------------

    def __contains__(self, block_hash: bytes) -> bool:
        return block_hash in self._records

    def __len__(self) -> int:
        return len(self._records)

    @property
    def tip(self) -> bytes:
        return self._tip

    @property
    def tip_record(self) -> NGRecord:
        return self._records[self._tip]

    def record(self, block_hash: bytes) -> NGRecord:
        return self._records[block_hash]

    def get(self, block_hash: bytes) -> NGRecord | None:
        return self._records.get(block_hash)

    def current_leader_pubkey(self) -> bytes:
        """The epoch key in force at the tip."""
        return self._records[self._tip].leader_pubkey

    def latest_key_block(self, start: bytes | None = None) -> NGRecord:
        """The most recent key block at or above ``start`` (default tip)."""
        cursor = self._records[start if start is not None else self._tip]
        while not cursor.is_key:
            cursor = self._records[cursor.parent_hash]
        return cursor

    def main_chain(self, tip: bytes | None = None) -> list[bytes]:
        chain: list[bytes] = []
        cursor = tip if tip is not None else self._tip
        while True:
            chain.append(cursor)
            if cursor == self.genesis_hash:
                break
            cursor = self._records[cursor].parent_hash
        chain.reverse()
        return chain

    def is_in_main_chain(self, block_hash: bytes) -> bool:
        record = self._records.get(block_hash)
        if record is None:
            return False
        cursor = self._records[self._tip]
        while cursor.height > record.height:
            cursor = self._records[cursor.parent_hash]
        return cursor.hash == block_hash

    def find_fork_point(self, a: bytes, b: bytes) -> bytes:
        ra, rb = self._records[a], self._records[b]
        while ra.height > rb.height:
            ra = self._records[ra.parent_hash]
        while rb.height > ra.height:
            rb = self._records[rb.parent_hash]
        while ra.hash != rb.hash:
            ra = self._records[ra.parent_hash]
            rb = self._records[rb.parent_hash]
        return ra.hash

    def equivocations(self) -> list[FraudProof]:
        """Fraud proofs discovered so far (one per offense observed)."""
        return list(self._equivocations)

    def pruned_blocks(self) -> list[bytes]:
        main = set(self.main_chain())
        return [h for h in self._records if h not in main]

    # -- validation -----------------------------------------------------

    def validate_microblock(
        self,
        micro: Microblock,
        local_time: float,
        check_signature: bool = True,
    ) -> None:
        """Contextual microblock checks against its (known) parent.

        Raises :class:`InvalidNGBlock`; the parent must already be in
        the tree (orphans are validated when adopted).
        """
        parent = self._records.get(micro.header.prev_hash)
        if parent is None:
            raise InvalidNGBlock("microblock parent unknown")
        # "if the timestamp of a microblock is in the future ... invalid"
        if micro.header.timestamp > local_time + self.params.max_future_drift:
            raise InvalidNGBlock("microblock timestamp in the future")
        # "or if its difference with its predecessor's timestamp is
        # smaller than the minimum"
        gap = micro.header.timestamp - parent.timestamp
        if gap < self.params.min_microblock_interval - 1e-9:
            raise InvalidNGBlock(
                f"microblock interval {gap:.3f}s below the minimum "
                f"{self.params.min_microblock_interval}s"
            )
        # The verdict is a pure function of (key, header, signature), so
        # every node shares one verification per microblock.
        if check_signature and not shared_signature_cache().verify(
            micro, parent.leader_pubkey
        ):
            raise InvalidNGBlock("microblock not signed by the epoch leader")

    # -- mutation -------------------------------------------------------

    def add_block(
        self,
        block: NGBlock,
        arrival_time: float,
        local_time: float | None = None,
        check_signature: bool = True,
    ) -> list[Reorg]:
        """Insert a key block or microblock; returns resulting tip moves.

        Invalid microblocks raise; unknown-parent blocks are buffered.
        """
        if block.hash in self._records:
            return []
        if block.header.prev_hash not in self._records:
            self._orphans.setdefault(block.header.prev_hash, []).append(
                (block, arrival_time)
            )
            return []
        reorgs = [
            self._connect(
                block,
                arrival_time,
                local_time if local_time is not None else arrival_time,
                check_signature,
            )
        ]
        pending = [block.hash]
        while pending:
            parent_hash = pending.pop()
            for orphan, orphan_time in self._orphans.pop(parent_hash, []):
                try:
                    reorg = self._connect(
                        orphan,
                        max(orphan_time, arrival_time),
                        local_time if local_time is not None else arrival_time,
                        check_signature,
                    )
                except InvalidNGBlock:
                    continue
                reorgs.append(reorg)
                pending.append(orphan.hash)
        return [r for r in reorgs if r is not None]

    def _connect(
        self,
        block: NGBlock,
        arrival_time: float,
        local_time: float,
        check_signature: bool,
    ) -> Reorg | None:
        parent = self._records[block.header.prev_hash]
        is_key = isinstance(block, KeyBlock)
        if is_key:
            record = NGRecord(
                block=block,
                is_key=True,
                height=parent.height + 1,
                key_height=parent.key_height + 1,
                cumulative_work=parent.cumulative_work + block.header.work,
                leader_pubkey=block.header.leader_pubkey,
                arrival_time=arrival_time,
            )
        else:
            assert isinstance(block, Microblock)
            self.validate_microblock(block, local_time, check_signature)
            record = NGRecord(
                block=block,
                is_key=False,
                height=parent.height + 1,
                key_height=parent.key_height,
                cumulative_work=parent.cumulative_work,
                leader_pubkey=parent.leader_pubkey,
                arrival_time=arrival_time,
            )
            self._detect_equivocation(parent, block)
        self._records[block.hash] = record
        parent.children.append(block.hash)
        self._on_connected(record)
        return self._maybe_switch_tip(record)

    def _on_connected(self, record: NGRecord) -> None:
        """Hook for subclasses to index a freshly connected record."""

    def _detect_equivocation(self, parent: NGRecord, new_micro: Microblock) -> None:
        """Two leader-signed microblocks on one parent is fraud."""
        siblings = [
            self._records[child]
            for child in parent.children
            if not self._records[child].is_key
        ]
        for sibling in siblings:
            assert isinstance(sibling.block, Microblock)
            self._equivocations.append(
                FraudProof(
                    offender_pubkey=parent.leader_pubkey,
                    pruned_micro=new_micro,
                    retained_micro_hash=sibling.hash,
                )
            )

    def _maybe_switch_tip(self, candidate: NGRecord) -> Reorg | None:
        current = self._records[self._tip]
        if candidate.cumulative_work > current.cumulative_work:
            return self._switch_tip(candidate.hash)
        if candidate.cumulative_work < current.cumulative_work:
            return None
        if candidate.hash == current.hash:
            return None
        # Equal weight: adopt a microblock that extends the current tip;
        # anything else is a genuine fork.
        if self._is_descendant(candidate.hash, self._tip):
            return self._switch_tip(candidate.hash)
        if candidate.is_key:
            # Competing key blocks (Figure 3): tie-break policy applies.
            if self.tie_break is TieBreak.FIRST_SEEN:
                return None
            if self.rng.random() < 0.5:
                return None
            return self._switch_tip(candidate.hash)
        # Competing microblock (leader equivocation): keep the first seen.
        return None

    def _is_descendant(self, descendant: bytes, ancestor: bytes) -> bool:
        if descendant == ancestor:
            return True
        target = self._records[ancestor]
        cursor = self._records[descendant]
        while cursor.height > target.height:
            cursor = self._records[cursor.parent_hash]
        return cursor.hash == ancestor

    def _switch_tip(self, new_tip: bytes) -> Reorg:
        old_tip = self._tip
        fork = self.find_fork_point(old_tip, new_tip)
        disconnected = []
        cursor = old_tip
        while cursor != fork:
            disconnected.append(cursor)
            cursor = self._records[cursor].parent_hash
        connected = []
        cursor = new_tip
        while cursor != fork:
            connected.append(cursor)
            cursor = self._records[cursor].parent_hash
        connected.reverse()
        self._tip = new_tip
        return Reorg(old_tip, new_tip, tuple(disconnected), tuple(connected))

    # -- invariants -------------------------------------------------------

    def assert_consistent(self) -> None:
        """Structural invariants for property-based tests."""
        for block_hash, record in self._records.items():
            if block_hash == self.genesis_hash:
                continue
            parent = self._records.get(record.parent_hash)
            if parent is None:
                raise InvalidNGBlock("dangling parent pointer")
            if record.height != parent.height + 1:
                raise InvalidNGBlock("height mismatch")
            expected_key_height = parent.key_height + (1 if record.is_key else 0)
            if record.key_height != expected_key_height:
                raise InvalidNGBlock("key height mismatch")
            if record.is_key:
                expected_work = parent.cumulative_work + record.block.header.work
                expected_leader = record.block.header.leader_pubkey  # type: ignore[union-attr]
            else:
                expected_work = parent.cumulative_work
                expected_leader = parent.leader_pubkey
            if record.cumulative_work != expected_work:
                raise InvalidNGBlock("cumulative work mismatch")
            if record.leader_pubkey != expected_leader:
                raise InvalidNGBlock("leader key mismatch")
        best = max(r.cumulative_work for r in self._records.values())
        if self._records[self._tip].cumulative_work != best:
            raise InvalidNGBlock("tip does not carry maximal key work")
