"""Bitcoin-NG block types: key blocks and microblocks (Section 4).

A **key block** is a Bitcoin-style proof-of-work block that elects its
miner leader; "unlike Bitcoin, a key block contains a public key that
will be used in the subsequent microblocks".

A **microblock** "contains ledger entries and a header.  The header
contains the reference to the previous block, the current GMT time, a
cryptographic hash of its ledger entries, and a cryptographic signature
of the header.  The signature uses the private key that matches the
public key in the latest key block in the chain."  Microblocks carry no
proof of work and therefore no chain weight.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property

from ..bitcoin.blocks import HEADER_SIZE, SyntheticPayload, TxPayload
from ..crypto.hashing import sha256d, tagged_hash
from ..crypto.keys import PrivateKey
from ..crypto.pow import meets_target, target_from_compact, work_from_target
from ..crypto.sigcache import shared_signature_cache
from ..ledger.transactions import Transaction

# A compressed public key adds 33 bytes to the Bitcoin header.
KEY_HEADER_SIZE = HEADER_SIZE + 33

# Microblock header: 32 prev + 8 time + 32 root + 64 signature.
MICRO_HEADER_SIZE = 136


class InvalidNGBlock(Exception):
    """Raised when a key block or microblock fails validity checks."""


@dataclass(frozen=True)
class KeyBlockHeader:
    """Proof-of-work header carrying the epoch public key."""

    prev_hash: bytes
    payload_root: bytes
    timestamp: float
    bits: int
    nonce: int
    leader_pubkey: bytes  # 33-byte compressed secp256k1 point

    def serialize(self) -> bytes:
        return (
            self.prev_hash
            + self.payload_root
            + struct.pack("<dIQ", self.timestamp, self.bits, self.nonce)
            + self.leader_pubkey
        )

    @cached_property
    def hash(self) -> bytes:
        return tagged_hash("repro/ng-keyblock", self.serialize())

    @property
    def target(self) -> int:
        return target_from_compact(self.bits)

    @property
    def work(self) -> int:
        return work_from_target(self.target)

    def meets_pow(self) -> bool:
        return meets_target(self.hash, self.target)


@dataclass(frozen=True)
class KeyBlock:
    """A leader-election block: header + coinbase paying the fee split."""

    header: KeyBlockHeader
    coinbase: Transaction

    @property
    def hash(self) -> bytes:
        return self.header.hash

    @property
    def size(self) -> int:
        """Key blocks are small — header plus coinbase only."""
        return KEY_HEADER_SIZE + self.coinbase.size

    @property
    def miner_hint(self) -> int:
        tag = self.coinbase.padding
        if len(tag) < 4:
            return -1
        return struct.unpack("<i", tag[:4])[0]

    def __repr__(self) -> str:
        return (
            f"<KeyBlock {self.hash.hex()[:8]} "
            f"prev={self.header.prev_hash.hex()[:8]}>"
        )


@dataclass(frozen=True)
class MicroblockHeader:
    """The signed microblock header."""

    prev_hash: bytes
    timestamp: float
    entries_root: bytes

    def signing_payload(self) -> bytes:
        """The bytes the leader signs."""
        body = self.prev_hash + struct.pack("<d", self.timestamp) + self.entries_root
        return tagged_hash("repro/ng-microblock-sig", body)

    @cached_property
    def hash(self) -> bytes:
        body = self.prev_hash + struct.pack("<d", self.timestamp) + self.entries_root
        return tagged_hash("repro/ng-microblock", body)


@dataclass(frozen=True)
class Microblock:
    """Ledger entries signed by the epoch leader; carries no weight."""

    header: MicroblockHeader
    signature: bytes
    payload: TxPayload | SyntheticPayload

    @property
    def hash(self) -> bytes:
        return self.header.hash

    @property
    def size(self) -> int:
        return MICRO_HEADER_SIZE + self.payload.payload_bytes

    @property
    def n_tx(self) -> int:
        return self.payload.n_tx

    def verify_signature(self, leader_pubkey: bytes) -> bool:
        """Check the header signature under the epoch's public key."""
        try:
            pubkey = shared_signature_cache().decode(leader_pubkey)
        except Exception:
            return False
        return pubkey.verify(self.header.signing_payload(), self.signature)

    def __repr__(self) -> str:
        return (
            f"<Microblock {self.hash.hex()[:8]} "
            f"prev={self.header.prev_hash.hex()[:8]} n_tx={self.n_tx}>"
        )


def build_key_block(
    prev_hash: bytes,
    timestamp: float,
    bits: int,
    leader_pubkey: bytes,
    coinbase: Transaction,
    nonce: int = 0,
) -> KeyBlock:
    """Assemble a key block (unmined; nonce as given)."""
    if len(leader_pubkey) != 33:
        raise InvalidNGBlock("leader public key must be 33 bytes compressed")
    header = KeyBlockHeader(
        prev_hash=prev_hash,
        payload_root=sha256d(coinbase.serialize()),
        timestamp=timestamp,
        bits=bits,
        nonce=nonce,
        leader_pubkey=leader_pubkey,
    )
    return KeyBlock(header, coinbase)


def build_microblock(
    prev_hash: bytes,
    timestamp: float,
    payload: TxPayload | SyntheticPayload,
    leader_key: PrivateKey,
) -> Microblock:
    """Assemble and sign a microblock with the leader's private key."""
    header = MicroblockHeader(prev_hash, timestamp, payload.root())
    signature = leader_key.sign(header.signing_payload())
    return Microblock(header, signature, payload)


def mine_key_block(block: KeyBlock, max_iterations: int = 10_000_000) -> KeyBlock:
    """Grind nonces until the key block header meets its target."""
    header = block.header
    for nonce in range(max_iterations):
        candidate = KeyBlockHeader(
            header.prev_hash,
            header.payload_root,
            header.timestamp,
            header.bits,
            nonce,
            header.leader_pubkey,
        )
        if candidate.meets_pow():
            return KeyBlock(candidate, block.coinbase)
    raise InvalidNGBlock(f"no valid nonce in {max_iterations} iterations")


def check_key_block(block: KeyBlock, require_pow: bool = True) -> None:
    """Contextless key block validity."""
    if len(block.header.leader_pubkey) != 33:
        raise InvalidNGBlock("malformed leader public key")
    if block.header.payload_root != sha256d(block.coinbase.serialize()):
        raise InvalidNGBlock("coinbase commitment mismatch")
    if not block.coinbase.is_coinbase:
        raise InvalidNGBlock("key block payload must be a coinbase")
    if require_pow and not block.header.meets_pow():
        raise InvalidNGBlock("key block does not meet its target")
    # Reject an obviously un-parsable key so later signature checks are
    # meaningful.  Every node decodes the same few leader keys, so the
    # decode goes through the process-wide memo (failures are not kept).
    try:
        shared_signature_cache().decode(block.header.leader_pubkey)
    except Exception as exc:
        raise InvalidNGBlock(f"leader public key undecodable: {exc}") from exc


def check_microblock_structure(
    micro: Microblock, max_bytes: int
) -> None:
    """Contextless microblock validity (signature needs chain context)."""
    if micro.header.entries_root != micro.payload.root():
        raise InvalidNGBlock("entries root does not match payload")
    if micro.size > max_bytes:
        raise InvalidNGBlock(
            f"microblock size {micro.size} exceeds cap {max_bytes}"
        )
