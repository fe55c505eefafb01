"""Cryptographic substrate: hashing, Merkle trees, ECDSA keys, proof of work.

Everything the protocols need is implemented here from scratch — the
library has no binary crypto dependency.  See :mod:`repro.crypto.ecdsa`
for the secp256k1 implementation, :mod:`repro.crypto.pow` for target
arithmetic, and :mod:`repro.crypto.sigcache` for the process-wide
verification memo.
"""

from .hashing import DIGEST_SIZE, hash160, hash_to_int, sha256, sha256d, tagged_hash
from .keys import (
    BadAddress,
    PrivateKey,
    PublicKey,
    address_from_pubkey_hash,
    base58check_decode,
    base58check_encode,
    pubkey_hash_from_address,
)
from .merkle import EMPTY_ROOT, merkle_proof, merkle_root, verify_proof
from .pow import (
    GENESIS_TARGET,
    MAX_TARGET,
    InvalidTarget,
    compact_from_target,
    difficulty_from_target,
    meets_target,
    scale_target,
    target_from_compact,
    work_from_target,
)
from .sigcache import SignatureCache, shared_signature_cache

__all__ = [
    "DIGEST_SIZE",
    "EMPTY_ROOT",
    "GENESIS_TARGET",
    "MAX_TARGET",
    "BadAddress",
    "InvalidTarget",
    "PrivateKey",
    "PublicKey",
    "SignatureCache",
    "address_from_pubkey_hash",
    "base58check_decode",
    "base58check_encode",
    "compact_from_target",
    "difficulty_from_target",
    "hash160",
    "hash_to_int",
    "merkle_proof",
    "merkle_root",
    "meets_target",
    "pubkey_hash_from_address",
    "scale_target",
    "sha256",
    "sha256d",
    "shared_signature_cache",
    "tagged_hash",
    "target_from_compact",
    "verify_proof",
    "work_from_target",
]
