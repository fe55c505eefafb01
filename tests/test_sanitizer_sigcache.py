"""SignatureCache agreement with direct ecdsa verification.

The cache memoizes ``Microblock.verify_signature`` keyed on
``(leader_pubkey, block_hash, signature)`` — a pure function of those
inputs — so every cached verdict, positive *or negative*, must agree
bit-for-bit with an uncached ``ecdsa.verify`` over the same header and
key.  A randomized corpus (seeded, so deterministic) exercises both
verdict polarities and both cache paths: the first lookup (miss, real
verification) and the replay (hit, memo only).
"""

import random

import pytest

from repro.bitcoin.blocks import SyntheticPayload
from repro.core.blocks import build_microblock
from repro.crypto import ecdsa
from repro.crypto.keys import PrivateKey, PublicKey
from repro.sanitizer.checkers import SignatureCache


def _corpus(seed: int, size: int):
    """(microblock, claimed leader pubkey bytes) pairs, about half forged.

    Forgeries come in the flavours a simulation can actually produce:
    a microblock signed by a different leader's key (stale epoch), a
    bit-flipped signature, and a claimed pubkey that does not decode.
    """
    rng = random.Random(seed)
    keys = [PrivateKey.from_seed(f"corpus-{i}") for i in range(8)]
    pairs = []
    for i in range(size):
        signer = rng.choice(keys)
        block = build_microblock(
            prev_hash=rng.randbytes(32),
            timestamp=rng.uniform(0.0, 10_000.0),
            payload=SyntheticPayload(
                n_tx=rng.randrange(1, 50), salt=rng.randbytes(8)
            ),
            leader_key=signer,
        )
        claimed = signer.public_key().to_bytes()
        flavour = rng.randrange(4)
        if flavour == 1:  # wrong leader claimed
            other = rng.choice([k for k in keys if k is not signer])
            claimed = other.public_key().to_bytes()
        elif flavour == 2:  # corrupted signature
            corrupt = bytearray(block.signature)
            corrupt[rng.randrange(len(corrupt))] ^= 1 << rng.randrange(8)
            block = type(block)(block.header, bytes(corrupt), block.payload)
        elif flavour == 3:  # undecodable pubkey
            claimed = rng.randbytes(rng.choice((0, 16, 33)))
        pairs.append((block, claimed))
    return pairs


def _direct_verdict(block, claimed: bytes) -> bool:
    """Uncached ground truth straight from the ecdsa layer."""
    try:
        point = PublicKey.from_bytes(claimed).point
    except Exception:
        return False
    try:
        signature = ecdsa.signature_from_bytes(block.signature)
    except ecdsa.InvalidSignature:
        return False
    return ecdsa.verify(point, block.header.signing_payload(), signature)


def test_cache_agrees_with_direct_verification_on_random_corpus():
    corpus = _corpus(seed=1311, size=60)
    cache = SignatureCache()
    verdicts = [cache.verify(block, claimed) for block, claimed in corpus]
    expected = [_direct_verdict(block, claimed) for block, claimed in corpus]
    assert verdicts == expected
    # The corpus must exercise both polarities or the test proves little.
    assert any(expected) and not all(expected)
    assert cache.misses == len(corpus)


def test_cache_hits_replay_identical_verdicts():
    corpus = _corpus(seed=2319, size=40)
    cache = SignatureCache()
    first = [cache.verify(block, claimed) for block, claimed in corpus]
    misses = cache.misses
    replay = [cache.verify(block, claimed) for block, claimed in corpus]
    assert replay == first
    assert cache.misses == misses  # second pass served entirely from memo
    assert cache.hits >= len(corpus)


def test_negative_verdicts_are_cached_not_recomputed():
    key = PrivateKey.from_seed("leader")
    impostor = PrivateKey.from_seed("impostor")
    block = build_microblock(
        prev_hash=b"\x11" * 32,
        timestamp=42.0,
        payload=SyntheticPayload(n_tx=3, salt=b"sig"),
        leader_key=impostor,
    )
    claimed = key.public_key().to_bytes()
    cache = SignatureCache()
    assert cache.verify(block, claimed) is False
    assert cache.verify(block, claimed) is False
    assert (cache.hits, cache.misses) == (1, 1)
    assert block.verify_signature(claimed) is False


def test_sanitizer_reexports_the_crypto_level_cache():
    import repro.sanitizer as sanitizer
    from repro.crypto import sigcache

    assert SignatureCache is sigcache.SignatureCache
    assert sanitizer.SignatureCache is sigcache.SignatureCache
    assert sanitizer.shared_signature_cache() is sigcache.shared_signature_cache()


def test_undecodable_leader_key_rejected_on_every_delivery(pubkey_decodes):
    from repro.core.blocks import InvalidNGBlock, build_key_block, check_key_block
    from repro.crypto.sigcache import shared_signature_cache
    from repro.ledger.transactions import make_coinbase

    # 33 bytes with a valid prefix whose x lies beyond the field prime.
    block = build_key_block(
        prev_hash=bytes(32),
        timestamp=1.0,
        bits=0x207FFFFF,
        leader_pubkey=b"\x02" + b"\xff" * 32,
        coinbase=make_coinbase([(bytes(20), 0)], tag=b"bad-key"),
    )
    cache = shared_signature_cache()
    hits, misses = cache.hits, cache.misses
    for delivery in (1, 2):
        with pytest.raises(InvalidNGBlock, match="undecodable"):
            check_key_block(block, require_pow=False)
        assert len(pubkey_decodes) == delivery  # the failure was not memoized
    assert (cache.hits, cache.misses) == (hits, misses)


def test_key_block_checks_decode_each_leader_key_once(pubkey_decodes):
    from repro.core.blocks import build_key_block, check_key_block
    from repro.crypto.sigcache import shared_signature_cache
    from repro.ledger.transactions import make_coinbase

    leader = PrivateKey.from_seed("memo-leader").public_key().to_bytes()
    blocks = [
        build_key_block(
            prev_hash=bytes([i]) * 32,
            timestamp=float(i),
            bits=0x207FFFFF,
            leader_pubkey=leader,
            coinbase=make_coinbase([(bytes(20), 0)], tag=bytes([i])),
        )
        for i in range(3)
    ]
    shared_signature_cache().clear()
    for block in blocks:
        check_key_block(block, require_pow=False)
    assert pubkey_decodes == [leader]
    # Microblock verification decodes through the same memo.
    micro = build_microblock(
        prev_hash=blocks[0].hash,
        timestamp=5.0,
        payload=SyntheticPayload(n_tx=1, salt=b"memo"),
        leader_key=PrivateKey.from_seed("memo-leader"),
    )
    assert micro.verify_signature(leader)
    assert pubkey_decodes == [leader]
