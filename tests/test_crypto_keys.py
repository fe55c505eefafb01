"""Key pairs, base58check, and addresses."""

import pytest

from repro.crypto.keys import (
    BadAddress,
    PrivateKey,
    PublicKey,
    address_from_pubkey_hash,
    base58check_decode,
    base58check_encode,
    pubkey_hash_from_address,
)


def test_seeded_keys_deterministic():
    assert PrivateKey.from_seed("a").secret == PrivateKey.from_seed("a").secret
    assert PrivateKey.from_seed("a").secret != PrivateKey.from_seed("b").secret


def test_seed_accepts_bytes_and_str():
    assert PrivateKey.from_seed("x").secret == PrivateKey.from_seed(b"x").secret


def test_sign_verify_through_key_objects():
    key = PrivateKey.from_seed("signer")
    msg = b"\x22" * 32
    sig = key.sign(msg)
    assert len(sig) == 64
    assert key.public_key().verify(msg, sig)
    assert not key.public_key().verify(b"\x23" * 32, sig)


def test_verify_tolerates_malformed_signature():
    key = PrivateKey.from_seed("signer")
    assert not key.public_key().verify(b"\x22" * 32, b"short")


def test_private_key_range_check():
    with pytest.raises(ValueError):
        PrivateKey(0)


def test_pubkey_bytes_roundtrip():
    pub = PrivateKey.from_seed("rt").public_key()
    assert PublicKey.from_bytes(pub.to_bytes()) == pub
    assert len(pub.to_bytes()) == 33


def test_base58check_roundtrip():
    payload = bytes(range(20))
    encoded = base58check_encode(0, payload)
    version, decoded = base58check_decode(encoded)
    assert version == 0
    assert decoded == payload


def test_base58check_detects_corruption():
    encoded = base58check_encode(0, bytes(20))
    corrupted = ("2" if encoded[-1] != "2" else "3") + encoded[1:]
    with pytest.raises(BadAddress):
        base58check_decode(corrupted)


def test_base58check_rejects_bad_characters():
    with pytest.raises(BadAddress):
        base58check_decode("0OIl")  # characters excluded from base58


def test_address_roundtrip():
    pkh = bytes(range(100, 120))
    address = address_from_pubkey_hash(pkh)
    assert pubkey_hash_from_address(address) == pkh


def test_address_version_zero_starts_with_1():
    address = PrivateKey.from_seed("addr").public_key().address()
    assert address.startswith("1")


def test_address_from_bad_hash_length():
    with pytest.raises(BadAddress):
        address_from_pubkey_hash(bytes(19))


def test_leading_zero_preservation():
    payload = b"\x00\x00" + bytes(18)
    encoded = base58check_encode(0, payload)
    _, decoded = base58check_decode(encoded)
    assert decoded == payload


# -- the decode memo ----------------------------------------------------------


def test_memoized_decode_equals_uncached():
    from repro.crypto.sigcache import SignatureCache

    cache = SignatureCache()
    for i in range(8):
        encoded = PrivateKey.from_seed(f"memo-{i}").public_key().to_bytes()
        uncached = PublicKey.from_bytes(encoded)
        assert cache.decode(encoded) == uncached  # miss
        assert cache.decode(encoded) == uncached  # hit
    assert (cache.hits, cache.misses) == (0, 0)  # verdict counters only


def test_decode_memo_decodes_each_key_once_until_cleared(pubkey_decodes):
    from repro.crypto.sigcache import SignatureCache

    cache = SignatureCache()
    encoded = PrivateKey.from_seed("memo").public_key().to_bytes()
    for _ in range(3):
        cache.decode(encoded)
    assert pubkey_decodes == [encoded]
    cache.clear()
    cache.decode(encoded)
    assert pubkey_decodes == [encoded, encoded]


def test_decode_failures_are_not_memoized(pubkey_decodes):
    from repro.crypto.ecdsa import InvalidPoint
    from repro.crypto.sigcache import SignatureCache

    cache = SignatureCache()
    bad = b"\x02" + b"\xff" * 32  # x beyond the field prime
    for _ in range(2):
        with pytest.raises(InvalidPoint):
            cache.decode(bad)
    assert pubkey_decodes == [bad, bad]


def test_decode_memo_is_bounded(pubkey_decodes):
    from repro.crypto.sigcache import SignatureCache

    cache = SignatureCache()
    cache.max_keys = 2
    a, b, c = (
        PrivateKey.from_seed(f"bound-{i}").public_key().to_bytes()
        for i in range(3)
    )
    for encoded in (a, b, a, b):
        cache.decode(encoded)
    assert pubkey_decodes == [a, b]
    cache.decode(c)  # full: the table is dropped to make room
    cache.decode(a)
    assert pubkey_decodes == [a, b, c, a]
