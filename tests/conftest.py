"""Shared fixtures: call logs for the two costly public-key operations."""

import pytest

from repro.crypto.keys import PrivateKey, PublicKey


@pytest.fixture
def key_derivations(monkeypatch):
    """Every ``PrivateKey.public_key`` call from here on, by key."""
    derived = []
    original = PrivateKey.public_key

    def counting(self):
        derived.append(self)
        return original(self)

    monkeypatch.setattr(PrivateKey, "public_key", counting)
    return derived


@pytest.fixture
def pubkey_decodes(monkeypatch):
    """Every ``PublicKey.from_bytes`` call from here on, by input."""
    decoded = []
    original = PublicKey.from_bytes.__func__

    def counting(cls, data):
        decoded.append(data)
        return original(cls, data)

    monkeypatch.setattr(PublicKey, "from_bytes", classmethod(counting))
    return decoded
