"""The process-wide verification memo that nodes and the sanitizer share.

Decoding a leader key (a modular square root) and verifying a microblock
signature (≈4 ms of pure-Python ECDSA) are pure functions of bytes the
caller already holds, so :class:`SignatureCache` computes each once per
process.  Nothing here draws randomness or touches simulation state.
"""

from __future__ import annotations

from .keys import PublicKey


class SignatureCache:
    """Process-wide memo of microblock signature verdicts and pubkey decodes.

    Signature validity is a *pure function* of the verifying key, the
    signed header, and the signature bytes.  The cache key is therefore
    ``(leader_pubkey, microblock_hash, signature)``: the microblock hash
    pins the header (it covers prev-hash, timestamp, and entries root
    but — deliberately — not the signature, so the signature must be in
    the key itself), and the pubkey pins which epoch leader the pair is
    judged under.  Because the key captures the verification's full
    input, entries can never go stale: a reorg that drops a key block
    changes which ``leader_pubkey`` a verifier looks up — a *different*
    key, a fresh verification — never a wrong cached verdict.  Negative
    verdicts are cached too, so a forged microblock costs one verify,
    not one per node.

    Decoded public keys are memoized separately, keyed by the exact
    encoded bytes.  Only successful decodes are kept: an undecodable key
    raises on every lookup, so it is rejected on every delivery.
    ``hits`` and ``misses`` count signature verdicts only.
    """

    #: Bound on memoized decodes; a run has one key per distinct leader.
    max_keys = 1 << 12

    def __init__(self, max_entries: int = 1 << 20) -> None:
        self.max_entries = max(1, int(max_entries))
        self.hits = 0
        self.misses = 0
        self._verdicts: dict[tuple[bytes, bytes, bytes], bool] = {}
        self._pubkeys: dict[bytes, PublicKey] = {}

    def __len__(self) -> int:
        return len(self._verdicts)

    def clear(self) -> None:
        """Drop all memoized verdicts and decodes (and reset the counters).

        Safe at any time — the cache memoizes pure functions, so a
        cleared entry is simply recomputed on next lookup.  Benchmarks
        use this to measure cold-cache runs.
        """
        self._verdicts.clear()
        self._pubkeys.clear()
        self.hits = 0
        self.misses = 0

    def decode(self, data: bytes) -> PublicKey:
        """``PublicKey.from_bytes(data)``, memoized on success.

        Raises whatever the decode raises; failures are not memoized.
        """
        pubkey = self._pubkeys.get(data)
        if pubkey is None:
            pubkey = PublicKey.from_bytes(data)
            if len(self._pubkeys) >= self.max_keys:
                self._pubkeys.clear()
            self._pubkeys[data] = pubkey
        return pubkey

    def verify(self, block: object, leader_pubkey: bytes) -> bool:
        """``block.verify_signature(leader_pubkey)``, memoized."""
        key = (
            leader_pubkey,
            block.hash,  # type: ignore[attr-defined]
            block.signature,  # type: ignore[attr-defined]
        )
        verdict = self._verdicts.get(key)
        if verdict is None:
            self.misses += 1
            verdict = bool(
                block.verify_signature(leader_pubkey)  # type: ignore[attr-defined]
            )
            if len(self._verdicts) >= self.max_entries:
                # Bounded: dropping memoized verdicts of a pure function
                # is always safe — they refill on demand.
                self._verdicts.clear()
            self._verdicts[key] = verdict
        else:
            self.hits += 1
        return verdict


_SHARED_SIGNATURE_CACHE = SignatureCache()


def shared_signature_cache() -> SignatureCache:
    """The process-wide cache that nodes, blocks and INV104 share."""
    return _SHARED_SIGNATURE_CACHE
