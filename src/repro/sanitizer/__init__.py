"""repro.sanitizer: runtime protocol-invariant checking + race detection.

The dynamic half of the correctness-tooling stack.  :mod:`repro.lint`
proves determinism/layering properties *statically*; this package
validates the paper's protocol invariants against *live* simulation
state (checked mode, ``--check``) and bisects two same-seed executions
to the first divergent event (``repro check diverge``) when a
nondeterminism bug slips through anyway.

* :mod:`.checkers` — the invariant catalog (INV1xx codes): value
  conservation, the 40/60 fee split, coinbase maturity, microblock
  signature/rate/size rules, key-block-only chain weight, poison
  forfeiture, tip monotonicity, and mempool/UTXO cross-consistency.
  Checkers implement an incremental protocol (``check_block`` /
  ``on_event`` / ``check_dirty`` plus a ``depends`` component set) and
  share the process-wide :class:`~repro.crypto.sigcache.SignatureCache`
  (re-exported here) so each (leader, microblock) pair is verified
  exactly once.
* :mod:`.runtime` — :class:`SanitizerRuntime`, the event-boundary probe
  that sweeps node state through the checkers and captures state
  digests.  Three modes: ``incremental`` (dirty-set tracking, the
  default), ``full`` (the original stateless sweep, cross-check mode),
  and ``audit`` (incremental plus a periodic full-sweep audit that
  asserts incremental ≡ full).  Zero cost when disabled; bit-identical
  when enabled.
* :mod:`.digests` — canonical per-node state digests (tip hash, chain
  weight, mempool fingerprint, UTXO root) and their JSONL stream format.
* :mod:`.bisect` — binary search over two digest streams for the first
  divergent event.
* :mod:`.cli` — the ``repro check`` subcommands.
"""

from .bisect import Divergence, find_divergence
from .checkers import (
    CHECK_MODES,
    InvariantChecker,
    NodeDelta,
    SignatureCache,
    chain_checkers,
    ghost_checkers,
    ng_checkers,
    shared_signature_cache,
)
from .digests import DigestSnapshot, NodeDigest, node_digest
from .runtime import RUNTIME_MODES, AuditDivergence, SanitizerRuntime
from .violations import InvariantViolation, ViolationRecord

__all__ = [
    "AuditDivergence",
    "CHECK_MODES",
    "Divergence",
    "DigestSnapshot",
    "InvariantChecker",
    "InvariantViolation",
    "NodeDelta",
    "NodeDigest",
    "RUNTIME_MODES",
    "SanitizerRuntime",
    "SignatureCache",
    "ViolationRecord",
    "chain_checkers",
    "find_divergence",
    "ghost_checkers",
    "ng_checkers",
    "node_digest",
    "shared_signature_cache",
]
