"""The protocol-adapter registry: one uniform surface per protocol.

Every consensus protocol the harness can run — Bitcoin, GHOST,
Bitcoin-NG, or anything registered later — is described by a
:class:`ProtocolAdapter`: how to build its nodes and mining scheduler
for an experiment, and how its nodes react to lifecycle faults (crash,
restart, resync).  The experiment runner and the fault-injection
scenario engine both work exclusively through this interface, so adding
a protocol requires registering an adapter — never editing the runner.

The :class:`Protocol` enum of the three built-in protocols lives here
(re-exported from :mod:`repro.experiments.config` for compatibility);
the registry itself is keyed by protocol *name*, so external protocols
can register under new names and be run by setting
``ExperimentConfig(protocol="<name>")``.
"""

from __future__ import annotations

import abc
import enum
from collections.abc import Sequence
from typing import TYPE_CHECKING, ClassVar

from .bitcoin.blocks import make_genesis
from .bitcoin.chain import TieBreak
from .bitcoin.node import BitcoinNode, BlockPolicy
from .core.genesis import make_ng_genesis
from .core.node import MicroblockPolicy, NGNode
from .core.params import NGParams
from .ghost.node import GhostNode
from .mining.scheduler import MiningScheduler
from .net.gossip import GossipNode

if TYPE_CHECKING:
    # Type-only: at runtime repro.experiments.config imports *this*
    # module (the Protocol enum lives here), so the reverse import must
    # never execute.
    from .experiments.config import ExperimentConfig
    from .metrics import ObservationLog
    from .net.network import Network
    from .net.simulator import Simulator
    from .sanitizer.checkers import InvariantChecker


class Protocol(enum.Enum):
    """Which consensus protocol an experiment runs."""

    BITCOIN = "bitcoin"
    BITCOIN_NG = "bitcoin-ng"
    GHOST = "ghost"


def protocol_name(protocol: Protocol | str) -> str:
    """The registry key for a protocol: its enum value or the string."""
    return protocol.value if isinstance(protocol, Protocol) else str(protocol)


class ProtocolAdapter(abc.ABC):
    """Uniform build and lifecycle surface for one consensus protocol.

    ``build_nodes`` is the construction half: given an experiment
    configuration and the shared simulation substrate, produce the
    protocol's nodes and the mining scheduler that drives them.  The
    lifecycle half (``on_crash`` / ``on_restart`` / ``resync``) is what
    the :mod:`repro.scenarios` engine calls when it injects node
    faults; the defaults model a protocol-agnostic full node that loses
    volatile relay state on crash and pulls peers' tips on rejoin.
    Subclasses override only what their protocol needs (Bitcoin-NG
    drops leadership on crash, for example).
    """

    #: Registry key; also what ``ExperimentConfig.protocol`` resolves to.
    name: ClassVar[str]

    @abc.abstractmethod
    def build_nodes(
        self,
        config: ExperimentConfig,
        sim: Simulator,
        network: Network,
        log: ObservationLog,
        shares: list[float],
    ) -> tuple[Sequence[GossipNode], MiningScheduler]:
        """Build the protocol's nodes and the scheduler that mines for them."""

    def current_leader(self, nodes: Sequence[GossipNode]) -> int | None:
        """The node id currently serializing transactions, if the
        protocol has such a role (Bitcoin-NG's epoch leader).  ``None``
        for leaderless protocols; scenario faults addressed to
        ``"leader"`` are then skipped."""
        return None

    #: Whether this adapter's checkers implement the incremental
    #: protocol (``on_event``/``check_dirty``/``depends``).  True for
    #: every checker built on :class:`repro.sanitizer.checkers
    #: .InvariantChecker` — the base class supplies sound defaults — so
    #: adapters only set this False to force full sweeps for checkers
    #: that read state the dirty tracker does not watch.
    supports_incremental_check: ClassVar[bool] = True

    def invariant_checkers(
        self, mode: str = "incremental"
    ) -> list[InvariantChecker]:
        """Fresh checker instances for ``--check`` runs of this protocol.

        ``mode`` is ``"incremental"`` or ``"full"`` (see
        :mod:`repro.sanitizer.checkers`); the instrumentation layer
        calls with the run's configured mode and falls back to a
        no-argument call for legacy adapters that predate it.

        The default is the protocol-agnostic subset (chain weight, tip
        monotonicity, mempool/UTXO consistency, coinbase maturity);
        adapters whose protocols carry richer invariants override this
        (Bitcoin-NG adds the fee-split, microblock, and poison rules).
        """
        from .sanitizer.checkers import chain_checkers

        return chain_checkers(mode)

    def on_crash(
        self, node: GossipNode, *, sim: Simulator, network: Network
    ) -> None:
        """Protocol state reaction to a crash.  The engine has already
        taken the node off the network and zeroed its mining power;
        adapters add protocol-specific teardown on top."""

    def on_restart(
        self, node: GossipNode, *, sim: Simulator, network: Network
    ) -> None:
        """Reaction to a restart; the node is back online.  Default:
        resynchronize with the network."""
        self.resync(node, sim=sim, network=network)

    def resync(
        self, node: GossipNode, *, sim: Simulator, network: Network
    ) -> None:
        """Catch a rejoining node up with its peers.

        Volatile relay bookkeeping is dropped first: a getdata that was
        outstanding when the node went down would otherwise make
        ``_on_inv`` sit on fresh announcements of the same object until
        the request timer expires — the stale-inventory wedge.  Then
        every neighbor is asked for its best tip; the replies flow
        through the ordinary inv → getdata → object path, and orphan
        handling backfills the whole gap by recursive parent fetch.
        """
        node.reset_relay_state()
        node.request_tips()


class BitcoinAdapter(ProtocolAdapter):
    """Heaviest-chain Bitcoin with synthetic full blocks."""

    name = Protocol.BITCOIN.value

    def build_nodes(
        self,
        config: ExperimentConfig,
        sim: Simulator,
        network: Network,
        log: ObservationLog,
        shares: list[float],
    ) -> tuple[list[BitcoinNode], MiningScheduler]:
        genesis = make_genesis()
        policy = BlockPolicy(
            max_block_bytes=config.block_size_bytes,
            synthetic=True,
            synthetic_tx_size=config.tx_size,
        )
        nodes = [
            BitcoinNode(
                i,
                sim,
                network,
                genesis,
                log=log,
                policy=policy,
                tie_break=TieBreak.RANDOM,
                relay_mode=config.relay_mode,
                verification_seconds_per_byte=config.verification_seconds_per_byte,
            )
            for i in range(config.n_nodes)
        ]
        scheduler = MiningScheduler(
            sim,
            shares,
            block_rate=config.block_rate,
            on_block=lambda winner: nodes[winner].generate_block(),
        )
        return nodes, scheduler


class GhostAdapter(ProtocolAdapter):
    """Bitcoin block format under the GHOST heaviest-subtree rule."""

    name = Protocol.GHOST.value

    def build_nodes(
        self,
        config: ExperimentConfig,
        sim: Simulator,
        network: Network,
        log: ObservationLog,
        shares: list[float],
    ) -> tuple[list[GhostNode], MiningScheduler]:
        genesis = make_genesis()
        policy = BlockPolicy(
            max_block_bytes=config.block_size_bytes,
            synthetic=True,
            synthetic_tx_size=config.tx_size,
        )
        nodes = [
            GhostNode(
                i,
                sim,
                network,
                genesis,
                log=log,
                policy=policy,
                relay_mode=config.relay_mode,
                verification_seconds_per_byte=config.verification_seconds_per_byte,
            )
            for i in range(config.n_nodes)
        ]
        scheduler = MiningScheduler(
            sim,
            shares,
            block_rate=config.block_rate,
            on_block=lambda winner: nodes[winner].generate_block(),
        )
        return nodes, scheduler

    def invariant_checkers(
        self, mode: str = "incremental"
    ) -> list[InvariantChecker]:
        # Heaviest-subtree fork choice may adopt a tip whose *chain*
        # work is lower than the old tip's, so the tip-monotonicity
        # checker from the default subset does not apply.
        from .sanitizer.checkers import ghost_checkers

        return ghost_checkers(mode)


class BitcoinNGAdapter(ProtocolAdapter):
    """Bitcoin-NG: key-block leader election plus microblock streams."""

    name = Protocol.BITCOIN_NG.value

    def build_nodes(
        self,
        config: ExperimentConfig,
        sim: Simulator,
        network: Network,
        log: ObservationLog,
        shares: list[float],
    ) -> tuple[list[NGNode], MiningScheduler]:
        micro_interval = 1.0 / config.block_rate
        params = NGParams(
            key_block_interval=1.0 / config.key_block_rate,
            min_microblock_interval=micro_interval,
            max_microblock_bytes=max(
                config.block_size_bytes * 2, config.block_size_bytes + 1024
            ),
        )
        genesis = make_ng_genesis()
        policy = MicroblockPolicy(
            target_bytes=config.block_size_bytes,
            synthetic=True,
            synthetic_tx_size=config.tx_size,
            synthetic_fee_per_tx=config.fee_per_tx,
        )
        nodes = [
            NGNode(
                i,
                sim,
                network,
                genesis,
                params,
                log=log,
                policy=policy,
                microblock_interval=micro_interval,
                relay_mode=config.relay_mode,
                # The paper's testbed "did not implement ... the microblock
                # signature check"; experiments follow suit for speed.
                check_signatures=False,
                verification_seconds_per_byte=config.verification_seconds_per_byte,
                ghost_fork_choice=config.ng_ghost_fork_choice,
            )
            for i in range(config.n_nodes)
        ]
        scheduler = MiningScheduler(
            sim,
            shares,
            block_rate=config.key_block_rate,
            on_block=lambda winner: nodes[winner].generate_key_block(),
        )
        return nodes, scheduler

    def current_leader(self, nodes: Sequence[GossipNode]) -> int | None:
        ng_nodes = [node for node in nodes if isinstance(node, NGNode)]
        for node in ng_nodes:
            if node.is_leader():
                return node.node_id
        if not ng_nodes:
            return None
        # Between a leader learning of its dethroning and anyone taking
        # over, fall back to whoever signed the latest key block.  Only
        # a node that has mined can have signed it, and skipping the
        # rest keeps their keys underived.
        latest = ng_nodes[0].chain.latest_key_block()
        pubkey = latest.block.header.leader_pubkey
        for node in ng_nodes:
            if node.key_blocks_mined > 0 and node.pubkey_bytes == pubkey:
                return node.node_id
        return None  # genesis epoch: its key belongs to no node

    def on_crash(
        self, node: GossipNode, *, sim: Simulator, network: Network
    ) -> None:
        # A crashed leader publishes no more microblocks; "their
        # influence ends once the next leader publishes his key block"
        # (Section 4).  Abdicating stops the generation timer loop.
        if isinstance(node, NGNode):
            node.abdicate()

    def invariant_checkers(
        self, mode: str = "incremental"
    ) -> list[InvariantChecker]:
        from .sanitizer.checkers import ng_checkers

        return ng_checkers(mode)


# -- registry ----------------------------------------------------------------

_ADAPTERS: dict[str, ProtocolAdapter] = {}


def register_adapter(
    adapter: ProtocolAdapter, *, replace: bool = False
) -> ProtocolAdapter:
    """Make ``adapter`` runnable by name through the experiment runner."""
    name = adapter.name
    if not name or not isinstance(name, str):
        raise ValueError("adapter must define a non-empty string `name`")
    if not replace and name in _ADAPTERS:
        raise ValueError(f"adapter {name!r} is already registered")
    _ADAPTERS[name] = adapter
    return adapter


def unregister_adapter(name: str) -> None:
    """Remove a registered adapter (tests and plugin teardown)."""
    _ADAPTERS.pop(name, None)


def get_adapter(protocol: Protocol | str) -> ProtocolAdapter:
    """The adapter for ``protocol`` (enum member or registered name)."""
    name = protocol_name(protocol)
    adapter = _ADAPTERS.get(name)
    if adapter is None:
        known = ", ".join(sorted(_ADAPTERS)) or "none"
        raise KeyError(
            f"no protocol adapter registered for {name!r} (registered: {known})"
        )
    return adapter


def registered_protocols() -> tuple[str, ...]:
    return tuple(sorted(_ADAPTERS))


register_adapter(BitcoinAdapter())
register_adapter(GhostAdapter())
register_adapter(BitcoinNGAdapter())
