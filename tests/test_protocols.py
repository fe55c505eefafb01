"""The protocol-adapter registry: the runner's only protocol surface."""

import pytest

from repro.experiments import ExperimentConfig, Protocol, run_experiment
from repro.metrics import ObservationLog
from repro.mining.power import exponential_shares
from repro.net.simulator import Simulator
from repro.experiments.runner import build_network
from repro.protocols import (
    BitcoinAdapter,
    BitcoinNGAdapter,
    GhostAdapter,
    ProtocolAdapter,
    get_adapter,
    protocol_name,
    register_adapter,
    registered_protocols,
    unregister_adapter,
)

CONFIG = ExperimentConfig(
    n_nodes=10,
    target_blocks=10,
    target_key_blocks=3,
    block_rate=0.1,
    block_size_bytes=5000,
    cooldown=20.0,
)


def test_builtins_registered_under_enum_values():
    assert set(registered_protocols()) >= {p.value for p in Protocol}
    assert isinstance(get_adapter(Protocol.BITCOIN), BitcoinAdapter)
    assert isinstance(get_adapter(Protocol.BITCOIN_NG), BitcoinNGAdapter)
    assert isinstance(get_adapter(Protocol.GHOST), GhostAdapter)
    # Enum member and its string name resolve identically.
    assert get_adapter("ghost") is get_adapter(Protocol.GHOST)


def test_protocol_name_normalizes():
    assert protocol_name(Protocol.BITCOIN_NG) == "bitcoin-ng"
    assert protocol_name("custom") == "custom"


def test_unknown_protocol_lists_registered():
    with pytest.raises(KeyError, match="bitcoin"):
        get_adapter("no-such-protocol")


def test_duplicate_registration_rejected_unless_replace():
    adapter = BitcoinAdapter()
    with pytest.raises(ValueError):
        register_adapter(adapter)
    original = get_adapter("bitcoin")
    try:
        register_adapter(adapter, replace=True)
        assert get_adapter("bitcoin") is adapter
    finally:
        register_adapter(original, replace=True)


def test_adapter_requires_a_name():
    class Nameless(BitcoinAdapter):
        name = ""

    with pytest.raises(ValueError):
        register_adapter(Nameless())


def test_build_nodes_matches_runner_construction():
    adapter = get_adapter(Protocol.BITCOIN)
    sim = Simulator(seed=0)
    network = build_network(CONFIG, sim)
    log = ObservationLog(CONFIG.n_nodes)
    shares = exponential_shares(CONFIG.n_nodes)
    nodes, scheduler = adapter.build_nodes(CONFIG, sim, network, log, shares)
    assert len(nodes) == CONFIG.n_nodes
    assert scheduler.block_rate == CONFIG.block_rate


def test_leaderless_adapters_report_no_leader():
    adapter = get_adapter(Protocol.BITCOIN)
    sim = Simulator(seed=0)
    network = build_network(CONFIG, sim)
    log = ObservationLog(CONFIG.n_nodes)
    nodes, _ = adapter.build_nodes(
        CONFIG, sim, network, log, exponential_shares(CONFIG.n_nodes)
    )
    assert adapter.current_leader(nodes) is None


def test_ng_adapter_tracks_the_leader():
    adapter = get_adapter(Protocol.BITCOIN_NG)
    sim = Simulator(seed=0)
    network = build_network(CONFIG, sim)
    log = ObservationLog(CONFIG.n_nodes)
    nodes, _ = adapter.build_nodes(
        CONFIG, sim, network, log, exponential_shares(CONFIG.n_nodes)
    )
    assert adapter.current_leader(nodes) is None  # genesis epoch
    nodes[3].generate_key_block()
    # Bounded run: a leading NG node keeps a microblock timer alive, so
    # an unbounded run would never drain the event queue.
    sim.run(until=5.0)
    assert adapter.current_leader(nodes) == 3


def test_custom_adapter_runs_through_the_runner_by_string_name():
    # The whole point of the registry: a protocol the runner has never
    # heard of runs end to end once registered, selected by string.
    class SlowBitcoinAdapter(BitcoinAdapter):
        name = "bitcoin-slow"
        build_calls = 0

        def build_nodes(self, config, sim, network, log, shares):
            type(self).build_calls += 1
            return super().build_nodes(config, sim, network, log, shares)

    register_adapter(SlowBitcoinAdapter())
    try:
        config = CONFIG.with_(protocol="bitcoin-slow")
        assert config.protocol == "bitcoin-slow"  # not a Protocol member
        result, log = run_experiment(config)
        assert SlowBitcoinAdapter.build_calls == 1
        assert result.blocks_generated > 0
        assert result.config.protocol == "bitcoin-slow"
    finally:
        unregister_adapter("bitcoin-slow")
    with pytest.raises(KeyError):
        get_adapter("bitcoin-slow")


def test_custom_adapter_config_round_trips():
    config = ExperimentConfig(protocol="my-protocol")
    data = config.to_dict()
    assert data["protocol"] == "my-protocol"
    assert ExperimentConfig.from_dict(data) == config


def test_known_string_protocol_becomes_enum_member():
    config = ExperimentConfig(protocol="bitcoin-ng")
    assert config.protocol is Protocol.BITCOIN_NG


def test_default_lifecycle_hooks_resync(monkeypatch):
    class Recorder:
        def __init__(self):
            self.calls = []

        def reset_relay_state(self):
            self.calls.append("reset")

        def request_tips(self):
            self.calls.append("tips")

    class MinimalAdapter(ProtocolAdapter):
        name = "minimal"

        def build_nodes(self, config, sim, network, log, shares):
            raise NotImplementedError

    adapter = MinimalAdapter()
    node = Recorder()
    adapter.on_crash(node, sim=None, network=None)  # default: no-op
    assert node.calls == []
    adapter.on_restart(node, sim=None, network=None)
    assert node.calls == ["reset", "tips"]


def test_ng_leader_fallback_after_abdication_derives_only_miners_keys(
    key_derivations,
):
    adapter = get_adapter(Protocol.BITCOIN_NG)
    sim = Simulator(seed=0)
    network = build_network(CONFIG, sim)
    log = ObservationLog(CONFIG.n_nodes)
    nodes, _ = adapter.build_nodes(
        CONFIG, sim, network, log, exponential_shares(CONFIG.n_nodes)
    )
    nodes[3].generate_key_block()
    sim.run(until=5.0)
    nodes[3].abdicate()
    assert not any(node.is_leader() for node in nodes)
    key_derivations.clear()
    # Nobody leads, so the fallback names the latest key block's signer.
    assert adapter.current_leader(nodes) == 3
    assert key_derivations == []
    assert all(
        "pubkey_bytes" not in vars(node) for node in nodes if node is not nodes[3]
    )
