"""The NG node: leadership, microblock generation, delivery."""

import pytest

import repro.core.node as node_mod
from repro.bitcoin.blocks import SyntheticPayload, TxPayload
from repro.core.blocks import KeyBlock, build_microblock
from repro.core.genesis import GENESIS_LEADER_KEY, make_ng_genesis
from repro.core.node import KIND_KEY, KIND_MICRO, MicroblockPolicy, NGNode
from repro.core.params import NGParams
from repro.metrics.collector import ObservationLog
from repro.crypto.hashing import hash160
from repro.crypto.keys import PrivateKey
from repro.ledger.transactions import (
    OutPoint,
    Transaction,
    TxInput,
    TxOutput,
)
from repro.net.gossip import StoredObject
from repro.net.latency import constant_histogram
from repro.net.network import Network
from repro.net.simulator import Simulator
from repro.net.topology import complete_topology
from repro.obs import MemorySink, Observability, Tracer

PARAMS = NGParams(key_block_interval=100.0, min_microblock_interval=10.0)
GENESIS = make_ng_genesis()


def _cluster(
    n=3, params=PARAMS, log=None, check_signatures=True, interval=None, obs=None
):
    sim = Simulator(seed=0)
    net = Network(
        sim, complete_topology(n), constant_histogram(0.05), 1e6, obs=obs
    )
    nodes = [
        NGNode(
            i,
            sim,
            net,
            GENESIS,
            params,
            log=log,
            policy=MicroblockPolicy(target_bytes=4760),
            microblock_interval=interval,
            check_signatures=check_signatures,
        )
        for i in range(n)
    ]
    return sim, net, nodes


def test_key_block_propagates_and_elects_leader():
    sim, _, nodes = _cluster()
    key = nodes[0].generate_key_block()
    sim.run(until=1.0)
    assert nodes[0].is_leader()
    for node in nodes:
        assert node.tip == key.hash
        assert node.chain.current_leader_pubkey() == nodes[0].pubkey_bytes


def test_leader_generates_microblocks_at_interval():
    sim, _, nodes = _cluster()
    nodes[0].generate_key_block()
    sim.run(until=35.0)
    # Microblocks at t=10, 20, 30.
    assert nodes[0].microblocks_generated == 3
    for node in nodes:
        assert node.chain.tip_record.height == 4  # key + 3 micros


def test_non_leader_never_generates_microblocks():
    sim, _, nodes = _cluster()
    nodes[0].generate_key_block()
    sim.run(until=50.0)
    assert nodes[1].microblocks_generated == 0
    assert nodes[2].microblocks_generated == 0


def test_leadership_transfers_on_new_key_block():
    sim, _, nodes = _cluster()
    nodes[0].generate_key_block()
    sim.run(until=25.0)
    nodes[1].generate_key_block()
    sim.run(until=26.0)
    assert not nodes[0].is_leader()
    assert nodes[1].is_leader()
    count_before = nodes[0].microblocks_generated
    sim.run(until=60.0)
    # The deposed leader generated nothing further.
    assert nodes[0].microblocks_generated == count_before
    assert nodes[1].microblocks_generated > 0


def test_deposed_leader_reports_epoch_end_once():
    sim, nodes, sink = _traced_cluster()
    first = nodes[0].generate_key_block()
    sim.run(until=25.0)
    second = nodes[1].generate_key_block()
    sim.run(until=60.0)
    # Node 0 learns of its loss when its next microblock timer fires.
    ends = [r for r in sink.records if r["ev"] == "epoch_end"]
    assert [(r["leader"], r["key_block"]) for r in ends] == [
        (0, first.hash.hex()[:12])
    ]
    assert 25.0 < ends[0]["t"] <= 30.0
    starts = [r for r in sink.records if r["ev"] == "epoch_start"]
    assert [(r["leader"], r["key_block"]) for r in starts] == [
        (0, first.hash.hex()[:12]),
        (1, second.hash.hex()[:12]),
    ]


def test_microblocks_signed_and_verified():
    sim, _, nodes = _cluster(check_signatures=True)
    nodes[0].generate_key_block()
    sim.run(until=25.0)
    assert all(node.blocks_rejected == 0 for node in nodes)
    tip_record = nodes[1].chain.tip_record
    assert not tip_record.is_key
    assert tip_record.block.verify_signature(nodes[0].pubkey_bytes)


def test_observation_log_kinds():
    log = ObservationLog(3)
    sim, _, nodes = _cluster(log=log)
    nodes[0].generate_key_block()
    sim.run(until=25.0)
    kinds = {info.kind for info in log.index.all_blocks()}
    assert kinds == {KIND_KEY, KIND_MICRO}


def test_microblock_interval_respects_protocol_minimum():
    with pytest.raises(ValueError):
        _cluster(interval=5.0)  # below the 10 s protocol floor


def test_custom_interval_slower_than_minimum():
    sim, _, nodes = _cluster(interval=20.0)
    nodes[0].generate_key_block()
    sim.run(until=45.0)
    assert nodes[0].microblocks_generated == 2  # t=20, 40


def test_coinbase_pays_previous_leader_fee_share():
    params = NGParams(key_block_interval=100.0, min_microblock_interval=10.0)
    sim = Simulator(seed=0)
    net = Network(sim, complete_topology(2), constant_histogram(0.05), 1e6)
    policy = MicroblockPolicy(
        target_bytes=4760, synthetic_fee_per_tx=100
    )
    nodes = [
        NGNode(i, sim, net, GENESIS, params, policy=policy) for i in range(2)
    ]
    nodes[0].generate_key_block()
    sim.run(until=25.0)  # two microblocks, 10 tx each
    key2 = nodes[1].generate_key_block()
    # Previous epoch fees: 20 tx × 100 = 2000 → 40% = 800 to node 0.
    values = {out.pubkey_hash: out.value for out in key2.coinbase.outputs}
    assert values[nodes[0].pubkey_hash] == 800
    assert values[nodes[1].pubkey_hash] == params.key_block_reward + 1200


def test_equivocating_leader_poisoned_by_next():
    # A Byzantine node signs two microblocks on one parent; the next
    # leader publishes a poison for it.
    sim, _, nodes = _cluster()
    cheater = nodes[0]
    cheater.generate_key_block()
    sim.run(until=15.0)  # one legitimate microblock out
    # Forge a conflicting sibling by signing manually.
    from repro.bitcoin.blocks import SyntheticPayload
    from repro.core.blocks import build_microblock

    tip_parent = cheater.chain.tip_record.parent_hash
    fork = build_microblock(
        tip_parent,
        timestamp=10.0,
        payload=SyntheticPayload(n_tx=2, salt=b"evil"),
        leader_key=cheater.key,
    )
    cheater.announce(fork.hash, KIND_MICRO, fork, fork.size)
    sim.run(until=16.0)
    assert any(len(node.chain.equivocations()) > 0 for node in nodes)
    # The next leader claims the bounty.
    nodes[1].generate_key_block()
    sim.run(until=40.0)
    assert len(nodes[1].poisons_published) == 1
    assert (
        nodes[1].poisons_published[0].offender_pubkey == cheater.pubkey_bytes
    )


def _traced_cluster():
    sink = MemorySink()
    sim, net, nodes = _cluster(obs=Observability(tracer=Tracer(sink)))
    return sim, nodes, sink


def _arrivals(sink, node_id):
    return sum(
        1
        for r in sink.records
        if r["ev"] == "block_arrival" and r["node"] == node_id
    )


def test_mined_key_blocks_are_counted():
    sim, _, nodes = _cluster()
    nodes[0].generate_key_block()
    assert nodes[0].key_blocks_mined == 1


def test_tampered_key_block_from_peer_rejected_and_counted():
    sim, _, nodes = _cluster()
    key = nodes[0].generate_key_block()
    # Same header, different coinbase: the payload-root commitment no
    # longer matches, so structural validation must veto the relay.
    tampered = KeyBlock(header=key.header, coinbase=GENESIS.coinbase)
    assert nodes[1]._deliver_key_block(tampered, sender=0) is False
    assert nodes[1].blocks_rejected == 1
    assert tampered.hash not in nodes[1].chain


def test_oversized_microblock_from_peer_rejected_and_counted():
    sim, _, nodes = _cluster()
    key = nodes[0].generate_key_block()
    sim.run(until=1.0)
    big = build_microblock(
        key.hash,
        11.0,
        SyntheticPayload(n_tx=1000, salt=b"big"),
        nodes[0].key,
    )
    assert big.size > PARAMS.max_microblock_bytes
    assert nodes[1]._deliver_microblock(big, sender=0) is False
    assert nodes[1].blocks_rejected == 1
    assert big.hash not in nodes[1].chain


def test_wrongly_signed_microblock_rejected_at_the_chain_layer():
    sim, _, nodes = _cluster()
    key = nodes[0].generate_key_block()
    sim.run(until=1.0)
    forged = build_microblock(
        key.hash, 11.0, SyntheticPayload(n_tx=1, salt=b"f"), nodes[1].key
    )
    assert nodes[2]._deliver_microblock(forged, sender=1) is False
    assert nodes[2].blocks_rejected == 1


def test_block_arrival_traced_only_for_relayed_blocks():
    sim, nodes, sink = _traced_cluster()
    key = nodes[0].generate_key_block()
    nodes[1]._deliver_key_block(key, sender=0)
    assert _arrivals(sink, 1) == 1
    # Self-generated objects (sender None) are not arrivals.
    nodes[2]._deliver_key_block(key, sender=None)
    assert _arrivals(sink, 2) == 0
    assert _arrivals(sink, 0) == 0  # the miner's own block neither


def test_microblock_arrival_traced_only_for_relayed_blocks():
    sim, nodes, sink = _traced_cluster()
    key = nodes[0].generate_key_block()
    sim.run(until=1.0)
    micro = build_microblock(
        key.hash, 11.0, SyntheticPayload(n_tx=1, salt=b"t"), nodes[0].key
    )
    nodes[1]._deliver_microblock(micro, sender=0)
    assert _arrivals(sink, 1) == 2  # the key block, then the microblock
    nodes[2]._deliver_microblock(micro, sender=None)
    assert _arrivals(sink, 2) == 1  # only the relayed key block


def test_deliver_routes_tx_objects_to_admission(monkeypatch):
    sim, _, nodes = _cluster()
    admitted = []
    monkeypatch.setattr(
        nodes[1], "_accept_relayed_transaction", admitted.append
    )
    obj = StoredObject(obj_id=b"\x01" * 32, kind="tx", data="tx-1", size=1)
    assert nodes[1].deliver(obj, sender=0) is None
    assert admitted == ["tx-1"]
    # Locally submitted transactions were already admitted by
    # submit_transaction; the self-delivery must not re-admit.
    assert nodes[1].deliver(obj, sender=None) is None
    assert admitted == ["tx-1"]
    junk = StoredObject(obj_id=b"\x02" * 32, kind="junk", data=None, size=1)
    assert nodes[1].deliver(junk, sender=0) is False


def test_abdicate_clears_leadership_and_tolerates_non_leaders():
    sim, _, nodes = _cluster()
    nodes[1].abdicate()  # never led: a no-op, not an error
    nodes[0].generate_key_block()
    assert nodes[0].is_leader()
    nodes[0].abdicate()
    assert not nodes[0].is_leader()
    sim.run(until=35.0)
    assert nodes[0].microblocks_generated == 0


def test_tx_admission_validates_at_the_next_height(monkeypatch):
    sim, _, nodes = _cluster()
    heights = []

    def fake_validate(tx, utxo, height, check_signatures=True):
        heights.append(height)
        return 0

    monkeypatch.setattr(node_mod, "validate_spend", fake_validate)
    tx_a = Transaction(inputs=(), outputs=(TxOutput(1, bytes(20)),))
    tx_b = Transaction(inputs=(), outputs=(TxOutput(2, bytes(20)),))
    nodes[0].submit_transaction(tx_a)
    nodes[0]._accept_relayed_transaction(tx_b)
    # A transaction admitted now can first appear in the *next* block.
    assert heights == [1, 1]


def test_connect_and_disconnect_roundtrip_for_tx_microblocks():
    sim, _, nodes = _cluster()
    node = nodes[0]
    owner = PrivateKey.from_seed("roundtrip-owner")
    pkh = hash160(owner.public_key().to_bytes())
    outpoint = OutPoint(b"\xee" * 32, 0)
    node.utxo.credit(TxOutput(100, pkh), outpoint, height=0)
    key = node.generate_key_block()
    assert node.tip == key.hash
    tx = Transaction(
        inputs=(TxInput(outpoint),), outputs=(TxOutput(90, bytes(20)),)
    ).sign_input(0, owner)
    micro = build_microblock(key.hash, 10.0, TxPayload((tx,)), node.key)
    node._deliver_microblock(micro, sender=None)
    assert node.tip == micro.hash
    assert node._fees_by_micro[micro.hash] == 10
    assert outpoint not in node.utxo
    node._disconnect_block(micro.hash)
    # The undo restores the spent coin and the entries return to the
    # mempool for re-placement.
    assert outpoint in node.utxo
    assert tx.txid in node.mempool


# -- lazy keys ----------------------------------------------------------------


def test_building_nodes_through_the_adapter_derives_no_keys(key_derivations):
    from repro.experiments import ExperimentConfig, Protocol
    from repro.experiments.runner import build_network
    from repro.mining.power import exponential_shares
    from repro.protocols import get_adapter

    config = ExperimentConfig(protocol=Protocol.BITCOIN_NG, n_nodes=200)
    sim = Simulator(seed=0)
    network = build_network(config, sim)
    nodes, _ = get_adapter(Protocol.BITCOIN_NG).build_nodes(
        config, sim, network, ObservationLog(200), exponential_shares(200)
    )
    assert len(nodes) == 200
    assert key_derivations == [GENESIS_LEADER_KEY]  # no node key is derived


def test_lazy_pubkey_matches_the_seeded_key(key_derivations):
    _, _, nodes = _cluster()
    for i, node in enumerate(nodes):
        expected = PrivateKey.from_seed(f"ng-node-{i}").public_key().to_bytes()
        assert node.pubkey_bytes == expected
        assert node.pubkey_hash == hash160(expected)
    # One derivation per node for its own key, one per expected value.
    assert len(key_derivations) == 2 * len(nodes)
    assert nodes[0].pubkey_bytes and nodes[0].pubkey_hash
    assert len(key_derivations) == 2 * len(nodes)  # memoized, not re-derived


def test_explicit_key_is_honoured():
    sim = Simulator(seed=0)
    net = Network(sim, complete_topology(2), constant_histogram(0.05), 1e6)
    key = PrivateKey.from_seed("explicit")
    node = NGNode(0, sim, net, GENESIS, PARAMS, key=key)
    assert node.key is key
    assert node.pubkey_bytes == key.public_key().to_bytes()
    block = node.generate_key_block()
    assert block.header.leader_pubkey == key.public_key().to_bytes()
