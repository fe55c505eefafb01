"""The Bitcoin full node over a simulated network."""

import pytest

from repro.bitcoin.blocks import make_genesis
from repro.bitcoin.node import BitcoinNode, BlockPolicy
from repro.crypto.hashing import hash160
from repro.crypto.keys import PrivateKey
from repro.ledger.errors import MempoolError
from repro.ledger.transactions import (
    COIN,
    OutPoint,
    Transaction,
    TxInput,
    TxOutput,
)
from repro.metrics.collector import ObservationLog
from repro.net.latency import constant_histogram
from repro.net.network import Network
from repro.net.simulator import Simulator
from repro.net.topology import complete_topology

GENESIS = make_genesis()


def _cluster(n=3, policy=None, log=None):
    sim = Simulator(seed=0)
    net = Network(sim, complete_topology(n), constant_histogram(0.05), 1e6)
    nodes = [
        BitcoinNode(i, sim, net, GENESIS, log=log, policy=policy)
        for i in range(n)
    ]
    return sim, net, nodes


def test_generated_block_propagates():
    sim, _, nodes = _cluster()
    block = nodes[0].generate_block()
    sim.run()
    for node in nodes:
        assert node.tip == block.hash
        assert node.height == 1


def test_chain_extends_across_miners():
    sim, _, nodes = _cluster()
    nodes[0].generate_block()
    sim.run()
    block2 = nodes[1].generate_block()
    sim.run()
    assert all(node.tip == block2.hash for node in nodes)
    assert nodes[2].height == 2


def test_concurrent_blocks_fork_then_resolve():
    sim, _, nodes = _cluster()
    a = nodes[0].generate_block()
    b = nodes[1].generate_block()  # same instant: a fork
    sim.run()
    tips = {node.tip for node in nodes}
    assert tips <= {a.hash, b.hash}
    # Whoever extends first wins everywhere.
    winner_node = nodes[2]
    block3 = winner_node.generate_block()
    sim.run()
    assert all(node.tip == block3.hash for node in nodes)


def test_observation_log_populated():
    log = ObservationLog(3)
    sim, _, nodes = _cluster(log=log)
    block = nodes[0].generate_block()
    sim.run()
    assert block.hash in log.index
    for node_id in range(3):
        assert log.arrival_time(node_id, block.hash) is not None
    assert log.tip_histories[1].tip_at(sim.now) == block.hash


def test_synthetic_policy_fills_block():
    policy = BlockPolicy(max_block_bytes=4760, synthetic_tx_size=476)
    sim, _, nodes = _cluster(policy=policy)
    block = nodes[0].generate_block()
    assert block.n_tx == 10


def test_invalid_block_rejected_not_relayed():
    from repro.bitcoin.blocks import Block, SyntheticPayload

    sim, net, nodes = _cluster()
    good = nodes[0].generate_block()
    sim.run()
    # Forge a block whose payload does not match its header commitment.
    forged = Block(good.header, good.coinbase, SyntheticPayload(7, salt=b"forged"))
    nodes[1].on_message(
        0,
        __import__("repro.net.network", fromlist=["Message"]).Message(
            "object",
            __import__("repro.net.gossip", fromlist=["StoredObject"]).StoredObject(
                b"\xff" * 32, "block", forged, forged.size
            ),
            forged.size,
        ),
    )
    sim.run()
    assert nodes[1].blocks_rejected == 1
    assert nodes[1].tip == good.hash


# -- full-validation (library) mode -----------------------------------------


def _funded_node():
    """A single node with real-transaction policy and a mined coinbase."""
    sim = Simulator(seed=0)
    net = Network(sim, complete_topology(2), constant_histogram(0.01), 1e6)
    policy = BlockPolicy(max_block_bytes=100_000, synthetic=False)
    owner = PrivateKey.from_seed("rich")
    nodes = [
        BitcoinNode(i, sim, net, GENESIS, policy=policy, key=owner)
        for i in range(2)
    ]
    # Mine one block: its coinbase pays node 0's key.
    block = nodes[0].generate_block()
    sim.run()
    return sim, nodes, owner, block


def test_full_mode_coinbase_credited():
    sim, nodes, owner, block = _funded_node()
    pkh = hash160(owner.public_key().to_bytes())
    for node in nodes:
        assert node.balance_of(pkh) == block.coinbase.outputs[0].value


def test_full_mode_spend_flows_into_block():
    sim, nodes, owner, block = _funded_node()
    pkh = hash160(owner.public_key().to_bytes())
    dest = bytes(range(20))
    # Coinbase maturity: advance the chain 100 blocks first.
    for _ in range(100):
        nodes[0].generate_block()
        sim.run()
    spend = Transaction(
        inputs=(TxInput(OutPoint(block.coinbase.txid, 0)),),
        outputs=(TxOutput(10 * COIN, dest), TxOutput(14 * COIN, pkh)),
    ).sign_input(0, owner)
    nodes[0].submit_transaction(spend)
    mined = nodes[0].generate_block()
    sim.run()
    assert mined.n_tx == 1
    for node in nodes:
        assert node.balance_of(dest) == 10 * COIN


def test_full_mode_double_spend_rejected_in_mempool():
    sim, nodes, owner, block = _funded_node()
    pkh = hash160(owner.public_key().to_bytes())
    for _ in range(100):
        nodes[0].generate_block()
        sim.run()
    spend_a = Transaction(
        inputs=(TxInput(OutPoint(block.coinbase.txid, 0)),),
        outputs=(TxOutput(1 * COIN, pkh),),
    ).sign_input(0, owner)
    spend_b = Transaction(
        inputs=(TxInput(OutPoint(block.coinbase.txid, 0)),),
        outputs=(TxOutput(2 * COIN, pkh),),
    ).sign_input(0, owner)
    nodes[0].submit_transaction(spend_a)
    with pytest.raises(MempoolError):
        nodes[0].submit_transaction(spend_b)


def test_full_mode_fees_accrue_to_miner():
    sim, nodes, owner, block = _funded_node()
    pkh = hash160(owner.public_key().to_bytes())
    for _ in range(100):
        nodes[0].generate_block()
        sim.run()
    total = block.coinbase.outputs[0].value
    fee = 5 * COIN
    spend = Transaction(
        inputs=(TxInput(OutPoint(block.coinbase.txid, 0)),),
        outputs=(TxOutput(total - fee, pkh),),
    ).sign_input(0, owner)
    nodes[0].submit_transaction(spend)
    mined = nodes[0].generate_block()
    sim.run()
    # The miner's coinbase includes subsidy + the fee.
    assert mined.coinbase.outputs[0].value == nodes[0].policy.reward + fee


def test_miner_derives_its_payout_key_once(key_derivations):
    sim, _, nodes = _cluster()
    blocks = [nodes[0].generate_block() for _ in range(3)]
    expected = hash160(nodes[0].key.public_key().to_bytes())
    assert key_derivations == [nodes[0].key, nodes[0].key]  # one mined, one expected
    assert all(b.coinbase.outputs[0].pubkey_hash == expected for b in blocks)
