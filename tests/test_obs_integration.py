"""Observability wired through a whole experiment, serial and pooled."""

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments import ExperimentConfig, Protocol, run_experiment
from repro.experiments.parallel import run_many
from repro.net.gossip import GossipNode
from repro.obs import (
    Observability,
    config_slug,
    load_records,
)
from repro.obs.trace import MemorySink, Tracer
from repro.scenarios.spec import load_scenario

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

SMALL = ExperimentConfig(
    n_nodes=12,
    target_blocks=8,
    target_key_blocks=4,
    block_rate=0.1,
    block_size_bytes=4000,
    cooldown=15.0,
    seed=5,
)


def _run_traced(config):
    sink = MemorySink()
    obs = Observability(tracer=Tracer(sink))
    result, log = run_experiment(config, obs=obs)
    return result, log, sink.records


def test_ng_run_emits_the_full_vocabulary():
    result, _, records = _run_traced(SMALL.with_(protocol=Protocol.BITCOIN_NG))
    events = {r["ev"] for r in records}
    assert {
        "trace_start", "send", "deliver", "block_gen", "block_arrival",
        "tip_change", "epoch_start", "sample_links", "sample_mempool",
        "sample_forks", "trace_end",
    } <= events
    start = records[0]
    assert start["ev"] == "trace_start"
    assert start["protocol"] == "bitcoin-ng"
    assert start["seed"] == 5
    end = records[-1]
    assert end["ev"] == "trace_end"
    assert end["records"] == len(records)
    kinds = {r["kind"] for r in records if r["ev"] == "block_gen"}
    assert kinds == {"key", "micro"}
    assert result.obs is not None


# Fields of the per-node fact records, identical for every protocol.
FACT_FIELDS = {
    "block_gen": {"v", "ev", "t", "hash", "parent", "kind", "miner", "size", "n_tx"},
    "block_arrival": {"v", "ev", "t", "node", "hash", "kind"},
    "tip_change": {"v", "ev", "t", "node", "tip", "height"},
}


@pytest.mark.parametrize("protocol", list(Protocol), ids=lambda p: p.value)
def test_run_traces_blocks_and_tips(protocol):
    result, log, records = _run_traced(SMALL.with_(protocol=protocol))
    gens = [r for r in records if r["ev"] == "block_gen"]
    assert len(gens) == len(log.index)
    kinds = {"key", "micro"} if protocol is Protocol.BITCOIN_NG else {"block"}
    assert {r["kind"] for r in gens} == kinds
    tips = [r for r in records if r["ev"] == "tip_change"]
    assert tips
    assert len(tips) == result.obs["metrics"]["node_tip_changes"]["values"][""]
    for ev, fields in FACT_FIELDS.items():
        assert all(set(r) == fields for r in records if r["ev"] == ev), ev


def test_snapshot_carries_metrics_traffic_and_samples():
    result, _, _ = _run_traced(SMALL.with_(protocol=Protocol.BITCOIN))
    snapshot = result.obs
    assert snapshot["snapshot_version"] == 1
    metrics = snapshot["metrics"]
    assert "net_messages_sent" in metrics
    assert "net_bytes_sent" in metrics
    assert "node_blocks_generated" in metrics
    assert metrics["net_queue_delay_seconds"]["type"] == "histogram"
    assert all(n > 0 for n in snapshot["samples_taken"].values())
    traffic = snapshot["traffic"]
    per_node = traffic["per_node"]
    assert len(per_node) == SMALL.n_nodes
    assert sum(n["bytes_out"] for n in per_node) == traffic["total_bytes_sent"]
    assert sum(n["bytes_in"] for n in per_node) == traffic["total_bytes_sent"]


def test_obs_results_match_bare_results():
    """Instrumentation must not perturb the simulation itself."""
    config = SMALL.with_(protocol=Protocol.BITCOIN_NG)
    bare, _ = run_experiment(config)
    traced, _, _ = _run_traced(config)
    assert traced.as_row() == bare.as_row()
    assert traced.blocks_generated == bare.blocks_generated
    assert traced.main_chain_length == bare.main_chain_length
    # Sampler firings are extra simulator events, so the raw event
    # counter is the one number allowed to differ — and it must grow.
    assert traced.events_processed > bare.events_processed


def test_from_config_writes_trace_and_metrics_files(tmp_path):
    config = SMALL.with_(
        protocol=Protocol.BITCOIN_NG, obs_dir=str(tmp_path)
    )
    result, _ = run_experiment(config)
    slug = config_slug(config)
    trace_path = tmp_path / f"{slug}.trace.jsonl"
    metrics_path = tmp_path / f"{slug}.metrics.json"
    assert trace_path.exists()
    assert metrics_path.exists()
    records = load_records(trace_path)
    assert records[0]["ev"] == "trace_start"
    assert records[-1]["ev"] == "trace_end"
    assert records[-1]["records"] == len(records)
    snapshot = json.loads(metrics_path.read_text())
    assert snapshot["slug"] == slug
    assert snapshot == result.obs
    assert result.obs["trace_path"] == str(trace_path)
    assert result.obs["trace_records"] == len(records)


# sha256 of the trace and of the metrics snapshot (``trace_path``
# left out: it names the temporary directory) of GOLDEN_CONFIG.  The
# run crosses every fault window of partition_heal.json, so the trace
# holds send, deliver and drop records beside the fault records.
GOLDEN_CONFIG = SMALL.with_(
    protocol=Protocol.BITCOIN_NG,
    block_rate=0.02,
    target_key_blocks=6,
    scenario=load_scenario(EXAMPLES / "partition_heal.json"),
)
GOLDEN_TRACE_SHA256 = (
    "2885e7a50e18d042c654885d8c948d3e4243b69ee6e12509c0b5d11fc9aa5c2f"
)
GOLDEN_METRICS_SHA256 = (
    "57bffb550efb77e2c1eb9306f142beeded16f9e1903fc575fbffad5b27a0c882"
)


def test_trace_and_metrics_files_are_byte_identical_to_golden(tmp_path):
    config = GOLDEN_CONFIG.with_(obs_dir=str(tmp_path))
    run_experiment(config)
    slug = config_slug(config)
    trace = (tmp_path / f"{slug}.trace.jsonl").read_bytes()
    events = {json.loads(line)["ev"] for line in trace.splitlines()}
    assert {"send", "deliver", "drop", "partition", "heal", "msg_loss"} <= events
    snapshot = json.loads((tmp_path / f"{slug}.metrics.json").read_text())
    assert snapshot.pop("trace_path") == str(tmp_path / f"{slug}.trace.jsonl")
    metrics = json.dumps(snapshot, indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(trace).hexdigest() == GOLDEN_TRACE_SHA256
    assert (
        hashlib.sha256(metrics.encode()).hexdigest() == GOLDEN_METRICS_SHA256
    )


def test_failed_run_keeps_every_record_emitted_before_the_error(
    tmp_path, monkeypatch
):
    config = SMALL.with_(protocol=Protocol.BITCOIN_NG, obs_dir=str(tmp_path))
    obs = Observability.from_config(config)
    on_message = GossipNode.on_message
    calls = 0

    def failing_on_message(self, sender, message):
        nonlocal calls
        calls += 1
        if calls == 300:
            raise RuntimeError("handler failed")
        on_message(self, sender, message)

    monkeypatch.setattr(GossipNode, "on_message", failing_on_message)
    with pytest.raises(RuntimeError, match="handler failed"):
        run_experiment(config, obs=obs)
    records = load_records(obs.trace_path)
    assert len(records) == obs.tracer.records_written
    # The network traces a delivery before handing it to the handler.
    assert records[-1]["ev"] == "deliver"
    assert sum(r["ev"] == "deliver" for r in records) == 300


def test_disabled_config_produces_no_snapshot():
    result, _ = run_experiment(SMALL.with_(protocol=Protocol.BITCOIN))
    assert result.obs is None


def test_obs_round_trips_through_the_process_pool(tmp_path):
    configs = [
        SMALL.with_(protocol=protocol, seed=seed, obs_dir=str(tmp_path))
        for protocol in (Protocol.BITCOIN, Protocol.BITCOIN_NG)
        for seed in (0, 1)
    ]
    results = run_many(configs, jobs=2)
    for config, result in zip(configs, results):
        slug = config_slug(config)
        assert (tmp_path / f"{slug}.trace.jsonl").exists()
        assert (tmp_path / f"{slug}.metrics.json").exists()
        assert result.obs is not None
        assert result.obs["slug"] == slug


def test_pooled_obs_results_equal_serial_obs_results(tmp_path):
    configs = [
        SMALL.with_(
            protocol=Protocol.BITCOIN_NG,
            seed=seed,
            obs_dir=str(tmp_path / "pooled"),
        )
        for seed in (0, 1, 2)
    ]
    serial = run_many(configs, jobs=1)
    pooled = run_many(configs, jobs=3)
    # Frozen-dataclass equality covers every metric; the obs snapshot
    # is compare=False so wall-clock noise cannot break this.
    assert pooled == serial
    assert [r.obs["metrics"] for r in pooled] == [
        r.obs["metrics"] for r in serial
    ]


def test_sample_period_override():
    sink = MemorySink()
    obs = Observability(tracer=Tracer(sink), sample_period=1000.0)
    run_experiment(SMALL.with_(protocol=Protocol.BITCOIN), obs=obs)
    links = [r for r in sink.records if r["ev"] == "sample_links"]
    # Horizon is 95 s at these parameters: a 1000 s period never fires.
    assert links == []
    assert obs.resolve_period(50.0) == 1000.0


def test_slug_distinguishes_sweep_axes():
    slugs = {
        config_slug(SMALL.with_(protocol=Protocol.BITCOIN)),
        config_slug(SMALL.with_(protocol=Protocol.BITCOIN_NG)),
        config_slug(SMALL.with_(protocol=Protocol.BITCOIN, seed=6)),
        config_slug(SMALL.with_(protocol=Protocol.BITCOIN, block_rate=0.2)),
        config_slug(
            SMALL.with_(protocol=Protocol.BITCOIN, block_size_bytes=8000)
        ),
    }
    assert len(slugs) == 5
