"""The three benchmark workloads and their output check.

A workload runs at one *testbed seed* (``ExperimentConfig.seed``:
topology, link latencies, mining schedule, tie breaks).  ``--seed n``
picks the testbed seed ``testbed_seeds[n % VARIANTS]`` from
``reference.json``, so the same seed always gives the same inputs.

The mining schedule is a Poisson draw, so a free testbed seed changes
the amount of work, not just its shape: across seeds 0-9 the 1000-node
run generates 13 to 44 blocks and the Figure 8a grid 364 to 880.  Each
workload's pool therefore holds the first :data:`VARIANTS` testbed
seeds, counting up from 0, whose run generates its nominal block count
within max(1, 2%) (:func:`at_nominal`).  The pool and the fingerprints
of its runs are recorded together by ``run.py --record-reference``.
"""

from __future__ import annotations

import math
import shutil
import tempfile
import time
from pathlib import Path

VARIANTS = 10
NOMINAL_TOLERANCE = 0.02

FINGERPRINT_FIELDS = (
    "consensus_delay",
    "fairness",
    "mining_power_utilization",
    "time_to_prune",
    "time_to_win",
    "transaction_frequency",
    "blocks_generated",
    "main_chain_length",
    "events_processed",
    "messages_delivered",
)

WORKLOADS = ("ng-paper-1000", "fig8a-sweep-60", "ng-instrumented-60")


def config(api, workload: str, seed: int, obs_dir: str | None = None):
    """The workload's experiment config at testbed seed ``seed``.

    For ``fig8a-sweep-60`` this is the base config handed to
    ``frequency_sweep``; the other two are single experiments.
    """
    if workload == "ng-paper-1000":
        return api.ExperimentConfig(
            protocol=api.Protocol.BITCOIN_NG,
            n_nodes=1000,
            key_block_rate=1 / 100,
            block_rate=1 / 10,
            block_size_bytes=8000,
            target_key_blocks=4,
            target_blocks=40,
            seed=seed,
        )
    if workload == "fig8a-sweep-60":
        return api.ExperimentConfig(
            n_nodes=60,
            target_blocks=20,
            target_key_blocks=4,
            seed=seed,
        )
    if workload == "ng-instrumented-60":
        return api.ExperimentConfig(
            protocol=api.Protocol.BITCOIN_NG,
            n_nodes=60,
            key_block_rate=1 / 100,
            block_rate=1 / 10,
            block_size_bytes=8000,
            target_key_blocks=12,
            target_blocks=120,
            fee_per_tx=10,
            check=True,
            obs_dir=obs_dir,
            seed=seed,
        )
    raise ValueError(f"unknown workload {workload!r}")


def run_once(api, workload: str, seed: int, work_dir: Path):
    """Run one repetition through the public API.

    Returns ``(results, seconds, trace_bytes)``: the experiment results
    in run order, the seconds the public call took, and the bytes the
    obs layer wrote (0 unless ``obs_dir`` is set).  The clock runs
    around the public call alone; the obs directory is made before it
    and sized and deleted after it.  Callables are looked up on ``api``
    at call time so a traced run reaches the tracer's wrappers.
    """
    if workload == "fig8a-sweep-60":
        base = config(api, workload, seed)
        start = time.perf_counter()
        sweep = api.frequency_sweep(
            base,
            protocols=(api.Protocol.BITCOIN, api.Protocol.GHOST, api.Protocol.BITCOIN_NG),
            seeds=(base.seed,),
            jobs=1,
        )
        seconds = time.perf_counter() - start
        return [r for point in sweep.points for r in point.results], seconds, 0
    obs_dir = None
    if workload == "ng-instrumented-60":
        work_dir.mkdir(parents=True, exist_ok=True)
        obs_dir = tempfile.mkdtemp(prefix="obs-", dir=work_dir)
    try:
        cfg = config(api, workload, seed, obs_dir)
        start = time.perf_counter()
        result, _log = api.run_experiment(cfg)
        seconds = time.perf_counter() - start
        trace_bytes = 0
        if obs_dir is not None:
            trace_bytes = sum(p.stat().st_size for p in Path(obs_dir).rglob("*") if p.is_file())
        return [result], seconds, trace_bytes
    finally:
        if obs_dir is not None:
            shutil.rmtree(obs_dir, ignore_errors=True)


def at_nominal(results) -> bool:
    """Whether the run generated its nominal block count: run length
    times block rate (plus the key-block rate for Bitcoin-NG), summed
    over the experiments, within max(1, NOMINAL_TOLERANCE)."""
    nominal = 0.0
    for result in results:
        c = result.config
        ng = getattr(c.protocol, "value", c.protocol) == "bitcoin-ng"
        nominal += c.duration * (c.block_rate + (c.key_block_rate if ng else 0.0))
    generated = sum(r.blocks_generated for r in results)
    return abs(generated - nominal) <= max(1.0, NOMINAL_TOLERANCE * nominal)


def fingerprint(result) -> list:
    return [getattr(result, name) for name in FINGERPRINT_FIELDS]


def _same(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        if math.isnan(a) and math.isnan(b):
            return True
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=0.0)
    return a == b


def perturb(value):
    """A reference value the check must reject."""
    if isinstance(value, float):
        return 0.0 if math.isnan(value) else value * (1 + 1e-6) + 1e-6
    return value + 1


def matches(result, reference: list | None) -> bool:
    if reference is None or len(reference) != len(FINGERPRINT_FIELDS):
        return False
    return all(_same(a, b) for a, b in zip(fingerprint(result), reference))


def count_failed(results, references: list) -> int:
    """Experiments with a sanitizer violation or a fingerprint that
    differs from the recorded reference (a missing reference fails)."""
    failed = 0
    for index, result in enumerate(results):
        reference = references[index] if index < len(references) else None
        if result.violations or not matches(result, reference):
            failed += 1
    return failed

