"""Whole-simulation determinism: the reproducibility guarantee.

Every experiment in the repository leans on the fact that a seeded
simulation replays identically — block hashes, arrival times, and all
derived metrics.
"""

from repro.experiments import (
    ExperimentConfig,
    Protocol,
    frequency_sweep,
    run_experiment,
)
from repro.experiments.parallel import SweepExecutor

CONFIG = ExperimentConfig(
    n_nodes=20,
    target_blocks=20,
    target_key_blocks=6,
    block_rate=0.1,
    block_size_bytes=5000,
    cooldown=20.0,
    seed=9,
)


def _fingerprint(log):
    blocks = sorted(
        (info.hash, info.miner, info.gen_time)
        for info in log.index.all_blocks()
    )
    arrivals = [sorted(node_arrivals.items()) for node_arrivals in log.arrivals]
    return blocks, arrivals, log.main_chain()


def test_bitcoin_simulation_bit_identical():
    _, log_a = run_experiment(CONFIG.with_(protocol=Protocol.BITCOIN))
    _, log_b = run_experiment(CONFIG.with_(protocol=Protocol.BITCOIN))
    assert _fingerprint(log_a) == _fingerprint(log_b)


def test_ng_simulation_bit_identical():
    _, log_a = run_experiment(CONFIG.with_(protocol=Protocol.BITCOIN_NG))
    _, log_b = run_experiment(CONFIG.with_(protocol=Protocol.BITCOIN_NG))
    assert _fingerprint(log_a) == _fingerprint(log_b)


def test_ghost_simulation_bit_identical():
    _, log_a = run_experiment(CONFIG.with_(protocol=Protocol.GHOST))
    _, log_b = run_experiment(CONFIG.with_(protocol=Protocol.GHOST))
    assert _fingerprint(log_a) == _fingerprint(log_b)


def test_different_seeds_different_executions():
    _, log_a = run_experiment(CONFIG.with_(seed=1))
    _, log_b = run_experiment(CONFIG.with_(seed=2))
    assert _fingerprint(log_a) != _fingerprint(log_b)


# -- observability ----------------------------------------------------------


def test_instrumented_run_bit_identical_to_bare_run():
    """Tracing and sampling must not disturb the simulation.

    Samplers consume event-queue sequence numbers but never reorder
    protocol events or draw from the simulation RNG, so every block
    hash, arrival time, and derived metric matches the bare run.
    (``events_processed`` is excluded: sampler firings are real events.)
    """
    from repro.obs import Observability
    from repro.obs.trace import MemorySink, Tracer

    for protocol in (Protocol.BITCOIN, Protocol.BITCOIN_NG, Protocol.GHOST):
        config = CONFIG.with_(protocol=protocol)
        bare_result, bare_log = run_experiment(config)
        obs = Observability(tracer=Tracer(MemorySink()))
        traced_result, traced_log = run_experiment(config, obs=obs)
        assert _fingerprint(traced_log) == _fingerprint(bare_log)
        assert traced_result.as_row() == bare_result.as_row()


# -- sanitizer --------------------------------------------------------------


def test_checked_run_bit_identical_to_bare_run():
    """``--check`` must observe, never perturb.

    Invariant sweeps and digest captures only read node state — no
    events scheduled, no RNG draws — so a checked run reproduces the
    bare run exactly, including ``events_processed`` (unlike samplers,
    the sanitizer probe piggybacks on existing events).
    """
    for protocol in (Protocol.BITCOIN, Protocol.BITCOIN_NG, Protocol.GHOST):
        config = CONFIG.with_(protocol=protocol)
        bare_result, bare_log = run_experiment(config)
        checked_result, checked_log = run_experiment(
            config.with_(check=True, check_stride=16)
        )
        assert _fingerprint(checked_log) == _fingerprint(bare_log)
        assert checked_result.as_row() == bare_result.as_row()
        assert (
            checked_result.events_processed == bare_result.events_processed
        )
        assert len(checked_result.violations) == 0


# -- profiler ---------------------------------------------------------------


def test_profiled_run_bit_identical_to_bare_run():
    """Profiling must measure, never perturb.

    The profiled dispatch loop only reads the wall clock around work the
    bare loop already does — no events scheduled, no RNG draws — so a
    profiled run reproduces the bare run exactly, including
    ``events_processed``.
    """
    from repro.prof import profile_experiment

    for protocol in (Protocol.BITCOIN, Protocol.BITCOIN_NG, Protocol.GHOST):
        config = CONFIG.with_(protocol=protocol)
        bare_result, bare_log = run_experiment(config)
        prof_result, prof_log, profile = profile_experiment(config)
        assert _fingerprint(prof_log) == _fingerprint(bare_log)
        assert prof_result.as_row() == bare_result.as_row()
        assert prof_result.events_processed == bare_result.events_processed
        assert profile.events_processed == bare_result.events_processed
        # The loop attributes essentially all of its own wall time.
        assert profile.phases
        assert profile.attributed_seconds > 0


def test_profiled_checked_run_bit_identical_to_bare_run():
    """Profiling composes with --check without disturbing either."""
    from repro.prof import profile_experiment

    config = CONFIG.with_(protocol=Protocol.BITCOIN_NG)
    bare_result, bare_log = run_experiment(config)
    prof_result, prof_log, profile = profile_experiment(
        config.with_(check=True, check_stride=16)
    )
    assert _fingerprint(prof_log) == _fingerprint(bare_log)
    assert prof_result.as_row() == bare_result.as_row()
    assert prof_result.events_processed == bare_result.events_processed
    assert len(prof_result.violations) == 0
    # Per-checker attribution was recorded for every registered checker.
    assert profile.checkers
    assert all(stat.calls > 0 for stat in profile.checkers.values())


# -- parallel dispatch ------------------------------------------------------

PARALLEL_BASE = ExperimentConfig(
    n_nodes=12,
    target_blocks=10,
    target_key_blocks=4,
    block_rate=0.1,
    block_size_bytes=4000,
    cooldown=15.0,
)


def test_parallel_executor_bit_identical_to_serial():
    """Process-pool dispatch returns the exact serial results, in order.

    ExperimentResult is a frozen dataclass of the config plus floats
    and counters, so ``==`` here is bit-identical equality of every
    metric of every run, whatever the worker count.
    """
    configs = [
        PARALLEL_BASE.with_(protocol=protocol, seed=seed)
        for protocol in (Protocol.BITCOIN, Protocol.BITCOIN_NG)
        for seed in (0, 1, 2)
    ]
    serial = SweepExecutor(jobs=1).map(configs)
    for workers in (2, 4):
        assert SweepExecutor(jobs=workers).map(configs) == serial


def test_progress_callback_does_not_perturb_results():
    """Per-cell heartbeats observe completions without changing them.

    The callback fires in completion order (nondeterministic under a
    pool) but sees every cell exactly once, and the returned results
    stay in submission order, equal to the quiet run.
    """
    configs = [
        PARALLEL_BASE.with_(protocol=Protocol.BITCOIN_NG, seed=seed)
        for seed in (0, 1, 2, 3)
    ]
    quiet = SweepExecutor(jobs=2).map(configs)
    for workers in (1, 2):
        seen = []
        noisy = SweepExecutor(jobs=workers).map(
            configs, progress=lambda i, n, r: seen.append((i, n, r))
        )
        assert noisy == quiet
        assert sorted(i for i, _, _ in seen) == list(range(len(configs)))
        assert all(n == len(configs) for _, n, _ in seen)
        assert {i: r for i, _, r in seen} == dict(enumerate(noisy))


def test_parallel_sweep_matches_serial_sweep():
    """A multi-seed sweep through the executor equals the serial path."""
    kwargs = dict(
        base=PARALLEL_BASE,
        frequencies=(0.05, 0.2),
        protocols=(Protocol.BITCOIN_NG,),
        seeds=(0, 1),
    )
    serial = frequency_sweep(jobs=1, **kwargs)
    parallel = frequency_sweep(jobs=3, **kwargs)
    assert [(p.x, p.protocol) for p in parallel.points] == [
        (p.x, p.protocol) for p in serial.points
    ]
    assert [p.results for p in parallel.points] == [
        p.results for p in serial.points
    ]


# -- signature checks ----------------------------------------------------------


def test_signature_checks_leave_the_run_unchanged_and_verify_once():
    """Checking every microblock signature is observation only.

    The experiments run with ``check_signatures=False``, as the paper's
    testbed did.  With checks on, every verdict is a pure function of
    (key, header, signature): the honest run is bit-identical, and the
    process-wide cache verifies each microblock once, not once per node.
    """
    from repro.crypto.sigcache import shared_signature_cache
    from repro.protocols import BitcoinNGAdapter, get_adapter, register_adapter

    class CheckedNGAdapter(BitcoinNGAdapter):
        nodes: list = []

        def build_nodes(self, config, sim, network, log, shares):
            nodes, scheduler = super().build_nodes(
                config, sim, network, log, shares
            )
            for node in nodes:
                node.check_signatures = True
            type(self).nodes = nodes
            return nodes, scheduler

    config = CONFIG.with_(protocol=Protocol.BITCOIN_NG, n_nodes=30)
    default_result, default_log = run_experiment(config)
    original = get_adapter(Protocol.BITCOIN_NG)
    cache = shared_signature_cache()
    cache.clear()
    register_adapter(CheckedNGAdapter(), replace=True)
    try:
        checked_result, checked_log = run_experiment(config)
    finally:
        register_adapter(original, replace=True)
    assert _fingerprint(checked_log) == _fingerprint(default_log)
    assert checked_result.as_row() == default_result.as_row()
    assert checked_result.events_processed == default_result.events_processed
    micros = sum(node.microblocks_generated for node in CheckedNGAdapter.nodes)
    assert micros > 0
    assert all(node.blocks_rejected == 0 for node in CheckedNGAdapter.nodes)
    assert cache.misses == micros
    assert cache.hits > 0
