"""Benchmark: three paper workloads, end-to-end and per-layer metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload ng-paper-1000 --seed 0 --seconds 20 --trace 0

``--trace 0`` repeats the workload untraced until ``--seconds`` have
passed (at least three times) and reports the end-to-end metrics:
median wall seconds, set-up seconds and peak RSS.  ``--trace 1`` runs
the workload once untraced, then traced by :mod:`tracer` until
``--seconds`` have passed, runs the integrity self-tests and reports
the per-layer metrics.  Both modes check every experiment against the
reference fingerprints in ``reference.json``; the last line of standard
output is one JSON object.  ``--record-reference`` rewrites that file
from the current tree: each workload's testbed-seed pool and the
fingerprints of its runs.

See ``README.md`` beside this file for the workloads, the metrics and
the layer-to-end-to-end predictions.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
REFERENCE = HERE / "reference.json"

sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from hostspeed import REF_RATE, HostSpeed, calibrate  # noqa: E402
from tracer import LayerTracer, assert_unwrapped  # noqa: E402

MIN_REPS = 3
# Stop starting repetitions after this long, whatever MIN_REPS says, so
# a run always ends inside the 180 s limit.
HARD_STOP_S = 110.0
IMPORT_SAMPLES = 5
TRACE_SUM_TOLERANCE = 0.01

SIX_METRICS = (
    "repro.metrics.consensus_delay:consensus_delay",
    "repro.metrics.fairness:fairness",
    "repro.metrics.utilization:mining_power_utilization",
    "repro.metrics.prune:time_to_prune",
    "repro.metrics.prune:time_to_win",
    "repro.metrics.throughput:transaction_frequency",
)
RECORD_CALLS = tuple(
    f"repro.metrics.collector:ObservationLog.{name}"
    for name in ("record_generation", "record_arrival", "record_tip")
)


def import_seconds() -> list[float]:
    """``import repro.api`` timed inside fresh interpreters.

    The first sample is discarded: it may compile bytecode.
    """
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "t = time.perf_counter(); import repro.api; "
        "print(time.perf_counter() - t)"
    )
    samples = []
    for _ in range(IMPORT_SAMPLES + 1):
        out = subprocess.run(
            [sys.executable, "-I", "-c", code, str(SRC)],
            cwd=ROOT,
            check=True,
            capture_output=True,
            text=True,
            timeout=60,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples[1:]


def clear_signature_cache() -> None:
    """Start each repetition cold, as a fresh ``repro run`` process does."""
    from repro.sanitizer import shared_signature_cache

    shared_signature_cache().clear()


def run_rep(api, workload, seed, references):
    """One untraced repetition: (wall_s, setup_s, results, failed)."""
    assert_unwrapped()
    clear_signature_cache()
    # Collect the previous repetition's cyclic garbage, so the peak RSS
    # does not depend on where the collector's thresholds fell.
    gc.collect()
    results, wall, _ = wl.run_once(api, workload, seed, WORK)
    setup = sum(r.wall_setup_seconds for r in results)
    return wall, setup, results, wl.count_failed(results, references)


def untraced(api, args, seed, references, calibs) -> tuple[dict, int, int]:
    """Untraced repetitions, each timed and scaled to the reference
    host speed by :class:`HostSpeed`.  The imports run in child
    processes, so they are scaled by calibrations taken around them:
    ``calibs`` holds the run's first one and gets the second."""
    import_s = statistics.median(import_seconds())
    calibs.append(calibrate())
    import_scale = (calibs[-2] + calibs[-1]) / 2 / REF_RATE
    walls, setups, raw_walls, rates = [], [], [], []
    attempted = failed = 0
    started = time.perf_counter()
    while True:
        try:
            with HostSpeed() as host:
                wall, setup, results, bad = run_rep(api, args.workload, seed, references)
        except Exception as exc:  # a raising experiment counts as failed
            print(f"repetition raised: {exc!r}", file=sys.stderr)
            attempted += len(references)
            failed += len(references)
            break
        scale = host.scale()
        raw_walls.append(wall)
        walls.append(wall * scale)
        setups.append(setup * scale)
        rates.extend(host.rates)
        attempted += len(results)
        failed += bad
        elapsed = time.perf_counter() - started
        if elapsed >= HARD_STOP_S or (len(walls) >= MIN_REPS and elapsed >= args.seconds):
            break
    calibs.append(statistics.median(rates) if rates else calibrate())
    metrics = {}
    if walls:  # no time to report if the first repetition raised
        metrics["wall_s"] = (statistics.median(walls), "s")
        metrics["setup_s"] = (import_s * import_scale + statistics.median(setups), "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    print(f"repetitions {len(walls)}  raw walls_s {[round(w, 3) for w in raw_walls]}"
          f"  scaled {[round(w, 3) for w in walls]}")
    print(f"raw import_s {import_s:.4f}  scaled setup sums_s {[round(s, 4) for s in setups]}")
    return metrics, attempted, failed


class PhaseClock:
    """Phase split of a traced run, from hooks on the two entry points.

    Set-up runs from ``run_experiment`` entry to the first
    ``Simulator.run``; simulate from there to the last ``Simulator.run``
    return; post-processing from there to ``run_experiment`` return.
    Layer self time accrued during set-up is kept per layer.
    """

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.setup_self = dict.fromkeys(tracer.layer_self(), 0.0)
        self.simulate_s = 0.0
        self.post_s = 0.0
        self._snapshot: dict[str, float] = {}
        self._sim_started: float | None = None
        self._sim_ended = 0.0
        tracer.hook("repro.experiments.runner:run_experiment", self._enter_experiment, self._exit_experiment)
        tracer.hook("repro.net.simulator:Simulator.run", self._enter_simulate, self._exit_simulate)

    def _enter_experiment(self) -> None:
        self._snapshot = self.tracer.layer_self()
        self._sim_started = None

    def _enter_simulate(self) -> None:
        if self._sim_started is None:
            now = self.tracer.layer_self()
            for layer, value in now.items():
                self.setup_self[layer] += value - self._snapshot[layer]
            self._sim_started = time.perf_counter()

    def _exit_simulate(self) -> None:
        self._sim_ended = time.perf_counter()

    def _exit_experiment(self) -> None:
        if self._sim_started is not None:
            self.simulate_s += self._sim_ended - self._sim_started
            self.post_s += time.perf_counter() - self._sim_ended


def traced_rep(api, workload, seed):
    """One traced repetition:
    (tracer, phases, wall_s, results, trace_bytes, sigcache hit ratio)."""
    from repro.sanitizer import shared_signature_cache

    tracer = LayerTracer()
    phases = PhaseClock(tracer)
    clear_signature_cache()
    tracer.install()
    try:
        results, wall, trace_bytes = wl.run_once(api, workload, seed, WORK)
    finally:
        tracer.uninstall()
    assert_unwrapped()
    cache = shared_signature_cache()
    lookups = cache.hits + cache.misses
    hit_ratio = cache.hits / lookups if lookups else 0.0
    return tracer, phases, wall, results, trace_bytes, hit_ratio


def layer_metrics(tracer, phases, wall, untraced_wall, results, trace_bytes, hit_ratio) -> dict:
    ls = tracer.layer_self()
    calls, total = tracer.calls, tracer.total_s
    events = sum(r.events_processed for r in results)
    keys = "repro.crypto.keys:"
    derive, decompress = keys + "PrivateKey.public_key", keys + "PublicKey.from_bytes"
    sign, verify = keys + "PrivateKey.sign", keys + "PublicKey.verify"
    gossip = "repro.net.gossip:GossipNode."
    accepted = calls(gossip + "_accept")
    received = calls(gossip + "_on_object")
    checks = tracer.matching("sanitizer", ".check_dirty") + tracer.matching("sanitizer", ".check_block")
    return {
        "phase.simulate_s": (phases.simulate_s, "s"),
        "phase.post_s": (phases.post_s, "s"),
        "sim.events": (events, "count"),
        "sim.self_s": (ls["sim"], "s"),
        "sim.ns_per_event": (ls["sim"] / events * 1e9 if events else 0.0, "ns"),
        "net.setup_s": (phases.setup_self["net"], "s"),
        "net.messages": (sum(r.messages_delivered for r in results), "count"),
        "net.send_calls": (calls("repro.net.network:Network.send", "repro.net.network:Network.multicast"), "count"),
        "net.self_s": (ls["net"], "s"),
        "gossip.on_message_calls": (calls(*tracer.matching("gossip", ".on_message")), "count"),
        "gossip.self_s": (ls["gossip"], "s"),
        "gossip.inv_per_object": (calls(gossip + "_on_inv") / accepted if accepted else 0.0, "ratio"),
        "gossip.object_accept_ratio": (accepted / received if received else 0.0, "ratio"),
        "consensus.setup_s": (phases.setup_self["consensus"], "s"),
        "consensus.deliver_calls": (calls(*tracer.matching("consensus", ".deliver")), "count"),
        "consensus.self_s": (ls["consensus"], "s"),
        "consensus.blocks": (sum(r.blocks_generated for r in results), "count"),
        "crypto.derive_calls": (calls(derive), "count"),
        "crypto.derive_s": (total(derive), "s"),
        "crypto.decompress_calls": (calls(decompress), "count"),
        "crypto.decompress_s": (total(decompress), "s"),
        "crypto.sign_calls": (calls(sign), "count"),
        "crypto.sign_s": (total(sign), "s"),
        "crypto.verify_calls": (calls(verify), "count"),
        "crypto.verify_s": (total(verify), "s"),
        "crypto.setup_s": (phases.setup_self["crypto"], "s"),
        "crypto.self_s": (ls["crypto"], "s"),
        "ledger.self_s": (ls["ledger"], "s"),
        "metrics.record_calls": (calls(*RECORD_CALLS), "count"),
        "metrics.record_s": (total(*RECORD_CALLS), "s"),
        "metrics.compute_s": (total(*SIX_METRICS), "s"),
        "metrics.consensus_delay_s": (total(SIX_METRICS[0]), "s"),
        "metrics.self_s": (ls["metrics"], "s"),
        "sanitizer.self_s": (ls["sanitizer"], "s"),
        "sanitizer.check_calls": (calls(*checks), "count"),
        "sanitizer.sigcache_hit_ratio": (hit_ratio, "ratio"),
        "obs.self_s": (ls["obs"], "s"),
        "obs.emit_calls": (calls("repro.obs.trace:Tracer.emit"), "count"),
        "obs.trace_bytes": (trace_bytes, "bytes"),
        "experiments.residual_s": (ls["experiments"], "s"),
        "trace.wall_s": (wall, "s"),
        "trace.overhead_ratio": (wall / untraced_wall, "ratio"),
    }


def traced(api, args, seed, references) -> tuple[dict, int, int, list[str]]:
    """Untraced baseline rep, traced reps, integrity self-tests.

    A raising repetition counts all its experiments as attempted and
    failed and ends the run, as in :func:`untraced`; the metrics are
    then those of the traced repetitions that finished, if any."""
    started = time.perf_counter()
    problems: list[str] = []
    try:
        base_wall, _, base_results, failed = run_rep(api, args.workload, seed, references)
    except Exception as exc:
        print(f"repetition raised: {exc!r}", file=sys.stderr)
        return {}, len(references), len(references), problems
    attempted = len(base_results)
    per_rep: list[dict] = []
    while True:
        try:
            tracer, phases, wall, results, trace_bytes, hit_ratio = traced_rep(api, args.workload, seed)
            rep_metrics = layer_metrics(tracer, phases, wall, base_wall, results, trace_bytes, hit_ratio)
        except Exception as exc:
            print(f"repetition raised: {exc!r}", file=sys.stderr)
            attempted += len(references)
            failed += len(references)
            break
        attempted += len(results)
        failed += wl.count_failed(results, references)
        # Self-test: tracing must not change what the program computes.
        if [wl.fingerprint(r) for r in results] != [wl.fingerprint(r) for r in base_results]:
            problems.append("traced fingerprint differs from untraced")
        # Self-test: self times telescope to the traced wall.
        charged = sum(tracer.layer_self().values())
        if abs(charged - wall) > TRACE_SUM_TOLERANCE * wall:
            problems.append(f"layer self times sum to {charged:.4f}s, traced wall {wall:.4f}s")
        per_rep.append(rep_metrics)
        elapsed = time.perf_counter() - started
        if elapsed >= args.seconds or elapsed >= HARD_STOP_S:
            break
    # Self-test: perturbing any one fingerprint field of the reference
    # must make every experiment count as failed.
    for index, field in enumerate(wl.FINGERPRINT_FIELDS):
        perturbed = [list(ref) for ref in references]
        for ref in perturbed:
            ref[index] = wl.perturb(ref[index])
        if wl.count_failed(base_results, perturbed) != len(base_results):
            problems.append(f"reference with perturbed {field} not reported as failed")
    if not per_rep:
        return {}, attempted, failed, problems
    WORK.mkdir(parents=True, exist_ok=True)
    spans = WORK / f"spans-{args.workload}-seed{args.seed}.json"
    spans.write_text(json.dumps(tracer.dump(), indent=1) + "\n", encoding="utf-8")
    print(f"traced repetitions {len(per_rep)}  spans written to {spans.relative_to(ROOT)}")
    metrics = {
        name: (statistics.median_low(rep[name][0] for rep in per_rep), unit)
        for name, (_, unit) in per_rep[0].items()
    }
    return metrics, attempted, failed, problems


def record_reference(api) -> None:
    """Scan testbed seeds upward from 0; keep the first VARIANTS runs at
    their nominal block count, with their fingerprints."""
    table: dict = {}
    for workload in wl.WORKLOADS:
        seeds, fingerprints = [], []
        seed = 0
        while len(seeds) < wl.VARIANTS:
            results, _, _ = wl.run_once(api, workload, seed, WORK)
            if any(r.violations for r in results):
                raise SystemExit(f"{workload} seed {seed}: sanitizer violations")
            kept = wl.at_nominal(results)
            if kept:
                seeds.append(seed)
                fingerprints.append([wl.fingerprint(r) for r in results])
            blocks = sum(r.blocks_generated for r in results)
            print(f"{workload} seed {seed} blocks {blocks} {'kept' if kept else 'skipped'}", flush=True)
            seed += 1
        table[workload] = {"testbed_seeds": seeds, "fingerprints": fingerprints}
    REFERENCE.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.workload is None and not args.record_reference:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no repro source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro.api as api

    if Path(api.__file__).resolve().parent.parent != SRC:
        print(f"imported repro from {api.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.record_reference:
        record_reference(api)
        return 0
    if not REFERENCE.is_file():
        print(f"missing {REFERENCE}", file=sys.stderr)
        return 2
    recorded = json.loads(REFERENCE.read_text(encoding="utf-8"))[args.workload]
    variant = args.seed % wl.VARIANTS
    seed = recorded["testbed_seeds"][variant]
    references = recorded["fingerprints"][variant]
    calibs = [calibrate()]
    problems: list[str] = []
    if args.trace:
        metrics, attempted, failed, problems = traced(api, args, seed, references)
        calibs.append(calibrate())
    else:
        metrics, attempted, failed = untraced(api, args, seed, references, calibs)
    print(f"workload {args.workload}  seed {args.seed}  testbed seed {seed}  trace {args.trace}")
    print(f"host.calib_ops_per_s {' '.join(f'{c:.0f}' for c in calibs)}")
    if args.trace:
        metrics["host.calib_ops_per_s"] = (statistics.median(calibs), "1/s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:>16.6g} {unit}")
    print(f"  {'failed_frac':32s} {failed / attempted if attempted else 1.0:>16.6g} 1  ({failed}/{attempted})")
    for problem in problems:
        print(f"self-test failed: {problem}")
    if args.trace:
        print(f"self-tests: {'ok' if not problems else 'FAILED'}")
    correct = failed == 0 and not problems and attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
