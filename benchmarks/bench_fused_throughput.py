"""Throughput and reference checks of the fused Monte-Carlo engine (Figure 7).

The fused engine pre-samples the noise stream and then executes the whole
compiled circuit in one kernel loop over packed bit-planes.  This benchmark
times it on the level-1 Steane logical-gate + error-correction trial (the
Figure 7 workload) at a batch size of 4096 and checks two contracts:

* reference: on the same seed, the fused executor reproduces the
  per-operation packed loop (``tests/packed_reference.py``) bit for bit on
  the Figure 7 error-correction circuit -- outcomes, error counts and state;
* determinism: a seeded ``ExperimentSpec`` replays bit for bit from its
  echoed JSON, and ``auto`` and ``"packed-fused"`` give the same values, at
  every shard count.

Results are written to ``BENCH_fused_throughput.json`` at the repository
root.  Run under pytest (``pytest benchmarks/bench_fused_throughput.py``) or
directly (``python benchmarks/bench_fused_throughput.py [--smoke]``);
``--smoke`` runs tiny shot counts and writes nothing -- the CI regression
gate for the two contracts.  Shots per second are recorded, not gated.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

try:  # the CI smoke job runs this file directly with only numpy installed
    import pytest
except ImportError:  # pragma: no cover - direct execution without pytest
    pytest = None

_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_ROOT / "tests"))

from packed_reference import run_packed_reference  # noqa: E402
from repro.api import ExecutionSpec, ExperimentSpec, NoiseSpec, SamplingSpec, run  # noqa: E402
from repro.arq import BatchedNoisyCircuitExecutor, LayoutMapper  # noqa: E402
from repro.arq.experiments import Level1EccExperiment, _noise_for_rate  # noqa: E402
from repro.iontrap.parameters import EXPECTED_PARAMETERS  # noqa: E402
from repro.qecc.syndrome import full_error_correction_circuit  # noqa: E402
from repro.stabilizer.fused import kernel_tier  # noqa: E402

#: Component failure rate of the throughput workload (mid-sweep Figure 7 point).
WORKLOAD_RATE = 2.0e-3
#: Lanes per batched call; the acceptance criterion pins B=4096.
BATCH_SIZE = 4096
#: Shots timed.
TIMED_SHOTS = 8192

#: Replay configuration of the determinism check.
REPLAY_RATES = (2.0e-3, 1.0e-2)
REPLAY_TRIALS = 1024
REPLAY_SEED = 20260807
REPLAY_SHARD_COUNTS = (1, 4)

_OUTPUT_PATH = _ROOT / "BENCH_fused_throughput.json"


def _measure_throughput(shots: int, batch_size: int) -> dict[str, object]:
    experiment = Level1EccExperiment(noise=_noise_for_rate(WORKLOAD_RATE, EXPECTED_PARAMETERS))
    rng = np.random.default_rng(11)
    # Warm the compiled-circuit / kernel / schedule caches before timing.
    experiment.run_trial_batch(rng, min(64, batch_size))
    start = time.perf_counter()
    completed = 0
    while completed < shots:
        experiment.run_trial_batch(rng, batch_size)
        completed += batch_size
    seconds = time.perf_counter() - start
    return {
        "workload_rate": WORKLOAD_RATE,
        "kernel_tier": kernel_tier(),
        "batch_size": batch_size,
        "shots": completed,
        "seconds": seconds,
        "shots_per_second": completed / seconds,
    }


def _reference_equivalence(batch_size: int) -> dict[str, object]:
    """Fused executor vs the per-operation packed loop, same seed."""
    circuit, _, _ = full_error_correction_circuit()
    noise = _noise_for_rate(1.0e-2, EXPECTED_PARAMETERS)
    mapper = LayoutMapper()
    reference = run_packed_reference(circuit, batch_size, np.random.default_rng(5), noise, mapper)
    fused = BatchedNoisyCircuitExecutor(noise=noise, mapper=mapper).run(
        circuit, batch_size, np.random.default_rng(5)
    )
    bit_for_bit = (
        all(
            np.array_equal(reference.measurements[label], fused.measurements[label])
            for label in reference.measurements
        )
        and np.array_equal(reference.error_count, fused.error_count)
        and all(
            np.array_equal(getattr(reference.tableau, plane), getattr(fused.tableau, plane))
            for plane in ("_x", "_z", "_r")
        )
    )
    return {
        "batch_size": batch_size,
        "measurements": len(fused.measurements),
        "error_events": int(fused.error_count.sum()),
        "bit_for_bit": bool(bit_for_bit),
    }


def _replay_spec(backend: str, trials: int, num_shards: int) -> ExperimentSpec:
    return ExperimentSpec(
        experiment="threshold_sweep",
        noise=NoiseSpec(kind="uniform", physical_rates=REPLAY_RATES),
        sampling=SamplingSpec(shots=trials, seed=REPLAY_SEED, batch_size=512),
        execution=ExecutionSpec(backend=backend, num_shards=num_shards),
    )


def _determinism(trials: int, shard_counts) -> dict[str, object]:
    """Replay from JSON and ``auto`` vs ``packed-fused``: bit-for-bit equal."""
    runs = []
    for num_shards in shard_counts:
        auto = run(_replay_spec("auto", trials, num_shards))
        replay = run(ExperimentSpec.from_json(auto.spec_json))
        named = run(_replay_spec("packed-fused", trials, num_shards))
        runs.append(
            {
                "num_shards": num_shards,
                "engine": auto.engine,
                "pseudothreshold": auto.value.pseudothreshold,
                "points": [
                    {"physical_rate": rate, "failures": p.failures, "trials": p.trials}
                    for rate, p in zip(REPLAY_RATES, auto.value.level1)
                ],
                "bit_for_bit": bool(auto.value == replay.value == named.value),
            }
        )
    return {
        "seed_entropy": REPLAY_SEED,
        "trials_per_point": trials,
        "bit_for_bit": all(r["bit_for_bit"] for r in runs),
        "runs": runs,
    }


def _run_benchmark(smoke: bool = False) -> dict[str, object]:
    if smoke:
        throughput = _measure_throughput(shots=256, batch_size=128)
        reference = _reference_equivalence(batch_size=130)
        determinism = _determinism(trials=96, shard_counts=(1, 2))
    else:
        throughput = _measure_throughput(shots=TIMED_SHOTS, batch_size=BATCH_SIZE)
        reference = _reference_equivalence(batch_size=BATCH_SIZE)
        determinism = _determinism(trials=REPLAY_TRIALS, shard_counts=REPLAY_SHARD_COUNTS)
    report = {
        "smoke": smoke,
        "throughput": throughput,
        "reference_equivalence": reference,
        "determinism": determinism,
    }
    if not smoke:
        _OUTPUT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    return report


def _check(report: dict[str, object]) -> None:
    assert report["reference_equivalence"]["bit_for_bit"], report["reference_equivalence"]
    assert report["determinism"]["bit_for_bit"], report["determinism"]


if pytest is not None:

    @pytest.mark.benchmark(
        group="fused-throughput", min_rounds=1, max_time=0.0, warmup=False
    )
    def test_fused_engine_throughput_reference_and_determinism(benchmark):
        report = benchmark.pedantic(_run_benchmark, rounds=1, iterations=1)
        _check(report)

        throughput = report["throughput"]
        print()
        print(
            f"packed-fused ({throughput['kernel_tier']}): "
            f"{throughput['shots_per_second']:.0f} shots/s (B={BATCH_SIZE})"
        )
        print(f"report written to {_OUTPUT_PATH}")


if __name__ == "__main__":
    smoke_mode = "--smoke" in sys.argv[1:]
    result = _run_benchmark(smoke=smoke_mode)
    _check(result)
    print(json.dumps(result, indent=2))
    if smoke_mode:
        print("smoke benchmark passed: reference + determinism OK", file=sys.stderr)
