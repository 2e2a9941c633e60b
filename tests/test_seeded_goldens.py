"""Seeded failure counts pinned as goldens.

These are the numbers the Monte-Carlo path must keep producing for fixed
seeds: ``(failures, trials)`` of level-1 logical-failure points across the
Fig. 7 rate range (a 32-shot, a 128-shot and two B=4096 points), one point
at one and at two shards, and the level-1 curve of one threshold sweep.
They were recorded with the ``packed-fused`` engine named explicitly, so they
are independent of what ``auto`` resolves to, and they hold on every kernel
tier (the numpy fallback is bit-identical to the native kernel).
"""

from __future__ import annotations

import pytest

from repro.api import ExecutionSpec, ExperimentSpec, NoiseSpec, SamplingSpec, run


def _spec(experiment, rates, shots, seed, batch_size=1024, num_shards=1, backend="packed-fused"):
    return ExperimentSpec(
        experiment=experiment,
        noise=NoiseSpec(kind="uniform", physical_rates=rates),
        sampling=SamplingSpec(shots=shots, seed=seed, batch_size=batch_size),
        execution=ExecutionSpec(backend=backend, num_shards=num_shards),
    )


#: (rate, shots, seed, batch_size, num_shards) -> (failures, trials).
LOGICAL_FAILURE_GOLDENS = {
    (0.016, 32, 11, 1024, 1): (5, 32),
    (0.004, 128, 12, 1024, 1): (1, 128),
    (0.016, 4096, 13, 4096, 1): (311, 4096),
    (0.001, 4096, 14, 4096, 1): (2, 4096),
    (0.016, 1024, 15, 1024, 1): (72, 1024),
    (0.016, 1024, 15, 1024, 2): (80, 1024),
}

#: The threshold sweep at rates (0.004, 0.016), 256 shots, seed 16.
SWEEP_LEVEL1_GOLDEN = ((2, 256), (20, 256))
SWEEP_COEFFICIENT_GOLDEN = 435.2450469137995


@pytest.mark.parametrize("key", sorted(LOGICAL_FAILURE_GOLDENS))
def test_logical_failure_counts_are_pinned(key):
    rate, shots, seed, batch_size, num_shards = key
    result = run(_spec("logical_failure", (rate,), shots, seed, batch_size, num_shards))
    assert result.engine == "packed-fused"
    assert (result.value.failures, result.value.trials) == LOGICAL_FAILURE_GOLDENS[key]


def test_threshold_sweep_value_is_pinned():
    result = run(_spec("threshold_sweep", (0.004, 0.016), 256, 16))
    sweep = result.value
    assert tuple((point.failures, point.trials) for point in sweep.level1) == SWEEP_LEVEL1_GOLDEN
    assert sweep.concatenation_coefficient == pytest.approx(SWEEP_COEFFICIENT_GOLDEN, rel=1e-12)


@pytest.mark.parametrize("key", sorted(LOGICAL_FAILURE_GOLDENS))
def test_auto_reproduces_the_pinned_counts(key):
    # "auto" names the same engine at every batch size, 32-lane points included.
    rate, shots, seed, batch_size, num_shards = key
    result = run(_spec("logical_failure", (rate,), shots, seed, batch_size, num_shards, "auto"))
    assert (result.value.failures, result.value.trials) == LOGICAL_FAILURE_GOLDENS[key]
