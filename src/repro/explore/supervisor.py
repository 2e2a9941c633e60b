"""Supervised, fault-tolerant execution of sweep points.

:func:`execute_supervised` runs a batch of independent, fully-bound
experiment specs and *survives* the failure modes a million-point
design-space study actually meets.  With ``point_workers > 1`` the points
run on the supervised pool of :func:`repro.parallel.execute_pooled` -- the
same loop that runs pooled Monte-Carlo shards -- which streams completed
points back as they finish (so the caller can cache each one at once and a
crashed sweep resumes from the cache), fails an attempt that exceeds
:attr:`~repro.parallel.RetryPolicy.point_timeout` with
:class:`PointTimeoutError`, retries failed attempts with deterministic
backoff, and survives a SIGKILLed, segfaulted or OOM-killed worker by
respawning the pool and isolating the culprit (:class:`WorkerCrashError`),
so an innocent point is never failed by a neighbour's crash.  Retries can
never change results: every point's spec carries its own pinned seed.

A point that exhausts its retries resolves to a failed
:class:`PointOutcome` record (exception, attempts, elapsed wall-clock)
instead of aborting the batch; the caller decides whether a partial result
is acceptable (``on_error="partial"``) or not (``on_error="raise"``).

The in-process path (no pool) shares the same retry/backoff machinery but
cannot enforce timeouts or survive crashes of the calling process itself;
:func:`repro.explore.runner.run_sweep` validates that ``point_timeout``
is only requested together with a worker pool.

Fault injection (:mod:`repro.faults`) hooks into the worker entry point:
:data:`~repro.faults.WORKER_CRASH` and :data:`~repro.faults.WORKER_HANG`
fire only inside pool workers, :data:`~repro.faults.POINT_TRANSIENT`
fires on both paths.  All three key on the SHA-256 of the point's
canonical spec JSON, so faulted runs are bit-reproducible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro import faults
from repro.api.registry import BackendRegistry
from repro.api.results import RunResult
from repro.api.runner import run
from repro.api.specs import ExperimentSpec
from repro.parallel import (
    PointTimeoutError,
    PoolJob,
    RetryPolicy,
    WorkerCrashError,
    execute_pooled,
)

__all__ = [
    "PointTimeoutError",
    "WorkerCrashError",
    "RetryPolicy",
    "PointOutcome",
    "execute_supervised",
    "execute_with_retry",
]


@dataclass(frozen=True)
class PointOutcome:
    """Terminal outcome of one supervised point: a result or a failure.

    Exactly one of ``result`` / ``error`` is set.  ``attempts`` counts
    executions that were *charged* to the point (a pool crash with several
    points in flight charges nobody until the culprit is isolated);
    ``elapsed_seconds`` is the total wall-clock the supervisor spent on
    the point across every attempt, backoff waits excluded.
    """

    result: RunResult | None
    error: Exception | None
    attempts: int
    elapsed_seconds: float

    @property
    def ok(self) -> bool:
        return self.error is None


def _run_point_json(spec_json: str, attempt: int = 0) -> str:
    """Worker entry: run one point's spec JSON, return its result JSON.

    Module-level (picklable) so the process-pool fan-out can ship points
    as plain strings; the JSON round trip is exact, so pooled and
    in-process execution return identical results.  The fault-injection
    sites that simulate worker death and hangs live here -- inside the
    worker process -- keyed on the spec's content hash.
    """
    key = faults.fault_key(spec_json)
    faults.maybe_inject(faults.WORKER_CRASH, key, attempt)
    faults.maybe_inject(faults.WORKER_HANG, key, attempt)
    faults.maybe_inject(faults.POINT_TRANSIENT, key, attempt)
    return run(ExperimentSpec.from_json(spec_json)).to_json()


def execute_supervised(
    specs: list[ExperimentSpec],
    *,
    policy: RetryPolicy,
    point_workers: int = 0,
    registry: BackendRegistry | None = None,
    on_outcome=None,
) -> list[PointOutcome]:
    """Execute independent point specs under supervision; never raises per point.

    Parameters
    ----------
    specs:
        The fully-bound (seed-pinned) specs to run, one task per entry.
    policy:
        Timeout/retry/backoff configuration.
    point_workers:
        ``> 1`` executes on the supervised fork process pool (required for
        timeouts and crash isolation); otherwise points run in-process,
        in order, with the same retry semantics.
    registry:
        A caller-supplied registry forces in-process execution (it cannot
        cross a process boundary); results are identical either way.
    on_outcome:
        Optional ``callback(index, outcome)`` invoked the moment each
        point resolves -- the hook :func:`~repro.explore.runner.run_sweep`
        uses to persist completed points immediately.

    Returns
    -------
    list[PointOutcome]
        One terminal outcome per input spec, index-aligned.
    """
    outcomes: list[PointOutcome | None] = [None] * len(specs)

    def record(index: int, outcome: PointOutcome) -> None:
        outcomes[index] = outcome
        if on_outcome is not None:
            on_outcome(index, outcome)

    def resolve(job: PoolJob, payload: str | None, error: Exception | None) -> None:
        result = RunResult.from_json(payload) if error is None else None
        record(
            job.index,
            PointOutcome(
                result=result, error=error, attempts=job.attempts, elapsed_seconds=job.elapsed
            ),
        )

    if point_workers > 1 and registry is None and specs:
        execute_pooled(
            _run_point_json,
            [(spec.to_json(),) for spec in specs],
            policy=policy,
            workers=min(point_workers, len(specs)),
            resolve=resolve,
            label="sweep point",
        )
    else:
        for index, spec in enumerate(specs):
            record(index, execute_with_retry(spec, policy=policy, registry=registry))
    return outcomes  # type: ignore[return-value]


def execute_with_retry(
    spec: ExperimentSpec, *, policy: RetryPolicy, registry: BackendRegistry | None = None
) -> PointOutcome:
    """Run one fully-bound spec in-process under the retry policy.

    The serial path of :func:`execute_supervised`, exposed so
    claim-coordinated sweeps (:mod:`repro.explore.distributed`) can
    re-execute a reaped point with exactly the same retry/backoff
    semantics as every other point.  Timeouts are not enforceable
    in-process, so :attr:`RetryPolicy.point_timeout` is ignored here.
    """
    key = faults.fault_key(spec.to_json())
    attempts = 0
    elapsed = 0.0
    while True:
        start = time.monotonic()
        try:
            faults.maybe_inject(faults.POINT_TRANSIENT, key, attempts)
            result = run(spec, registry=registry)
        except Exception as error:  # noqa: BLE001 - any failure becomes a record
            attempts += 1
            elapsed += time.monotonic() - start
            if attempts <= policy.max_retries:
                delay = policy.backoff(attempts)
                if delay:
                    time.sleep(delay)
                continue
            return PointOutcome(
                result=None, error=error, attempts=attempts, elapsed_seconds=elapsed
            )
        attempts += 1
        elapsed += time.monotonic() - start
        return PointOutcome(
            result=result, error=None, attempts=attempts, elapsed_seconds=elapsed
        )
