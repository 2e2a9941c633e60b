"""Process-level sharding of Monte-Carlo sweeps, and the one supervised pool.

The bit-packed engine makes one core fast; this module makes *all* cores
fast.  A Monte-Carlo estimate of ``trials`` shots is split into ``num_shards``
contiguous shards, each shard draws its randomness from its own child of one
root :class:`numpy.random.SeedSequence` (the spawn protocol recommended by
numpy for parallel streams), and shards execute either serially or on a
process pool.  Because the shard plan -- sizes, seeds, chunking, per-shard
early stop -- is a pure function of ``(trials, seed, num_shards, batch_size,
max_failures)``, the aggregated result is **bit-for-bit identical** no matter
how many worker processes executed it: ``num_workers=0`` (in-process) and
``num_workers=8`` produce the same failure counts, the same trial counts and
the same sweep curves.

Early stopping composes exactly: each shard truncates its own outcome stream
once ``max_failures`` failures occur *locally*, and the aggregator replays the
sequential early-stop walk over the concatenated shard streams.  The walk's
remaining failure budget on entering a shard never exceeds ``max_failures``,
so a locally-truncated shard always contains the walk's stopping point and
truncation never changes the aggregate.

Shards return their outcomes bit-packed (64 shots per ``uint64`` word, via
:func:`repro.stabilizer.packed.pack_bits`) to keep inter-process traffic
small at million-shot scale; the aggregator counts failures with
:func:`repro.stabilizer.packed.popcount` and only unpacks when an early-stop
walk needs shot granularity.

Every process pool of the library runs on :func:`execute_pooled`: pooled
shards here, and the sweep points of :mod:`repro.explore.supervisor`.  It
harvests jobs as they finish, enforces per-job timeouts, retries failed
jobs with bounded backoff (:class:`RetryPolicy`), and survives a worker
killed mid-job by respawning the pool and isolating the culprit.  Retries
never change values: every job carries its own pinned seed.
"""

from __future__ import annotations

import multiprocessing
import sys
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.arq.mapper import LayoutMapper
from repro.exceptions import ParameterError, QLAError
from repro.iontrap.parameters import EXPECTED_PARAMETERS, IonTrapParameters
from repro.stabilizer.monte_carlo import MonteCarloResult, scan_early_stop
from repro.stabilizer.packed import pack_bits, popcount, unpack_bits

__all__ = [
    "DEFAULT_SHARD_BATCH_SIZE",
    "ShardOutcome",
    "Level1ShardTask",
    "as_seed_sequence",
    "spawn_shard_seeds",
    "shard_sizes",
    "run_sharded_outcomes",
    "aggregate_shard_outcomes",
    "estimate_failure_rate_sharded",
    "PointTimeoutError",
    "WorkerCrashError",
    "RetryPolicy",
    "PoolJob",
    "execute_pooled",
]

#: Shots handed to a batch trial at once inside one shard.
DEFAULT_SHARD_BATCH_SIZE = 1024


def as_seed_sequence(
    seed: int | tuple[int, ...] | np.random.SeedSequence,
) -> np.random.SeedSequence:
    """Coerce entropy (int or tuple of ints) or pass through a SeedSequence."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if isinstance(seed, (int, np.integer)):
        return np.random.SeedSequence(int(seed))
    if isinstance(seed, (tuple, list)) and seed and all(
        isinstance(word, (int, np.integer)) for word in seed
    ):
        return np.random.SeedSequence([int(word) for word in seed])
    raise ParameterError(
        f"seed must be an int, a tuple of ints or a numpy SeedSequence, "
        f"got {type(seed).__name__}"
    )


def spawn_shard_seeds(
    seed: int | np.random.SeedSequence, num_shards: int
) -> list[np.random.SeedSequence]:
    """Deterministically spawn one child SeedSequence per shard."""
    if num_shards <= 0:
        raise ParameterError("num_shards must be positive")
    return as_seed_sequence(seed).spawn(num_shards)


def shard_sizes(trials: int, num_shards: int) -> list[int]:
    """Balanced shard sizes summing to ``trials`` (first shards get the rest)."""
    if trials < 0:
        raise ParameterError("trials must be non-negative")
    if num_shards <= 0:
        raise ParameterError("num_shards must be positive")
    base, rest = divmod(trials, num_shards)
    return [base + (1 if i < rest else 0) for i in range(num_shards)]


@dataclass(frozen=True)
class ShardOutcome:
    """Bit-packed per-shot outcomes of one shard.

    Attributes
    ----------
    words:
        ``(ceil(count/64),)`` uint64 array; bit ``i`` is shot ``i``'s failure flag.
    count:
        Number of shots actually run (may be below the shard's allocation when
        the shard stopped early at ``max_failures``).
    """

    words: np.ndarray
    count: int

    @property
    def failures(self) -> int:
        """Number of failing shots in this shard (packed popcount)."""
        return int(popcount(self.words).sum())

    def unpack(self) -> np.ndarray:
        """Per-shot boolean outcomes in shot order."""
        return unpack_bits(self.words, self.count).astype(bool)


def _collect_outcomes(
    batch_trial: Callable[[np.random.Generator, int], np.ndarray],
    count: int,
    rng: np.random.Generator,
    batch_size: int,
    max_failures: int | None,
) -> np.ndarray:
    """Run ``count`` shots in chunks, truncating at ``max_failures`` failures.

    Chunking (``min(batch_size, remaining)``) and the early-stop walk match
    :func:`repro.stabilizer.monte_carlo.estimate_failure_rate_batched` shot
    for shot, so a single-shard run reproduces that function exactly.
    """
    if batch_size <= 0:
        raise ParameterError("batch_size must be positive")
    pieces: list[np.ndarray] = []
    failures = 0
    completed = 0
    while completed < count:
        chunk = min(batch_size, count - completed)
        outcomes = np.asarray(batch_trial(rng, chunk)).astype(bool).ravel()
        if outcomes.shape[0] != chunk:
            raise ParameterError(
                f"batch trial returned {outcomes.shape[0]} outcomes for {chunk} shots"
            )
        failures, stop = scan_early_stop(outcomes, failures, max_failures)
        if stop is not None:
            pieces.append(outcomes[: stop + 1])
            return np.concatenate(pieces)
        pieces.append(outcomes)
        completed += chunk
    if not pieces:
        return np.zeros(0, dtype=bool)
    return np.concatenate(pieces)


def _run_shard(
    task: Callable[[np.random.Generator, int], np.ndarray],
    seed: np.random.SeedSequence,
    count: int,
    batch_size: int,
    max_failures: int | None,
    attempt: int = 0,
) -> ShardOutcome:
    """Worker entry point: run one shard from its own SeedSequence child.

    ``attempt`` is the pool's retry counter (see :func:`execute_pooled`); a
    shard ignores it, because its outcomes are a pure function of its seed.
    """
    rng = np.random.default_rng(seed)
    outcomes = _collect_outcomes(task, count, rng, batch_size, max_failures)
    return ShardOutcome(words=pack_bits(outcomes), count=int(outcomes.size))


def run_sharded_outcomes(
    task: Callable[[np.random.Generator, int], np.ndarray],
    trials: int,
    seed: int | np.random.SeedSequence,
    num_shards: int = 1,
    num_workers: int = 0,
    batch_size: int = DEFAULT_SHARD_BATCH_SIZE,
    max_failures: int | None = None,
) -> list[ShardOutcome]:
    """Run a batch trial as deterministic shards, serially or on a process pool.

    Parameters
    ----------
    task:
        Picklable callable ``(rng, count) -> (count,) bool array`` marking
        failing shots (e.g. :class:`Level1ShardTask` or any bound-free batch
        trial).  Must be picklable when ``num_workers > 1``.
    trials:
        Total shots, split into balanced contiguous shards.
    seed:
        Root :class:`numpy.random.SeedSequence` (or int entropy); each shard
        consumes one spawned child, so results are independent of worker count.
    num_shards:
        Number of shards; fixed by the caller, NOT by the worker count, so the
        same ``(seed, num_shards)`` pair is reproducible on any machine.
    num_workers:
        ``0``/``1`` runs shards in-process; larger values run them on the
        supervised pool (:func:`execute_pooled`) under the default
        :class:`RetryPolicy`, so a shard whose worker dies is re-run from its
        pinned seed.  A shard that exhausts its retries raises its error.
    batch_size:
        Shots per batched call inside a shard.
    max_failures:
        Optional per-shard early stop (see module docstring for how this
        composes exactly under aggregation).
    """
    seeds = spawn_shard_seeds(seed, num_shards)
    sizes = shard_sizes(trials, num_shards)
    jobs = [
        (task, shard_seed, size, batch_size, max_failures)
        for shard_seed, size in zip(seeds, sizes)
        if size > 0
    ]
    if num_workers <= 1:
        return [_run_shard(*job) for job in jobs]
    shards: list[ShardOutcome | None] = [None] * len(jobs)
    errors: dict[int, Exception] = {}

    def resolve(job: PoolJob, payload, error: Exception | None) -> None:
        if error is None:
            shards[job.index] = payload
        else:
            errors[job.index] = error

    execute_pooled(
        _run_shard,
        jobs,
        policy=RetryPolicy(),
        workers=min(num_workers, len(jobs)),
        resolve=resolve,
        label="shard",
    )
    if errors:
        raise errors[min(errors)]
    return shards  # type: ignore[return-value]


def aggregate_shard_outcomes(
    shards: Sequence[ShardOutcome], max_failures: int | None = None
) -> MonteCarloResult:
    """Combine shard outcomes with exact sequential early-stop semantics.

    Without ``max_failures`` the failure count is a popcount over the packed
    words; with it, the shards are walked in order and the estimate stops at
    the shot whose failure brings the running total to ``max_failures`` --
    producing exactly what one sequential run over the concatenated shard
    streams would have reported.
    """
    failures = 0
    completed = 0
    for shard in shards:
        if max_failures is None:
            failures += shard.failures
            completed += shard.count
            continue
        outcomes = shard.unpack()
        failures, stop = scan_early_stop(outcomes, failures, max_failures)
        if stop is not None:
            return MonteCarloResult(failures=failures, trials=completed + stop + 1)
        completed += outcomes.size
    return MonteCarloResult(failures=failures, trials=completed)


def estimate_failure_rate_sharded(
    task: Callable[[np.random.Generator, int], np.ndarray],
    trials: int,
    seed: int | np.random.SeedSequence,
    num_shards: int = 1,
    num_workers: int = 0,
    batch_size: int = DEFAULT_SHARD_BATCH_SIZE,
    max_failures: int | None = None,
) -> MonteCarloResult:
    """Sharded counterpart of :func:`~repro.stabilizer.estimate_failure_rate_batched`.

    With ``num_shards=1`` and ``num_workers=0`` this reproduces
    ``estimate_failure_rate_batched(task, trials, np.random.default_rng(child),
    ...)`` bit for bit (where ``child`` is the single spawned shard seed); with
    more shards the result is reproducible for a fixed ``(seed, num_shards)``
    regardless of worker count.
    """
    shards = run_sharded_outcomes(
        task,
        trials,
        seed,
        num_shards=num_shards,
        num_workers=num_workers,
        batch_size=batch_size,
        max_failures=max_failures,
    )
    return aggregate_shard_outcomes(shards, max_failures)


# ----------------------------------------------------------------------
# The Figure 7 workload as a picklable shard task
# ----------------------------------------------------------------------

#: Per-process cache of constructed experiments: building the circuits and
#: decode tables costs far more than a shard's pickle, and a pool worker may
#: execute many shards of the same sweep point.  Bounded (oldest entry
#: evicted) so long-lived processes sweeping many distinct rates do not
#: accumulate one experiment per point forever.
_EXPERIMENT_CACHE: dict = {}
_EXPERIMENT_CACHE_MAX = 8


#: Per-shot outcome flags a :class:`Level1ShardTask` can count as "failures".
TASK_METRICS = ("failure", "nontrivial_syndrome")

#: How a :class:`Level1ShardTask` derives its noise model.
TASK_NOISE_KINDS = ("uniform", "technology")


@dataclass(frozen=True)
class Level1ShardTask:
    """Picklable batch trial for the level-1 logical-gate + ECC experiment.

    Workers rebuild (and cache) the
    :class:`~repro.arq.experiments.Level1EccExperiment` from this spec, so
    only a few floats and small frozen dataclasses cross the process
    boundary.

    Attributes
    ----------
    physical_rate:
        Component failure rate of the sweep point (movement stays pinned to
        the technology parameters' expected value).  Ignored for
        ``noise_kind="technology"``.
    parameters:
        Technology parameter set supplying the pinned movement rate (and,
        for technology noise, every rate).
    mapper:
        Layout mapper charging movement to two-qubit gates.
    noise_kind:
        ``"uniform"`` sweeps all component rates together (movement pinned);
        ``"technology"`` applies the parameter set's rates verbatim.
    verified_ancilla / max_preparation_attempts:
        Forwarded to the experiment (Figure 6 preparation semantics).
    metric:
        Which per-shot flag the task reports as a "failure": the logical
        ``"failure"`` (threshold experiments) or ``"nontrivial_syndrome"``
        (Section 4.1.1 syndrome-rate measurements).
    """

    physical_rate: float
    parameters: IonTrapParameters = EXPECTED_PARAMETERS
    mapper: LayoutMapper = field(default_factory=LayoutMapper)
    noise_kind: str = "uniform"
    verified_ancilla: bool = True
    max_preparation_attempts: int = 20
    metric: str = "failure"

    def __post_init__(self) -> None:
        if self.noise_kind not in TASK_NOISE_KINDS:
            raise ParameterError(
                f"noise_kind must be one of {TASK_NOISE_KINDS}, got {self.noise_kind!r}"
            )
        if self.metric not in TASK_METRICS:
            raise ParameterError(
                f"metric must be one of {TASK_METRICS}, got {self.metric!r}"
            )

    def _experiment(self):
        experiment = _EXPERIMENT_CACHE.get(self)
        if experiment is None:
            from repro.arq.experiments import (
                Level1EccExperiment,
                _noise_for_rate,
                _noise_from_parameters,
            )

            if self.noise_kind == "technology":
                noise = _noise_from_parameters(self.parameters)
            else:
                noise = _noise_for_rate(self.physical_rate, self.parameters)
            experiment = Level1EccExperiment(
                noise=noise,
                mapper=self.mapper,
                verified_ancilla=self.verified_ancilla,
                max_preparation_attempts=self.max_preparation_attempts,
            )
            while len(_EXPERIMENT_CACHE) >= _EXPERIMENT_CACHE_MAX:
                _EXPERIMENT_CACHE.pop(next(iter(_EXPERIMENT_CACHE)))
            _EXPERIMENT_CACHE[self] = experiment
        return experiment

    def __call__(self, rng: np.random.Generator, count: int) -> np.ndarray:
        experiment = self._experiment()
        if self.metric == "failure":
            return experiment.run_trial_batch(rng, count)
        return experiment.run_trial_batch_detailed(rng, count)[self.metric]

    def run_single(self, rng: np.random.Generator) -> bool:
        """One per-shot trial on the scalar tableau (the slow oracle path)."""
        return bool(self._experiment().run_trial_detailed(rng)[self.metric])


# ----------------------------------------------------------------------
# The supervised process pool
# ----------------------------------------------------------------------


class PointTimeoutError(QLAError):
    """A pooled job (sweep point or shard) exceeded its per-attempt timeout."""


class WorkerCrashError(QLAError):
    """The worker process executing a pooled job died abruptly."""


@dataclass(frozen=True)
class RetryPolicy:
    """Failure-handling knobs for supervised execution.

    Attributes
    ----------
    point_timeout:
        Wall-clock budget per attempt, in seconds; ``None`` disables
        timeouts.  Only enforceable on a pool (a hung in-process job
        cannot be preempted).
    max_retries:
        Retries *after* the first attempt; a job runs at most
        ``max_retries + 1`` times before it fails terminally.
    backoff_base / backoff_factor / backoff_cap:
        Delay before retry ``k`` (1-based) is
        ``min(backoff_cap, backoff_base * backoff_factor**(k - 1))`` --
        deterministic bounded exponential backoff, no jitter, so faulted
        runs replay identically.
    """

    point_timeout: float | None = None
    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_cap: float = 5.0

    def __post_init__(self) -> None:
        if self.point_timeout is not None and (
            not isinstance(self.point_timeout, (int, float)) or self.point_timeout <= 0
        ):
            raise ParameterError(
                f"point_timeout must be a positive number of seconds or None, "
                f"got {self.point_timeout!r}"
            )
        if not isinstance(self.max_retries, int) or isinstance(self.max_retries, bool) or self.max_retries < 0:
            raise ParameterError(f"max_retries must be a non-negative int, got {self.max_retries!r}")
        for name in ("backoff_base", "backoff_cap"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or value < 0:
                raise ParameterError(f"{name} must be a non-negative number, got {value!r}")
        if not isinstance(self.backoff_factor, (int, float)) or self.backoff_factor < 1.0:
            raise ParameterError(f"backoff_factor must be >= 1, got {self.backoff_factor!r}")

    def backoff(self, failed_attempts: int) -> float:
        """Delay before the retry following the given number of failures."""
        if self.backoff_base <= 0.0 or failed_attempts <= 0:
            return 0.0
        return min(self.backoff_cap, self.backoff_base * self.backoff_factor ** (failed_attempts - 1))


class PoolJob:
    """Supervision state of one pooled job, handed to the ``resolve`` callback.

    ``index`` is the job's position in the submitted list, ``attempts``
    counts the executions charged to it (a pool break with several jobs in
    flight charges nobody until the culprit is isolated), and ``elapsed``
    is the wall-clock spent on it across attempts, backoff waits excluded.
    """

    __slots__ = ("index", "args", "attempts", "eligible_at", "started_at", "elapsed")

    def __init__(self, index: int, args: tuple) -> None:
        self.index = index
        self.args = args
        self.attempts = 0          # charged (actually failed or completed) executions
        self.eligible_at = 0.0     # monotonic time before which the job must not resubmit
        self.started_at = 0.0      # monotonic start of the current attempt
        self.elapsed = 0.0         # accumulated wall-clock across attempts


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down even when a worker is hung: SIGKILL, then shutdown."""
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.kill()
        except Exception:  # pragma: no cover - racing an exiting worker
            pass
    pool.shutdown(wait=False, cancel_futures=True)


def execute_pooled(
    function: Callable[..., object],
    jobs: Sequence[tuple],
    *,
    policy: RetryPolicy,
    workers: int,
    resolve: Callable[[PoolJob, object, Exception | None], None],
    label: str = "job",
) -> None:
    """Run ``function(*args, attempt)`` for every job on a supervised process pool.

    ``function`` must be picklable (module-level); it receives a job's
    arguments followed by the job's 0-based attempt number, so a worker
    can key deterministic fault injection on it.  Each job resolves exactly
    once through ``resolve(job, payload, None)`` with the worker's return
    value passed through unchanged, or ``resolve(job, None, error)`` once it
    exhausts ``policy.max_retries``.  The loop:

    * submits up to ``workers`` jobs and harvests them as they finish;
    * fails an attempt that exceeds ``policy.point_timeout`` with
      :class:`PointTimeoutError`, killing and respawning the pool (a single
      worker cannot be cancelled) and re-queueing the innocent in-flight
      jobs without charging them an attempt;
    * re-queues a failed attempt with the policy's deterministic backoff;
    * survives a worker death (the pool breaks and fails every in-flight
      future indistinguishably): it respawns the pool and re-runs the
      in-flight jobs one at a time, so a job that crashes *alone* is the
      proven culprit and is charged a :class:`WorkerCrashError`, while the
      others are exonerated and full-width submission resumes.

    ``label`` names a job in error messages (``"sweep point"``, ``"shard"``).
    """
    if not jobs:
        return
    # Fork is the cheap start method and safe on Linux.  On macOS forking a
    # process with Objective-C / threaded-BLAS state is unsafe (CPython
    # switched the macOS default to spawn for that reason), so everywhere
    # else the platform default is taken; pooled jobs are fully picklable,
    # and determinism only depends on their pinned seeds, never on the
    # start method.
    if sys.platform.startswith("linux"):
        context = multiprocessing.get_context("fork")
    else:  # pragma: no cover - non-Linux only
        context = multiprocessing.get_context()
    queue: deque[PoolJob] = deque(PoolJob(index, tuple(args)) for index, args in enumerate(jobs))
    in_flight: dict[object, PoolJob] = {}
    suspects: set[int] = set()  # job indices quarantined after a pool break

    def new_pool() -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=workers, mp_context=context)

    pool = new_pool()

    def respawn() -> None:
        nonlocal pool
        _kill_pool(pool)
        pool = new_pool()

    def succeed(job: PoolJob, payload, now: float) -> None:
        job.attempts += 1
        job.elapsed += now - job.started_at
        suspects.discard(job.index)
        resolve(job, payload, None)

    def charge_failure(job: PoolJob, error: Exception, now: float) -> None:
        """Count a failed attempt; re-queue with backoff or resolve terminally."""
        job.attempts += 1
        job.elapsed += now - job.started_at
        if job.attempts <= policy.max_retries:
            job.eligible_at = time.monotonic() + policy.backoff(job.attempts)
            queue.append(job)
        else:
            suspects.discard(job.index)
            resolve(job, None, error)

    try:
        while queue or in_flight:
            now = time.monotonic()

            # Submit eligible jobs up to capacity.  While any suspect from a
            # pool break is unresolved, submission narrows to one job at a
            # time so the next crash unambiguously identifies its culprit.
            capacity = 1 if suspects else workers
            deferred: deque[PoolJob] = deque()
            while queue and len(in_flight) < capacity:
                job = queue.popleft()
                if job.eligible_at > now:
                    deferred.append(job)
                    continue
                job.started_at = time.monotonic()
                try:
                    future = pool.submit(function, *job.args, job.attempts)
                except (BrokenProcessPool, RuntimeError):
                    # The pool broke between events; respawn and retry the
                    # submission on the next pass (nothing is charged).
                    queue.appendleft(job)
                    respawn()
                    break
                in_flight[future] = job
            while deferred:
                queue.appendleft(deferred.pop())

            if not in_flight:
                if queue:
                    # Everything eligible later: sleep until the first backoff
                    # deadline (bounded so new eligibility is re-checked).
                    wake = min(job.eligible_at for job in queue)
                    time.sleep(min(max(wake - time.monotonic(), 0.0), 0.05) or 0.001)
                continue

            # Wait for completions, bounded by the earliest job deadline and
            # the earliest backoff eligibility.
            timeout = None
            if policy.point_timeout is not None:
                deadline = min(job.started_at + policy.point_timeout for job in in_flight.values())
                timeout = max(deadline - time.monotonic(), 0.0)
            if queue:
                wake = max(min(job.eligible_at for job in queue) - time.monotonic(), 0.01)
                timeout = wake if timeout is None else min(timeout, wake)
            done, _ = wait(set(in_flight), timeout=timeout, return_when=FIRST_COMPLETED)

            broken = False
            crashed: list[PoolJob] = []
            now = time.monotonic()
            for future in done:
                job = in_flight.pop(future)
                try:
                    payload = future.result()
                except BrokenProcessPool:
                    broken = True
                    crashed.append(job)
                except Exception as error:  # noqa: BLE001 - job/injected failure
                    charge_failure(job, error, now)
                else:
                    succeed(job, payload, now)

            if broken:
                # Every future the break touched failed indistinguishably; the
                # still-pending ones will surface as BrokenProcessPool on the
                # next wait, so fold them in now for one coherent decision.
                # Results that completed before the break are salvaged.
                for future, job in list(in_flight.items()):
                    if future.done() and future.exception() is None:
                        succeed(job, future.result(), now)
                    else:
                        crashed.append(job)
                    del in_flight[future]
                if len(crashed) == 1:
                    # A lone in-flight job is the proven culprit.
                    charge_failure(
                        crashed[0],
                        WorkerCrashError(
                            f"worker process died while executing {label} "
                            f"{crashed[0].index} (attempt {crashed[0].attempts + 1})"
                        ),
                        now,
                    )
                else:
                    # Ambiguous: quarantine all of them, charge nobody, and
                    # re-run one at a time until the culprit crashes alone.
                    for job in crashed:
                        job.elapsed += now - job.started_at
                        job.eligible_at = now
                        suspects.add(job.index)
                        queue.append(job)
                respawn()
                continue

            # Enforce per-job deadlines: fail the expired jobs, salvage any
            # already-completed results, re-queue the innocent rest uncharged,
            # and kill the pool (a hung worker ignores everything short of
            # SIGKILL).
            if policy.point_timeout is not None and in_flight:
                now = time.monotonic()
                expired = [
                    future
                    for future, job in in_flight.items()
                    if now - job.started_at >= policy.point_timeout and not future.done()
                ]
                if expired:
                    for future in expired:
                        job = in_flight.pop(future)
                        charge_failure(
                            job,
                            PointTimeoutError(
                                f"{label} {job.index} exceeded the per-point "
                                f"timeout of {policy.point_timeout:g}s "
                                f"(attempt {job.attempts + 1})"
                            ),
                            now,
                        )
                    for future, job in list(in_flight.items()):
                        if future.done() and future.exception() is None:
                            # Completed between the wait and the kill: harvest
                            # instead of wastefully re-running.
                            succeed(job, future.result(), now)
                        else:
                            job.elapsed += now - job.started_at
                            job.eligible_at = now
                            queue.append(job)
                    in_flight.clear()
                    respawn()
    finally:
        # Idle workers on the success path; possibly hung ones on error
        # paths -- SIGKILL either way so shutdown can never block.
        _kill_pool(pool)
