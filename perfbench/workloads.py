"""The three benchmark workloads: their specs, their timed loops and their checks.

Every spec a workload submits is generated from the ``--seed`` argument by the
pure functions :func:`fig7_round_specs`, :func:`shor_specs` and
:func:`service_cycle_specs`; the program never sees the seed itself.

A workload runs in *rounds* (one fixed batch of work) until its time budget is
spent, finishing the round in progress, so every sample mix is whole:

* ``fig7_curve`` round: the five wide points of the Fig. 7 curve, then a burst
  of 128-shot points, four at each rate, each at a fresh seed.
* ``shor_replay`` round: the Shor-128 adder replay at bandwidth 1 and 2, on
  ideal and on stochastic links.
* ``service_mix`` round: one client cycle of four jobs against an in-process
  service, driven by two closed-loop client threads.

A traced run alternates untraced and traced quarters of its budget, with
:class:`~perfbench.spans.Instrumentation` installed in the traced ones, so a
drift in host speed falls on both sides alike; the per-layer metrics come from
the traced quarters and the tracing overhead from comparing the two sides.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import repro.api
from repro.api import ExecutionSpec, ExperimentSpec, MachineSpec, NoiseSpec, SamplingSpec
from repro.explore.sweep import SweepAxis, SweepSpec

from perfbench.spans import Instrumentation, SpanRecorder, layer_totals, tail

#: Physical error rates of the Fig. 7 curve.
RATES = (0.001, 0.002, 0.004, 0.008, 0.016)
#: The curve's two ends, reported as the light and heavy wide points.
LIGHT_RATE, HEAVY_RATE = 0.002, 0.016
WIDE_SHOTS = 16384
WIDE_BATCH = 4096
POINT_SHOTS = 128
POINTS_PER_RATE = 4

#: Shor-128 ripple-carry adder on the 20x20 level-2 array.
SHOR_MACHINE = dict(rows=20, columns=20, level=2, workload="adder", workload_bits=128)
#: The stochastic link policy of the interconnect study: 90% attempt
#: success, elementary fidelity 0.95 pumped to 0.96 with Bennett purification.
NOISY_LINKS = dict(
    link_attempt_success_probability=0.9,
    link_base_fidelity=0.95,
    link_target_fidelity=0.96,
    link_purification_protocol="bennett",
)
#: (bandwidth, noisy) in round order.
SHOR_CONFIGS = ((1, False), (2, False), (1, True), (2, True))

SERVICE_CLIENTS = 2
SERVICE_KINDS = ("fresh", "sweep", "resubmit", "machine")
SERVICE_FRESH_RATE = 0.004
SERVICE_SWEEP_RATES = (0.001, 0.002, 0.004, 0.008)
SERVICE_SWEEP_SHOTS = 256

#: Binomial consistency threshold (standard errors) for failure-rate checks.
CHECK_Z = 6.0


def derived_seed(seed: int, *key: object) -> int:
    """A 32-bit spec seed that depends only on the workload seed and ``key``."""
    text = json.dumps([seed, *key])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")


def logical_failure_spec(
    rate: float, shots: int, seed: int, batch_size: int = 1024, **execution
) -> ExperimentSpec:
    return ExperimentSpec(
        experiment="logical_failure",
        noise=NoiseSpec(kind="uniform", physical_rates=(rate,)),
        sampling=SamplingSpec(shots=shots, seed=seed, batch_size=batch_size),
        execution=ExecutionSpec(backend="auto", **execution),
    )


def machine_spec(seed: int, **machine) -> ExperimentSpec:
    return ExperimentSpec(
        experiment="machine_sim",
        noise=NoiseSpec(kind="technology", parameters="expected"),
        sampling=SamplingSpec(shots=0, seed=seed),
        execution=ExecutionSpec(backend="desim"),
        machine=MachineSpec(**machine),
    )


def fig7_round_specs(seed: int, round_index: int) -> tuple[list, list]:
    """(wide points, 128-shot points) of one ``fig7_curve`` round."""
    wide = [
        logical_failure_spec(
            rate, WIDE_SHOTS, derived_seed(seed, "wide", round_index, rate), WIDE_BATCH
        )
        for rate in RATES
    ]
    points = [
        logical_failure_spec(
            RATES[j % len(RATES)], POINT_SHOTS, derived_seed(seed, "point", round_index, j)
        )
        for j in range(POINTS_PER_RATE * len(RATES))
    ]
    return wide, points


def shor_specs(seed: int) -> list:
    """The four Shor-128 replays of a ``shor_replay`` round (fixed per seed)."""
    return [
        machine_spec(
            derived_seed(seed, "shor", bandwidth, noisy),
            bandwidth=bandwidth,
            **SHOR_MACHINE,
            **(NOISY_LINKS if noisy else {}),
        )
        for bandwidth, noisy in SHOR_CONFIGS
    ]


def service_sweep(seed: int, client: int, cycle: int) -> SweepSpec:
    base = ExperimentSpec(
        experiment="logical_failure",
        noise=NoiseSpec(kind="uniform", physical_rates=(SERVICE_SWEEP_RATES[0],)),
        sampling=SamplingSpec(shots=SERVICE_SWEEP_SHOTS, batch_size=SERVICE_SWEEP_SHOTS),
        execution=ExecutionSpec(backend="auto"),
    )
    return SweepSpec(
        base=base,
        axes=(SweepAxis("noise.physical_rates", tuple((r,) for r in SERVICE_SWEEP_RATES)),),
        seed=derived_seed(seed, "sweep", client, cycle),
        point_workers=2,
    )


def service_cycle_specs(seed: int, client: int, cycle: int) -> dict[str, dict]:
    """The four job documents one client submits in one cycle, by kind.

    ``resubmit`` is one grid point of the same cycle's sweep submitted again
    as a standalone experiment: its content key equals the key the sweep
    stored the point under, so the service answers it from the result cache.
    """
    sweep = service_sweep(seed, client, cycle)
    return {
        "fresh": logical_failure_spec(
            SERVICE_FRESH_RATE,
            1024,
            derived_seed(seed, "fresh", client, cycle),
            batch_size=512,
            num_shards=2,
            num_workers=2,
        ).to_dict(),
        "sweep": sweep.to_dict(),
        "resubmit": sweep.points()[cycle % len(SERVICE_SWEEP_RATES)].spec.to_dict(),
        "machine": machine_spec(
            derived_seed(seed, "machine", client, cycle),
            rows=8,
            columns=8,
            bandwidth=2,
            level=2,
            workload="toffoli_layers",
            toffolis_per_layer=21,
            workload_depth=2,
            **NOISY_LINKS,
        ).to_dict(),
    }


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def binomial_consistent(failures: int, trials: int, ref_failures: int, ref_trials: int,
                        z: float = CHECK_Z) -> bool:
    """Two-proportion test: the rates differ by at most ``z`` standard errors.

    The pooled rate is floored at one failure in the combined sample so that
    a rate of zero on both sides still has a finite standard error.
    """
    pooled = max(failures + ref_failures, 1) / (trials + ref_trials)
    stderr = math.sqrt(pooled * (1 - pooled) * (1 / trials + 1 / ref_trials))
    return abs(failures / trials - ref_failures / ref_trials) <= z * stderr


class Checks:
    """Collects check outcomes; a run is correct only if every one passed."""

    def __init__(self) -> None:
        self.failures: list[str] = []
        self.passed = 0

    def require(self, condition: bool, message: str) -> None:
        if condition:
            self.passed += 1
        else:
            self.failures.append(message)

    @property
    def ok(self) -> bool:
        return not self.failures


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


@dataclass
class Phase:
    """Samples of one untraced or traced phase."""

    traced: bool
    wall_s: float = 0.0
    batches: list[float] = field(default_factory=list)
    light: list[float] = field(default_factory=list)
    heavy: list[float] = field(default_factory=list)
    requests: list[float] = field(default_factory=list)
    jobs: list = field(default_factory=list)
    cache_hits: int = 0
    cache_lookups: int = 0


@dataclass
class WorkloadRun:
    phases: list[Phase]
    checks: Checks
    attempted: int
    failed: int
    recorder: SpanRecorder
    report: dict = field(default_factory=dict)
    #: Whether batches and light and heavy samples are fixed amounts of
    #: compute (reported as a mean) rather than job latencies (a median).
    fixed_work: bool = False

    def merged(self, traced: bool) -> Phase:
        """All untraced (or all traced) phases as one."""
        merged = Phase(traced)
        for phase in self.phases:
            if phase.traced == traced:
                merged.wall_s += phase.wall_s
                for name in ("batches", "light", "heavy", "requests", "jobs"):
                    getattr(merged, name).extend(getattr(phase, name))
                merged.cache_hits += phase.cache_hits
                merged.cache_lookups += phase.cache_lookups
        return merged


def _phase_plan(seconds: float, trace: bool) -> list[tuple[bool, float]]:
    if trace:
        return [(traced, seconds / 4) for traced in (False, True, False, True)]
    return [(False, seconds)]


def warm_up_fig7(seed: int) -> None:
    """Fill the experiment, compiled-circuit and schedule caches at every rate."""
    for rate in RATES:
        repro.api.run(
            logical_failure_spec(rate, WIDE_BATCH, derived_seed(seed, "warm", rate), WIDE_BATCH)
        )
        repro.api.run(
            logical_failure_spec(rate, POINT_SHOTS, derived_seed(seed, "warm-point", rate))
        )


def warm_up_shor(seed: int) -> None:
    """A small noisy replay through every layer the Shor replay uses."""
    repro.api.run(
        machine_spec(derived_seed(seed, "warm"), rows=5, columns=5, bandwidth=1, level=2,
                     workload="adder", workload_bits=8, **NOISY_LINKS)
    )


def _timed_run(spec):
    start = time.perf_counter()
    result = repro.api.run(spec)
    return result, time.perf_counter() - start


def run_fig7(seed: int, seconds: float, trace: bool, reference: dict) -> WorkloadRun:
    recorder = SpanRecorder()
    instrumentation = Instrumentation(recorder)
    checks = Checks()
    warm_up_fig7(seed)
    pooled = {rate: [0, 0] for rate in RATES}
    engines: set[str] = set()
    attempted = 0
    phases = []
    round_index = 0
    for traced, budget in _phase_plan(seconds, trace):
        phase = Phase(traced)
        start = time.perf_counter()
        with instrumentation.active(traced):
            while time.perf_counter() - start < budget:
                wide, points = fig7_round_specs(seed, round_index)
                curve = 0.0
                for spec in wide:
                    attempted += 1
                    result, elapsed = _timed_run(spec)
                    curve += elapsed
                    rate = spec.noise.physical_rates[0]
                    value = result.value
                    engines.add(result.engine)
                    checks.require(value.trials == WIDE_SHOTS,
                                   f"wide point p={rate} ran {value.trials} shots")
                    ref = reference["fig7_failures"][str(rate)]
                    checks.require(
                        binomial_consistent(value.failures, value.trials,
                                            ref["failures"], ref["trials"]),
                        f"wide point p={rate}: {value.failures}/{value.trials} failures "
                        f"vs reference {ref['failures']}/{ref['trials']}",
                    )
                    pooled[rate][0] += value.failures
                    pooled[rate][1] += value.trials
                    if rate == LIGHT_RATE:
                        phase.light.append(elapsed * 1e3)
                    elif rate == HEAVY_RATE:
                        phase.heavy.append(elapsed * 1e3)
                phase.batches.append(curve)
                for spec in points:
                    attempted += 1
                    result, elapsed = _timed_run(spec)
                    phase.requests.append(elapsed * 1e3)
                    engines.add(result.engine)
                    rate = spec.noise.physical_rates[0]
                    checks.require(result.value.trials == POINT_SHOTS,
                                   f"128-shot point p={rate} ran {result.value.trials} shots")
                    pooled[rate][0] += result.value.failures
                    pooled[rate][1] += result.value.trials
                round_index += 1
        phase.wall_s = time.perf_counter() - start
        phases.append(phase)
    for rate, (fails, trials) in pooled.items():
        ref = reference["fig7_failures"][str(rate)]
        checks.require(
            binomial_consistent(fails, trials, ref["failures"], ref["trials"]),
            f"pooled p={rate}: {fails}/{trials} failures vs reference "
            f"{ref['failures']}/{ref['trials']}",
        )
    run = WorkloadRun(phases, checks, attempted, 0, recorder, fixed_work=True)
    run.report = {
        "engines": sorted(engines),
        "failure_rates": {str(r): f / t for r, (f, t) in pooled.items()},
        "shots_per_round": WIDE_SHOTS * len(RATES) + POINT_SHOTS * len(points),
    }
    return run


def _shor_key(bandwidth: int, noisy: bool) -> str:
    return f"{'noisy' if noisy else 'ideal'}_bw{bandwidth}"


def run_shor(seed: int, seconds: float, trace: bool, reference: dict) -> WorkloadRun:
    recorder = SpanRecorder()
    instrumentation = Instrumentation(recorder)
    checks = Checks()
    warm_up_shor(seed)
    specs = shor_specs(seed)
    pinned = reference["shor_ideal"]
    digests: dict[str, set[str]] = {}
    makespans: dict[str, int] = {}
    attempted = 0
    phases = []
    rounds = 0
    for index, (traced, budget) in enumerate(_phase_plan(seconds, trace)):
        phase = Phase(traced)
        start = time.perf_counter()
        with instrumentation.active(traced):
            # A second round is always run so noisy replays repeat at least once.
            while time.perf_counter() - start < budget or (index == 0 and rounds < 2):
                total = 0.0
                for (bandwidth, noisy), spec in zip(SHOR_CONFIGS, specs):
                    attempted += 1
                    result, elapsed = _timed_run(spec)
                    total += elapsed
                    key = _shor_key(bandwidth, noisy)
                    value = result.value
                    expected = pinned[f"bw{bandwidth}"]
                    if noisy:
                        checks.require(
                            value["makespan_cycles"] > expected["makespan_cycles"],
                            f"{key} makespan {value['makespan_cycles']} is not above ideal "
                            f"{expected['makespan_cycles']}",
                        )
                    else:
                        for name, want in expected.items():
                            checks.require(value[name] == want,
                                           f"{key} {name}: {value[name]} != pinned {want}")
                    digests.setdefault(key, set()).add(value["trace_digest"])
                    makespans[key] = value["makespan_cycles"]
                    if (bandwidth, noisy) == (2, False):
                        phase.light.append(elapsed * 1e3)
                    elif (bandwidth, noisy) == (1, True):
                        phase.heavy.append(elapsed * 1e3)
                phase.batches.append(total)
                phase.requests.append(total * 1e3)
                rounds += 1
        phase.wall_s = time.perf_counter() - start
        phases.append(phase)
    for bandwidth in (1, 2):
        key = _shor_key(bandwidth, True)
        checks.require(len(digests[key]) == 1,
                       f"{key} replays at one seed disagree: {sorted(digests[key])}")
    run = WorkloadRun(phases, checks, attempted, 0, recorder, fixed_work=True)
    run.report = {
        "rounds": rounds,
        "makespan_cycles": makespans,
        "digests": {key: sorted(d)[0][:16] for key, d in digests.items()},
    }
    return run


@dataclass
class JobSample:
    kind: str
    latency_ms: float
    submit_ms: float
    fetch_ms: float
    document: dict
    seen_done_at: float


def _service_job(client, document: dict, kind: str) -> tuple[JobSample, dict]:
    start = time.perf_counter()
    job = client.submit(document)
    submitted = time.perf_counter()
    final = client.wait(job["id"])
    seen_done_at = time.time()
    waited = time.perf_counter()
    result = client.result(job["id"]) if final["state"] == "done" else None
    finished = time.perf_counter()
    sample = JobSample(
        kind=kind,
        latency_ms=(finished - start) * 1e3,
        submit_ms=(submitted - start) * 1e3,
        fetch_ms=(finished - waited) * 1e3,
        document=final,
        seen_done_at=seen_done_at,
    )
    return sample, result


def _run_ms(sample: JobSample) -> float:
    return (sample.document["finished_at"] - sample.document["started_at"]) * 1e3


def _check_cycle(checks: Checks, samples: list[JobSample], results: dict) -> None:
    for sample in samples:
        checks.require(sample.document["state"] == "done",
                       f"{sample.kind} job {sample.document['id']} ended "
                       f"{sample.document['state']}: {sample.document.get('error')}")
    if any(sample.document["state"] != "done" for sample in samples):
        return
    checks.require(results["fresh"]["value"]["trials"] == 1024,
                   f"fresh point ran {results['fresh']['value']['trials']} shots")
    points = results["sweep"]["points"]
    checks.require(len(points) == len(SERVICE_SWEEP_RATES)
                   and all(p["error"] is None and p["result"] is not None for p in points),
                   "sweep job has failed points")
    resubmitted = results["resubmit"]
    original = next(
        (p["result"] for p in points if p["result"] and p["result"]["spec"] == resubmitted["spec"]),
        None,
    )
    checks.require(original is not None and original["value"] == resubmitted["value"]
                   and original["seed_entropy"] == resubmitted["seed_entropy"],
                   "resubmitted sweep point differs from the sweep's result")
    checks.require(results["machine"]["value"]["makespan_cycles"] > 0,
                   "machine_sim job reports no makespan")


def run_service(seed: int, seconds: float, trace: bool, work_root: Path) -> WorkloadRun:
    from repro.service import ExperimentService, ServiceClient

    recorder = SpanRecorder()
    instrumentation = Instrumentation(recorder)
    checks = Checks()
    work_root.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="service-", dir=work_root))
    service = ExperimentService(
        db_path=work / "jobs.sqlite3", cache_dir=work / "cache", port=0, workers=1
    ).start()
    attempted = failed = 0
    phases = []
    errors: list[str] = []
    lock = threading.Lock()
    cycles = [0] * SERVICE_CLIENTS
    try:
        client = ServiceClient(service.url)
        client.healthz()
        # Warm-up: one untraced cycle outside the client numbering.
        for kind, document in service_cycle_specs(seed, -1, 0).items():
            _service_job(client, document, kind)

        def client_loop(index: int, deadline: float, phase: Phase, cycle_log: list) -> None:
            nonlocal attempted, failed
            own = ServiceClient(service.url)
            try:
                while time.perf_counter() < deadline:
                    documents = service_cycle_specs(seed, index, cycles[index])
                    cycles[index] += 1
                    cycle_start = time.perf_counter()
                    samples, results = [], {}
                    for kind in SERVICE_KINDS:
                        sample, result = _service_job(own, documents[kind], kind)
                        samples.append(sample)
                        results[kind] = result
                    cycle_s = time.perf_counter() - cycle_start
                    with lock:
                        attempted += len(samples)
                        failed += sum(s.document["state"] != "done" for s in samples)
                        _check_cycle(checks, samples, results)
                        phase.batches.append(cycle_s)
                        cycle_log.append(samples)
            except Exception as error:  # noqa: BLE001 - reported as a failed run
                with lock:
                    errors.append(f"client {index}: {type(error).__name__}: {error}")
                    attempted += 1
                    failed += 1

        for traced, budget in _phase_plan(seconds, trace):
            phase = Phase(traced)
            cycle_log: list[list[JobSample]] = []
            hits, misses = service.cache.hits, service.cache.misses
            start = time.perf_counter()
            with instrumentation.active(traced):
                threads = [
                    threading.Thread(target=client_loop,
                                     args=(i, start + budget, phase, cycle_log))
                    for i in range(SERVICE_CLIENTS)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
            phase.wall_s = time.perf_counter() - start
            samples = [sample for cycle in cycle_log for sample in cycle]
            phase.requests = [s.latency_ms for s in samples]
            # Light and heavy are the worker's execution window of the cache
            # read and of the sweep, from the job document; queueing and
            # polling show in the request latencies instead.
            phase.light = [_run_ms(s) for s in samples if s.kind == "resubmit"]
            phase.heavy = [_run_ms(s) for s in samples if s.kind == "sweep"]
            phase.jobs = samples
            phase.cache_hits = service.cache.hits - hits
            phase.cache_lookups = phase.cache_hits + service.cache.misses - misses
            phases.append(phase)
    finally:
        service.stop()
        shutil.rmtree(work, ignore_errors=True)
    for message in errors:
        checks.require(False, message)
    run = WorkloadRun(phases, checks, attempted, failed, recorder)
    jobs = sum(len(p.requests) for p in phases)
    run.report = {"jobs": jobs, "cycles": sum(cycles)}
    return run


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(run: WorkloadRun) -> dict[str, float]:
    """End-to-end metrics from the untraced phases.

    Fixed amounts of compute are reported as total time over count, the
    inverse of their throughput, which follows a host whose speed switches
    between levels more smoothly than a median does; latencies as medians.
    """
    phase = run.merged(traced=False)
    per_unit = statistics.fmean if run.fixed_work else statistics.median
    return {
        "batch_s": per_unit(phase.batches),
        "light_ms": per_unit(phase.light),
        "heavy_ms": per_unit(phase.heavy),
        "req_p50_ms": statistics.median(phase.requests),
        "req_tail_ms": tail(phase.requests)[0],
    }


def _mean_ms(totals: dict, name: str, per: float) -> float:
    entry = totals.get(name)
    return 0.0 if entry is None or per == 0 else entry["self_s"] * 1e3 / per


def per_layer(run: WorkloadRun) -> dict[str, float]:
    """Per-layer metrics from the traced phase, per batch unless named per call."""
    untraced, traced = run.merged(traced=False), run.merged(traced=True)
    batches = len(traced.batches)
    spans = run.recorder.spans
    totals = layer_totals(spans)
    counts = run.recorder.totals()

    def self_s(name: str) -> float:
        return totals.get(name, {}).get("self_s", 0.0) / batches

    def total_s(name: str) -> float:
        return totals.get(name, {}).get("total_s", 0.0) / batches

    def calls(name: str) -> float:
        return totals.get(name, {}).get("calls", 0) / batches

    run_calls = totals.get("api.run", {}).get("calls", 0)
    gets = totals.get("explore.cache_get", {}).get("calls", 0)
    puts = totals.get("explore.cache_put", {}).get("calls", 0)
    shots = counts.get("arq.shots", 0)
    demands = counts.get("network.demands", 0)
    metrics = {
        "stabilizer.execute_s": self_s("stabilizer.execute"),
        "stabilizer.execute_calls": calls("stabilizer.execute"),
        "stabilizer.lanes_per_shot": counts.get("stabilizer.lanes", 0) / shots if shots else 0.0,
        "arq.executor_runs": calls("arq.executor"),
        "arq.trial_self_s": self_s("arq.trial"),
        "api.resolve_ms": _mean_ms(totals, "api.resolve", run_calls),
        "circuits.compile_ms": _mean_ms(totals, "circuits.compile", run_calls),
        "api.run_self_ms": _mean_ms(totals, "api.run", run_calls),
        "network.schedule_s": total_s("network.schedule"),
        "network.route_calls": counts.get("network.route_calls", 0) / batches,
        "network.routes_per_demand": (
            counts.get("network.route_calls", 0) / demands if demands else 0.0
        ),
        "desim.workload_build_s": total_s("desim.workload_build"),
        "desim.event_loop_self_s": self_s("desim.event_loop"),
        "desim.events": counts.get("desim.events", 0) / batches,
        "desim.link_realize_s": total_s("desim.link_realize"),
        "desim.link_realizations": calls("desim.link_realize"),
        "explore.cache_get_ms": _mean_ms(totals, "explore.cache_get", gets),
        "explore.cache_put_ms": _mean_ms(totals, "explore.cache_put", puts),
        "explore.cache_hit_ratio": 0.0,
        "explore.sweep_s": total_s("explore.sweep"),
        "parallel.sharded_s": total_s("parallel.sharded"),
        "service.submit_ms": 0.0,
        "service.queue_wait_ms": 0.0,
        "service.run_ms": 0.0,
        "service.delivery_lag_ms": 0.0,
        "trace.overhead_frac": (
            statistics.median(traced.batches) / statistics.median(untraced.batches) - 1
        ),
    }
    samples = traced.jobs
    if samples:
        metrics["explore.cache_hit_ratio"] = (
            traced.cache_hits / traced.cache_lookups if traced.cache_lookups else 0.0
        )
        n = len(samples)
        metrics["service.submit_ms"] = sum(s.submit_ms for s in samples) / n
        metrics["service.queue_wait_ms"] = sum(
            (s.document["started_at"] - s.document["created_at"]) * 1e3 for s in samples) / n
        metrics["service.run_ms"] = sum(_run_ms(s) for s in samples) / n
        metrics["service.delivery_lag_ms"] = sum(
            (s.seen_done_at - s.document["finished_at"]) * 1e3 for s in samples) / n
        # Blocking path of a job: submit, queue wait, run, delivery lag, fetch.
        covered = (
            metrics["service.submit_ms"] + metrics["service.queue_wait_ms"]
            + metrics["service.run_ms"] + metrics["service.delivery_lag_ms"]
            + sum(s.fetch_ms for s in samples) / n
        )
        metrics["trace.blocking_coverage"] = covered / (sum(s.latency_ms for s in samples) / n)
    else:
        # Blocking path of the single-threaded loops: the api.run root spans.
        roots = [s for s in spans if s.parent_id is None and s.name == "api.run"]
        metrics["trace.blocking_coverage"] = sum(s.duration for s in roots) / traced.wall_s
    return metrics


def layer_table(run: WorkloadRun) -> list[tuple[str, int, float, float]]:
    """(span name, calls per batch, self seconds per batch, total seconds per batch)."""
    batches = len(run.merged(traced=True).batches)
    return [
        (name, entry["calls"] / batches, entry["self_s"] / batches, entry["total_s"] / batches)
        for name, entry in sorted(layer_totals(run.recorder.spans).items())
    ]
