"""The repository benchmark: one command, three workloads, checked outputs.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig7_curve --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with no tracing;
``--trace 1`` runs the same workload in alternating untraced and traced
quarters and prints the per-layer metrics.  ``perfbench/README.md`` defines
every metric.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; a human-readable report
comes before it.  Every run is also appended, with its provenance, to
``perfbench/trajectory.jsonl``.

The run exits 1 when an output check fails and 2 when the package sources
are missing, without printing a result.  Every cache and temporary file the
program would write (the fused-kernel build, the result cache, the service
database) is pointed into ``.bench_build/perfbench`` inside the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".bench_build" / "perfbench"
TRAJECTORY = BENCH_DIR / "trajectory.jsonl"
REFERENCE = BENCH_DIR / "reference.json"
WORKLOADS = ("fig7_curve", "shor_replay", "service_mix")
#: Fresh-interpreter set-ups timed per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "batch_s": "s",
    "light_ms": "ms",
    "heavy_ms": "ms",
    "req_p50_ms": "ms",
    "req_tail_ms": "ms",
}

PER_LAYER_UNITS = {
    "stabilizer.execute_s": "s",
    "stabilizer.execute_calls": "count",
    "stabilizer.lanes_per_shot": "ratio",
    "arq.executor_runs": "count",
    "arq.trial_self_s": "s",
    "api.resolve_ms": "ms",
    "circuits.compile_ms": "ms",
    "api.run_self_ms": "ms",
    "network.schedule_s": "s",
    "network.route_calls": "count",
    "network.routes_per_demand": "ratio",
    "desim.workload_build_s": "s",
    "desim.event_loop_self_s": "s",
    "desim.events": "count",
    "desim.link_realize_s": "s",
    "desim.link_realizations": "count",
    "explore.cache_get_ms": "ms",
    "explore.cache_put_ms": "ms",
    "explore.cache_hit_ratio": "ratio",
    "explore.sweep_s": "s",
    "parallel.sharded_s": "s",
    "service.submit_ms": "ms",
    "service.queue_wait_ms": "ms",
    "service.run_ms": "ms",
    "service.delivery_lag_ms": "ms",
    "trace.overhead_frac": "ratio",
    "trace.blocking_coverage": "ratio",
}

#: Share of wall time the blocking-path spans must account for (see README).
COVERAGE_TOLERANCE = 0.10


def bench_environment() -> dict[str, str]:
    """The process environment for the program and every set-up probe."""
    env = dict(os.environ)
    for name in ("REPRO_FAULTS", "REPRO_FUSED_KERNEL"):
        env.pop(name, None)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["REPRO_FUSED_CACHE"] = str(WORK_ROOT / "fused-kernel")
    env["REPRO_CACHE_DIR"] = str(WORK_ROOT / "result-cache")
    env["REPRO_SERVICE_DB"] = str(WORK_ROOT / "service.sqlite3")
    env["TMPDIR"] = str(WORK_ROOT / "tmp")
    return env


def measure_setup(workload: str, seed: int, env: dict[str, str]) -> list[float]:
    """Seconds from spawning a fresh interpreter until the workload is ready."""
    samples = []
    command = [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed),
               str(WORK_ROOT)]
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(command, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as probe:
            try:
                line = probe.stdout.readline()
                elapsed = time.perf_counter() - start
                probe.communicate(timeout=SETUP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                probe.kill()
                probe.communicate()
                raise
        if line.strip() != "ready" or probe.returncode != 0:
            raise RuntimeError(f"set-up probe for {workload} failed (exit {probe.returncode})")
        samples.append(elapsed)
    return samples


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".c"):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance() -> dict:
    import numpy

    from repro import __version__
    from repro.stabilizer.fused import kernel_tier

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    return {
        "git_sha": sha,
        "source_sha256": _source_digest(),
        "library_version": __version__,
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_tier": kernel_tier(),
        "unix_time": time.time(),
    }


def _print_report(workload: str, run, e2e: dict, layers: dict | None, setup: list[float]) -> None:
    from perfbench import workloads
    from perfbench.spans import tail

    phase = run.merged(traced=False)
    lines = [f"== {workload}: {run.attempted} attempted, {run.failed} failed, "
             f"{run.checks.passed} checks passed, {len(run.checks.failures)} failed"]
    for message in run.checks.failures[:20]:
        lines.append(f"   CHECK FAILED: {message}")
    lines.append(f"   setup_s samples: {', '.join(f'{s:.3f}' for s in setup)}")
    named = {"setup_s": (e2e["setup_s"], "s"), "peak_rss_mb": (e2e["peak_rss_mb"], "MB"),
             "failed_frac": (run.failed / run.attempted, "ratio")}
    if workload == "fig7_curve":
        named["curve_s"] = (e2e["batch_s"], "s")
        named["shots_per_s_p002"] = (workloads.WIDE_SHOTS / (e2e["light_ms"] / 1e3), "1/s")
        named["shots_per_s_p016"] = (workloads.WIDE_SHOTS / (e2e["heavy_ms"] / 1e3), "1/s")
        named["point128_p50_ms"] = (e2e["req_p50_ms"], "ms")
        named["point128_tail_ms"] = (e2e["req_tail_ms"], "ms")
    elif workload == "shor_replay":
        named["replay_s"] = (e2e["batch_s"], "s")
    else:
        named["job_p50_ms"] = (e2e["req_p50_ms"], "ms")
        named["job_tail_ms"] = (e2e["req_tail_ms"], "ms")
        named["jobs_per_s"] = (len(phase.requests) / phase.wall_s, "1/s")
    for name, (value, unit) in named.items():
        lines.append(f"   {name:<28} {value:>14.6g} {unit}")
    _, percentile = tail(phase.requests)
    lines.append(f"   (tail = p{percentile:.1f} of {len(phase.requests)} requests; "
                 f"{len(phase.batches)} batches; {len(phase.light)} light, "
                 f"{len(phase.heavy)} heavy samples)")
    for key, value in run.report.items():
        lines.append(f"   {key}: {value}")
    if layers is not None:
        from perfbench.workloads import layer_table

        lines.append("   layer spans per batch (traced quarters): calls, self s, total s")
        for name, calls, own, total in layer_table(run):
            lines.append(f"     {name:<24} {calls:>10.1f} {own:>10.4f} {total:>10.4f}")
        coverage = layers["trace.blocking_coverage"]
        verdict = "within" if abs(coverage - 1) <= COVERAGE_TOLERANCE else "OUTSIDE"
        lines.append(f"   blocking-path self times cover {coverage:.3f} of wall time "
                     f"({verdict} {COVERAGE_TOLERANCE:.0%})")
        lines.append(f"   tracing overhead on batch_s: {layers['trace.overhead_frac']:+.2%}")
    print("\n".join(lines), flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = bench_environment()
    Path(env["TMPDIR"]).mkdir(parents=True, exist_ok=True)
    os.environ.clear()
    os.environ.update(env)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import repro
    from repro.stabilizer.fused import kernel_tier

    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: imported repro from {repro.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    kernel_tier()  # builds the C kernel into the work directory on first use

    from perfbench import workloads

    reference = json.loads(REFERENCE.read_text())
    setup = measure_setup(args.workload, args.seed, env)
    trace = bool(args.trace)
    if args.workload == "fig7_curve":
        run = workloads.run_fig7(args.seed, args.seconds, trace, reference)
    elif args.workload == "shor_replay":
        run = workloads.run_shor(args.seed, args.seconds, trace, reference)
    else:
        run = workloads.run_service(args.seed, args.seconds, trace, WORK_ROOT / "service")

    e2e = {"setup_s": statistics.median(setup),
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    e2e.update(workloads.end_to_end(run))
    layers = workloads.per_layer(run) if trace else None
    _print_report(args.workload, run, e2e, layers, setup)

    values, units = (layers, PER_LAYER_UNITS) if trace else (e2e, END_TO_END_UNITS)
    result = {
        "correct": run.checks.ok,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(),
        "end_to_end": e2e,
        "per_layer": layers,
        "check_failures": run.checks.failures,
        "phases": [
            {"traced": phase.traced, "wall_s": phase.wall_s, "batches_s": phase.batches,
             "light_ms": phase.light, "heavy_ms": phase.heavy, "requests": len(phase.requests)}
            for phase in run.phases
        ],
        "result": result,
    }
    with TRAJECTORY.open("a") as stream:
        stream.write(json.dumps(record) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if run.checks.ok else 1


if __name__ == "__main__":
    sys.exit(main())
