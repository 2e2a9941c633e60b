"""Regenerate ``perfbench/reference.json``, the values the benchmark checks against.

``python3 perfbench/make_reference.py`` measures, at seeds the benchmark never
generates:

* ``fig7_failures``: logical failures of the Fig. 7 level-1 trial at every
  curve rate over :data:`REFERENCE_SHOTS` shots each, the reference rates of
  the binomial checks;
* ``shor_ideal``: the ideal-link Shor-128 replays at bandwidth 1 and 2, whose
  trace digest, makespan, stall and deferral counts must repeat exactly.

Only regenerate it for a change that is meant to alter these values, and say
so where the change is recorded.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

from run import REFERENCE, bench_environment

REFERENCE_SHOTS = 1 << 21
REFERENCE_SEED = 20261017
PINNED_FIELDS = ("trace_digest", "makespan_cycles", "stall_cycles", "epr_deferred",
                 "epr_unserved")


def main() -> None:
    env = bench_environment()
    Path(env["TMPDIR"]).mkdir(parents=True, exist_ok=True)
    os.environ.update(env)
    sys.path[:0] = os.environ["PYTHONPATH"].split(os.pathsep)
    import repro.api

    from perfbench import workloads

    failures = {}
    for rate in workloads.RATES:
        spec = workloads.logical_failure_spec(
            rate, REFERENCE_SHOTS, REFERENCE_SEED, workloads.WIDE_BATCH
        )
        value = repro.api.run(spec).value
        failures[str(rate)] = {"failures": value.failures, "trials": value.trials}
        print(rate, failures[str(rate)], flush=True)
    shor = {}
    for bandwidth in (1, 2):
        spec = workloads.machine_spec(
            REFERENCE_SEED, bandwidth=bandwidth, **workloads.SHOR_MACHINE
        )
        value = repro.api.run(spec).value
        shor[f"bw{bandwidth}"] = {name: value[name] for name in PINNED_FIELDS}
        print(bandwidth, shor[f"bw{bandwidth}"], flush=True)
    document = {
        "reference_seed": REFERENCE_SEED,
        "fig7_failures": failures,
        "shor_ideal": shor,
    }
    REFERENCE.write_text(json.dumps(document, indent=2) + "\n")


if __name__ == "__main__":
    main()
