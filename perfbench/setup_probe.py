"""One set-up of a benchmark workload in a fresh interpreter.

``python3 perfbench/setup_probe.py <workload> <seed> <work dir>`` imports the
package, loads the fused-kernel tier, warms the workload up (for
``service_mix``: boots the service until ``/healthz`` answers), prints
``ready`` and exits.  ``perfbench/run.py`` times it from process start to that
line; the environment it passes points every cache inside the checkout.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main(workload: str, seed: int, work_root: Path) -> None:
    import repro  # noqa: F401 - the import is part of what is timed
    from repro.stabilizer.fused import kernel_tier

    from perfbench import workloads

    kernel_tier()
    if workload == "fig7_curve":
        workloads.warm_up_fig7(seed)
    elif workload == "shor_replay":
        workloads.warm_up_shor(seed)
    else:
        from repro.service import ExperimentService, ServiceClient

        work_root.mkdir(parents=True, exist_ok=True)
        work = Path(tempfile.mkdtemp(prefix="setup-", dir=work_root))
        try:
            service = ExperimentService(
                db_path=work / "jobs.sqlite3", cache_dir=work / "cache", port=0, workers=1
            ).start()
            try:
                ServiceClient(service.url).healthz()
            finally:
                service.stop()
        finally:
            shutil.rmtree(work, ignore_errors=True)
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
