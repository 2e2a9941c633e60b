"""Reproduction of the Quantum Logic Array (QLA) microarchitecture.

This library re-implements the system described in

    T. S. Metodi, D. D. Thaker, A. W. Cross, F. T. Chong and I. L. Chuang,
    "A Quantum Logic Array Microarchitecture: Scalable Quantum Data Movement
    and Computation", MICRO-38, 2005 (arXiv:quant-ph/0509051)

as a set of composable Python packages: the trapped-ion QCCD substrate model,
a CHP stabilizer simulator (the core of the paper's ARQ tool), the Steane
[[7,1,3]] fault-tolerance machinery with recursion, the tile/array layout, the
teleportation + purification + repeater interconnect, the greedy EPR
scheduler, and the Shor's-algorithm resource model.  The top-level
:class:`~repro.core.machine.QLAMachine` ties everything together.

Quick start::

    from repro import QLAMachine, MachineConfiguration

    machine = QLAMachine(MachineConfiguration(num_logical_qubits=1024))
    print(machine.ecc_step_time())            # one level-2 ECC step, seconds
    print(machine.estimate_shor(128).expected_time_days)

Experiments run through the declarative API::

    from repro import ExperimentSpec, NoiseSpec, run

    result = run(ExperimentSpec(
        experiment="threshold_sweep",
        noise=NoiseSpec(kind="uniform", physical_rates=(1e-3, 2e-3)),
    ))
    print(result.value.pseudothreshold)

Design-space sweeps expand one spec over axis grids and answer repeated
points from a content-addressed on-disk cache::

    from repro import SweepAxis, SweepSpec, run_sweep

    sweep = SweepSpec(base=result.spec.with_seed(None),  # or any base spec
                      axes=(SweepAxis("sampling.shots", (1024, 4096)),))
    print(run_sweep(sweep).rows())

See ``docs/architecture.md`` for the layer map and ``docs/paper_map.md`` for
the paper-section-to-code index.
"""

__version__ = "1.10.0"

from repro.core import (
    ApplicationPerformance,
    ApplicationProfile,
    MachineConfiguration,
    QLAMachine,
    estimate_application,
)
from repro.apps import ShorResourceEstimate, ShorResourceModel, table2_rows
from repro.iontrap import CURRENT_PARAMETERS, EXPECTED_PARAMETERS, IonTrapParameters
from repro.qecc import ConcatenationModel, EccLatencyModel, SteaneCode, steane_code
from repro.stabilizer import StabilizerTableau
from repro.circuits import Circuit, Gate
from repro.teleport import ConnectionTimeModel
from repro.layout import LogicalQubitTile, level2_tile_geometry
from repro.api import (
    BackendRegistry,
    CircuitSpec,
    ExecutionSpec,
    ExperimentSpec,
    MachineSpec,
    NoiseSpec,
    RunResult,
    SamplingSpec,
    default_registry,
    run,
)
from repro.explore import (
    ResultCache,
    SweepAxis,
    SweepResult,
    SweepSpec,
    cache_key,
    pareto_front,
    reproduce_fig9,
    reproduce_table2,
    run_sweep,
    tidy_rows,
)

__all__ = [
    # unified experiment API
    "run",
    "ExperimentSpec",
    "NoiseSpec",
    "CircuitSpec",
    "SamplingSpec",
    "ExecutionSpec",
    "MachineSpec",
    "RunResult",
    "BackendRegistry",
    "default_registry",
    # design-space exploration
    "SweepSpec",
    "SweepAxis",
    "SweepResult",
    "run_sweep",
    "ResultCache",
    "cache_key",
    "tidy_rows",
    "pareto_front",
    "reproduce_table2",
    "reproduce_fig9",
    "QLAMachine",
    "MachineConfiguration",
    "ApplicationProfile",
    "ApplicationPerformance",
    "estimate_application",
    "ShorResourceModel",
    "ShorResourceEstimate",
    "table2_rows",
    "IonTrapParameters",
    "CURRENT_PARAMETERS",
    "EXPECTED_PARAMETERS",
    "SteaneCode",
    "steane_code",
    "ConcatenationModel",
    "EccLatencyModel",
    "StabilizerTableau",
    "Circuit",
    "Gate",
    "ConnectionTimeModel",
    "LogicalQubitTile",
    "level2_tile_geometry",
    "__version__",
]
