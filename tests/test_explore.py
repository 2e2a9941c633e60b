"""Design-space explorer: sweep specs, expansion, execution, analysis, CLI."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.api import (
    BackendRegistry,
    ExecutionSpec,
    ExperimentSpec,
    MachineSpec,
    NoiseSpec,
    SamplingSpec,
    run,
)
from repro.api.cli import main as cli_main
from repro.exceptions import ParameterError
from repro.explore import (
    FIG9_MACHINE,
    ResultCache,
    SweepAxis,
    SweepResult,
    SweepSpec,
    pareto_front,
    point_seed,
    reproduce_fig9,
    reproduce_table2,
    resolved_engine,
    run_sweep,
    tidy_rows,
)


def machine_base(**machine_kwargs) -> ExperimentSpec:
    machine_kwargs.setdefault("rows", 6)
    machine_kwargs.setdefault("columns", 6)
    machine_kwargs.setdefault("workload", "adder")
    machine_kwargs.setdefault("workload_bits", 4)
    return ExperimentSpec(
        experiment="machine_sim",
        noise=NoiseSpec(kind="technology"),
        sampling=SamplingSpec(shots=0),
        execution=ExecutionSpec(backend="desim"),
        machine=MachineSpec(**machine_kwargs),
    )


def failure_base(shots: int = 64) -> ExperimentSpec:
    return ExperimentSpec(
        experiment="logical_failure",
        noise=NoiseSpec(kind="uniform", physical_rates=(2.0e-3,)),
        sampling=SamplingSpec(shots=shots, batch_size=64),
        execution=ExecutionSpec(backend="packed-fused"),
    )


@pytest.fixture
def cache(tmp_path) -> ResultCache:
    return ResultCache(tmp_path / "cache")


class TestSweepAxisValidation:
    def test_valid_axis_normalizes_values_to_tuples(self):
        axis = SweepAxis(path="noise.physical_rates", values=([1e-3, 2e-3], [3e-3]))
        assert axis.values == ((1e-3, 2e-3), (3e-3,))
        assert axis.section == "noise"
        assert axis.field_name == "physical_rates"

    @pytest.mark.parametrize(
        "path",
        ["bandwidth", "machine.bandwidth.extra", "warp.bandwidth", "machine.nope"],
    )
    def test_bad_paths_raise(self, path):
        with pytest.raises(ParameterError):
            SweepAxis(path=path, values=(1,))

    def test_seed_axis_is_reserved(self):
        with pytest.raises(ParameterError, match="sampling.seed"):
            SweepAxis(path="sampling.seed", values=(1, 2))

    def test_empty_and_duplicate_values_raise(self):
        with pytest.raises(ParameterError, match="at least one"):
            SweepAxis(path="machine.bandwidth", values=())
        with pytest.raises(ParameterError, match="duplicate"):
            SweepAxis(path="machine.bandwidth", values=(1, 1))

    def test_unhashable_values_raise_a_clean_error(self):
        # A JSON object as an axis value must produce a ParameterError (the
        # CLI turns those into clean messages), never a raw TypeError.
        with pytest.raises(ParameterError, match="JSON scalars or lists"):
            SweepAxis(path="machine.bandwidth", values=({"a": 1}, {"a": 2}))

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ParameterError, match="unknown sweep axis fields"):
            SweepAxis.from_dict({"path": "machine.bandwidth", "values": [1], "extra": 0})


class TestSweepSpecValidation:
    def test_base_with_pinned_seed_is_rejected(self):
        base = machine_base().with_seed(7)
        with pytest.raises(ParameterError, match="base.sampling.seed"):
            SweepSpec(base=base, axes=(SweepAxis("machine.bandwidth", (1, 2)),))

    def test_duplicate_axis_paths_raise(self):
        with pytest.raises(ParameterError, match="duplicate axis paths"):
            SweepSpec(
                base=machine_base(),
                axes=(
                    SweepAxis("machine.bandwidth", (1, 2)),
                    SweepAxis("machine.bandwidth", (4,)),
                ),
            )

    def test_invalid_point_is_rejected_at_construction(self):
        # machine.* axes on a non-machine experiment cannot produce a valid
        # point, and the sweep refuses to construct.
        with pytest.raises(ParameterError, match="not a valid experiment"):
            SweepSpec(
                base=failure_base(),
                axes=(SweepAxis("machine.bandwidth", (1, 2)),),
            )

    def test_at_least_one_axis(self):
        with pytest.raises(ParameterError, match="at least one axis"):
            SweepSpec(base=machine_base(), axes=())

    def test_negative_seed_and_workers_raise(self):
        axis = SweepAxis("machine.bandwidth", (1,))
        with pytest.raises(ParameterError, match="seed"):
            SweepSpec(base=machine_base(), axes=(axis,), seed=-1)
        with pytest.raises(ParameterError, match="point_workers"):
            SweepSpec(base=machine_base(), axes=(axis,), point_workers=-1)

    @pytest.mark.parametrize("workers", ["4", 2.5, True])
    def test_non_int_point_workers_raise_cleanly(self, workers):
        # JSON like "point_workers": "4" must produce ParameterError (the CLI
        # turns it into a clean message), never a raw TypeError -- and a float
        # must not slip through to crash ProcessPoolExecutor mid-sweep.
        axis = SweepAxis("machine.bandwidth", (1,))
        with pytest.raises(ParameterError, match="point_workers"):
            SweepSpec(base=machine_base(), axes=(axis,), point_workers=workers)


class TestSweepSerialization:
    def sweep(self) -> SweepSpec:
        return SweepSpec(
            base=machine_base(),
            axes=(
                SweepAxis("machine.bandwidth", (1, 2, 4)),
                SweepAxis("machine.level", (1, 2)),
            ),
            seed=(7, 11),
            point_workers=2,
        )

    def test_json_round_trip_is_exact(self):
        sweep = self.sweep()
        again = SweepSpec.from_json(sweep.to_json())
        assert again == sweep
        assert again.to_json() == sweep.to_json()

    def test_wire_format_carries_the_sweep_marker(self):
        data = json.loads(self.sweep().to_json())
        assert data["experiment"] == "sweep"

    def test_unknown_fields_raise(self):
        data = self.sweep().to_dict()
        data["surprise"] = 1
        with pytest.raises(ParameterError, match="unknown sweep spec fields"):
            SweepSpec.from_dict(data)

    def test_wrong_marker_raises(self):
        data = self.sweep().to_dict()
        data["experiment"] = "threshold_sweep"
        with pytest.raises(ParameterError, match="experiment='sweep'"):
            SweepSpec.from_dict(data)

    def test_physical_rates_axis_round_trips(self):
        sweep = SweepSpec(
            base=ExperimentSpec(
                experiment="threshold_sweep",
                noise=NoiseSpec(kind="uniform", physical_rates=(1e-3,)),
                sampling=SamplingSpec(shots=64, batch_size=64),
            ),
            axes=(SweepAxis("noise.physical_rates", ([1e-3, 2e-3], [3e-3, 4e-3])),),
        )
        again = SweepSpec.from_json(sweep.to_json())
        assert again == sweep


class TestExpansion:
    def test_grid_order_is_cartesian_last_axis_fastest(self):
        sweep = SweepSpec(
            base=machine_base(),
            axes=(
                SweepAxis("machine.bandwidth", (1, 2)),
                SweepAxis("machine.level", (1, 2)),
            ),
        )
        coords = [
            (p.coordinates["machine.bandwidth"], p.coordinates["machine.level"])
            for p in sweep.points()
        ]
        assert coords == [(1, 1), (1, 2), (2, 1), (2, 2)]
        assert sweep.num_points == 4

    def test_points_carry_coordinates_and_derived_seeds(self):
        sweep = SweepSpec(
            base=machine_base(),
            axes=(SweepAxis("machine.bandwidth", (1, 2)),),
            seed=7,
        )
        for point in sweep.points():
            assert point.spec.machine.bandwidth == point.coordinates["machine.bandwidth"]
            assert point.spec.sampling.seed == point_seed(7, point.coordinates)

    def test_seeds_differ_between_points_and_roots(self):
        a = point_seed(7, {"machine.bandwidth": 1})
        b = point_seed(7, {"machine.bandwidth": 2})
        c = point_seed(8, {"machine.bandwidth": 1})
        assert len({a, b, c}) == 3

    def test_growing_an_axis_preserves_existing_points(self):
        """The core incremental-sweep contract: old points keep their specs."""
        small = SweepSpec(
            base=machine_base(),
            axes=(
                SweepAxis("machine.bandwidth", (1, 2)),
                SweepAxis("machine.level", (1, 2)),
            ),
            seed=7,
        )
        grown = dataclasses.replace(
            small,
            axes=(
                SweepAxis("machine.bandwidth", (1, 2, 4)),
                SweepAxis("machine.level", (1, 2)),
            ),
        )
        old = {
            tuple(sorted(p.coordinates.items())): p.spec for p in small.points()
        }
        new = {
            tuple(sorted(p.coordinates.items())): p.spec for p in grown.points()
        }
        assert set(old) <= set(new)
        for marker, spec in old.items():
            assert new[marker] == spec

    def test_scalar_physical_rate_values_are_wrapped(self):
        sweep = SweepSpec(
            base=failure_base(),
            axes=(SweepAxis("noise.physical_rates", (1e-3, 2e-3)),),
        )
        rates = [p.spec.noise.physical_rates for p in sweep.points()]
        assert rates == [(1e-3,), (2e-3,)]

    def test_single_point_lookup_matches_grid(self):
        sweep = SweepSpec(
            base=machine_base(),
            axes=(SweepAxis("machine.bandwidth", (1, 2)),),
            seed=3,
        )
        point = sweep.point({"machine.bandwidth": 2})
        assert point == sweep.points()[1]
        with pytest.raises(ParameterError, match="coordinates must name"):
            sweep.point({"machine.level": 1})


class TestResolvedEngine:
    def test_machine_sim_resolves_to_desim(self):
        assert resolved_engine(machine_base()) == "desim"

    def test_analytic_syndrome_rate_runs_no_engine(self):
        spec = ExperimentSpec(
            experiment="syndrome_rate",
            noise=NoiseSpec(kind="technology"),
            sampling=SamplingSpec(shots=0),
        )
        assert resolved_engine(spec) == "none"

    def test_monte_carlo_specs_resolve_through_the_registry(self):
        assert resolved_engine(failure_base()) == "packed-fused"
        auto = dataclasses.replace(failure_base(), execution=ExecutionSpec(backend="auto"))
        assert resolved_engine(auto) == "packed-fused"
        scalar = dataclasses.replace(failure_base(), execution=ExecutionSpec(backend="scalar"))
        assert resolved_engine(scalar) == "scalar"

    def test_prediction_matches_what_run_records_for_every_kind(self):
        """Drift guard: cache keys embed resolved_engine, so its answer must
        equal the engine run() actually records, for every experiment kind."""
        specs = [
            machine_base(),
            failure_base(),
            dataclasses.replace(
                failure_base(), execution=ExecutionSpec(backend="auto")
            ),
            ExperimentSpec(
                experiment="syndrome_rate",
                noise=NoiseSpec(kind="technology"),
                sampling=SamplingSpec(shots=0),
            ),
            ExperimentSpec(
                experiment="syndrome_rate",
                noise=NoiseSpec(kind="technology"),
                sampling=SamplingSpec(shots=64, batch_size=64),
            ),
            ExperimentSpec(
                experiment="threshold_sweep",
                noise=NoiseSpec(kind="uniform", physical_rates=(1e-3, 2e-3)),
                sampling=SamplingSpec(shots=64, batch_size=64),
            ),
            ExperimentSpec(
                experiment="threshold_sweep",
                noise=NoiseSpec(kind="uniform", physical_rates=(1e-3, 2e-3)),
                sampling=SamplingSpec(shots=128, batch_size=64),
                execution=ExecutionSpec(backend="auto", num_shards=2),
            ),
        ]
        for spec in specs:
            assert resolved_engine(spec) == run(spec).engine, spec.experiment


class TestRunSweep:
    def test_sweep_values_match_single_point_runs(self, cache):
        sweep = SweepSpec(
            base=machine_base(),
            axes=(SweepAxis("machine.bandwidth", (1, 2)),),
            seed=7,
        )
        result = run_sweep(sweep, cache=cache)
        for point in result.points:
            direct = run(point.spec)
            assert direct.value == point.result.value
            assert direct.engine == point.result.engine

    def test_run_dispatches_sweep_specs(self, cache, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "dispatch-cache"))
        sweep = SweepSpec(
            base=machine_base(),
            axes=(SweepAxis("machine.bandwidth", (1, 2)),),
        )
        result = run(sweep)
        assert isinstance(result, SweepResult)
        assert len(result) == 2

    def test_run_rejects_a_registry_for_sweep_specs(self):
        # Sweeps execute against the process-wide registry only.
        sweep = SweepSpec(base=machine_base(), axes=(SweepAxis("machine.bandwidth", (1,)),))
        with pytest.raises(ParameterError, match="registry"):
            run(sweep, registry=BackendRegistry())

    def test_worker_count_never_changes_results(self, cache):
        """Bit-identical replay of a sweep on a different worker count."""
        sweep = SweepSpec(
            base=failure_base(shots=96),
            axes=(SweepAxis("noise.physical_rates", (1e-3, 2e-3, 4e-3)),),
            seed=11,
        )
        serial = run_sweep(sweep, use_cache=False)
        pooled = run_sweep(
            dataclasses.replace(sweep, point_workers=3), use_cache=False
        )
        assert serial.executed == pooled.executed == 3
        for a, b in zip(serial.points, pooled.points):
            assert a.result.value == b.result.value
            assert a.result.spec == b.result.spec
            assert a.cache_key == b.cache_key

    def test_sweep_result_round_trips_through_json(self, cache):
        sweep = SweepSpec(
            base=machine_base(),
            axes=(SweepAxis("machine.bandwidth", (1, 2)),),
        )
        result = run_sweep(sweep, cache=cache)
        again = SweepResult.from_json(result.to_json())
        assert again.sweep == sweep
        assert again.cache_hits == result.cache_hits
        assert [p.result.value for p in again.points] == [
            p.result.value for p in result.points
        ]

    def test_rejects_non_sweep_input(self):
        with pytest.raises(ParameterError, match="takes a SweepSpec"):
            run_sweep(machine_base())


class TestAnalysis:
    def test_tidy_rows_flatten_coordinates_and_metrics(self, cache):
        sweep = SweepSpec(
            base=machine_base(),
            axes=(SweepAxis("machine.bandwidth", (1, 2)),),
        )
        rows = run_sweep(sweep, cache=cache).rows()
        assert len(rows) == 2
        for row in rows:
            assert row["experiment"] == "machine_sim"
            assert {"machine.bandwidth", "makespan_seconds", "stall_cycles",
                    "cached", "engine"} <= set(row)

    def test_tidy_rows_for_monte_carlo_points(self, cache):
        sweep = SweepSpec(
            base=failure_base(),
            axes=(SweepAxis("noise.physical_rates", (1e-3, 2e-3)),),
        )
        rows = run_sweep(sweep, cache=cache).rows()
        for row in rows:
            assert row["trials"] == 64
            assert 0.0 <= row["failure_rate"] <= 1.0

    def test_pareto_front_keeps_non_dominated_rows(self):
        rows = [
            {"time": 1.0, "area": 9.0},   # fast but large: on the front
            {"time": 2.0, "area": 4.0},   # small but slower: on the front
            {"time": 2.0, "area": 5.0},   # dominated by the second row
            {"time": 3.0, "area": 9.0},   # dominated by the first row
        ]
        front = pareto_front(rows, minimize=("time", "area"))
        assert front == rows[:2]

    def test_pareto_front_maximize_and_errors(self):
        rows = [{"rate": 0.1, "shots": 10}, {"rate": 0.2, "shots": 10}]
        assert pareto_front(rows, minimize=("rate",), maximize=("shots",)) == [rows[0]]
        with pytest.raises(ParameterError, match="at least one objective"):
            pareto_front(rows)
        with pytest.raises(ParameterError, match="named twice"):
            pareto_front(rows, minimize=("rate",), maximize=("rate",))
        with pytest.raises(ParameterError, match="missing objective"):
            pareto_front(rows, minimize=("nope",))


# Pins exact cache accounting (hits/misses/cached flags), which
# injected corruption legitimately changes: run fault-free even
# under the CI chaos profile.
@pytest.mark.no_chaos
class TestPaperDrivers:
    def test_reproduce_table2_matches_published_values(self):
        rows = reproduce_table2()
        assert [row["bits"] for row in rows] == [128, 512, 1024, 2048]
        for row in rows:
            assert row["rel_err_logical_qubits"] < 0.02
            assert row["rel_err_toffoli_gates"] < 0.02
            assert row["rel_err_time_days"] < 0.10

    def test_reproduce_fig9_runtime_decreases_with_bandwidth(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "fig9-cache"))
        rows = reproduce_fig9()
        assert [row["machine.bandwidth"] for row in rows] == [1, 2, 4]
        makespans = [row["makespan_seconds"] for row in rows]
        stalls = [row["stall_cycles"] for row in rows]
        # The paper's trend: runtime decreases monotonically with bandwidth
        # (strictly from one lane to two, which already overlaps all
        # communication), and stalls fall to zero.
        assert makespans[0] > makespans[1] >= makespans[2]
        assert stalls[0] > stalls[1] > stalls[2] == 0
        # Re-running the driver is a pure cache replay with identical rows.
        again = reproduce_fig9()
        assert all(row["cached"] for row in again)
        assert [row["makespan_seconds"] for row in again] == makespans

    def test_fig9_machine_is_a_valid_machine_spec(self):
        assert MachineSpec(**FIG9_MACHINE).workload == "adder"


# Pins exact cache accounting (hits/misses/cached flags), which
# injected corruption legitimately changes: run fault-free even
# under the CI chaos profile.
@pytest.mark.no_chaos
class TestSweepCli:
    def test_design_space_example_prints_a_valid_sweep(self, capsys):
        assert cli_main(["--example", "design_space"]) == 0
        sweep = SweepSpec.from_json(capsys.readouterr().out)
        assert sweep.num_points == 6

    def test_cli_runs_a_sweep_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cli-cache"))
        sweep = SweepSpec(
            base=machine_base(),
            axes=(SweepAxis("machine.bandwidth", (1, 2)),),
        )
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(sweep.to_json())
        out_path = tmp_path / "result.json"
        assert cli_main([str(spec_path), "-o", str(out_path), "--quiet"]) == 0
        payload = json.loads(out_path.read_text())
        assert payload["cache_misses"] == 2
        # A second CLI run of the same file answers entirely from the cache.
        assert cli_main([str(spec_path), "--quiet"]) == 0
        assert cli_main([str(spec_path), "-o", str(out_path), "--quiet"]) == 0
        payload = json.loads(out_path.read_text())
        assert payload["cache_hits"] == 2 and payload["cache_misses"] == 0

    def test_cli_no_cache_bypasses_the_store(self, tmp_path, capsys, monkeypatch):
        cache_dir = tmp_path / "untouched"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
        sweep = SweepSpec(
            base=machine_base(),
            axes=(SweepAxis("machine.bandwidth", (1,)),),
        )
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(sweep.to_json())
        assert cli_main([str(spec_path), "--quiet", "--no-cache"]) == 0
        assert not cache_dir.exists()

    def test_help_lists_kinds_examples_and_backends(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["--help"])
        text = capsys.readouterr().out
        for kind in ("threshold_sweep", "machine_sim", "sweep"):
            assert kind in text
        for backend in ("scalar", "packed-fused", "sharded", "desim"):
            assert backend in text
        assert "design_space" in text
