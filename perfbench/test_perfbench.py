"""Self-tests of the benchmark: span arithmetic, the tail rule, seeded specs."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import spans, workloads  # noqa: E402
from perfbench.spans import Span, SpanRecorder, self_times, tail  # noqa: E402


def _span(span_id, parent_id, start, end, name="x"):
    return Span(span_id, parent_id, 1, name, start, end)


def test_self_time_subtracts_children_once_and_clips_them():
    # root [0, 10] has children A [1, 4] and B [3, 6], which overlap, and
    # C [9, 12], which outlives it; A has a grandchild [2, 3].
    tree = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 4.0),
        _span(3, 1, 3.0, 6.0),
        _span(4, 1, 9.0, 12.0),
        _span(5, 2, 2.0, 3.0),
    ]
    own = self_times(tree)
    assert own[1] == pytest.approx(10.0 - 5.0 - 1.0)  # union [1, 6] plus [9, 10]
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(3.0)
    assert own[5] == pytest.approx(1.0)


def test_recorder_links_nested_spans_and_self_times_sum_to_the_root():
    recorder = SpanRecorder()
    with recorder.span("outer"):
        with recorder.span("middle"):
            with recorder.span("inner"):
                pass
        with recorder.span("sibling"):
            pass
    with recorder.span("second"):
        pass
    by_name = {span.name: span for span in recorder.spans}
    outer = by_name["outer"]
    assert outer.parent_id is None
    assert by_name["middle"].parent_id == outer.span_id
    assert by_name["inner"].parent_id == by_name["middle"].span_id
    assert by_name["sibling"].parent_id == outer.span_id
    assert {by_name[n].root_id for n in ("middle", "inner", "sibling")} == {outer.span_id}
    assert by_name["second"].root_id == by_name["second"].span_id
    own = self_times(recorder.spans)
    tree = [s for s in recorder.spans if s.root_id == outer.span_id]
    assert sum(own[s.span_id] for s in tree) == pytest.approx(outer.duration)
    assert all(value >= 0 for value in own.values())


@pytest.mark.parametrize(
    "n, value, percentile",
    [(100, 90, 90.0), (25, 15, 60.0), (11, 1, 100 / 11), (10, 10, 100.0), (1, 1, 100.0)],
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, value, percentile):
    samples = list(range(n, 0, -1))  # n..1, unsorted on purpose
    got, got_percentile = tail(samples)
    assert got == value
    assert got_percentile == pytest.approx(percentile)
    if n > 10:
        assert sum(sample > got for sample in samples) == 10


def _spec_digest(seed: int) -> str:
    documents = []
    for round_index in range(3):
        wide, points = workloads.fig7_round_specs(seed, round_index)
        documents += [spec.to_dict() for spec in wide + points]
    documents += [spec.to_dict() for spec in workloads.shor_specs(seed)]
    for client in range(workloads.SERVICE_CLIENTS):
        for cycle in range(3):
            documents.append(workloads.service_cycle_specs(seed, client, cycle))
    return hashlib.sha256(json.dumps(documents, sort_keys=True).encode()).hexdigest()


def test_the_seed_alone_determines_the_generated_specs():
    assert _spec_digest(7) == _spec_digest(7)
    assert _spec_digest(7) != _spec_digest(8)
    # A fresh interpreter with another hash seed generates the same specs.
    script = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]];"
        "from perfbench.test_perfbench import _spec_digest; print(_spec_digest(7))"
    )
    env = dict(os.environ, PYTHONHASHSEED="12345")
    out = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "src"), str(ROOT)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    ).stdout.strip()
    assert out == _spec_digest(7)


def test_every_generated_spec_seed_is_distinct_within_a_run():
    seeds = []
    for round_index in range(4):
        wide, points = workloads.fig7_round_specs(3, round_index)
        seeds += [spec.sampling.seed for spec in wide + points]
    assert len(seeds) == len(set(seeds))


def test_binomial_check_accepts_equal_rates_and_rejects_a_doubled_one():
    assert workloads.binomial_consistent(100, 100_000, 2000, 2_000_000)
    assert workloads.binomial_consistent(0, 16384, 874, 2_097_152)
    assert not workloads.binomial_consistent(200, 100_000, 2000, 2_000_000)


def test_instrumentation_restores_every_wrapped_callable():
    originals = [
        (owner, attribute, getattr(owner, attribute))
        for owner, attribute in (
            (spans._resolve(path), attribute) for path, attribute, *_ in spans.WRAPPED
        )
    ]
    instrumentation = spans.Instrumentation(SpanRecorder())
    with instrumentation.active():
        assert any(getattr(owner, a) is not f for owner, a, f in originals)
    assert all(getattr(owner, a) is f for owner, a, f in originals)
