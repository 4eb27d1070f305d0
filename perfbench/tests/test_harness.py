"""Tests of the benchmark harness itself: spans, inputs, checks.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import synthetic  # noqa: E402


class FakeClock:
    """perf_counter stand-in that advances only when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(spans.time, "perf_counter", fake)
    return fake


def test_self_time_excludes_nested_spans(clock):
    tracer = spans.Tracer()

    def leaf():
        clock.now += 2.0

    def inner():
        clock.now += 1.0
        traced_leaf()
        traced_leaf()
        clock.now += 0.5

    def outer():
        clock.now += 3.0
        traced_inner()
        clock.now += 4.0

    traced_leaf = tracer.wrap("leaf", leaf)
    traced_inner = tracer.wrap("inner", inner)
    tracer.wrap("outer", outer)()

    assert tracer.calls == {"leaf": 2, "inner": 1, "outer": 1}
    assert tracer.self_s == pytest.approx({"leaf": 4.0, "inner": 1.5, "outer": 7.0})
    assert tracer.total_s == pytest.approx({"leaf": 4.0, "inner": 5.5, "outer": 12.5})
    # Self times partition the outermost span.
    assert sum(tracer.self_s.values()) == pytest.approx(tracer.total_s["outer"])
    parents = {name: parent for name, _, _, parent in tracer.spans}
    assert parents["outer"] == 0 and parents["inner"] != 0


def test_generator_spans_nest_in_their_consumer(clock):
    tracer = spans.Tracer()

    def produce(n):
        for i in range(n):
            clock.now += 1.0
            yield i

    def consume(items):
        total = 0
        for item in items:
            clock.now += 0.25
            total += item
        return total

    items = tracer.wrap_generator("run", produce)(3)
    assert tracer.calls == {}  # creating the generator runs nothing
    assert tracer.wrap("write", consume)(items) == 3
    assert tracer.calls == {"run": 4, "write": 1}  # three items and the final StopIteration
    assert tracer.self_s == pytest.approx({"run": 3.0, "write": 0.75})


def test_span_closes_when_the_call_raises(clock):
    tracer = spans.Tracer()

    def fail():
        clock.now += 1.0
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.wrap("fail", fail)()
    assert tracer.calls == {"fail": 1} and tracer._stack == []


def test_frame_yield_counts_skipped_frames():
    tracer = spans.Tracer()
    raycast = tracer.wrap("perception.raycast", lambda: None, spans.AFTER["perception.raycast"])
    score = tracer.wrap("metrics.score", lambda: None, spans.AFTER["metrics.score"])
    raycast(); score(); score()   # scored by two methods
    raycast()                     # skipped: empty occluded region
    raycast(); score(); score()
    raycast()                     # skipped
    metrics = spans.layer_metrics(tracer, rounds=1, dataset_bytes=0, overhead_frac=0.0)
    assert metrics["cli.frame_yield"] == 0.5
    assert metrics["perception.raycast_calls"] == 4 and metrics["metrics.score_calls"] == 4


def test_layers_that_do_not_run_report_zero():
    metrics = spans.layer_metrics(spans.Tracer(), rounds=1, dataset_bytes=0, overhead_frac=0.0)
    assert set(metrics) == set(spans.LAYER_METRICS)
    assert all(value == 0 for value in metrics.values())


def test_install_wraps_every_imported_function_and_uninstall_restores():
    import occlusense.cli as cli
    from occlusense import landmark, simulator

    before = dict(vars(cli))
    method = simulator.EpisodeLog.scene_at
    patched = spans.install(spans.Tracer(), cli, {"simulator": simulator, "landmark": landmark})
    try:
        names = {attr for owner, attr, _ in patched if owner is cli}
        assert names == set(spans.SPAN_OF_FUNCTION)
        assert simulator.EpisodeLog.scene_at is not method
    finally:
        spans.uninstall(patched)
    assert dict(vars(cli)) == before
    assert simulator.EpisodeLog.scene_at is method


def test_annotations_are_byte_identical_per_seed(tmp_path):
    paths = []
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        path = tmp_path / f"{name}.jsonl"
        synthetic.write(path, synthetic.generate(seed, n_clips=3, visible_per_clip=20, occluded_per_clip=5))
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]
    assert paths[0] != paths[2]


def test_annotations_back_project_to_their_ground_points():
    from occlusense.landmark import CameraModel, bbox_to_landmark

    camera = CameraModel(**synthetic.CAMERA)
    step = synthetic.REGION["step"]
    for rec in synthetic.generate(3, n_clips=2, visible_per_clip=30, occluded_per_clip=30):
        state = bbox_to_landmark(rec["bbox"], camera).state
        assert synthetic.REGION["y_min"] <= state.y + 1e-9 and state.y - 1e-9 <= synthetic.REGION["y_max"]
        if rec["occluded"]:
            for value, low in ((state.x, synthetic.REGION["x_min"]), (state.y, synthetic.REGION["y_min"])):
                k = round((value - low) / step)
                assert abs(low + k * step - value) < 1e-9


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def _grid_round(fused: float, standard: float) -> run.Round:
    return run.Round(problems={"eval": []}, figures={"psi_fused": fused, "psi_standard": standard})


def test_fusion_claim_is_checked_over_the_run_datasets():
    workload = run.WORKLOADS["grid-default"]
    # One dataset comes out even, but the run as a whole holds the claim;
    # the closing round repeats the first dataset and is not counted twice.
    rounds = [_grid_round(1.0, 1.5), _grid_round(2.0, 2.0), _grid_round(1.0, 1.5)]
    run.check_claim(workload, rounds)
    assert all(not r.problems["eval"] for r in rounds)

    rounds = [_grid_round(2.0, 1.5), _grid_round(1.0, 1.2), _grid_round(2.0, 1.5)]
    run.check_claim(workload, rounds)
    assert all(len(r.problems["eval"]) == 1 for r in rounds)

    rounds = [_grid_round(2.0, 1.5), _grid_round(2.0, 1.5)]
    run.check_claim(run.WORKLOADS["grid-fine"], rounds)
    assert all(not r.problems["eval"] for r in rounds)
