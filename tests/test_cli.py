"""End-to-end tests of the command-line pipeline.

Commands are driven through ``main(argv)`` so exit codes and manifests are
exercised exactly as a shell user would see them, without subprocess overhead.
"""

import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import occlusense
from occlusense.cli import config_from_mapping, main, parse_flat_config, split_episodes
from occlusense.errors import ConfigError
from occlusense.landmark import LogitModel, bbox_to_landmark, posterior_over_region, save_logit_model
from occlusense.metrics import PairScore
from oracles import looped_similarity_summary

CAMERA = {"fx": 500.0, "fy": 500.0, "cx": 320.0, "cy": 240.0, "height_m": 1.5}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def manifest(out: Path, command: str) -> dict:
    return json.loads((out / f"manifest_{command}.json").read_text())


def write_jsonl(path: Path, records) -> Path:
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


# ---------------------------------------------------------------------------
# flat config parsing
# ---------------------------------------------------------------------------

def test_parse_flat_config_skips_comments_and_blanks():
    text = "\n# full-line comment\nseed = 4   # trailing comment\n\nmode = grid\n"
    assert parse_flat_config(text) == {"seed": "4", "mode": "grid"}


@pytest.mark.parametrize("bad", ["seed 4", "= 4", "seed =", "seed = 1\nseed = 2"])
def test_parse_flat_config_rejects_malformed(bad):
    with pytest.raises(ConfigError):
        parse_flat_config(bad)


def test_config_mapping_applies_values():
    cfg = config_from_mapping({
        "mode": "landmark",
        "seed": "17",
        "grid.width": "4",
        "sim.d0_range": "30, 40",
        "eval.methods": "standard, truth",
        "eval.region": "occluded",
        "region.step": "1.0",
    })
    assert cfg.mode == "landmark"
    assert cfg.seed == 17
    assert cfg.grid_width == 4
    assert cfg.scenario.d0_range == (30.0, 40.0)
    assert cfg.eval_methods == ("standard", "truth")
    assert cfg.eval_region == "occluded"
    assert cfg.region_step == 1.0


@pytest.mark.parametrize("mapping", [
    {"nope": "1"},
    {"sim.nope": "1"},
    {"camera.zoom": "2"},
    {"mode": "sideways"},
    {"eval.methods": "standard, psychic"},
    {"logit.stopped_speed": "0.3"},
    {"logit.accel": "0.5"},
    {"logit.fast_speed": "4.0"},
    {"logit.tol": "1e-9"},
])
def test_config_mapping_rejects_unknown(mapping):
    with pytest.raises(ConfigError):
        config_from_mapping(mapping)


def test_config_camera_must_be_complete():
    with pytest.raises(ConfigError, match="camera"):
        config_from_mapping({"camera.fx": "500"})
    with pytest.raises(ConfigError, match="focal"):
        config_from_mapping({f"camera.{k}": "0" if k == "fx" else str(v) for k, v in CAMERA.items()})
    for key in CAMERA:
        with pytest.raises(ConfigError, match="finite"):
            config_from_mapping({f"camera.{k}": "nan" if k == key else str(v) for k, v in CAMERA.items()})
    cfg = config_from_mapping({f"camera.{k}": str(v) for k, v in CAMERA.items()})
    assert cfg.camera_fallback is not None
    assert cfg.camera_fallback.fx == 500.0


# ---------------------------------------------------------------------------
# train/eval split
# ---------------------------------------------------------------------------

def test_split_sizes_and_partition():
    train, eval_ = split_episodes(1000, 0.2, seed=7)
    assert len(train) == 200 and len(eval_) == 800
    assert set(train).isdisjoint(eval_)
    assert sorted(np.concatenate([train, eval_])) == list(range(1000))
    assert list(train) == sorted(train) and list(eval_) == sorted(eval_)


def test_split_is_deterministic_per_seed():
    a = split_episodes(50, 0.2, seed=3)
    b = split_episodes(50, 0.2, seed=3)
    c = split_episodes(50, 0.2, seed=4)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert not np.array_equal(a[0], c[0])


def test_split_clamps_to_leave_both_sides_nonempty():
    train, eval_ = split_episodes(10, 0.001, seed=0)
    assert len(train) == 1 and len(eval_) == 9
    train, eval_ = split_episodes(10, 0.999, seed=0)
    assert len(train) == 9 and len(eval_) == 1


@pytest.mark.parametrize("n,split", [(10, 0.0), (10, 1.0), (1, 0.2)])
def test_split_validation(n, split):
    with pytest.raises(ConfigError):
        split_episodes(n, split, seed=0)


# ---------------------------------------------------------------------------
# usage and config errors
# ---------------------------------------------------------------------------

def test_usage_errors_exit_1(tmp_path):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["train"]) == 1  # --dataset is required
    assert main(["ingest", "--out", str(tmp_path / "out")]) == 1  # at least one annotation file
    assert not (tmp_path / "out").exists()


def test_unknown_config_key_exits_1_without_manifest(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("definitely_not_a_key = 1\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--episodes", "1"]) == 1
    assert not (out / "manifest_simulate.json").exists()


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_writes_dataset_and_manifest(tmp_path):
    out = tmp_path / "run"
    assert main(["simulate", "--episodes", "4", "--seed", "3", "--out", str(out)]) == 0
    doc = manifest(out, "simulate")
    assert doc["status"] == "ok"
    assert doc["error"] is None
    assert doc["command"] == "simulate"
    assert doc["seed"] == 3
    assert doc["counters"]["episodes"] == 4
    assert doc["outputs"]["dataset.jsonl"] == sha256(out / "dataset.jsonl")


def test_simulate_reruns_are_byte_identical(tmp_path):
    args = ["simulate", "--episodes", "6", "--seed", "21"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    assert main(["simulate", "--episodes", "6", "--seed", "22", "--out", str(tmp_path / "c")]) == 0
    assert sha256(tmp_path / "a" / "dataset.jsonl") == sha256(tmp_path / "b" / "dataset.jsonl")
    assert sha256(tmp_path / "a" / "dataset.jsonl") != sha256(tmp_path / "c" / "dataset.jsonl")


def test_simulate_zero_episodes_fails_but_writes_manifest(tmp_path):
    out = tmp_path / "run"
    assert main(["simulate", "--episodes", "0", "--out", str(out)]) == 1
    doc = manifest(out, "simulate")
    assert doc["status"] == "failed"
    assert "at least 1" in doc["error"]


def test_flag_overrides_beat_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"seed = 5\nout_dir = {tmp_path / 'ignored'}\nsim.n_episodes = 9\n")
    out = tmp_path / "flagged"
    assert main(["simulate", "--config", str(cfg), "--seed", "9", "--out", str(out),
                 "--episodes", "2"]) == 0
    doc = manifest(out, "simulate")
    assert doc["seed"] == 9
    assert doc["counters"]["episodes"] == 2
    assert not (tmp_path / "ignored").exists()
    # The override changes the generated data, not just the metadata.
    plain = tmp_path / "plain"
    assert main(["simulate", "--seed", "9", "--episodes", "2", "--out", str(plain)]) == 0
    assert sha256(out / "dataset.jsonl") == sha256(plain / "dataset.jsonl")


# ---------------------------------------------------------------------------
# grid pipeline: simulate -> train -> eval
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def grid_run(tmp_path_factory):
    """A small simulated dataset with trained behavior models alongside it."""
    out = tmp_path_factory.mktemp("grid_run")
    assert main(["simulate", "--episodes", "10", "--seed", "11", "--out", str(out)]) == 0
    assert main(["train", "--dataset", str(out / "dataset.jsonl"),
                 "--seed", "11", "--out", str(out)]) == 0
    return out


def test_train_grid_outputs(grid_run):
    doc = manifest(grid_run, "train")
    assert doc["status"] == "ok"
    assert doc["counters"]["episodes_total"] == 10
    assert doc["counters"]["episodes_train"] == 2
    assert doc["counters"]["episodes_eval"] == 8
    assert doc["counters"]["training_samples"] >= 10
    assert doc["counters"]["kmeans_iterations"] >= 2
    assert doc["counters"]["kmeans_stop_reason"] == "converged"
    assert str(grid_run / "dataset.jsonl") in doc["inputs"]
    for name in ("actionlets.json", "likelihoods.json"):
        assert (grid_run / name).exists()
        assert doc["outputs"][name] == sha256(grid_run / name)


def test_train_grid_holds_no_stack_of_training_maps(tmp_path):
    """At 0.125 m the (N, n_cells) uint8 stack of training maps is 16 times
    the (N, 21) float feature rows; train counts each episode's maps as it
    makes them, so its traced peak stays below that stack.  Holding the
    stack, plus the list it was joined from, peaked at about 19 MB here."""
    cfg = tmp_path / "fine.cfg"
    cfg.write_text("grid.width = 48\ngrid.height = 56\ngrid.resolution = 0.125\ntrain.split = 0.8\n")
    common = ["--config", str(cfg), "--seed", "5", "--out", str(tmp_path)]
    assert main(["simulate", "--episodes", "20", *common]) == 0
    tracemalloc.start()
    try:
        assert main(["train", "--dataset", str(tmp_path / "dataset.jsonl"), *common]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = manifest(tmp_path, "train")["counters"]["training_samples"]
    stack = n * 48 * 56
    assert stack >= 10 * n * 21 * 8
    assert peak < stack


def test_eval_imports_no_numpy_ma(grid_run, tmp_path):
    """``np.median`` imports ``numpy.ma`` (about 14 ms and 1 MB per process);
    no grid stage needs it."""
    argv = ["eval", "--dataset", str(grid_run / "dataset.jsonl"), "--models", str(grid_run),
            "--seed", "11", "--out", str(tmp_path)]
    code = ("import sys; from occlusense.cli import main; "
            f"assert main({argv!r}) == 0; print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))")
    env = dict(os.environ, PYTHONPATH=str(Path(occlusense.__file__).parent.parent))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert run.stdout.splitlines()[-1] == "[]"


def test_train_missing_dataset_exits_2(tmp_path):
    out = tmp_path / "out"
    assert main(["train", "--dataset", str(tmp_path / "nope.jsonl"), "--out", str(out)]) == 2
    assert manifest(out, "train")["status"] == "failed"


def test_eval_grid_scores_all_methods(grid_run, tmp_path):
    cfg = tmp_path / "eval.cfg"
    cfg.write_text("eval.methods = standard, fused, truth\neval.stride = 6\neval.n_beams = 120\n")
    out = tmp_path / "eval"
    assert main(["eval", "--dataset", str(grid_run / "dataset.jsonl"), "--models", str(grid_run),
                 "--config", str(cfg), "--seed", "11", "--out", str(out)]) == 0

    with open(out / "eval_frames.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["episode", "t", "method", "psi",
                       "d_ab_free", "d_ab_occ", "d_ba_free", "d_ba_occ"]
    methods_seen = {r[2] for r in rows[1:]}
    assert methods_seen == {"standard", "fused", "truth"}
    for r in rows[1:]:
        psi, parts = float(r[3]), [float(v) for v in r[4:8]]
        assert psi == math.fsum(parts)  # repr round-trips, so this is exact
        assert psi >= 0.0
        if r[2] == "truth":
            assert psi == 0.0  # the truth map scored against itself

    summary = json.loads((out / "eval_summary.json").read_text())
    assert set(summary["methods"]) == {"standard", "fused", "truth"}
    assert summary["methods"]["truth"]["psi_mean"] == 0.0
    assert summary["region"] == "full"
    doc = manifest(out, "eval")
    assert doc["status"] == "ok"
    assert doc["counters"]["psi_mean_truth"] == 0.0
    assert doc["counters"]["psi_mean_standard"] == summary["methods"]["standard"]["psi_mean"]


def test_eval_standard_only_needs_no_models(grid_run, tmp_path):
    cfg = tmp_path / "eval.cfg"
    cfg.write_text("eval.methods = standard\neval.region = occluded\n"
                   "eval.stride = 12\neval.n_beams = 120\n")
    out = tmp_path / "eval"
    assert main(["eval", "--dataset", str(grid_run / "dataset.jsonl"),
                 "--config", str(cfg), "--seed", "11", "--out", str(out)]) == 0
    with open(out / "eval_frames.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert rows and all(r[2] == "standard" for r in rows)
    assert json.loads((out / "eval_summary.json").read_text())["region"] == "occluded"


@pytest.mark.parametrize("region", ["full", "occluded"])
def test_eval_grid_with_no_frame_to_score_exits_2(tmp_path, region):
    """Every episode ends before the 0.5 s feature window fills: eval
    scores nothing, so it fails and commits no artifact."""
    cfg = tmp_path / "short.cfg"
    cfg.write_text(f"sim.duration_range = 0.4, 0.4\neval.methods = standard\neval.region = {region}\n")
    out = tmp_path / "out"
    assert main(["simulate", "--episodes", "4", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["eval", "--dataset", str(out / "dataset.jsonl"), "--config", str(cfg), "--out", str(out)]) == 2
    doc = manifest(out, "eval")
    assert doc["status"] == "failed"
    assert "no eval frame to score" in doc["error"]
    assert doc["outputs"] == {}
    assert sorted(p.name for p in out.iterdir()) == ["dataset.jsonl", "manifest_eval.json", "manifest_simulate.json"]


#: Values whose text tests the CSV's float form: zero, a small and a decimal
#: fraction, integers, a long fraction, exponent form and a subnormal.
EDGE_VALUES = [0.0, 1e-05, 0.1, 2.0, 7.0, 1.0 / 3.0, 1e16, 5e-324]


def test_eval_frames_match_the_per_row_writer(grid_run, tmp_path, monkeypatch):
    """All three methods on occluded cells, with edge values among the scores:
    the CSV holds one ``writerow`` of each value's ``repr`` per scored frame
    and method, and the summary is the per-episode loop's."""
    import occlusense.cli as cli

    read, anchor, score = cli.read_episodes, cli.anchored_spec_at, cli.score_pair
    logs, episodes, calls = [], [], []  # episodes: (index, frame times); calls: (episode, scores, scored)

    def reading(records, path):
        logs.extend(read(records, path))
        return logs

    def anchoring(template, log, frames):
        episodes.append((next(i for i, other in enumerate(logs) if other is log), log.t[frames].tolist()))
        return anchor(template, log, frames)

    def scoring(predicted, truth, mask):
        s = score(predicted, truth, mask)
        f = sum(len(c[1].psi) for c in calls) + np.arange(len(s.psi))
        edge = np.array(EDGE_VALUES)[f % len(EDGE_VALUES)]
        psi = np.where(f % 2, np.array(EDGE_VALUES)[f // 2 % len(EDGE_VALUES)], s.psi)  # odd frames
        s = PairScore(edge, s.d_ab_occ, edge[::-1], s.d_ba_occ, psi)
        calls.append((episodes[-1], s, mask.any(axis=1)))
        return s

    monkeypatch.setattr("occlusense.cli.read_episodes", reading)
    monkeypatch.setattr("occlusense.cli.anchored_spec_at", anchoring)
    monkeypatch.setattr("occlusense.cli.score_pair", scoring)
    cfg = tmp_path / "eval.cfg"
    cfg.write_text("eval.methods = standard, fused, truth\neval.region = occluded\n"
                   "eval.stride = 6\neval.n_beams = 120\n")
    out = tmp_path / "eval"
    assert main(["eval", "--dataset", str(grid_run / "dataset.jsonl"), "--models", str(grid_run),
                 "--config", str(cfg), "--seed", "11", "--out", str(out)]) == 0

    methods = ("standard", "fused", "truth")
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["episode", "t", "method", "psi", "d_ab_free", "d_ab_occ", "d_ba_free", "d_ba_occ"])
    series = {m: [] for m in methods}
    for i in range(0, len(calls), len(methods)):
        (ep, times), _, scored = calls[i]
        rows = {m: np.column_stack((s.psi, s.d_ab_free, s.d_ab_occ, s.d_ba_free, s.d_ba_occ)).tolist()
                for m, (_, s, _) in zip(methods, calls[i:i + len(methods)])}
        kept = np.flatnonzero(scored)
        for k in kept:
            for method, scores in rows.items():
                writer.writerow([int(ep), repr(times[k]), method, *map(repr, scores[k])])
        for method, scores in rows.items():
            series[method].append([(times[k], scores[k][0]) for k in kept])
    assert (out / "eval_frames.csv").read_bytes() == expected.getvalue().encode()

    with open(out / "eval_frames.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len({r[0] for r in rows}) >= 2 and [r[2] for r in rows[:3]] == list(methods)
    for column in (3, 4, 6):  # psi, d_ab_free and d_ba_free
        assert {repr(v) for v in EDGE_VALUES} <= {r[column] for r in rows}
    summary = json.loads((out / "eval_summary.json").read_text())
    assert summary["methods"] == {m: looped_similarity_summary(series[m]) for m in methods}


def test_eval_fused_without_models_exits_1(grid_run, tmp_path):
    out = tmp_path / "eval"
    code = main(["eval", "--dataset", str(grid_run / "dataset.jsonl"),
                 "--seed", "11", "--out", str(out)])
    assert code == 1
    assert manifest(out, "eval")["status"] == "failed"


def test_eval_unreadable_models_exit_2(grid_run, tmp_path):
    empty = tmp_path / "models"
    empty.mkdir()
    out = tmp_path / "eval"
    assert main(["eval", "--dataset", str(grid_run / "dataset.jsonl"), "--models", str(empty),
                 "--seed", "11", "--out", str(out)]) == 2


@pytest.mark.parametrize("extra_actionlets", [1, -1])
def test_eval_rejects_models_that_do_not_belong_together(grid_run, tmp_path, extra_actionlets):
    models = tmp_path / "models"
    models.mkdir()
    (models / "likelihoods.json").write_bytes((grid_run / "likelihoods.json").read_bytes())
    doc = json.loads((grid_run / "actionlets.json").read_text())
    centroids = doc["centroids"]
    doc["centroids"] = centroids + centroids[:1] if extra_actionlets > 0 else centroids[:-1]
    doc["k"] += extra_actionlets
    (models / "actionlets.json").write_text(json.dumps(doc))
    out = tmp_path / "eval"
    assert main(["eval", "--dataset", str(grid_run / "dataset.jsonl"), "--models", str(models),
                 "--seed", "11", "--out", str(out)]) == 2
    assert f"k={doc['k']}" in manifest(out, "eval")["error"]


@pytest.mark.parametrize("defect", ["nan_likelihood", "zero_action", "nan_centroid"])
def test_eval_rejects_non_finite_or_degenerate_models_with_exit_2(grid_run, tmp_path, defect):
    """A likelihood table that fails validation, or an actionlet model with a
    NaN centroid, is refused at load time as bad input data."""
    models = tmp_path / "models"
    models.mkdir()
    docs = {name: json.loads((grid_run / name).read_text()) for name in ("actionlets.json", "likelihoods.json")}
    if defect == "nan_likelihood":
        docs["likelihoods.json"]["entries"][3][1][0] = math.nan
    elif defect == "zero_action":
        for cell in docs["likelihoods.json"]["entries"]:
            cell[2] = [0.0, 0.0]
    else:
        docs["actionlets.json"]["centroids"][1][4] = math.nan
    for name, doc in docs.items():
        (models / name).write_text(json.dumps(doc))  # NaN is written as NaN, which json.load reads
    out = tmp_path / "eval"
    assert main(["eval", "--dataset", str(grid_run / "dataset.jsonl"), "--models", str(models),
                 "--seed", "11", "--out", str(out)]) == 2
    error = manifest(out, "eval")["error"]
    assert error.startswith("cannot load behavior models")
    assert ("must be finite" if defect == "nan_centroid" else "must sum to 1") in error
    assert sorted(p.name for p in out.iterdir()) == ["manifest_eval.json"]


@pytest.mark.parametrize("name", ["actionlets.json", "likelihoods.json", "logit.json"])
def test_eval_refuses_a_model_file_of_another_schema_version(grid_run, tmp_path, name):
    models = tmp_path / "models"
    models.mkdir()
    if name == "logit.json":
        dataset, mode = landmark_dataset(tmp_path), "landmark"
        save_logit_model(LogitModel(np.zeros((5, 4)), reg=0.01), str(models / name))
    else:
        dataset, mode = grid_run / "dataset.jsonl", "grid"
        for other in ("actionlets.json", "likelihoods.json"):
            (models / other).write_bytes((grid_run / other).read_bytes())
    doc = json.loads((models / name).read_text())
    doc["schema_version"] = 99
    (models / name).write_text(json.dumps(doc))
    out = tmp_path / "eval"
    assert main(["eval", "--dataset", str(dataset), "--mode", mode, "--models", str(models),
                 "--seed", "11", "--out", str(out)]) == 2
    assert "schema_version 99" in manifest(out, "eval")["error"]


@pytest.mark.parametrize("name", ["likelihoods.json", "logit.json"])
def test_eval_deeply_nested_model_file_exits_2(grid_run, tmp_path, name):
    """``json.load`` raises RecursionError, which the loaders let through (exit 3)."""
    models = tmp_path / "models"
    models.mkdir()
    if name == "logit.json":
        dataset, mode = landmark_dataset(tmp_path), "landmark"
    else:
        dataset, mode = grid_run / "dataset.jsonl", "grid"
        (models / "actionlets.json").write_bytes((grid_run / "actionlets.json").read_bytes())
    (models / name).write_text("[" * 200_000 + "]" * 200_000)
    out = tmp_path / "eval"
    assert main(["eval", "--dataset", str(dataset), "--mode", mode, "--models", str(models),
                 "--seed", "11", "--out", str(out)]) == 2
    assert "cannot load" in manifest(out, "eval")["error"]


@pytest.mark.parametrize("region", ["full", "occluded"])
def test_eval_grid_labels_each_episode_once(grid_run, tmp_path, monkeypatch, region):
    """One occlusion-rule call per evaluated episode; its two masks are what
    the standard update takes and, on occluded cells, the psi mask."""
    import occlusense.cli as cli

    label, update, score = cli.visibility_mask, cli.standard_inverse_update, cli.score_pair
    labelled, updated, psi_masks = [], [], []

    def labelling(scan, spec):
        labelled.append(label(scan, spec))
        return labelled[-1]

    def updating(grid, occluded, hit):
        updated.append((occluded, hit))
        return update(grid, occluded, hit)

    def scoring(predicted, truth, mask):
        psi_masks.append(mask)
        return score(predicted, truth, mask)

    monkeypatch.setattr("occlusense.cli.visibility_mask", labelling)
    monkeypatch.setattr("occlusense.cli.standard_inverse_update", updating)
    monkeypatch.setattr("occlusense.cli.score_pair", scoring)
    cfg = tmp_path / "eval.cfg"
    cfg.write_text(f"eval.methods = standard, fused\neval.region = {region}\n"
                   "eval.stride = 6\neval.n_beams = 120\n")
    out = tmp_path / "eval"
    assert main(["eval", "--dataset", str(grid_run / "dataset.jsonl"), "--models", str(grid_run),
                 "--config", str(cfg), "--seed", "11", "--out", str(out)]) == 0

    assert len(labelled) == manifest(out, "eval")["counters"]["episodes_eval"] == 8
    assert updated and all(any(o is lo and h is lh for lo, lh in labelled) for o, h in updated)
    if region == "full":
        assert len(updated) == len(labelled) and psi_masks == [None] * 2 * len(labelled)
    else:
        assert psi_masks and all(any(m is lo for lo, _ in labelled) for m in psi_masks)


def test_truncated_dataset_exits_2(grid_run, tmp_path):
    text = (grid_run / "dataset.jsonl").read_text()
    truncated = tmp_path / "dataset.jsonl"
    truncated.write_text(text[: text.rindex("\n", 0, -1) + 100])  # cut inside the last episode
    out = tmp_path / "eval"
    assert main(["eval", "--dataset", str(truncated), "--models", str(grid_run),
                 "--seed", "11", "--out", str(out)]) == 2
    assert ":11: invalid JSON" in manifest(out, "eval")["error"]


@pytest.mark.parametrize("command", ["train", "eval"])
def test_schema_1_dataset_exits_2(grid_run, tmp_path, command):
    header = json.loads((grid_run / "dataset.jsonl").read_text().splitlines()[0])
    header["schema_version"] = 1
    records = [header, {"type": "episode", "index": 0},
               {"type": "frame", "t": 0.0, "ego": [0.0, 3.5, 0.0, 4.0],
                "occ": [0.0, 0.0, 0.0, 5.0, 0.0], "ped": None}]
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text("".join(json.dumps(r) + "\n" for r in records))
    out = tmp_path / command
    argv = [command, "--dataset", str(dataset), "--seed", "11", "--out", str(out)]
    if command == "eval":
        argv += ["--models", str(grid_run)]
    assert main(argv) == 2
    assert "schema_version 1" in manifest(out, command)["error"]


@pytest.mark.parametrize("command", ["train", "eval"])
def test_null_outside_ped_y_exits_2(grid_run, tmp_path, command):
    lines = (grid_run / "dataset.jsonl").read_text().splitlines()
    record = json.loads(lines[3])
    record["occ_x"][5] = None
    lines[3] = json.dumps(record)
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text("\n".join(lines) + "\n")
    out = tmp_path / command
    argv = [command, "--dataset", str(dataset), "--seed", "11", "--out", str(out)]
    if command == "eval":
        argv += ["--models", str(grid_run)]
    assert main(argv) == 2
    assert "episode 2 has a null occ_x value at frame 5" in manifest(out, command)["error"]


@pytest.mark.parametrize("command", ["train", "eval"])
def test_infinite_episode_value_exits_2(grid_run, tmp_path, command):
    """An infinite speed used to reach k-means (train exited 3) or be scored
    as it stood (standard-only eval exited 0)."""
    lines = (grid_run / "dataset.jsonl").read_text().splitlines()
    record = json.loads(lines[3])
    record["occ_speed"][5] = float("inf")
    lines[3] = json.dumps(record)
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text("\n".join(lines) + "\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("eval.methods = standard\n")
    out = tmp_path / command
    argv = [command, "--dataset", str(dataset), "--config", str(cfg), "--seed", "11", "--out", str(out)]
    assert main(argv) == 2
    assert "episode 2 has an infinite occ_speed value at frame 5" in manifest(out, command)["error"]


@pytest.mark.parametrize("command", ["train", "eval"])
def test_one_episode_dataset_exits_2(grid_run, tmp_path, command):
    """Too few episodes to split is bad input data, as a one-clip landmark
    dataset is, not a bad config."""
    data = tmp_path / "data"
    assert main(["simulate", "--episodes", "1", "--seed", "11", "--out", str(data)]) == 0
    out = tmp_path / command
    argv = [command, "--dataset", str(data / "dataset.jsonl"), "--seed", "11", "--out", str(out)]
    if command == "eval":
        argv += ["--models", str(grid_run)]
    assert main(argv) == 2
    doc = manifest(out, command)
    assert doc["status"] == "failed"
    assert "need at least two episodes to split" in doc["error"]
    assert sorted(p.name for p in out.iterdir()) == [f"manifest_{command}.json"]


def run_with_header_config(grid_run, tmp_path, command, **config):
    """Run ``command`` on the grid run's dataset with these values put in
    its header's config; returns the exit code and the manifest's error."""
    lines = (grid_run / "dataset.jsonl").read_text().splitlines()
    header = json.loads(lines[0])
    header["config"].update(config)
    lines[0] = json.dumps(header)
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text("\n".join(lines) + "\n")
    out = tmp_path / command
    argv = [command, "--dataset", str(dataset), "--seed", "11", "--out", str(out)]
    if command == "eval":
        argv += ["--models", str(grid_run)]
    return main(argv), manifest(out, command)["error"]


@pytest.mark.parametrize("command", ["train", "eval"])
def test_non_finite_header_config_exits_2(grid_run, tmp_path, command):
    """A NaN passes ScenarioConfig's range comparisons; the finite check
    rejects it before it reaches k-means or the simulator's geometry."""
    code, error = run_with_header_config(grid_run, tmp_path, command, crosswalk_x=float("nan"))
    assert code == 2
    assert "bad config in header: crosswalk_x must be finite" in error


@pytest.mark.parametrize("rate", [1e308, 1e300])
def test_header_with_too_many_frames_exits_2(grid_run, tmp_path, rate):
    """An infinite or a finite but unallocatable longest episode."""
    code, error = run_with_header_config(grid_run, tmp_path, "train", log_rate=rate)
    assert code == 2
    assert "bad config in header: the longest episode" in error


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("config,message", [
    # The feature window's floor: only the config's own check enforces it.
    ({"log_rate": 15.0}, "log rate must be at least 20.0 Hz"),
    ({"v0_range": [1.0, 1e308]}, "v0_range's high end 1e+308 m/s overflows the stopping distance "
                                 "at a_max_brake 3.0"),
], ids=["log_rate", "v0_range"])
def test_header_config_refused_exits_2(grid_run, tmp_path, command, config, message):
    code, error = run_with_header_config(grid_run, tmp_path, command, **config)
    assert code == 2
    assert f"bad config in header: {message}" in error


@pytest.mark.parametrize("command", ["train", "eval"])
def test_non_positive_header_body_size_exits_2(grid_run, tmp_path, command):
    """A zero-sized pedestrian used to pass simulate and train, then fail
    eval's raycast as an internal error (exit 3)."""
    code, error = run_with_header_config(grid_run, tmp_path, command, ped_size=0.0)
    assert code == 2
    assert "bad config in header: ped_size must be positive" in error


def test_non_positive_episode_duration_exits_2(grid_run, tmp_path):
    """A negative duration with empty columns used to read as an episode
    without frames, whose occ_accel still held one value."""
    lines = (grid_run / "dataset.jsonl").read_text().splitlines()
    record = json.loads(lines[3])
    record["scenario"]["duration"] = -0.02
    record.update(occ_x=[], occ_speed=[], ped_y=[])
    lines[3] = json.dumps(record)
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text("\n".join(lines) + "\n")
    out = tmp_path / "train"
    assert main(["train", "--dataset", str(dataset), "--seed", "11", "--out", str(out)]) == 2
    assert "malformed episode 2: duration must be positive" in manifest(out, "train")["error"]


def test_train_without_a_feature_window_exits_2(tmp_path):
    """Episodes of at most 0.2 s hold no half-second feature window: train
    has no sample, which used to fail as an internal error (exit 3)."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sim.duration_range = 0.01, 0.2\n")
    assert main(["simulate", "--episodes", "300", "--seed", "0", "--config", str(cfg),
                 "--out", str(tmp_path)]) == 0
    out = tmp_path / "train"
    assert main(["train", "--dataset", str(tmp_path / "dataset.jsonl"), "--config", str(cfg),
                 "--seed", "0", "--out", str(out)]) == 2
    assert "only 0 training samples" in manifest(out, "train")["error"]


def test_train_skips_a_one_frame_episode(tmp_path):
    """A one-frame training episode adds no sample; the others still train."""
    assert main(["simulate", "--episodes", "20", "--seed", "11", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "dataset.jsonl").read_text().splitlines()
    train_idx, _ = split_episodes(20, 0.2, 11)
    record = json.loads(lines[1 + train_idx[0]])
    record["scenario"]["duration"] = 0.01
    for name in ("occ_x", "occ_speed", "ped_y"):
        record[name] = record[name][:1]
    lines[1 + train_idx[0]] = json.dumps(record)
    dataset = tmp_path / "short.jsonl"
    dataset.write_text("\n".join(lines) + "\n")
    out = tmp_path / "train"
    assert main(["train", "--dataset", str(dataset), "--seed", "11", "--out", str(out)]) == 0
    doc = manifest(out, "train")
    assert doc["counters"]["episodes_train"] == 4
    assert doc["counters"]["training_samples"] >= 10


def test_eval_internal_error_exits_3(grid_run, tmp_path, monkeypatch):
    def broken_score(*args, **kwargs):
        raise RuntimeError("scoring failed")

    monkeypatch.setattr("occlusense.cli.score_pair", broken_score)
    out = tmp_path / "eval"
    assert main(["eval", "--dataset", str(grid_run / "dataset.jsonl"), "--models", str(grid_run),
                 "--seed", "11", "--out", str(out)]) == 3
    doc = manifest(out, "eval")
    assert doc["status"] == "failed"
    assert doc["error"].startswith("RuntimeError")
    # neither artifact nor its temp file is left next to the failed manifest
    assert sorted(p.name for p in out.iterdir()) == ["manifest_eval.json"]


@pytest.mark.parametrize("command,line", [
    ("train", "grid.frame = map"),
    ("train", "train.stride = 0"),
    ("train", "train.k = 0"),
    ("train", "train.alpha = -1"),
    ("train", "train.alpha = 0"),
    ("train", "grid.resolution = 0"),
    ("eval", "eval.stride = 0"),
    ("eval", "eval.threshold = 1.5"),
    ("eval", "eval.n_beams = 0"),
    ("eval", "eval.max_range = -1"),
    ("eval", "grid.width = 0"),
    ("eval", "region.step = 0"),
    ("eval", "region.x_min = 10"),
    ("train", "logit.reg = -1"),
    ("train", "train.split = 1.5"),
    ("train", "sim.n_episodes = 0"),
    ("train", "logit.max_iters = 0"),
    ("train", "logit.max_iters = -5"),
    ("train", "train.alpha = inf"),
    ("train", "sim.log_rate = inf"),
    ("train", "sim.log_rate = 15"),
    ("train", "sim.ped_size = 0"),
    ("train", "sim.occluder_width = -1"),
    ("train", "sim.occluder_length = 0"),
    ("train", "sim.d0_range = 25, nan"),
    ("train", "logit.reg = inf"),
    ("train", "grid.resolution = inf"),
    ("train", "grid.resolution = nan"),
    ("eval", "eval.max_range = inf"),
    ("eval", "eval.threshold = nan"),
    ("eval", "region.step = inf"),
    ("eval", "region.x_min = nan"),
    ("eval", "camera.fx = inf"),
    # A scenario field's count of numbers, and an overflow in its checks.
    ("train", "sim.d0_range = 30"),
    ("train", "sim.duration_range = 30, 40, 50"),
    ("train", "sim.v0_range = 1, 1e308"),
    # The longest episode's frame count: infinite, or finite but past sys.maxsize.
    ("train", "sim.duration_range = 1, 1e308"),
    ("train", "sim.log_rate = 1e308"),
    ("train", "sim.log_rate = 1e300"),
    # The candidate lattice's count, checked without building it.
    ("train", "region.step = 1e-9"),
    ("eval", "region.x_min = -1e308"),
    ("train", "train.alpha = 1e308"),
])
def test_bad_config_values_exit_1_at_load(grid_run, tmp_path, command, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "out"
    argv = [command, "--dataset", str(grid_run / "dataset.jsonl"), "--config", str(cfg), "--out", str(out)]
    if command == "eval":
        argv += ["--models", str(grid_run)]
    assert main(argv) == 1
    assert not out.exists()  # rejected before any manifest or artifact is written


def test_overflowing_v0_range_names_its_fields(grid_run, tmp_path, capsys):
    """``v0_range``'s squared high end overflowed as an unnamed OverflowError."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sim.v0_range = 1, 1e308\n")
    argv = ["train", "--dataset", str(grid_run / "dataset.jsonl"), "--config", str(cfg),
            "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    assert ("v0_range's high end 1e+308 m/s overflows the stopping distance at a_max_brake 3.0"
            in capsys.readouterr().err)


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------

def annotation(**overrides) -> dict:
    rec = {"clip_id": "a", "frame": 0, "bbox": [295.0, 202.5, 50.0, 100.0],
           "action_label": "Stopped", "occluded": False, "camera": CAMERA}
    rec.update(overrides)
    return rec


def test_ingest_converts_boxes_to_ground_positions(tmp_path):
    src = write_jsonl(tmp_path / "ann.jsonl", [annotation()])
    out = tmp_path / "out"
    assert main(["ingest", str(src), "--out", str(out)]) == 0
    recs = [json.loads(l) for l in (out / "landmark_dataset.jsonl").read_text().splitlines()]
    assert len(recs) == 1
    # Box centered on the principal point, bottom edge 62.5 px below it:
    # depth = fy * height / dv = 500 * 1.5 / 62.5, zero lateral offset.
    assert recs[0]["x"] == 0.0
    assert recs[0]["y"] == 12.0
    assert recs[0]["action"] == "stopped"
    assert recs[0]["occluded"] is False
    assert all(sorted(r) == ["action", "clip_id", "frame", "occluded", "x", "y"] for r in recs)
    doc = manifest(out, "ingest")
    assert doc["counters"]["accepted"] == 1
    assert all(v == 0 for k, v in doc["counters"].items() if k.startswith("rejected_"))


def test_ingest_counts_rejections_by_reason(tmp_path):
    bad = [
        {k: v for k, v in annotation().items() if k != "action_label"},
        annotation(action_label="moonwalk"),
        annotation(bbox=[300.0, 100.0, 50.0, 100.0]),  # bottom above the horizon line
        annotation(bbox=[1.0, 2.0, 3.0]),
        {k: v for k, v in annotation().items() if k != "camera"},  # no fallback configured
    ]
    src = write_jsonl(tmp_path / "ann.jsonl", bad)
    out = tmp_path / "out"
    assert main(["ingest", str(src), "--out", str(out)]) == 0
    counters = manifest(out, "ingest")["counters"]
    assert counters["accepted"] == 0
    assert counters["rejected_missing_field"] == 2
    assert counters["rejected_bad_action"] == 1
    assert counters["rejected_horizon"] == 1
    assert counters["rejected_bad_bbox"] == 1
    assert (out / "landmark_dataset.jsonl").read_text() == ""


def test_ingest_uses_camera_fallback_from_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"camera.{k} = {v}\n" for k, v in CAMERA.items()))
    rec = {k: v for k, v in annotation().items() if k != "camera"}
    src = write_jsonl(tmp_path / "ann.jsonl", [rec])
    out = tmp_path / "out"
    assert main(["ingest", str(src), "--config", str(cfg), "--out", str(out)]) == 0
    recs = [json.loads(l) for l in (out / "landmark_dataset.jsonl").read_text().splitlines()]
    assert recs[0]["y"] == 12.0


def test_ingest_invalid_json_exits_2(tmp_path):
    src = tmp_path / "ann.jsonl"
    src.write_text("this is not json\n")
    out = tmp_path / "out"
    assert main(["ingest", str(src), "--out", str(out)]) == 2
    assert manifest(out, "ingest")["status"] == "failed"


def test_ingest_invalid_json_leaves_no_partial_dataset(tmp_path):
    src = tmp_path / "ann.jsonl"
    src.write_text("".join(json.dumps(annotation(frame=i)) + "\n" for i in range(3)) + "{not json\n")
    out = tmp_path / "out"
    assert main(["ingest", str(src), "--out", str(out)]) == 2
    # the three records read before the bad line are not left behind
    assert sorted(p.name for p in out.iterdir()) == ["manifest_ingest.json"]


@pytest.mark.parametrize("field, value", [
    ("occluded", "false"),  # bool("false") would read as occluded
    ("occluded", 1),
    ("frame", 2.7),  # int(2.7) would write frame 2
    ("frame", True),
    ("frame", "7"),
    ("frame", math.inf),
    ("bbox", "2958"),  # iterating the string would read the box [2, 9, 5, 8]
    ("bbox", {"x": 1.0}),
    ("bbox", [295.0, 202.5, 50.0, 10**400]),  # no float holds it
    ("camera", {**CAMERA, "fy": math.nan}),
    ("camera", {**CAMERA, "cx": -math.inf}),
    ("clip_id", None),  # str(None) would read as the clip "None"
    ("clip_id", ["a"]),
    ("clip_id", True),
    ("clip_id", 1.5),
])
def test_ingest_refuses_fields_of_the_wrong_json_type(tmp_path, field, value):
    src = tmp_path / "ann.jsonl"
    src.write_text(json.dumps(annotation(**{field: value})) + "\n" + json.dumps(annotation()) + "\n")
    out = tmp_path / "out"
    assert main(["ingest", str(src), "--out", str(out)]) == 0
    counters = manifest(out, "ingest")["counters"]
    assert counters["accepted"] == 1
    assert counters["rejected_missing_field"] == 1


def test_ingest_writes_an_integral_float_frame_as_an_integer(tmp_path):
    src = write_jsonl(tmp_path / "ann.jsonl", [annotation(frame=3.0)])
    out = tmp_path / "out"
    assert main(["ingest", str(src), "--out", str(out)]) == 0
    assert '"frame":3,' in (out / "landmark_dataset.jsonl").read_text()


def test_ingest_writes_an_integer_clip_id_as_its_decimal_string(tmp_path):
    src = write_jsonl(tmp_path / "ann.jsonl", [annotation(clip_id=7)])
    out = tmp_path / "out"
    assert main(["ingest", str(src), "--out", str(out)]) == 0
    assert '"clip_id":"7",' in (out / "landmark_dataset.jsonl").read_text()


def per_record_lines(records, fallback=None) -> str:
    """The landmark lines of accepted records by the per-record rule: Python
    float arithmetic for the projection, then one ``json.dumps`` each."""
    lines = []
    for rec in records:
        cam = {k: float(v) for k, v in rec.get("camera", fallback).items()}
        x, y, w, h = map(float, rec["bbox"])
        dv = (y + h) - cam["cy"]
        if w <= 0.0 or h <= 0.0 or dv <= 0.0:
            continue
        depth = cam["fy"] * cam["height_m"] / dv
        lateral = ((x + w / 2.0) - cam["cx"]) * depth / cam["fx"]
        if not (math.isfinite(lateral) and math.isfinite(depth)):
            continue
        landmark = {"clip_id": str(rec["clip_id"]), "frame": rec["frame"], "x": lateral, "y": depth,
                    "action": rec["action_label"].strip().lower().replace(" ", "_"),
                    "occluded": rec["occluded"]}
        lines.append(json.dumps(landmark, sort_keys=True, separators=(",", ":")) + "\n")
    return "".join(lines)


OTHER_CAMERA = {"fx": 700.0, "fy": 650.0, "cx": 300.5, "cy": 250.25, "height_m": 1.2}


def mixed_annotations(n: int, seed: int) -> list[dict]:
    """Accepted records of awkward text and numbers, with horizon, size and
    non-finite rejections among them; every third record carries its own
    camera."""
    rng = np.random.default_rng(seed)
    clips = ['q"uote', "back\\slash", "café 歩行者", "nul\u0000", "plain"]
    records = []
    for i in range(n):
        rec = annotation(clip_id=clips[i % len(clips)], frame=2**53 + 1 + 7 * i,
                         bbox=[float(v) for v in rng.uniform([100, 250, 5, 20], [500, 300, 80, 200])],
                         action_label=["Stopped", "moving fast", "decelerating"][i % 3],
                         occluded=bool(i % 2))
        if i % 3 == 0:
            rec["camera"] = OTHER_CAMERA if i % 2 else CAMERA
        else:
            del rec["camera"]
        if i % 11 == 4:
            rec["bbox"][1] = 100.0  # bottom above both horizon rows
        if i % 13 == 6:
            rec["bbox"][2] = -rec["bbox"][2]
        if i % 17 == 8:
            rec["bbox"][0] = math.nan if i % 2 else math.inf
        records.append(rec)
    return records


def test_ingest_matches_the_per_record_rule_across_chunks_files_and_cameras(tmp_path, monkeypatch):
    calls = []

    def counting(boxes, camera):
        calls.append((len(boxes), camera))
        return bbox_to_landmark(boxes, camera)

    monkeypatch.setattr("occlusense.cli.bbox_to_landmark", counting)
    monkeypatch.setattr("occlusense.cli.INGEST_CHUNK", 8)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"camera.{k} = {v}\n" for k, v in CAMERA.items()))
    first, second = mixed_annotations(37, seed=1), mixed_annotations(20, seed=2)
    src1, src2 = write_jsonl(tmp_path / "a.jsonl", first), write_jsonl(tmp_path / "b.jsonl", second)
    out = tmp_path / "out"
    assert main(["ingest", str(src1), str(src2), "--config", str(cfg), "--out", str(out)]) == 0

    text = (out / "landmark_dataset.jsonl").read_text()
    assert text == per_record_lines(first + second, CAMERA)
    assert "NaN" not in text and "Infinity" not in text and '\\u0000"' in text
    counters = manifest(out, "ingest")["counters"]
    assert counters["accepted"] == len(text.splitlines())
    assert counters["rejected_horizon"] > 0
    # Negative widths and NaN or infinite x, none of them also above the horizon.
    non_finite = sum(1 for r in first + second if not math.isfinite(r["bbox"][0]))
    negative = sum(1 for r in first + second if r["bbox"][2] < 0.0)
    assert non_finite == 3 and counters["rejected_bad_bbox"] == negative + non_finite
    assert counters["accepted"] + counters["rejected_horizon"] + counters["rejected_bad_bbox"] == 57
    # One projection per camera per chunk: records with the fallback's own
    # values join its group.
    chunks = [recs[i:i + 8] for recs in (first, second) for i in range(0, len(recs), 8)]
    assert len(calls) == sum(len({json.dumps(r.get("camera", CAMERA)) for r in chunk}) for chunk in chunks)
    assert sum(n for n, _ in calls) == 57


def test_ingest_rejections_on_both_sides_of_a_chunk_boundary(tmp_path):
    from occlusense.cli import INGEST_CHUNK
    records = [annotation(frame=i, clip_id=f"c{i % 3}") for i in range(INGEST_CHUNK + 10)]
    for i in (INGEST_CHUNK - 2, INGEST_CHUNK + 1):
        records[i]["bbox"] = [300.0, 100.0, 50.0, 100.0]  # horizon
    for i in (INGEST_CHUNK - 1, INGEST_CHUNK):
        records[i]["action_label"] = "moonwalk"
    records[INGEST_CHUNK + 2]["occluded"] = "no"
    src = write_jsonl(tmp_path / "ann.jsonl", records)
    out = tmp_path / "out"
    assert main(["ingest", str(src), "--out", str(out)]) == 0
    valid = [r for i, r in enumerate(records) if i not in (INGEST_CHUNK - 1, INGEST_CHUNK, INGEST_CHUNK + 2)]
    assert (out / "landmark_dataset.jsonl").read_text() == per_record_lines(valid)
    counters = manifest(out, "ingest")["counters"]
    assert (counters["accepted"], counters["rejected_horizon"], counters["rejected_bad_action"],
            counters["rejected_missing_field"]) == (INGEST_CHUNK + 5, 2, 2, 1)


def test_ingest_invalid_json_in_a_later_chunk_names_its_line(tmp_path, monkeypatch):
    monkeypatch.setattr("occlusense.cli.INGEST_CHUNK", 4)
    src = tmp_path / "ann.jsonl"
    lines = [json.dumps(annotation(frame=i)) for i in range(12)]
    lines[9] = "{not json"
    src.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert main(["ingest", str(src), "--out", str(out)]) == 2
    assert f"{src}:10: invalid JSON" in manifest(out, "ingest")["error"]
    # the two chunks before the bad line are not left behind
    assert sorted(p.name for p in out.iterdir()) == ["manifest_ingest.json"]


def test_ingest_holds_one_chunk_not_the_file(tmp_path, monkeypatch):
    """Ingest reads its annotations one line at a time, so its traced peak
    stays below the file's size (the digests' 1 MiB read buffers included).
    Reading the whole file first held its bytes, their decoded text and the
    list of lines: more than three times it."""
    monkeypatch.setattr("occlusense.cli.INGEST_CHUNK", 64)
    records = [annotation(frame=i, clip_id=f"{i:02000d}") for i in range(2_000)]  # 2 kB lines
    src = write_jsonl(tmp_path / "ann.jsonl", records)
    tracemalloc.start()
    try:
        assert main(["ingest", str(src), "--out", str(tmp_path / "out")]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < src.stat().st_size


# ---------------------------------------------------------------------------
# landmark train/eval
# ---------------------------------------------------------------------------

def landmark_record(clip, x, y, action, occluded):
    return {"clip_id": clip, "frame": 0, "x": x, "y": y,
            "cov": [[1.0, 0.0], [0.0, 1.0]], "action": action, "occluded": occluded}


def landmark_dataset(tmp_path) -> Path:
    """Two clips with identical contents, so either side of the split works."""
    records = []
    for clip in ("a", "b"):
        records += [
            # Directly observed pedestrians (training material).
            landmark_record(clip, 0.0, 2.0, "stopped", False),
            landmark_record(clip, 0.5, 2.5, "stopped", False),
            landmark_record(clip, 0.0, 20.0, "moving_fast", False),
            landmark_record(clip, 1.0, 22.0, "moving_fast", False),
            # Occluded pedestrians on the candidate lattice (evaluation targets).
            landmark_record(clip, 0.0, 1.0, "stopped", True),
            landmark_record(clip, 1.0, 2.0, "stopped", True),
            landmark_record(clip, 2.0, 3.0, "stopped", True),
            landmark_record(clip, 3.0, 4.0, "decelerating", True),
            landmark_record(clip, 0.0, 2.0, "decelerating", True),
            # Occluded but far outside the candidate region.
            landmark_record(clip, 50.0, 50.0, "stopped", True),
        ]
    return write_jsonl(tmp_path / "landmarks.jsonl", records)


def test_train_landmark_writes_model(tmp_path):
    ds = landmark_dataset(tmp_path)
    out = tmp_path / "out"
    assert main(["train", "--dataset", str(ds), "--mode", "landmark",
                 "--seed", "0", "--out", str(out)]) == 0
    doc = manifest(out, "train")
    assert doc["status"] == "ok"
    assert doc["counters"]["clips_total"] == 2
    assert doc["counters"]["clips_train"] == 1
    assert doc["counters"]["training_samples"] == 4  # the non-occluded records of one clip
    assert json.loads((out / "logit.json").read_text())["kind"] == "logit_model"


def test_train_landmark_reports_why_the_fit_stopped(tmp_path):
    ds = landmark_dataset(tmp_path)
    cfg = tmp_path / "train.cfg"
    cfg.write_text("logit.max_iters = 5\n")
    out = tmp_path / "out"
    assert main(["train", "--dataset", str(ds), "--mode", "landmark", "--config", str(cfg),
                 "--seed", "0", "--out", str(out)]) == 0
    counters = manifest(out, "train")["counters"]
    assert counters["logit_stop_reason"] == "max_iters"
    assert counters["logit_iterations"] == 6
    assert counters["logit_grad_norm"] > 0.0
    # the diagnostics stay out of the model file
    assert set(json.loads((out / "logit.json").read_text())) == {
        "schema_version", "kind", "feature_map", "weights", "reg"}


def test_train_landmark_on_huge_positions_exits_2(tmp_path):
    """Finite positions whose squares overflow used to fail the fit's
    Newton solve ("SVD did not converge") as an internal error."""
    records = [landmark_record(clip, 1e306 * (i + 1), 2.0, action, False)
               for clip in ("a", "b") for i, action in enumerate(["stopped", "moving_fast"])]
    ds = write_jsonl(tmp_path / "huge.jsonl", records)
    out = tmp_path / "out"
    assert main(["train", "--dataset", str(ds), "--mode", "landmark", "--out", str(out)]) == 2
    assert "a position in the dataset is out of range" in manifest(out, "train")["error"]


def test_train_landmark_single_clip_exits_2(tmp_path):
    ds = write_jsonl(tmp_path / "one.jsonl",
                     [landmark_record("only", 0.0, 2.0, "stopped", False)])
    out = tmp_path / "out"
    assert main(["train", "--dataset", str(ds), "--mode", "landmark", "--out", str(out)]) == 2


def landmark_counters(tmp_path, name, records, seed) -> dict:
    """Train and eval counters of one landmark dataset on a 4x4 region."""
    ds = write_jsonl(tmp_path / f"{name}.jsonl", records)
    cfg = tmp_path / "region.cfg"
    cfg.write_text("region.x_min = 0\nregion.x_max = 3\n"
                   "region.y_min = 1\nregion.y_max = 4\nregion.step = 1\n")
    out = tmp_path / f"{name}-{seed}"
    common = ["--dataset", str(ds), "--mode", "landmark", "--config", str(cfg),
              "--seed", str(seed), "--out", str(out)]
    assert main(["train", *common]) == 0
    assert main(["eval", *common, "--models", str(out)]) == 0
    return {**manifest(out, "train")["counters"], **manifest(out, "eval")["counters"]}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_landmark_split_ignores_clip_order_in_the_file(tmp_path, seed):
    # File order clip10, clip2, Clip3; code-point order Clip3, clip10, clip2.
    # Each clip has its own count of visible and scorable occluded records,
    # so a split on file order would change the counters.
    clips = {"clip10": (1, 2), "clip2": (2, 3), "Clip3": (3, 1)}
    per_clip = {
        clip: [landmark_record(clip, 0.0, 2.0 + i, "stopped", False) for i in range(visible)]
        + [landmark_record(clip, float(i), 1.0, "decelerating", True) for i in range(occluded)]
        for clip, (visible, occluded) in clips.items()
    }
    longest = max(map(len, per_clip.values()))
    interleaved = [recs[i] for i in range(longest) for recs in per_clip.values() if i < len(recs)]
    grouped = [rec for clip in sorted(per_clip) for rec in per_clip[clip]]
    assert [r["clip_id"] for r in interleaved[:3]] == ["clip10", "clip2", "Clip3"]

    got = landmark_counters(tmp_path, "interleaved", interleaved, seed)
    want = landmark_counters(tmp_path, "grouped", grouped, seed)
    keys = ("clips_total", "clips_train", "training_samples", "evaluated_samples")
    assert {k: got[k] for k in keys} == {k: want[k] for k in keys}
    train_idx, eval_idx = split_episodes(3, 0.2, seed)
    ordered = sorted(clips)
    assert got["training_samples"] == sum(clips[ordered[i]][0] for i in train_idx)
    assert got["evaluated_samples"] == sum(clips[ordered[i]][1] for i in eval_idx)


def test_landmark_clip_ids_differing_in_a_trailing_nul_stay_distinct(tmp_path):
    ds = write_jsonl(tmp_path / "nul.jsonl",
                     [landmark_record(clip, 0.0, 2.0, "stopped", False) for clip in ("a", "a\u0000")])
    out = tmp_path / "out"
    assert main(["train", "--dataset", str(ds), "--mode", "landmark", "--out", str(out)]) == 0
    assert manifest(out, "train")["counters"]["clips_total"] == 2


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("defect", ["malformed_json", "missing_x", "nan_x", "infinite_y", "unknown_action",
                                    "string_occluded", "null_clip_id", "integer_clip_id"])
def test_bad_landmark_record_exits_2_naming_its_line(tmp_path, command, defect):
    ds = landmark_dataset(tmp_path)
    lines = ds.read_text().splitlines()
    record = json.loads(lines[2])
    if defect == "malformed_json":
        lines[2] = lines[2][:-1]
    elif defect == "missing_x":
        del record["x"]
        lines[2] = json.dumps(record)
    elif defect in ("nan_x", "infinite_y"):
        record["x" if defect == "nan_x" else "y"] = math.nan if defect == "nan_x" else math.inf
        lines[2] = json.dumps(record)  # written as NaN or Infinity, which json.loads reads
    elif defect == "unknown_action":
        record["action"] = "cartwheeling"
        lines[2] = json.dumps(record)
    elif defect in ("null_clip_id", "integer_clip_id"):
        record["clip_id"] = None if defect == "null_clip_id" else 7  # ingest writes every id as a string
        lines[2] = json.dumps(record)
    else:
        record["occluded"] = "false"  # bool("false") is True
        lines[2] = json.dumps(record)
    ds.write_text("\n".join(lines) + "\n")
    models = tmp_path / "models"
    models.mkdir()
    save_logit_model(LogitModel(np.zeros((5, 4)), reg=0.01), str(models / "logit.json"))
    out = tmp_path / "out"
    argv = [command, "--dataset", str(ds), "--mode", "landmark", "--out", str(out)]
    if command == "eval":
        argv += ["--models", str(models)]
    assert main(argv) == 2
    reason = "invalid JSON" if defect == "malformed_json" else "bad landmark record"
    assert f"{ds}:3: {reason}" in manifest(out, command)["error"]


def undecodable(line: str, defect: str, int_field: str) -> bytes:
    """``line`` spoilt by one decode failure: a Latin-1 byte, 200,000 nested
    arrays, or ``int_field`` holding an integer of 5,000 digits (beyond
    Python's 4,300-digit conversion limit)."""
    if defect == "latin1":
        return line.replace('"', '"caf\u00e9', 1).encode("latin-1")
    if defect == "deep":
        return ("[" * 200_000 + "]" * 200_000).encode()
    return re.sub(rf'("{int_field}": ?)\d+', rf"\g<1>{'9' * 5000}", line, count=1).encode()


@pytest.mark.parametrize("reader,defect", [
    ("dataset", "latin1"), ("dataset", "deep"), ("dataset", "long_int"),
    ("annotations", "latin1"), ("annotations", "deep"), ("annotations", "long_int"),
    ("landmark_dataset", "latin1"), ("landmark_dataset", "deep"),
])
def test_undecodable_input_line_exits_2_naming_it(grid_run, tmp_path, reader, defect):
    """Each exited 3: the text reader raised UnicodeDecodeError, and
    ``json.loads`` RecursionError, or a ValueError that is no JSONDecodeError
    for the long integer."""
    if reader == "dataset":
        lines = (grid_run / "dataset.jsonl").read_text().splitlines()
        field, argv = "index", ["train", "--dataset"]
    elif reader == "annotations":
        lines = [json.dumps(annotation(frame=i)) for i in range(4)]
        field, argv = "frame", ["ingest"]
    else:
        lines = landmark_dataset(tmp_path).read_text().splitlines()
        field, argv = "frame", ["train", "--mode", "landmark", "--dataset"]
    data = [line.encode() for line in lines]
    data[2] = undecodable(lines[2], defect, field)
    path = tmp_path / f"{reader}.jsonl"
    path.write_bytes(b"\n".join(data) + b"\n")
    out = tmp_path / "out"
    assert main([*argv, str(path), "--out", str(out)]) == 2
    assert f"{path}:3: " in manifest(out, argv[0])["error"]


def test_eval_landmark_non_finite_weight_exits_2(tmp_path):
    ds = landmark_dataset(tmp_path)
    models = tmp_path / "models"
    models.mkdir()
    doc = LogitModel(np.zeros((5, 4)), reg=0.01).to_dict()
    doc["weights"][2][1] = math.nan
    (models / "logit.json").write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["eval", "--dataset", str(ds), "--mode", "landmark", "--models", str(models),
                 "--out", str(out)]) == 2
    assert "cannot load logit model: weights must be finite" in manifest(out, "eval")["error"]


def test_eval_landmark_uniform_model_matches_prior_exactly(tmp_path):
    """A zero-weight model is uninformative, so posterior mass equals the prior.

    The 4x4 candidate lattice makes the prior 1/16, which is exactly
    representable, so the improvement ratios must come out exactly 0.0.
    """
    ds = landmark_dataset(tmp_path)
    models = tmp_path / "models"
    models.mkdir()
    save_logit_model(LogitModel(np.zeros((5, 4)), reg=0.01), str(models / "logit.json"))
    cfg = tmp_path / "eval.cfg"
    cfg.write_text("region.x_min = 0\nregion.x_max = 3\n"
                   "region.y_min = 1\nregion.y_max = 4\nregion.step = 1\n")
    out = tmp_path / "out"
    assert main(["eval", "--dataset", str(ds), "--mode", "landmark", "--models", str(models),
                 "--config", str(cfg), "--seed", "4", "--out", str(out)]) == 0

    summary = json.loads((out / "eval_summary.json").read_text())
    assert summary["region_candidates"] == 16
    assert summary["p_prior"] == 0.0625
    assert summary["evaluated_samples"] == 5
    assert summary["skipped_outside_region"] == 1
    assert summary["actions"]["stopped"]["n"] == 3
    assert summary["actions"]["decelerating"]["n"] == 2
    for stats in summary["actions"].values():
        assert stats["p_ours_mean"] == 0.0625
        assert stats["improvement_ratio"] == 0.0

    with open(out / "eval_actions.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["action"] for r in rows} == {"stopped", "decelerating"}
    for r in rows:
        assert float(r["improvement_ratio"]) == 0.0
        assert float(r["p_ours_se"]) == 0.0


def test_eval_landmark_computes_one_posterior_per_action(tmp_path, monkeypatch):
    calls = []

    def counting(model, region, observed):
        calls.append(observed)
        return posterior_over_region(model, region, observed)

    monkeypatch.setattr("occlusense.cli.posterior_over_region", counting)
    ds = landmark_dataset(tmp_path)
    assert main(["train", "--dataset", str(ds), "--mode", "landmark", "--out", str(tmp_path)]) == 0
    cfg = tmp_path / "eval.cfg"
    cfg.write_text("region.x_min = 0\nregion.x_max = 3\n"
                   "region.y_min = 1\nregion.y_max = 4\nregion.step = 1\n")
    out = tmp_path / "out"
    assert main(["eval", "--dataset", str(ds), "--mode", "landmark", "--models", str(tmp_path),
                 "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "eval_summary.json").read_text())
    assert summary["evaluated_samples"] == 5
    assert sorted(a.name.lower() for a in calls) == sorted(summary["actions"]) == ["decelerating", "stopped"]


# ---------------------------------------------------------------------------
# manifest outputs: one commit path for every command's artifacts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode,command,names", [
    ("grid", "simulate", ["dataset.jsonl"]),
    ("grid", "train", ["actionlets.json", "likelihoods.json"]),
    ("grid", "eval", ["eval_frames.csv", "eval_summary.json"]),
    ("landmark", "ingest", ["landmark_dataset.jsonl"]),
    ("landmark", "train", ["logit.json"]),
    ("landmark", "eval", ["eval_actions.csv", "eval_summary.json"]),
])
def test_manifest_outputs_are_exactly_the_commands_artifacts(grid_run, tmp_path, mode, command, names):
    out = tmp_path / "out"
    if mode == "grid" and command != "eval":
        out = grid_run  # the fixture ran simulate and train
    elif mode == "grid":
        cfg = tmp_path / "eval.cfg"
        cfg.write_text("eval.stride = 12\neval.n_beams = 120\n")
        assert main(["eval", "--dataset", str(grid_run / "dataset.jsonl"), "--models", str(grid_run),
                     "--config", str(cfg), "--seed", "11", "--out", str(out)]) == 0
    elif command == "ingest":
        src = write_jsonl(tmp_path / "ann.jsonl", [annotation(clip_id=c) for c in ("a", "b")])
        assert main(["ingest", str(src), "--out", str(out)]) == 0
    else:
        common = ["--dataset", str(landmark_dataset(tmp_path)), "--mode", "landmark", "--out", str(out)]
        assert main(["train", *common]) == 0
        if command == "eval":  # beside train's model, which eval's manifest must not list
            assert main(["eval", *common, "--models", str(out)]) == 0
    doc = manifest(out, command)
    assert doc["status"] == "ok"
    assert doc["outputs"] == {name: sha256(out / name) for name in names}
    assert not list(out.glob("*.tmp"))


def test_a_failed_artifact_write_commits_nothing(grid_run, tmp_path, monkeypatch):
    """Grid train's second model write fails: neither model, nor a temp
    file, nor an output digest is left."""
    import occlusense.cli as cli

    save, calls = cli.save_model_json, []

    def failing_second_save(obj, path):
        calls.append(path)
        if len(calls) == 2:
            raise OSError("disk full")
        save(obj, path)

    monkeypatch.setattr("occlusense.cli.save_model_json", failing_second_save)
    out = tmp_path / "out"
    assert main(["train", "--dataset", str(grid_run / "dataset.jsonl"), "--seed", "11", "--out", str(out)]) == 3
    assert len(calls) == 2
    assert sorted(p.name for p in out.iterdir()) == ["manifest_train.json"]
    doc = manifest(out, "train")
    assert doc["status"] == "failed"
    assert doc["outputs"] == {}


@pytest.mark.parametrize("occluded", [True, False])
def test_eval_landmark_with_nothing_to_score_exits_2(tmp_path, occluded):
    """Occluded records all outside the region, or no occluded record at all."""
    records = [landmark_record(clip, 50.0 + i, 50.0, "stopped", occluded)
               for clip in ("a", "b") for i in range(3)]
    ds = write_jsonl(tmp_path / "landmarks.jsonl", records)
    models = tmp_path / "models"
    models.mkdir()
    save_logit_model(LogitModel(np.zeros((5, 4)), reg=0.01), str(models / "logit.json"))
    out = tmp_path / "out"
    assert main(["eval", "--dataset", str(ds), "--mode", "landmark", "--models", str(models),
                 "--out", str(out)]) == 2
    assert "no occluded samples inside the candidate region" in manifest(out, "eval")["error"]


def test_eval_landmark_without_models_exits_1(tmp_path):
    ds = landmark_dataset(tmp_path)
    out = tmp_path / "out"
    assert main(["eval", "--dataset", str(ds), "--mode", "landmark", "--out", str(out)]) == 1
