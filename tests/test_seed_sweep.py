"""The seed sweep report's seed parsing and per-behaviour psi means.

``tools/seed_sweep.py`` is a script, not a package module, so it is loaded
from its path.  These tests run no pipeline: ``seed_psi`` reads a
hand-written dataset and frame table.
"""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "seed_sweep.py"
spec = importlib.util.spec_from_file_location("seed_sweep", SCRIPT)
seed_sweep = importlib.util.module_from_spec(spec)
spec.loader.exec_module(seed_sweep)


def test_parse_seeds_mixes_ranges_and_single_seeds():
    assert seed_sweep.parse_seeds("0-2,9") == [0, 1, 2, 9]
    assert seed_sweep.parse_seeds("4") == [4]


def test_seed_psi_means_per_method_and_behaviour(tmp_path):
    header = {"type": "header", "schema_version": 3}
    episodes = [{"type": "episode", "index": 0, "scenario": {"behavior": "stand"}},
                {"type": "episode", "index": 1, "scenario": {"behavior": "absent"}}]
    (tmp_path / "dataset.jsonl").write_text("".join(json.dumps(r) + "\n" for r in [header, *episodes]))
    frames = [
        (0, 0.5, "standard", 1.0), (0, 0.5, "fused", 0.5),
        (0, 0.6, "standard", 3.0), (0, 0.6, "fused", 1.5),
        (1, 0.5, "standard", 5.0), (1, 0.5, "fused", 4.0),
    ]
    (tmp_path / "eval_frames.csv").write_text(
        "episode,t,method,psi,d_ab_free,d_ab_occ,d_ba_free,d_ba_occ\n"
        + "".join(f"{ep},{t},{method},{psi},0.0,0.0,0.0,0.0\n" for ep, t, method, psi in frames))

    psi = seed_sweep.seed_psi(tmp_path)
    assert psi == {
        ("standard", "all"): pytest.approx(3.0),
        ("standard", "stand"): pytest.approx(2.0),
        ("standard", "absent"): pytest.approx(5.0),
        ("fused", "all"): pytest.approx(2.0),
        ("fused", "stand"): pytest.approx(1.0),
        ("fused", "absent"): pytest.approx(4.0),
    }


def test_each_seed_runs_through_the_same_bits_pipeline_runner(tmp_path, monkeypatch, capsys):
    runs = []

    def fake_run(tree, argvs):
        runs.append((tree, argvs))
        out = Path(argvs[0][argvs[0].index("--out") + 1])
        episodes = [{"index": i, "scenario": {"behavior": b}} for i, b in enumerate(seed_sweep.BEHAVIORS)]
        (out / "dataset.jsonl").write_text("".join(json.dumps(r) + "\n" for r in [{"type": "header"}, *episodes]))
        (out / "eval_frames.csv").write_text("episode,t,method,psi\n" + "".join(
            f"{i},0.5,standard,2.0\n{i},0.5,fused,1.0\n" for i in range(len(episodes))))

    monkeypatch.setattr(seed_sweep.same_bits, "run_pipeline", fake_run)
    assert seed_sweep.main(["--seeds", "3,5", "--episodes", "12", "--out", str(tmp_path)]) == 0
    assert runs == [(seed_sweep.ROOT, seed_sweep.same_bits.stage_argvs("grid", seed, tmp_path / f"seed-{seed}",
                                                                       None, 12, None)) for seed in (3, 5)]
    assert "fused/standard" in capsys.readouterr().out


def test_row_without_values_prints_dashes(capsys):
    # No seed scored a "stand" frame, and seed 2 scored no frame at all.
    per_seed = {1: {("standard", "all"): 2.0, ("fused", "all"): 1.0}, 2: {}}
    seed_sweep.print_table(per_seed)
    rows = {tuple(line.split()[:2]): line.split()[2:] for line in capsys.readouterr().out.splitlines()[2:]}
    assert rows["standard", "stand"] == ["-"] * 6
    assert rows["standard", "all"] == ["2.000", "0.000", "2.000", "2.000", "2.000", "-"]
    assert rows["fused/standard", "all"] == ["0.500", "0.000", "0.500", "0.500", "0.500", "-"]
