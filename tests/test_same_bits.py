"""The same-bits tool's comparison of two output directories.

``tools/same_bits.py`` is a script, not a package module, so it is loaded
from its path.  These tests run no pipeline: they compare hand-written
artifacts and manifests.
"""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "same_bits.py"
spec = importlib.util.spec_from_file_location("same_bits", SCRIPT)
same_bits = importlib.util.module_from_spec(spec)
spec.loader.exec_module(same_bits)


def landmark_outputs(path: Path, wall_time: float, accepted: int = 3, logit_digest: str = "ab12") -> Path:
    """Artifacts and manifests; ``logit_digest`` is train's recorded digest of
    ``logit.json``, the other manifests record one made-up digest each."""
    path.mkdir()
    for name in same_bits.ARTIFACTS["landmark"]:
        (path / name).write_text(f"{name} contents\n")
    for stage in same_bits.STAGES["landmark"]:
        outputs = {"logit.json": logit_digest} if stage == "train" else {f"{stage}.out": "cd34"}
        doc = {"command": stage, "wall_time_s": wall_time, "inputs": {str(path / "in.jsonl"): "ef56"},
               "counters": {"accepted": accepted, "stage": stage}, "outputs": outputs}
        (path / f"manifest_{stage}.json").write_text(json.dumps(doc))
    return path


def test_directories_with_the_same_artifacts_compare_equal(tmp_path, capsys):
    base = landmark_outputs(tmp_path / "base", wall_time=1.0)
    # manifests differ only in time and in their inputs' paths
    head = landmark_outputs(tmp_path / "head", wall_time=2.5)
    assert same_bits.compare(base, head, "landmark")
    out = capsys.readouterr().out
    assert "DIFF" not in out
    assert out.count("same") == (len(same_bits.ARTIFACTS["landmark"])
                                 + len(same_bits.MANIFEST_KEYS) * len(same_bits.STAGES["landmark"]))


def test_one_byte_or_one_counter_differs(tmp_path, capsys):
    base = landmark_outputs(tmp_path / "base", wall_time=1.0)
    head = landmark_outputs(tmp_path / "head", wall_time=1.0)
    (head / "logit.json").write_text("logit.json contents \n")
    assert not same_bits.compare(base, head, "landmark")
    diffs = [line for line in capsys.readouterr().out.splitlines() if "DIFF" in line]
    assert diffs == ["  DIFF  logit.json"]

    counted = landmark_outputs(tmp_path / "counted", wall_time=1.0, accepted=4)
    assert not same_bits.compare(base, counted, "landmark")
    diffs = [line.split("DIFF")[1].strip() for line in capsys.readouterr().out.splitlines() if "DIFF" in line]
    assert diffs == [f"manifest_{stage}.json counters" for stage in same_bits.STAGES["landmark"]]


def test_only_one_recorded_output_digest_differs(tmp_path, capsys):
    """Same artifacts and counters, but train's manifest records another
    digest for logit.json."""
    base = landmark_outputs(tmp_path / "base", wall_time=1.0)
    head = landmark_outputs(tmp_path / "head", wall_time=1.0, logit_digest="ab13")
    assert not same_bits.compare(base, head, "landmark")
    diffs = [line.split("DIFF")[1].strip() for line in capsys.readouterr().out.splitlines() if "DIFF" in line]
    assert diffs == ["manifest_train.json outputs"]


def test_a_manifest_without_outputs_is_a_difference(tmp_path, capsys):
    base = landmark_outputs(tmp_path / "base", wall_time=1.0)
    head = landmark_outputs(tmp_path / "head", wall_time=1.0)
    path = head / "manifest_eval.json"
    doc = json.loads(path.read_text())
    del doc["outputs"]
    path.write_text(json.dumps(doc))
    assert not same_bits.compare(base, head, "landmark")
    assert "DIFF  manifest_eval.json outputs" in capsys.readouterr().out


def test_an_artifact_missing_on_both_sides_is_a_difference(tmp_path, capsys):
    base = landmark_outputs(tmp_path / "base", wall_time=1.0)
    head = landmark_outputs(tmp_path / "head", wall_time=1.0)
    for side in (base, head):
        (side / "eval_summary.json").unlink()
    assert not same_bits.compare(base, head, "landmark")
    assert "DIFF  eval_summary.json" in capsys.readouterr().out
