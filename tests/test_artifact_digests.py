"""Fixed seeds keep their bits: a committed table of artifact digests.

Five small pipelines run in-process through ``main(argv)``: the CLI
defaults at 40 episodes, the benchmark's ``grid-fine`` config at 30
episodes, ``grid.frame = ego`` scoring ``standard, fused, truth``,
``grid.frame = world``, and the landmark config on 8 clips of
``perfbench/synthetic.py`` annotations.  Each artifact's sha256, and that of
each manifest's ``counters`` and ``outputs`` (the objects
``tools/same_bits.py`` compares), must equal the entry in
``artifact_digests.json``.

The table holds for Python 3.11.7 with numpy 2.4.6; artifacts were the same
with one and with two BLAS threads.  A change that alters the bits on
purpose updates the table in the same commit: a failure prints each
pipeline's new entry.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from occlusense.cli import main

ROOT = Path(__file__).resolve().parent.parent
TABLE = Path(__file__).resolve().parent / "artifact_digests.json"


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


same_bits = _load("same_bits", ROOT / "tools" / "same_bits.py")
synthetic = _load("synthetic_annotations", ROOT / "perfbench" / "synthetic.py")

SEED = 5
#: Flat config keys and episode count (annotation clips for landmark) of each pipeline.
PIPELINES = {
    "defaults": ({}, 40),
    "grid-fine": ({
        "sim.duration_range": "7.5, 7.5",
        "train.split": "0.8333",
        "train.stride": "2",
        "eval.stride": "18",
        "grid.width": "24",
        "grid.height": "28",
        "grid.resolution": "0.25",
        "eval.region": "occluded",
    }, 30),
    "ego": ({"grid.frame": "ego", "eval.methods": "standard, fused, truth"}, 30),
    "world": ({"grid.frame": "world"}, 30),
    "landmark": ({
        "mode": "landmark",
        "logit.max_iters": "1000",
        **{f"camera.{k}": repr(v) for k, v in synthetic.CAMERA.items()},
        **{f"region.{k}": repr(v) for k, v in synthetic.REGION.items()},
    }, 8),
}


def run_pipeline(name: str, work: Path) -> dict[str, str]:
    """Digests of one pipeline's artifacts and manifests, run in ``work``."""
    keys, size = PIPELINES[name]
    mode = keys.get("mode", "grid")
    config = work / "run.cfg"
    config.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    out = work / "out"
    common = ["--config", str(config), "--seed", str(SEED), "--out", str(out)]
    if mode == "grid":
        dataset = out / "dataset.jsonl"
        first = ["simulate", "--episodes", str(size)]
    else:
        dataset = out / "landmark_dataset.jsonl"
        annotations = work / "annotations.jsonl"
        synthetic.write(annotations, synthetic.generate(SEED, size, visible_per_clip=200, occluded_per_clip=100))
        first = ["ingest", str(annotations)]
    for argv in (first, ["train", "--dataset", str(dataset)],
                 ["eval", "--dataset", str(dataset), "--models", str(out)]):
        assert main([*argv, *common]) == 0, argv
    return same_bits.digests(out, mode)


@pytest.mark.parametrize("name", sorted(PIPELINES))
def test_artifacts_match_the_digest_table(tmp_path, name):
    want = json.loads(TABLE.read_text())[name]
    got = run_pipeline(name, tmp_path)
    changed = {key: got[key] for key in sorted(set(want) | set(got)) if want.get(key) != got.get(key)}
    assert not changed, f"{name}: digests differ: {json.dumps(changed, indent=2)}\nnew entry: {json.dumps(got)}"
