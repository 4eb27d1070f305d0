"""Same bits: one pipeline's artifacts from two source trees, compared by sha256.

Runs one mode's pipeline with the ``occlusense`` package of a base source
tree and of this checkout, once per seed, each run in a temporary directory
of its own, then prints every artifact's sha256 on both sides and exits 1
if any of them differs.
The grid pipeline is ``simulate``, ``train`` and ``eval``; the landmark
pipeline is ``ingest`` of the given annotations file, ``train`` and ``eval``.
Manifests hold wall times and input paths, so only their ``counters`` and
``outputs`` objects are compared; ``outputs`` maps each artifact's name to
its sha256, so a command that stops recording an artifact is a difference.

Usage (from the repository root):

    python3 tools/same_bits.py --mode grid --base ../parent --seeds 0 1 --episodes 200
    python3 tools/same_bits.py --mode landmark --base ../parent --seeds 3 81 \\
        --annotations ann.jsonl --config landmark.cfg

The base tree is a directory holding ``src/occlusense``, such as a
``git archive`` of a commit.  Every stage runs with one BLAS thread.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Artifacts of each mode's pipeline, and the stages whose manifests it writes.
ARTIFACTS = {
    "grid": ("dataset.jsonl", "actionlets.json", "likelihoods.json", "eval_frames.csv", "eval_summary.json"),
    "landmark": ("landmark_dataset.jsonl", "logit.json", "eval_actions.csv", "eval_summary.json"),
}
STAGES = {"grid": ("simulate", "train", "eval"), "landmark": ("ingest", "train", "eval")}
BLAS_ENV = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def stage_argvs(mode: str, seed: int, out: Path, annotations: str | None, episodes: int | None,
                config: str | None) -> list[list[str]]:
    common = ["--mode", mode, "--seed", str(seed), "--out", str(out)] + (["--config", config] if config else [])
    if mode == "grid":
        dataset = str(out / "dataset.jsonl")
        first = ["simulate"] + (["--episodes", str(episodes)] if episodes else [])
    else:
        dataset = str(out / "landmark_dataset.jsonl")
        first = ["ingest", annotations]
    return [first + common, ["train", "--dataset", dataset, *common],
            ["eval", "--dataset", dataset, "--models", str(out), *common]]


def run_pipeline(tree: Path, argvs: list[list[str]]) -> None:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **BLAS_ENV)
    for argv in argvs:
        subprocess.run([sys.executable, "-m", "occlusense", *argv], env=env, check=True,
                       stdout=subprocess.DEVNULL)


#: The manifest objects compared, by key.
MANIFEST_KEYS = ("counters", "outputs")


def digests(out: Path, mode: str) -> dict[str, str]:
    """sha256 of each artifact in ``out`` and of each manifest's counters and
    outputs (``missing`` for a file or object that is not there)."""
    found = {}
    for name in ARTIFACTS[mode]:
        path = out / name
        found[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "missing"
    for stage in STAGES[mode]:
        path = out / f"manifest_{stage}.json"
        doc = json.loads(path.read_text()) if path.exists() else {}
        for key in MANIFEST_KEYS:
            if key in doc:
                text = json.dumps(doc[key], sort_keys=True)
                found[f"{path.name} {key}"] = hashlib.sha256(text.encode()).hexdigest()
            else:
                found[f"{path.name} {key}"] = "missing"
    return found


def compare(base: Path, head: Path, mode: str) -> bool:
    """Print each artifact's sha256 in the two output directories; True when all agree."""
    left, right = digests(base, mode), digests(head, mode)
    same = True
    for name in left:
        agree = left[name] == right[name] != "missing"
        same &= agree
        print(f"  {'same' if agree else 'DIFF'}  {name}\n        base {left[name]}\n        head {right[name]}")
    return same


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=sorted(ARTIFACTS), required=True)
    parser.add_argument("--base", type=Path, required=True, help="source tree to compare against")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--annotations", help="annotation JSONL that landmark mode ingests")
    parser.add_argument("--episodes", type=int, help="grid episode count (default: the config's)")
    parser.add_argument("--config", help="flat config file passed to every stage")
    args = parser.parse_args(argv)
    if args.mode == "landmark" and not args.annotations:
        parser.error("landmark mode needs --annotations")
    config = str(Path(args.config).resolve()) if args.config else None
    annotations = str(Path(args.annotations).resolve()) if args.annotations else None

    with tempfile.TemporaryDirectory() as tmp:
        same = True
        for seed in args.seeds:
            outs = []
            for side, tree in (("base", args.base), ("head", ROOT)):
                out = Path(tmp) / f"seed{seed}" / side
                run_pipeline(tree.resolve(), stage_argvs(args.mode, seed, out, annotations, args.episodes, config))
                outs.append(out)
            print(f"seed {seed}:")
            same &= compare(*outs, args.mode)
    print("same bits" if same else "artifacts differ")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
