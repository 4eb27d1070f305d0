"""Seed sweep: psi per method across seeds, split by pedestrian behaviour.

Runs ``simulate``, ``train`` and ``eval`` of the grid pipeline once per seed,
then prints, for each method, the mean psi over all scored frames and over
the frames of each pedestrian behaviour, with its mean, sample standard
deviation, minimum and maximum across the seeds, followed by the per-seed
values.  The fused/standard ratio of the all-frames means is the headline
claim (fused below standard).  The behaviour of each episode is read from
the dataset's episode records.

Usage (from the repository root):

    python3 tools/seed_sweep.py --seeds 0-5 --episodes 200
    python3 tools/seed_sweep.py --seeds 0,3,7 --episodes 1440 --config my.cfg --out sweep/

Each seed's artifacts stay in ``--out`` (a temporary directory by default).
The stages run through ``tools/same_bits.py``'s pipeline runner, with one
BLAS thread.  This is a report, not a test: it asserts nothing and exits 0
when every stage ran.
"""

from __future__ import annotations

import argparse
import csv
import importlib.util
import json
import statistics
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# same_bits.py is a script beside this one, not a package module.
_spec = importlib.util.spec_from_file_location("same_bits", Path(__file__).resolve().parent / "same_bits.py")
same_bits = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_bits)

BEHAVIORS = ("bold_cross", "wait_then_cross", "stand", "absent")
METHODS = ("standard", "fused")


def parse_seeds(text: str) -> list[int]:
    """``0-5`` or ``0,3,7`` (or a mix such as ``0-2,9``)."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def seed_psi(out: Path) -> dict[tuple[str, str], float]:
    """Mean psi per (method, behaviour) over one seed's scored frames, with
    the behaviour ``all`` for every frame."""
    behavior = {}
    with open(out / "dataset.jsonl") as fh:
        next(fh)  # header
        for line in fh:
            rec = json.loads(line)
            behavior[rec["index"]] = rec["scenario"]["behavior"]
    values = defaultdict(list)
    with open(out / "eval_frames.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            psi = float(row["psi"])
            values[row["method"], "all"].append(psi)
            values[row["method"], behavior[int(row["episode"])]].append(psi)
    return {key: statistics.fmean(v) for key, v in values.items()}


def print_table(per_seed: dict[int, dict[tuple[str, str], float]]) -> None:
    seeds = sorted(per_seed)
    rows = [(m, b) for m in METHODS for b in ("all", *BEHAVIORS)]
    ratios = {s: per_seed[s]["fused", "all"] / per_seed[s]["standard", "all"]
              if {("fused", "all"), ("standard", "all")} <= per_seed[s].keys() else None for s in seeds}
    header = f"{'method':<15} {'behaviour':<16} {'mean':>7} {'sd':>7} {'min':>7} {'max':>7}  " + \
        " ".join(f"{'s' + str(s):>7}" for s in seeds)
    print(header)
    print("-" * len(header))

    def cell(v: float | None) -> str:
        return f"{'-':>7}" if v is None else f"{v:7.3f}"

    def line(label: str, behaviour: str, values: list[float | None]) -> None:
        # A row without a value at any seed prints dashes for its statistics.
        present = [v for v in values if v is not None]
        stats = (statistics.fmean(present), statistics.stdev(present) if len(present) > 1 else 0.0,
                 min(present), max(present)) if present else (None,) * 4
        print(f"{label:<15} {behaviour:<16} {' '.join(map(cell, stats))}  {' '.join(map(cell, values))}")

    for method, behaviour in rows:
        line(method, behaviour, [per_seed[s].get((method, behaviour)) for s in seeds])
    line("fused/standard", "all", [ratios[s] for s in seeds])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 0-5 or 0,3,7")
    parser.add_argument("--episodes", required=True, type=int)
    parser.add_argument("--config", help="flat key=value config file (default: built-in defaults)")
    parser.add_argument("--out", help="directory for each seed's artifacts (default: a temporary one)")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        base = Path(args.out or tmp)
        per_seed = {}
        for seed in args.seeds:
            out = base / f"seed-{seed}"
            out.mkdir(parents=True, exist_ok=True)
            same_bits.run_pipeline(ROOT, same_bits.stage_argvs("grid", seed, out, None, args.episodes, args.config))
            per_seed[seed] = seed_psi(out)
        print(f"psi per method, {args.episodes} episodes, config {args.config or 'defaults'}, "
              f"seeds {','.join(map(str, args.seeds))}")
        print_table(per_seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
