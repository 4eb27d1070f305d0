"""Seeded synthetic detection annotations for the landmark workload.

Pedestrians stand at ground points ahead of a level pinhole camera.  Each
point is projected forward to the bounding box a detector would report, so
``occlusense ingest`` back-projects every record to (nearly) the point it
came from and accepts all of them.  Visible pedestrians train the action
model: their action follows the forward-distance band with label noise.
Occluded pedestrians are the evaluation targets: they sit on the 0.5 m
candidate lattice of the benchmark's region, drawn from the same bands.

The same seed always gives byte-identical output.
"""

from __future__ import annotations

import json

import numpy as np

#: Camera intrinsics and mounting height; ``ingest`` gets them from the config.
CAMERA = {"fx": 800.0, "fy": 800.0, "cx": 640.0, "cy": 360.0, "height_m": 1.5}
PED_WIDTH_M = 0.6
PED_HEIGHT_M = 1.7

#: Candidate lattice the landmark eval scores on (the ``region.*`` keys).
REGION = {"x_min": -3.0, "x_max": 3.0, "y_min": 1.0, "y_max": 25.0, "step": 0.5}

ACTION_LABELS = ("moving_fast", "moving_slow", "accelerating", "decelerating", "stopped")
#: (action, nearest y, farthest y) of the occluded evaluation targets.
TARGET_BANDS = (("stopped", 1.0, 5.0), ("decelerating", 7.0, 13.0), ("moving_fast", 15.0, 25.0))
TARGET_SHARES = (0.4, 0.3, 0.3)
LABEL_NOISE = 0.1


def distance_band(y: float) -> str:
    """Action a visible pedestrian at forward distance ``y`` usually takes."""
    if y < 6.0:
        return "stopped"
    if y < 14.0:
        return "decelerating"
    return "moving_fast"


def project(x: float, y: float) -> list[float]:
    """Pixel box [left, top, width, height] of a pedestrian at ground (x, y)."""
    u = CAMERA["cx"] + CAMERA["fx"] * x / y
    v = CAMERA["cy"] + CAMERA["fy"] * CAMERA["height_m"] / y
    w = CAMERA["fx"] * PED_WIDTH_M / y
    h = CAMERA["fy"] * PED_HEIGHT_M / y
    return [u - w / 2.0, v - h, w, h]


def _lattice(lo: float, hi: float, rng: np.random.Generator) -> float:
    step = REGION["step"]
    return lo + step * int(rng.integers(0, int(round((hi - lo) / step)) + 1))


def generate(seed: int, n_clips: int, visible_per_clip: int, occluded_per_clip: int) -> list[dict]:
    """Annotation records: per clip, visible ones first, then occluded ones."""
    rng = np.random.default_rng(seed)
    records = []
    for c in range(n_clips):
        clip = f"clip{c:03d}"
        frame = 0
        for _ in range(visible_per_clip):
            x = float(rng.uniform(REGION["x_min"], REGION["x_max"]))
            y = float(rng.uniform(REGION["y_min"], REGION["y_max"]))
            noisy = rng.random() < LABEL_NOISE
            label = ACTION_LABELS[int(rng.integers(len(ACTION_LABELS)))] if noisy else distance_band(y)
            records.append(_record(clip, frame, x, y, label, occluded=False))
            frame += 1
        for _ in range(occluded_per_clip):
            band = int(rng.choice(len(TARGET_BANDS), p=TARGET_SHARES))
            label, lo, hi = TARGET_BANDS[band]
            x = _lattice(REGION["x_min"], REGION["x_max"], rng)
            y = _lattice(lo, hi, rng)
            records.append(_record(clip, frame, x, y, label, occluded=True))
            frame += 1
    return records


def _record(clip: str, frame: int, x: float, y: float, label: str, occluded: bool) -> dict:
    return {"clip_id": clip, "frame": frame, "bbox": project(x, y),
            "action_label": label, "occluded": occluded}


def write(path, records: list[dict]) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n")
