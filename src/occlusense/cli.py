"""Command-line pipeline: simulate, train, eval, ingest.

Runs are configured by a flat ``key = value`` text file (see the README
for the key reference) plus a few overriding flags.  Every command writes
a JSON manifest next to its outputs recording the effective config, seed,
input/output digests and timings; manifests are written even when a
command fails partway, so partial runs stay auditable.

Exit codes: 0 success, 1 usage or configuration error, 2 malformed input
data, 3 internal error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain, compress, cycle, islice, repeat
from pathlib import Path

import numpy as np

from . import __version__
from .behavior import (
    WINDOW_SECONDS,
    assign_actionlet,
    estimate_likelihoods,
    extract_features,
    kmeans_fit,
    load_actionlet_model,
    load_likelihood_table,
    save_model_json,
)
from .errors import MALFORMED, ConfigError, DataError
from .grid import GridSpec, fuse_action, new_uniform_grid, threshold
from .landmark import (
    CameraModel,
    OccludedRegion,
    SemanticAction,
    action_from_label,
    bbox_to_landmark,
    fit_logit,
    load_logit_model,
    posterior_over_region,
    save_logit_model,
)
from .metrics import aggregate_similarity, improvement_ratio, mean_and_se, posterior_mass_at_truth, score_pair
from .perception import raycast_scan, standard_inverse_update, visibility_mask
from .seeds import named_rng
from .simulator import (
    GRID_FRAMES,
    ScenarioConfig,
    anchored_spec_at,
    ground_truth_grid,
    read_episodes,
    simulate_batch,
    write_episodes,
)

EVAL_METHODS = ("standard", "fused", "truth")
#: Annotation records per chunk of :func:`cmd_ingest`.
INGEST_CHUNK = 4096


# ---------------------------------------------------------------------------
# Configuration.
# ---------------------------------------------------------------------------

def parse_flat_config(text: str, source: str = "<config>") -> dict[str, str]:
    """Parse ``key = value`` lines; '#' starts a comment, blanks ignored."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError(f"{source}:{lineno}: empty key or value")
        if key in out:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


@dataclass
class PipelineConfig:
    """Effective settings for one pipeline run."""

    mode: str = "grid"
    seed: int = 0
    out_dir: str = "out"

    # Grid template (anchored per frame during simulation-based runs).
    grid_width: int = 6
    grid_height: int = 7
    grid_resolution: float = 1.0
    grid_frame: str = "occluder"

    # Simulation.
    n_episodes: int = 1440
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)

    # Behavior-sensor training.
    train_split: float = 0.2
    k_actionlets: int = 10
    smoothing_alpha: float = 1.0
    train_stride: int = 1

    # Evaluation.
    eval_stride: int = 3
    eval_methods: tuple[str, ...] = ("standard", "fused")
    eval_region: str = "full"
    psi_threshold: float = 0.6
    n_beams: int = 360
    max_range: float = 50.0

    # Landmark mode.
    logit_reg: float = 0.01
    logit_max_iters: int = 2000
    region_x: tuple[float, float] = (-8.0, 8.0)
    region_y: tuple[float, float] = (1.0, 25.0)
    region_step: float = 2.0
    camera_fallback: CameraModel | None = None

    def grid_template(self) -> GridSpec:
        return GridSpec(self.grid_width, self.grid_height, self.grid_resolution, (0.0, 0.0), self.grid_frame)

    def region(self) -> OccludedRegion:
        return OccludedRegion.from_grid(*self.region_x, *self.region_y, self.region_step)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _checked(kind, ok, rule: str):
    """Parser converting a value with ``kind`` and rejecting it unless ``ok``."""
    def parse(value: str):
        parsed = kind(value)
        if not ok(parsed):
            raise ValueError(f"must be {rule}, got {value!r}")
        return parsed
    return parse


def _one_of(*choices: str):
    return _checked(str, lambda v: v in choices, f"one of {choices}")


def _split(value: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in value.split(","))


_COUNT = _checked(int, lambda v: v >= 1, "at least 1")
#: Every float key, ``sim.*``, ``camera.*`` and ``region.*`` included, is
#: parsed by ``_FLOAT`` (or by a ``_checked`` rule built on it).
_FLOAT = _checked(float, math.isfinite, "finite")

#: Flat config key -> (PipelineConfig field, parser).  ``sim.*``,
#: ``camera.*`` and ``region.{x,y}_{min,max}`` are handled by prefix.
_KEYS = {
    "mode": ("mode", _one_of("grid", "landmark")),
    "seed": ("seed", int),
    "out_dir": ("out_dir", str),
    "grid.width": ("grid_width", int),
    "grid.height": ("grid_height", int),
    "grid.resolution": ("grid_resolution", _FLOAT),
    "grid.frame": ("grid_frame", _one_of(*GRID_FRAMES)),
    "sim.n_episodes": ("n_episodes", _COUNT),
    "train.split": ("train_split", _checked(_FLOAT, lambda v: 0.0 < v < 1.0, "inside (0, 1)")),
    "train.k": ("k_actionlets", _COUNT),
    "train.alpha": ("smoothing_alpha", _checked(_FLOAT, lambda v: v > 0.0, "positive")),
    "train.stride": ("train_stride", _COUNT),
    "eval.stride": ("eval_stride", _COUNT),
    "eval.methods": ("eval_methods", _checked(_split, lambda ms: set(ms) <= set(EVAL_METHODS),
                                              f"methods from {EVAL_METHODS}")),
    "eval.region": ("eval_region", _one_of("full", "occluded")),
    "eval.threshold": ("psi_threshold", _checked(_FLOAT, lambda v: 0.0 < v < 1.0, "inside (0, 1)")),
    "eval.n_beams": ("n_beams", _COUNT),
    "eval.max_range": ("max_range", _checked(_FLOAT, lambda v: v > 0.0, "positive")),
    "logit.reg": ("logit_reg", _checked(_FLOAT, lambda v: v >= 0.0, "nonnegative")),
    "logit.max_iters": ("logit_max_iters", _COUNT),
    "region.step": ("region_step", _FLOAT),
}
_CAMERA_KEYS = {"fx", "fy", "cx", "cy", "height_m"}
_REGION_KEYS = {"x_min", "x_max", "y_min", "y_max"}


def config_from_mapping(mapping: dict[str, str]) -> PipelineConfig:
    """Build a :class:`PipelineConfig` from flat config keys.

    Unknown keys and out-of-range values are rejected so mistakes fail
    loudly at load time instead of running with defaults or failing
    partway through a command.  :class:`ScenarioConfig` checks the count
    of numbers in each ``sim.*`` value's comma list.
    """
    cfg = PipelineConfig()
    scenario = dataclasses.asdict(cfg.scenario)
    camera: dict[str, float] = {}
    try:
        for key, value in mapping.items():
            where = f"config key {key!r}"
            prefix, _, name = key.partition(".")
            if key in _KEYS:
                attr, parse = _KEYS[key]
                setattr(cfg, attr, parse(value))
            elif prefix == "sim" and name in scenario:
                scenario[name] = tuple(map(_FLOAT, _split(value)))
            elif prefix == "camera" and name in _CAMERA_KEYS:
                camera[name] = _FLOAT(value)
            elif prefix == "region" and name in _REGION_KEYS:
                axis, end = name.split("_")
                lo, hi = getattr(cfg, f"region_{axis}")
                setattr(cfg, f"region_{axis}", (_FLOAT(value), hi) if end == "min" else (lo, _FLOAT(value)))
            else:
                raise ConfigError(f"unknown config key {key!r}")
        # The constructors check their own values; the region is checked without its lattice.
        where = "config"
        cfg.scenario = ScenarioConfig(**scenario)
        cfg.grid_template()
        OccludedRegion.check_lattice(*cfg.region_x, *cfg.region_y, cfg.region_step)
        if camera:
            if missing := _CAMERA_KEYS - set(camera):
                raise ConfigError(f"camera config incomplete: missing {sorted(missing)}")
            cfg.camera_fallback = CameraModel(**camera)
        if not math.isfinite(cfg.smoothing_alpha * cfg.k_actionlets):  # in the likelihoods' denominator
            raise ValueError("train.alpha times train.k must be finite")
    except (ValueError, TypeError, ArithmeticError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    return cfg


def load_config(path: str | None, overrides: dict) -> PipelineConfig:
    mapping: dict[str, str] = {}
    if path is not None:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        mapping = parse_flat_config(text, source=path)
    cfg = config_from_mapping(mapping)
    for key, value in overrides.items():
        if value is not None:
            setattr(cfg, key, value)
    return cfg


# ---------------------------------------------------------------------------
# Manifests.
# ---------------------------------------------------------------------------

def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class ManifestWriter:
    """Collects run metadata and writes it out, success or not."""

    def __init__(self, command: str, cfg: PipelineConfig, out_dir: Path):
        self.command = command
        self.cfg = cfg
        self.out_dir = out_dir
        self.inputs: dict[str, str] = {}
        self.outputs: dict[str, str] = {}
        self.counters: dict[str, float | str] = {}
        self.started = time.time()

    def add_input(self, path: str | Path) -> None:
        p = Path(path)
        if p.exists():
            self.inputs[str(p)] = _sha256(p)

    def write(self, status: str, error: str | None = None) -> Path:
        doc = {
            "tool": "occlusense",
            "version": __version__,
            "command": self.command,
            "status": status,
            "error": error,
            "seed": self.cfg.seed,
            "mode": self.cfg.mode,
            "config": self.cfg.to_dict(),
            "inputs": self.inputs,
            "outputs": self.outputs,
            "counters": self.counters,
            "wall_time_s": round(time.time() - self.started, 3),
            "peak_rss_mb": _peak_rss_mb(),
        }
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"manifest_{self.command}.json"
        _write_json(path, doc)
        return path

    @contextmanager
    def staged(self, *names: str):
        """Temp paths beside the artifacts ``names`` in ``out_dir``.

        Only when the block succeeds is each temp moved into place and its
        sha256 recorded in ``outputs``; otherwise the temps are deleted, so
        a failed command leaves no partial artifact.
        """
        self.out_dir.mkdir(parents=True, exist_ok=True)
        paths = [self.out_dir / name for name in names]
        temps = [path.with_name(path.name + ".tmp") for path in paths]
        try:
            yield temps
            for tmp, path in zip(temps, paths):
                os.replace(tmp, path)
                self.outputs[path.name] = _sha256(path)
        finally:
            for tmp in temps:
                tmp.unlink(missing_ok=True)


def _peak_rss_mb() -> float | None:
    """This process's own peak resident set size (``VmHWM``) in MiB, or None
    where ``/proc`` does not report it.  ``ru_maxrss`` would not do: it
    carries the spawning process's high-water mark across ``exec``."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return round(int(line.split()[1]) / 1024.0, 2)
    except OSError:
        pass
    return None


def _write_json(path: Path, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Shared pipeline pieces.
# ---------------------------------------------------------------------------

def split_episodes(n_episodes: int, split: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic episode-level train/eval split.

    Returns (train_indices, eval_indices).  The split is derived from the
    root seed's "train" stream, so train and eval commands agree on it
    without sharing state.
    """
    if not (0.0 < split < 1.0):
        raise ConfigError(f"train split must lie in (0, 1), got {split}")
    if n_episodes < 2:
        raise ConfigError("need at least two episodes to split")
    rng = named_rng(seed, "train")
    perm = rng.permutation(n_episodes)
    n_train = int(round(n_episodes * split))
    n_train = min(max(n_train, 1), n_episodes - 1)
    return np.sort(perm[:n_train]), np.sort(perm[n_train:])


def _split_dataset(cfg: PipelineConfig, n: int, what: str) -> tuple[np.ndarray, np.ndarray]:
    """:func:`split_episodes` of a dataset of ``n`` episodes or clips; one too
    small to split is bad input data, not a bad config."""
    if n < 2:
        raise DataError(f"need at least two {what} to split, got {n}")
    return split_episodes(n, cfg.train_split, cfg.seed)


def _eval_frame_indices(log, stride: int) -> np.ndarray:
    """Frames with enough history for a feature window, at the given stride."""
    rate = log.config.log_rate
    first = int(np.ceil(WINDOW_SECONDS * rate - 1e-9))
    return np.arange(first, log.n_frames, stride)


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------

def cmd_simulate(cfg: PipelineConfig, manifest: ManifestWriter) -> None:
    with manifest.staged("dataset.jsonl") as (tmp,):
        episodes = simulate_batch(cfg.scenario, cfg.n_episodes, cfg.seed)
        count = write_episodes(str(tmp), episodes, cfg.scenario, cfg.seed, cfg.n_episodes)
    manifest.counters["episodes"] = count
    print(f"simulate: wrote {count} episodes to {manifest.out_dir / 'dataset.jsonl'}")


def cmd_train(cfg: PipelineConfig, manifest: ManifestWriter, dataset: str) -> None:
    if cfg.mode == "grid":
        _train_grid(cfg, manifest, dataset)
    else:
        _train_landmark(cfg, manifest, dataset)


def _train_grid(cfg: PipelineConfig, manifest: ManifestWriter, dataset: str) -> None:
    manifest.add_input(dataset)
    logs = read_episodes(_json_lines(dataset, "dataset"), dataset)
    train_idx, eval_idx = _split_dataset(cfg, len(logs), "episodes")
    manifest.counters["episodes_total"] = len(logs)
    manifest.counters["episodes_train"] = len(train_idx)
    manifest.counters["episodes_eval"] = len(eval_idx)

    # Only the (N, 21) feature rows are held at once: each episode's true
    # maps are made after k-means and counted as they come.  An episode too
    # short for a feature window adds no row.
    episodes = [(logs[i], _eval_frame_indices(logs[i], cfg.train_stride)) for i in train_idx]
    episodes = [(log, frames) for log, frames in episodes if len(frames)]
    bounds = np.cumsum([0] + [len(frames) for _, frames in episodes])
    rows = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]  # each episode's rows
    features = np.empty((bounds[-1], 21))
    for (log, frames), row in zip(episodes, rows):
        features[row] = extract_features(log, log.t[frames])
    manifest.counters["training_samples"] = len(features)
    if len(features) < cfg.k_actionlets:
        raise DataError(
            f"only {len(features)} training samples for k={cfg.k_actionlets} actionlets; "
            "need more episodes or a smaller stride"
        )
    # k-means scales the rows by their spread, which overflows on huge values (a crosswalk at 1e308).
    if not np.isfinite(features.std(axis=0)).all():
        raise DataError("the training feature windows overflow: a position or speed in the dataset is out of range")

    kmeans_seed = int(named_rng(cfg.seed, "train.kmeans").integers(2**31))
    model = kmeans_fit(features, k=cfg.k_actionlets, seed=kmeans_seed)
    labels = assign_actionlet(model, features)
    template = cfg.grid_template()
    truth = ((labels[row], ground_truth_grid(log, frames, anchored_spec_at(template, log, frames)).cells)
             for (log, frames), row in zip(episodes, rows))
    table = estimate_likelihoods(truth, template, cfg.k_actionlets, cfg.smoothing_alpha)
    table.validate()

    with manifest.staged("actionlets.json", "likelihoods.json") as (actionlet_tmp, table_tmp):
        save_model_json(model, str(actionlet_tmp))
        save_model_json(table, str(table_tmp))
    manifest.counters["kmeans_iterations"] = len(model.sse_history)
    manifest.counters["kmeans_stop_reason"] = model.stop_reason
    print(f"train: {len(features)} samples -> {cfg.k_actionlets} actionlets; models in {manifest.out_dir}")


def _train_landmark(cfg: PipelineConfig, manifest: ManifestWriter, dataset: str) -> None:
    manifest.add_input(dataset)
    clips, clip, xy, actions, occluded = _read_landmark_records(dataset)
    train_idx, _ = _split_dataset(cfg, len(clips), "clips")
    # Train on directly observed pedestrians; occluded samples are the
    # evaluation targets.
    train = np.isin(clip, train_idx) & ~occluded
    n_samples = int(np.count_nonzero(train))
    manifest.counters["clips_total"] = len(clips)
    manifest.counters["clips_train"] = len(train_idx)
    manifest.counters["training_samples"] = n_samples
    if n_samples == 0:
        raise DataError("no visible training samples in the training clips")
    # x^2 + y^2 summed over the rows bounds every entry of the logit fit's Newton system.
    if not math.isfinite(np.sum(xy[train] ** 2)):
        raise DataError("the training positions overflow the logit fit: a position in the dataset is out of range")

    model = fit_logit(xy[train], actions[train], reg=cfg.logit_reg, max_iters=cfg.logit_max_iters)
    with manifest.staged("logit.json") as (tmp,):
        save_logit_model(model, str(tmp))
    manifest.counters["logit_iterations"] = len(model.loglik_history)
    manifest.counters["logit_stop_reason"] = model.stop_reason
    manifest.counters["logit_grad_norm"] = model.grad_norm
    print(f"train: fit action model on {n_samples} samples; model in {manifest.out_dir}")


def cmd_eval(cfg: PipelineConfig, manifest: ManifestWriter, dataset: str, models_dir: str | None) -> None:
    if cfg.mode == "grid":
        _eval_grid(cfg, manifest, dataset, models_dir)
    else:
        _eval_landmark(cfg, manifest, dataset, models_dir)


def _eval_grid(cfg: PipelineConfig, manifest: ManifestWriter, dataset: str, models_dir: str | None) -> None:
    manifest.add_input(dataset)
    logs = read_episodes(_json_lines(dataset, "dataset"), dataset)
    _, eval_idx = _split_dataset(cfg, len(logs), "episodes")
    manifest.counters["episodes_eval"] = len(eval_idx)

    model = table = None
    if "fused" in cfg.eval_methods:
        if models_dir is None:
            raise ConfigError("--models is required when evaluating the fused method")
        mdir = Path(models_dir)
        manifest.add_input(mdir / "actionlets.json")
        manifest.add_input(mdir / "likelihoods.json")
        try:
            model = load_actionlet_model(str(mdir / "actionlets.json"))
            table = load_likelihood_table(str(mdir / "likelihoods.json"))
            table.validate()
        except (OSError, *MALFORMED) as exc:
            raise DataError(f"cannot load behavior models from {models_dir}: {exc}") from exc
        if not table.spec.layout_matches(cfg.grid_template()):
            raise DataError("likelihood table layout does not match the configured grid")
        if model.k != table.n_actions:
            raise DataError(f"actionlets.json has k={model.k} actionlets but likelihoods.json "
                            f"has {table.n_actions} actions: the models do not belong together")

    template = cfg.grid_template()
    # Per method, each episode's (episode, t, psi) columns of its scored frames.
    columns: dict[str, list[tuple[np.ndarray, ...]]] = {m: [] for m in cfg.eval_methods}

    # The CSV is closed before the manifest moves both files into place.
    with manifest.staged("eval_frames.csv", "eval_summary.json") as (frames_tmp, summary_tmp), \
            open(frames_tmp, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["episode", "t", "method", "psi", "d_ab_free", "d_ab_occ", "d_ba_free", "d_ba_occ"])
        for ep in eval_idx:
            # Every layer takes the episode's whole stack of frames at once.
            log = logs[ep]
            frames = _eval_frame_indices(log, cfg.eval_stride)
            if len(frames) == 0:
                continue
            spec_t = anchored_spec_at(template, log, frames)
            truth = ground_truth_grid(log, frames, spec_t)
            scan = raycast_scan(log.scene_at(frames), log.ego_pose(frames), cfg.n_beams, cfg.max_range)
            occluded, hit = visibility_mask(scan, spec_t)
            mask = occluded if cfg.eval_region == "occluded" else None
            scored = np.ones(len(frames), dtype=bool) if mask is None else mask.any(axis=1)
            if not scored.any():
                continue
            base = standard_inverse_update(new_uniform_grid(spec_t), occluded, hit)

            predictions = {}
            if "standard" in cfg.eval_methods:
                predictions["standard"] = threshold(base, cfg.psi_threshold)
            if "fused" in cfg.eval_methods:
                windows = extract_features(log, log.t[frames])
                fused = fuse_action(base, table, assign_actionlet(model, windows))
                predictions["fused"] = threshold(fused, cfg.psi_threshold)
            if "truth" in cfg.eval_methods:
                predictions["truth"] = truth

            # (psi, d_ab_free, d_ab_occ, d_ba_free, d_ba_occ) of each scored frame
            # and method: rows run frame by frame, methods within a frame.
            scores = [score_pair(predicted, truth, mask) for predicted in predictions.values()]
            fields = np.stack([(s.psi, s.d_ab_free, s.d_ab_occ, s.d_ba_free, s.d_ba_occ) for s in scores],
                              axis=-1)[:, scored]
            times = log.t[frames][scored]
            writer.writerows(zip(repeat(int(ep)), map(repr, np.repeat(times, len(scores)).tolist()),
                                 cycle(predictions), *(map(repr, col) for col in fields.reshape(5, -1).tolist())))
            for method, psi in zip(predictions, fields[0].T):
                columns[method].append((np.full(len(times), ep), times, psi))

        # Every scored frame scores every method: all methods have columns or none has.
        if not any(columns.values()):
            raise DataError("no eval frame to score: each eval episode is shorter than the feature window"
                            + (" or has no frame with an occluded cell" if cfg.eval_region == "occluded" else ""))
        summary = {
            "mode": "grid",
            "threshold": cfg.psi_threshold,
            "region": cfg.eval_region,
            "methods": {m: aggregate_similarity(*map(np.concatenate, zip(*parts)))
                        for m, parts in columns.items()},
        }
        _write_json(summary_tmp, summary)
    for method, stats in summary["methods"].items():
        manifest.counters[f"psi_mean_{method}"] = stats["psi_mean"]
        print(f"eval[{method}]: mean psi {stats['psi_mean']:.3f} over {stats['n_frames']} frames")


def _eval_landmark(cfg: PipelineConfig, manifest: ManifestWriter, dataset: str, models_dir: str | None) -> None:
    if models_dir is None:
        raise ConfigError("--models is required for landmark evaluation")
    manifest.add_input(dataset)
    model_path = Path(models_dir) / "logit.json"
    manifest.add_input(model_path)
    try:
        model = load_logit_model(str(model_path))
    except (OSError, *MALFORMED) as exc:
        raise DataError(f"cannot load logit model: {exc}") from exc

    clips, clip, xy, actions, occluded = _read_landmark_records(dataset)
    _, eval_idx = _split_dataset(cfg, len(clips), "clips")
    region = cfg.region()
    prior = 1.0 / region.n

    targets = np.isin(clip, eval_idx) & occluded
    truth = region.locate(xy[targets], tol=cfg.region_step / 2.0)
    skipped_outside = int(np.count_nonzero(truth < 0))
    observed = actions[targets]
    # The posterior depends only on the observed action: one per action seen.
    masses: dict[SemanticAction, np.ndarray] = {}
    for action in SemanticAction:
        scored = (truth >= 0) & (observed == action.value)
        if scored.any():
            try:  # a model whose scores overflow, or that never predicts the action
                posterior = posterior_over_region(model, region, action)
            except ArithmeticError as exc:
                raise DataError(f"logit model gives no posterior for {action.name.lower()}: {exc}") from exc
            masses[action] = posterior_mass_at_truth(posterior, truth[scored])
    evaluated = sum(map(len, masses.values()))
    if evaluated == 0:
        raise DataError("no occluded samples inside the candidate region to evaluate")

    rows = []
    for action, vals in masses.items():
        mean, se = mean_and_se(vals)
        rows.append({
            "action": action.name.lower(),
            "n": len(vals),
            "p_prior": prior,
            "p_ours_mean": mean,
            "p_ours_se": se,
            "improvement_ratio": improvement_ratio(mean, prior),
        })
    summary = {
        "mode": "landmark",
        "region_candidates": region.n,
        "p_prior": prior,
        "evaluated_samples": evaluated,
        "skipped_outside_region": skipped_outside,
        "actions": {row["action"]: {k: v for k, v in row.items() if k != "action"} for row in rows},
    }
    with manifest.staged("eval_actions.csv", "eval_summary.json") as (table_tmp, summary_tmp), \
            open(table_tmp, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["action", "n", "p_prior", "p_ours_mean",
                                                "p_ours_se", "improvement_ratio"])
        writer.writeheader()
        for row in rows:
            writer.writerow({k: (repr(v) if isinstance(v, float) else v) for k, v in row.items()})
        _write_json(summary_tmp, summary)
    manifest.counters["evaluated_samples"] = evaluated
    manifest.counters["skipped_outside_region"] = skipped_outside
    for row in rows:
        print(f"eval[{row['action']}]: p_ours {row['p_ours_mean']:.4f} vs prior {prior:.4f} "
              f"(ratio {row['improvement_ratio']:+.3f}, n={row['n']})")


def cmd_ingest(cfg: PipelineConfig, manifest: ManifestWriter, annotations: list[str]) -> None:
    """Convert detection annotations to a landmark dataset.

    Input records are JSON lines with clip_id, frame, bbox [x, y, w, h],
    action_label, optional camera intrinsics (falling back to the config's
    camera) and an occluded flag.  Records missing required fields or whose
    box cannot intersect the ground plane are counted and skipped.  Files
    are read and parsed one line at a time and converted in chunks of
    ``INGEST_CHUNK`` records, which bounds the boxes and output text held.
    """
    accepted = 0
    rejected: dict[str, int] = {"missing_field": 0, "bad_action": 0, "horizon": 0, "bad_bbox": 0}
    action_json: dict[str, str | None] = {}  # each label's action as JSON text, None if unknown

    # The file is closed before the manifest moves it into place.
    with manifest.staged("landmark_dataset.jsonl") as (tmp,), open(tmp, "w") as fh:
        for src in annotations:
            manifest.add_input(src)
            records = _json_lines(src, "annotations")
            for first in records:  # a chunk: this record and the next INGEST_CHUNK - 1, parsed as used
                chunk = chain([first], islice(records, INGEST_CHUNK - 1))
                text, count = _ingest_chunk(chunk, cfg.camera_fallback, rejected, action_json)
                fh.write(text)
                accepted += count

    manifest.counters["accepted"] = accepted
    for reason, count in rejected.items():
        manifest.counters[f"rejected_{reason}"] = count
    print(f"ingest: accepted {accepted} records, rejected {sum(rejected.values())} -> "
          f"{manifest.out_dir / 'landmark_dataset.jsonl'}")


def _ingest_chunk(chunk, camera_fallback: CameraModel | None,
                  rejected: dict[str, int], action_json: dict[str, str | None]) -> tuple[str, int]:
    """Landmark lines of an iterator over a chunk of :func:`_json_lines`'
    annotation records, and their count.

    Each record's fields are checked in turn, in the order that decides
    its rejection reason; ``rejected`` counts the reasons.  The boxes
    that pass are projected with one :func:`bbox_to_landmark` call per
    distinct camera.  The lines written for the accepted records, in file
    order, are the bytes of ``json.dumps(record, sort_keys=True,
    separators=(",", ":"))``, with the positions' text from ``json.dumps``.
    """
    # Each line is written from a fixed-key template and the columns' json
    # text.  A shared JSONEncoder(sort_keys=True, separators=(",", ":"))
    # encoding one dict per record gives the same bytes, but it sorts the
    # keys and builds a C encoder per record: on the benchmark's landmark
    # workload its data_s median was 1.054 s against 0.889 s here (6
    # alternating pairs, 2-core VM).
    heads: list[str] = []  # each passing record's line up to its x value
    boxes: list[list[float]] = []
    rows_of: dict[CameraModel, list[int]] = {}  # each camera's rows of ``boxes``
    if camera_fallback is not None:
        fallback_rows = rows_of[camera_fallback] = []
    for _, rec in chunk:
        try:
            clip_id, frame, bbox, occluded = rec["clip_id"], rec["frame"], rec["bbox"], rec["occluded"]
            label = str(rec["action_label"])
            if type(frame) is float and frame.is_integer():
                frame = int(frame)
            # JSON types only: bool("false") is True, int(2.7) is 2, str(None)
            # is "None", and a string of four digits would read as a box.
            if (type(clip_id) not in (str, int) or type(frame) is not int or type(bbox) is not list
                    or type(occluded) is not bool):
                raise TypeError
            clip_id, bbox = str(clip_id), [float(v) for v in bbox]
        except MALFORMED:
            rejected["missing_field"] += 1
            continue
        if len(bbox) != 4:
            rejected["bad_bbox"] += 1
            continue
        if "camera" in rec:
            try:
                cam = rec["camera"]
                camera = CameraModel(float(cam["fx"]), float(cam["fy"]), float(cam["cx"]),
                                     float(cam["cy"]), float(cam["height_m"]))
            except MALFORMED:
                rejected["missing_field"] += 1
                continue
            rows = rows_of.setdefault(camera, [])
        elif camera_fallback is not None:
            rows = fallback_rows
        else:
            rejected["missing_field"] += 1
            continue
        if label not in action_json:
            try:
                action_json[label] = json.dumps(action_from_label(label).name.lower())
            except ValueError:
                action_json[label] = None
        action = action_json[label]
        if action is None:
            rejected["bad_action"] += 1
            continue
        heads.append(f'{{"action":{action},"clip_id":{json.dumps(clip_id)},"frame":{frame},'
                     f'"occluded":{"true" if occluded else "false"},"x":')
        rows.append(len(boxes))
        boxes.append(bbox)

    boxes = np.array(boxes).reshape(-1, 4)
    xy = np.empty((len(boxes), 2))
    reason = np.empty(len(boxes), dtype="U8")
    for camera, rows in rows_of.items():
        if rows:
            xy[rows], reason[rows] = bbox_to_landmark(boxes[rows], camera)
    for name in ("bad_bbox", "horizon"):
        rejected[name] += int(np.count_nonzero(reason == name))
    ok = reason == ""
    x_text, y_text = (json.dumps(col.tolist(), separators=(",", ":"))[1:-1].split(",") for col in xy[ok].T)
    text = "".join(f'{head}{x},"y":{y}}}\n' for head, x, y in zip(compress(heads, ok), x_text, y_text))
    return text, int(np.count_nonzero(ok))


def _json_lines(path: str, what: str):
    """Yield ``(lineno, record)`` of each line of a JSON-lines file, read one
    line at a time; whitespace-only lines are skipped.  An unreadable file, or
    a line that is not UTF-8 or not JSON (named by its ``path:line``), is a
    :class:`DataError`.  Every line file the CLI reads comes through here:
    the grid dataset, annotations and the landmark dataset."""
    try:
        with open(path, "rb") as fh:
            for lineno, line in enumerate(fh, start=1):
                try:
                    if (text := line.decode()).isspace():
                        continue
                    rec = json.loads(text)
                except MALFORMED as exc:
                    raise DataError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
                yield lineno, rec
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc


def _read_landmark_records(path: str) -> tuple:
    """The landmark dataset as columns, in file order.

    Returns the sorted distinct clip ids, each record's index into them,
    the (m, 2) positions, the (m,) int64 action codes and the (m,) occluded
    mask.
    """
    rows = []
    codes: dict[str, int] = {}  # each label's action code
    for lineno, rec in _json_lines(path, "landmark dataset"):
        try:
            clip_id, occluded = rec["clip_id"], rec["occluded"]
            if type(clip_id) is not str:  # str(None) is "None"
                raise TypeError(f"clip_id must be a string, got {clip_id!r}")
            if type(occluded) is not bool:  # bool("false") is True
                raise TypeError(f"occluded must be true or false, got {occluded!r}")
            x, y = float(rec["x"]), float(rec["y"])
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"position must be finite, got x={x}, y={y}")
            label = str(rec["action"])
            if label not in codes:
                codes[label] = action_from_label(label).value
            rows.append((clip_id, x, y, codes[label], occluded))
        except MALFORMED as exc:
            raise DataError(f"{path}:{lineno}: bad landmark record: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: no landmark records")
    clip_ids, x, y, actions, occluded = zip(*rows)
    # Python's str order; np.unique's fixed-width strings would drop
    # trailing NULs and merge ids such as "a" and "a\0".
    clips = sorted(set(clip_ids))
    index = {c: i for i, c in enumerate(clips)}
    clip = np.fromiter(map(index.__getitem__, clip_ids), np.int64, len(clip_ids))
    return (clips, clip, np.column_stack((x, y)), np.array(actions, dtype=np.int64),
            np.array(occluded, dtype=bool))


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="occlusense", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_common(p):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--seed", type=int, help="root random seed (overrides config)")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--mode", choices=("grid", "landmark"), help="pipeline mode (overrides config)")

    p_sim = sub.add_parser("simulate", help="generate a synthetic episode dataset")
    add_common(p_sim)
    p_sim.add_argument("--episodes", type=int, help="episode count (overrides config)")

    p_train = sub.add_parser("train", help="fit behavior models from a dataset")
    add_common(p_train)
    p_train.add_argument("--dataset", required=True, help="episode JSONL (grid) or landmark JSONL (landmark)")

    p_eval = sub.add_parser("eval", help="score map/landmark estimates against ground truth")
    add_common(p_eval)
    p_eval.add_argument("--dataset", required=True)
    p_eval.add_argument("--models", help="directory holding trained models")

    p_ing = sub.add_parser("ingest", help="convert detection annotations to landmark samples")
    add_common(p_ing)
    p_ing.add_argument("annotations", nargs="+", help="annotation JSONL files")
    return parser


def _failure(exc: Exception) -> tuple[int, str, str]:
    """Exit code, stderr label and manifest error of a failed command."""
    if isinstance(exc, ConfigError):
        return 1, "error", str(exc)
    if isinstance(exc, DataError):
        return 2, "data error", str(exc)
    return 3, "internal error", f"{type(exc).__name__}: {exc}"


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        cfg = load_config(args.config, {
            "seed": args.seed,
            "out_dir": args.out,
            "mode": args.mode,
            "n_episodes": getattr(args, "episodes", None),
        })
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    manifest = ManifestWriter(args.command, cfg, Path(cfg.out_dir))
    try:
        if args.command == "simulate":
            cmd_simulate(cfg, manifest)
        elif args.command == "train":
            cmd_train(cfg, manifest, args.dataset)
        elif args.command == "eval":
            cmd_eval(cfg, manifest, args.dataset, args.models)
        elif args.command == "ingest":
            cmd_ingest(cfg, manifest, args.annotations)
        manifest.write("ok")
        return 0
    except Exception as exc:  # noqa: BLE001 - translated to an exit code
        code, label, error = _failure(exc)
        manifest.write("failed", error)
        print(f"{label}: {error}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
