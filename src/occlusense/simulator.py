"""Synthetic crosswalk episodes.

A straight two-lane road runs along +x with a crosswalk at a fixed x.  The
occluding vehicle drives in the lane at y = 0 and reacts to pedestrians at
the crosswalk; the ego vehicle follows at constant speed in the adjacent
lane (y = +lane_offset) and its view of the crosswalk is blocked by the
occluder's body.  Pedestrians appear at the curb on the far side of the
occluder's lane (negative y) and, depending on the sampled behavior, cross
immediately, wait for the occluder to slow down first, stand, or never
appear at all.

States integrate with forward Euler at the log rate.  The occluder policy
cruises at its sampled speed; when a pedestrian is waiting at or crossing
the walk within ``reaction_distance``, it brakes to stop ``stop_margin``
meters before the crosswalk, starting at the last point where the needed
deceleration stays comfortable (``brake_trigger_decel``, bounded by
``a_max_brake``) the way an unhurried human driver would.  Once the
pedestrian has cleared its lane's corridor it accelerates back toward
cruise speed (bounded by ``a_max_accel``).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass, field, fields
from enum import Enum

import numpy as np

from .behavior import MIN_LOG_RATE
from .errors import MALFORMED, ConfigError, DataError
from .grid import BinaryMap, GridSpec
from .perception import Obstacle
from .seeds import named_seed_sequence

SCHEMA_VERSION = 3


class PedestrianBehavior(Enum):
    BOLD_CROSS = "bold_cross"
    WAIT_THEN_CROSS = "wait_then_cross"
    STAND = "stand"
    ABSENT = "absent"


#: Sampling order of the behavior weights in :class:`ScenarioConfig`.
BEHAVIOR_ORDER = (
    PedestrianBehavior.BOLD_CROSS,
    PedestrianBehavior.WAIT_THEN_CROSS,
    PedestrianBehavior.STAND,
    PedestrianBehavior.ABSENT,
)


def _require_finite(name: str, *numbers) -> None:
    """Reject a NaN or an infinity among a field's numbers: a NaN passes
    every range comparison, and a dataset can carry either."""
    if not all(map(math.isfinite, numbers)):
        raise ConfigError(f"{name} must be finite, got {', '.join(map(repr, numbers))}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Distributions and physical constants for episode sampling.

    Ranges are inclusive (low, high) pairs sampled uniformly.  Behavior
    weights follow :data:`BEHAVIOR_ORDER`; by default the pedestrian is
    absent in half of all episodes and the three present behaviors split
    the rest evenly.

    Each field takes a number, or a list (a dataset header) or a tuple (a
    config file) of numbers: as many as its default has for a tuple field,
    one for any other.  Tuple fields are stored as tuples.
    """

    d0_range: tuple[float, float] = (25.0, 45.0)
    v0_range: tuple[float, float] = (4.5, 6.7)
    behavior_weights: tuple[float, float, float, float] = (1 / 6, 1 / 6, 1 / 6, 0.5)
    ped_speed_range: tuple[float, float] = (0.8, 1.6)
    duration_range: tuple[float, float] = (5.0, 10.0)
    log_rate: float = 30.0
    accel_noise_sigma: float = 0.2

    # Occluder policy.
    reaction_distance: float = 20.0
    a_max_brake: float = 3.0
    a_max_accel: float = 1.5
    brake_trigger_decel: float = 2.0
    stop_margin: float = 2.0
    wait_trigger_speed: float = 1.0

    # Road layout and body geometry.
    crosswalk_x: float = 0.0
    lane_offset: float = 3.5
    ego_gap: float = 10.0
    ego_speed_factor: float = 0.75
    occluder_length: float = 4.5
    occluder_width: float = 2.0
    ped_size: float = 0.5
    ped_side_y: float = -2.0
    ped_far_y: float = 5.5
    corridor_halfwidth: float = 1.75

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            numbers = tuple(value) if isinstance(value, (list, tuple)) else (value,)
            size = len(f.default) if isinstance(f.default, tuple) else 1
            if len(numbers) != size:
                raise ConfigError(f"{f.name} takes {size} number(s), got {value!r}")
            _require_finite(f.name, *numbers)
            if size == 2 and not (0.0 < numbers[0] <= numbers[1]):  # a range
                raise ConfigError(f"{f.name} must satisfy 0 < low <= high, got {numbers}")
            object.__setattr__(self, f.name, numbers if isinstance(f.default, tuple) else numbers[0])
        for name in ("occluder_length", "occluder_width", "ped_size"):
            if getattr(self, name) <= 0.0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)!r}")
        w = self.behavior_weights
        if min(w) < 0.0 or abs(sum(w) - 1.0) > 1e-9:
            raise ConfigError(f"behavior weights must be nonnegative and sum to 1, got {w}")
        if self.log_rate < MIN_LOG_RATE:  # the feature window's floor
            raise ConfigError(f"log rate must be at least {MIN_LOG_RATE} Hz")
        # The longest episode's frame count (Scenario.n_frames) must fit an
        # index: near 1e308 it overflows, and a finite 1.5e308 frames is no better.
        if self.duration_range[1] * self.log_rate >= sys.maxsize:
            raise ConfigError(f"the longest episode, {self.duration_range[1]} s at {self.log_rate} Hz, "
                              "has too many frames")
        if self.a_max_brake <= 0.0 or self.a_max_accel <= 0.0:
            raise ConfigError("acceleration bounds must be positive")
        if not (0.0 < self.brake_trigger_decel <= self.a_max_brake):
            raise ConfigError("brake_trigger_decel must lie in (0, a_max_brake]")
        # Worst-case stopping feasibility: even the fastest occluder, braking
        # from the moment the earliest pedestrian can appear, must be able to
        # stop before the crosswalk.
        v_hi = self.v0_range[1]
        try:
            braking = v_hi**2 / (2.0 * self.a_max_brake)
        except OverflowError:  # v_hi**2 is past the float range
            raise ConfigError(f"v0_range's high end {v_hi!r} m/s overflows the stopping distance "
                              f"at a_max_brake {self.a_max_brake!r} m/s^2") from None
        needed = braking + self.stop_margin + self.occluder_length / 2.0
        if self.d0_range[0] <= needed:
            raise ConfigError(
                f"infeasible scenario ranges: min d0 {self.d0_range[0]} m cannot absorb "
                f"worst-case stopping distance {needed:.2f} m"
            )


@dataclass(frozen=True)
class Scenario:
    """One sampled episode setup."""

    d0: float
    v0: float
    behavior: PedestrianBehavior
    ped_speed: float
    t_appear: float
    duration: float
    ego_speed: float
    noise_seed: int
    config: ScenarioConfig

    def __post_init__(self) -> None:
        for name in _SCENARIO_FLOATS:
            _require_finite(name, getattr(self, name))
        if self.duration <= 0.0:  # as every duration ScenarioConfig samples
            raise ConfigError(f"duration must be positive, got {self.duration!r}")

    @property
    def n_frames(self) -> int:
        """Frames the episode logs: both ends of its duration at the log rate."""
        return int(round(self.duration * self.config.log_rate)) + 1

    @property
    def occ_start_x(self) -> float:
        """The occluder's center at t = 0: its front bumper ``d0`` short of the crosswalk."""
        return self.config.crosswalk_x - self.d0 - self.config.occluder_length / 2.0

    def to_dict(self) -> dict:
        return {**{name: getattr(self, name) for name in _SCENARIO_FLOATS},
                "behavior": self.behavior.value, "noise_seed": self.noise_seed}


#: :class:`Scenario`'s float fields, each stored under its own name.
_SCENARIO_FLOATS = tuple(f.name for f in fields(Scenario) if f.type == "float")


def sample_scenario(config: ScenarioConfig, rng: np.random.Generator) -> Scenario:
    """Draw one scenario; every draw happens regardless of behavior so the
    random stream advances identically across behaviors."""
    d0 = float(rng.uniform(*config.d0_range))
    v0 = float(rng.uniform(*config.v0_range))
    behavior = BEHAVIOR_ORDER[int(rng.choice(len(BEHAVIOR_ORDER), p=config.behavior_weights))]
    ped_speed = float(rng.uniform(*config.ped_speed_range))
    duration = float(rng.uniform(*config.duration_range))

    # Latest appearance that still lets the occluder stop with margin.
    brake_dist = v0**2 / (2.0 * config.a_max_brake)
    slack = d0 - config.occluder_length / 2.0 - brake_dist - config.stop_margin - 0.5
    t_latest = max(0.0, slack / v0)
    t_appear = float(rng.uniform(0.0, min(t_latest, duration / 2.0))) if t_latest > 0.0 else 0.0
    noise_seed = int(rng.integers(0, 2**63 - 1))
    return Scenario(d0, v0, behavior, ped_speed, t_appear, duration,
                    config.ego_speed_factor * v0, noise_seed, config)


@dataclass
class EpisodeLog:
    """Time series of one episode at the configured log rate.

    Only integrated states are given: the occluder's center ``occ_x`` and
    speed ``occ_speed``, and ``ped_y``, NaN wherever the pedestrian is absent
    (``ped_present``).  ``t``, ``ego_x`` and the realized ``occ_accel`` (the
    last frame repeating the one before it, 0 in a one-frame log) are
    derived from them and the scenario once, when the log is made.
    """

    occ_x: np.ndarray
    occ_speed: np.ndarray
    ped_y: np.ndarray
    scenario: Scenario
    t: np.ndarray = field(init=False, repr=False)
    ego_x: np.ndarray = field(init=False, repr=False)
    occ_accel: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # Eager, not on first use: arrays made lazily inside train's frame
        # loop sit between its transient stacks and raised its peak RSS.
        dt = 1.0 / self.config.log_rate
        self.t = np.arange(self.n_frames) * dt
        self.ego_x = (self.scenario.occ_start_x - self.config.ego_gap) + self.scenario.ego_speed * self.t
        accel = np.diff(self.occ_speed) / dt
        self.occ_accel = np.append(accel, accel[-1] if accel.size else 0.0)

    @property
    def n_frames(self) -> int:
        return len(self.occ_x)

    @property
    def ped_present(self) -> np.ndarray:
        """Frames the pedestrian is in the scene: those with a ``ped_y``."""
        return ~np.isnan(self.ped_y)

    @property
    def config(self) -> ScenarioConfig:
        return self.scenario.config

    @property
    def crosswalk_x(self) -> float:
        return self.config.crosswalk_x

    @property
    def occ_front_x(self) -> np.ndarray:
        return self.occ_x + self.config.occluder_length / 2.0

    @property
    def ego_y(self) -> float:
        return self.config.lane_offset

    def ego_pose(self, frame) -> tuple[float, float]:
        """Ego ``(x, y)`` at one frame, or at each frame of an index array."""
        return self.ego_x[frame], self.ego_y

    def scene_at(self, frame) -> tuple[Obstacle, ...]:
        """Obstacles visible to the ego (occluder, pedestrian) at one frame,
        or at each frame of an index array.  The pedestrian's center is NaN
        in frames it is absent from."""
        cfg = self.config
        obstacles = [
            Obstacle(
                center=(self.occ_x[frame], 0.0),
                half_extents=(cfg.occluder_length / 2.0, cfg.occluder_width / 2.0),
            )
        ]
        if np.any(self.ped_present[frame]):
            obstacles.append(
                Obstacle(
                    center=(self.crosswalk_x, self.ped_y[frame]),
                    half_extents=(cfg.ped_size / 2.0, cfg.ped_size / 2.0),
                )
            )
        return tuple(obstacles)


#: Episodes integrated side by side in one lockstep chunk.  Each frame step
#: costs a few dozen array operations whatever the chunk size, so larger
#: chunks amortise that cost; 256 keeps the chunk's logs to a few MB.
CHUNK_EPISODES = 256


def run_episode(scenario: Scenario) -> EpisodeLog:
    """Integrate one episode deterministically from its noise seed."""
    return _run_lockstep([scenario])[0]


def simulate_batch(config: ScenarioConfig, n_episodes: int, seed: int):
    """Yield (scenario, log) pairs, each scenario from its own child random
    stream, integrating :data:`CHUNK_EPISODES` episodes at a time."""
    if n_episodes < 1:
        raise ConfigError(f"need at least 1 episode, got {n_episodes}")
    root = named_seed_sequence(seed, "simulate")
    scenarios = [sample_scenario(config, np.random.default_rng(child))
                 for child in root.spawn(n_episodes)]
    for start in range(0, n_episodes, CHUNK_EPISODES):
        chunk = scenarios[start:start + CHUNK_EPISODES]
        yield from zip(chunk, _run_lockstep(chunk))


def _speed_squared(v: np.ndarray) -> np.ndarray:
    """``v ** 2`` rounded as CPython's ``float.__pow__`` rounds it (libm
    ``pow``).  ``v * v``, NumPy's ``v ** 2`` and ``np.power(v, 2.0)`` round
    differently for about 1 speed in 1,200, which would change the logs."""
    return np.float_power(v, 2.0)


def _run_lockstep(scenarios: list[Scenario]) -> list[EpisodeLog]:
    """Integrate episodes that share one config side by side, one array step
    per frame.

    Every step applies the same elementwise operations, in the same order, as
    integrating each episode alone, so each log is the same to the bit
    whatever the chunk holds.  Each episode's acceleration noise is drawn up
    front from its own ``noise_seed`` stream: ``standard_normal(n)`` gives
    the same values as n scalar draws.  Episodes shorter than the longest
    keep integrating and their logs are cut to their own frame count.
    """
    cfg = scenarios[0].config
    dt = 1.0 / cfg.log_rate
    half_len = cfg.occluder_length / 2.0
    lengths = np.array([s.n_frames for s in scenarios])
    n_eps, n = len(scenarios), int(lengths.max())

    v0 = np.array([s.v0 for s in scenarios])
    ped_speed = np.array([s.ped_speed for s in scenarios])
    t_appear = np.array([s.t_appear for s in scenarios])
    behaviors = [s.behavior for s in scenarios]
    ped_exists = np.array([b is not PedestrianBehavior.ABSENT for b in behaviors])
    bold = np.array([b is PedestrianBehavior.BOLD_CROSS for b in behaviors])
    waits = np.array([b is PedestrianBehavior.WAIT_THEN_CROSS for b in behaviors])
    noise = np.zeros((n_eps, n - 1))
    if cfg.accel_noise_sigma > 0.0:
        for row, s in zip(noise, scenarios):
            row[: s.n_frames - 1] = np.random.default_rng(s.noise_seed).standard_normal(s.n_frames - 1)

    occ_x = np.empty((n_eps, n))
    occ_speed = np.empty((n_eps, n))
    ped_y = np.full((n_eps, n), np.nan)

    x = np.array([s.occ_start_x for s in scenarios])
    v = v0
    walking = np.zeros(n_eps, dtype=bool)
    braking = np.zeros(n_eps, dtype=bool)
    y_ped = np.full(n_eps, cfg.ped_side_y)
    stop_line = cfg.crosswalk_x - cfg.stop_margin
    arrived_y = cfg.ped_far_y - 1e-9

    for i in range(n):
        present = ped_exists & (i * dt >= t_appear)
        arrived = y_ped >= arrived_y
        # A bold pedestrian starts walking on appearing, a waiting one once
        # the occluder has slowed down; walking never stops.
        walking |= present & (bold | (waits & (v < cfg.wait_trigger_speed)))
        stepping = walking & ~arrived

        occ_x[:, i] = x
        occ_speed[:, i] = v
        ped_y[:, i] = np.where(present, y_ped, np.nan)

        if i == n - 1:
            break

        # Occluder policy: brake for a pedestrian engaged with the crosswalk,
        # otherwise steer speed back to cruise.  Braking starts at the last
        # comfortable point (required deceleration reaching the trigger
        # level) rather than the instant the pedestrian is noticed, and
        # latches until the pedestrian disengages.  An episode at or past
        # the stop line (gap <= 0) brakes hard; its quotient is not used.
        front = x + half_len
        gap = stop_line - front
        engaged = present & (~walking | (y_ped <= cfg.corridor_halfwidth))
        aware = (
            engaged
            & (front < cfg.crosswalk_x)
            & ((cfg.crosswalk_x - front) <= cfg.reaction_distance)
        )
        ahead = gap > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            needed = _speed_squared(v) / (2.0 * gap)
            braking = aware & (braking | ~ahead | (needed >= cfg.brake_trigger_decel))
        a_brake = np.where(ahead, np.where(v > 0.0, -needed, 0.0), -cfg.a_max_brake)
        a_cmd = np.where(braking, a_brake, (v0 - v) / dt)
        if cfg.accel_noise_sigma > 0.0:
            a_cmd += cfg.accel_noise_sigma * noise[:, i]
        a_cmd = np.clip(a_cmd, -cfg.a_max_brake, cfg.a_max_accel)

        x = x + v * dt
        v = np.maximum(0.0, v + a_cmd * dt)

        y_ped = np.where(stepping, np.minimum(cfg.ped_far_y, y_ped + ped_speed * dt), y_ped)

    return [EpisodeLog(occ_x=occ_x[e, :m], occ_speed=occ_speed[e, :m], ped_y=ped_y[e, :m], scenario=s)
            for e, (s, m) in enumerate(zip(scenarios, lengths))]


# ---------------------------------------------------------------------------
# Vehicle-anchored grids and ground truth.
# ---------------------------------------------------------------------------

#: Frames a grid template can be anchored in.
GRID_FRAMES = ("occluder", "ego", "world")


def anchored_spec(template: GridSpec, front_x, center_y) -> GridSpec:
    """Anchor a grid template ahead of a +x-facing vehicle.

    The grid's near row sits half a cell beyond ``front_x`` and the
    vehicle's centerline falls on the center of column ``(width - 1) // 2``
    (column 2 of the default 6-wide layout), with higher columns to the
    vehicle's right.  An (F,) array of positions gives one origin per frame.
    """
    res = template.resolution
    center_col = (template.width_cells - 1) // 2
    origin = (front_x + (template.height_cells - 0.5) * res, center_y + center_col * res)
    return GridSpec(template.width_cells, template.height_cells, res, origin, template.frame)


def anchored_spec_at(template: GridSpec, log: EpisodeLog, frame) -> GridSpec:
    """Concrete world-anchored spec for one log frame, or for each frame of
    an index array, per the template frame."""
    if template.frame == "world":
        return template
    if template.frame == "occluder":
        return anchored_spec(template, log.occ_front_x[frame], 0.0)
    if template.frame == "ego":
        return anchored_spec(template, log.ego_x[frame], log.ego_y)
    raise ValueError(f"cannot anchor grid frame {template.frame!r}; use one of {GRID_FRAMES}")


def ground_truth_grid(log: EpisodeLog, frame, spec: GridSpec) -> BinaryMap:
    """True occupancy of the grid at one log frame, or at each frame of an
    index array (one map row per frame).

    Cells whose area overlaps the pedestrian footprint are 1, every other
    cell 0; with no pedestrian in the scene the map is all zeros.  ``spec``
    is already placed for these frames (see :func:`anchored_spec_at`) and
    is used as given.
    """
    frame = np.asarray(frame)
    if np.any((frame < 0) | (frame >= log.n_frames)):
        raise ValueError(f"frame {frame} outside episode of {log.n_frames} frames")
    reach = spec.resolution / 2.0 + log.config.ped_size / 2.0
    # The footprint test is separable: a cell's center x depends only on its
    # row and its center y only on its column (see GridSpec.cell_centers), so
    # each axis is tested once per frame and only the 0/1 map is cell-sized.
    ox, oy = (np.asarray(o, dtype=float)[..., None] for o in spec.origin)
    row_x = ox - np.arange(spec.height_cells) * spec.resolution
    col_y = oy - np.arange(spec.width_cells) * spec.resolution
    overlap_x = np.abs(row_x - log.crosswalk_x) < reach
    overlap_y = np.abs(col_y - log.ped_y[frame][..., None]) < reach
    cells = log.ped_present[frame][..., None, None] & overlap_x[..., :, None] & overlap_y[..., None, :]
    return BinaryMap(spec, cells.reshape(*cells.shape[:-2], spec.n_cells))


# ---------------------------------------------------------------------------
# JSON-lines dataset serialization.
# ---------------------------------------------------------------------------

def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


#: The :class:`EpisodeLog` signals a dataset record holds, one array each.
#: ``ped_y`` is null in frames without a pedestrian, and reads back as NaN.
_COLUMNS = ("occ_x", "occ_speed", "ped_y")


def write_episodes(path: str, episodes, config: ScenarioConfig, seed: int, n_episodes: int) -> int:
    """Write a JSONL dataset: one file header, then one record per episode
    with an array per logged signal.  Returns the number of episodes written."""
    count = 0
    with open(path, "w") as fh:
        fh.write(_dump({
            "type": "header",
            "schema_version": SCHEMA_VERSION,
            "seed": seed,
            "n_episodes": n_episodes,
            "config": asdict(config),
        }) + "\n")
        for index, (scenario, log) in enumerate(episodes):
            record = {"type": "episode", "index": index, "scenario": scenario.to_dict()}
            for name in _COLUMNS:
                values = np.where(log.ped_present, log.ped_y, None) if name == "ped_y" else getattr(log, name)
                record[name] = values.tolist()
            fh.write(_dump(record) + "\n")
            count += 1
    return count


def read_episodes(records, path: str) -> list[EpisodeLog]:
    """The episodes of a dataset written by :func:`write_episodes`, from its
    ``(lineno, record)`` pairs (``cli._json_lines``); ``path`` names errors.

    A dataset must start with a schema-3 header and hold the header's
    ``n_episodes`` episodes, indexed 0 to n - 1 in order, each with the
    frame count its duration implies at the log rate in every column, so a
    file cut anywhere is rejected.  Every stored value and every scenario
    float must be finite; only ``ped_y`` may be null.
    """
    header = None
    logs: list[EpisodeLog] = []
    for _, rec in records:
        if header is None:
            header, config = rec, _header_config(path, rec)
        else:
            logs.append(_episode_log(path, config, len(logs), rec))
    if header is None:
        raise DataError(f"{path}: empty dataset")
    if len(logs) != header.get("n_episodes"):
        raise DataError(f"{path}: {len(logs)} episodes, but the header declares "
                        f"{header.get('n_episodes')!r}")
    return logs


def _header_config(path: str, header) -> ScenarioConfig:
    if not isinstance(header, dict) or header.get("type") != "header":
        raise DataError(f"{path}: first record must be the dataset header")
    if header.get("schema_version") != SCHEMA_VERSION:
        raise DataError(f"{path}: dataset has schema_version {header.get('schema_version')!r}, "
                        f"but only {SCHEMA_VERSION} is read; re-run simulate to rewrite it")
    try:
        return ScenarioConfig(**header["config"])
    except MALFORMED as exc:
        raise DataError(f"{path}: bad config in header: {exc}") from exc


def _episode_log(path: str, config: ScenarioConfig, index: int, rec) -> EpisodeLog:
    try:
        if rec["index"] != index:
            raise DataError(f"{path}: episode index {rec['index']!r} where {index} was expected")
        sc = rec["scenario"]
        scenario = Scenario(**{name: float(sc[name]) for name in _SCENARIO_FLOATS},
                            behavior=PedestrianBehavior(sc["behavior"]),
                            noise_seed=int(sc["noise_seed"]), config=config)
        n_frames = scenario.n_frames  # overflows for a duration near 1e308
        columns = {name: np.array(rec[name], dtype=float) for name in _COLUMNS}
    except MALFORMED as exc:
        raise DataError(f"{path}: malformed episode {index}: {exc}") from exc
    for name, values in columns.items():
        if values.shape != (n_frames,):
            raise DataError(f"{path}: episode {index} has {values.size} {name} values; "
                            f"its duration needs {n_frames} frames")
        # Only ped_y may be null (pedestrian absent); null reads as NaN.
        bad = np.isinf(values) if name == "ped_y" else ~np.isfinite(values)
        if bad.any():
            frame = int(np.argmax(bad))
            kind = "a null" if np.isnan(values[frame]) else "an infinite"
            raise DataError(f"{path}: episode {index} has {kind} {name} value at frame {frame}")
    return EpisodeLog(**columns, scenario=scenario)
