import json

import numpy as np
import pytest

from occlusense.cli import _json_lines
from occlusense.errors import ConfigError, DataError
from occlusense.grid import GridSpec
from occlusense.simulator import (
    BEHAVIOR_ORDER,
    CHUNK_EPISODES,
    PedestrianBehavior,
    Scenario,
    ScenarioConfig,
    anchored_spec,
    anchored_spec_at,
    ground_truth_grid,
    read_episodes,
    run_episode,
    sample_scenario,
    simulate_batch,
    write_episodes,
    _run_lockstep,
    _speed_squared,
)
from oracles import cell_center, cell_index

QUIET = ScenarioConfig(accel_noise_sigma=0.0)


def fixed_scenario(behavior, d0=15.0, v0=6.0, ped_speed=0.8, t_appear=0.0,
                   duration=8.0, config=QUIET, noise_seed=0):
    return Scenario(d0=d0, v0=v0, behavior=behavior, ped_speed=ped_speed,
                    t_appear=t_appear, duration=duration,
                    ego_speed=config.ego_speed_factor * v0,
                    noise_seed=noise_seed, config=config)


def batch(n, seed=0, config=None):
    return list(simulate_batch(config or ScenarioConfig(), n, seed))


# ---------------------------------------------------------------------------
# scenario sampling
# ---------------------------------------------------------------------------

def test_absent_only_weights():
    cfg = ScenarioConfig(behavior_weights=(0.0, 0.0, 0.0, 1.0))
    rng = np.random.default_rng(0)
    for _ in range(50):
        assert sample_scenario(cfg, rng).behavior is PedestrianBehavior.ABSENT


def test_sampling_determinism():
    cfg = ScenarioConfig()
    a = sample_scenario(cfg, np.random.default_rng(123))
    b = sample_scenario(cfg, np.random.default_rng(123))
    assert a.to_dict() == b.to_dict()
    assert a.behavior is b.behavior


def test_absent_fraction_concentrates():
    cfg = ScenarioConfig()
    rng = np.random.default_rng(1)
    draws = [sample_scenario(cfg, rng).behavior for _ in range(10_000)]
    frac = sum(b is PedestrianBehavior.ABSENT for b in draws) / 10_000
    assert abs(frac - 0.5) <= 0.02


def test_sampled_values_respect_ranges():
    cfg = ScenarioConfig()
    rng = np.random.default_rng(2)
    for _ in range(200):
        s = sample_scenario(cfg, rng)
        assert cfg.d0_range[0] <= s.d0 <= cfg.d0_range[1]
        assert cfg.v0_range[0] <= s.v0 <= cfg.v0_range[1]
        assert cfg.ped_speed_range[0] <= s.ped_speed <= cfg.ped_speed_range[1]
        assert cfg.duration_range[0] <= s.duration <= cfg.duration_range[1]
        assert 0.0 <= s.t_appear <= s.duration / 2.0
        assert s.ego_speed == cfg.ego_speed_factor * s.v0


def test_config_validation():
    with pytest.raises(ConfigError):
        ScenarioConfig(behavior_weights=(0.5, 0.5, 0.5, 0.5))
    with pytest.raises(ConfigError):
        ScenarioConfig(behavior_weights=(-0.1, 0.1, 0.5, 0.5))
    with pytest.raises(ConfigError):
        ScenarioConfig(d0_range=(45.0, 25.0))
    with pytest.raises(ConfigError):
        ScenarioConfig(log_rate=5.0)
    with pytest.raises(ConfigError):
        ScenarioConfig(brake_trigger_decel=99.0)
    with pytest.raises(ConfigError):
        # too close to stop even at max braking
        ScenarioConfig(d0_range=(5.0, 45.0))
    for name in ("occluder_length", "occluder_width", "ped_size"):
        with pytest.raises(ConfigError, match=f"{name} must be positive"):
            ScenarioConfig(**{name: 0.0})


# ---------------------------------------------------------------------------
# episode integration
# ---------------------------------------------------------------------------

def test_batch_determinism_bit_identical():
    for (sa, la), (sb, lb) in zip(batch(5, seed=42), batch(5, seed=42)):
        assert sa.to_dict() == sb.to_dict()
        for name in ("t", "ego_x", "occ_x", "occ_speed", "occ_accel", "ped_present"):
            assert np.array_equal(getattr(la, name), getattr(lb, name)), name
        assert np.array_equal(la.ped_y, lb.ped_y, equal_nan=True)


def test_absent_episode_constant_speed():
    log = run_episode(fixed_scenario(PedestrianBehavior.ABSENT))
    np.testing.assert_allclose(log.occ_speed, 6.0, atol=1e-9)
    np.testing.assert_allclose(log.occ_accel, 0.0, atol=1e-9)
    assert not log.ped_present.any()


def test_bold_cross_stops_before_crosswalk():
    log = run_episode(fixed_scenario(PedestrianBehavior.BOLD_CROSS))
    slow = log.occ_speed < 0.2
    assert slow.any()
    first = int(np.argmax(slow))
    assert log.occ_front_x[first] < log.crosswalk_x
    # and the braking came after cruising for a while (late, not immediate)
    assert log.occ_speed[: int(0.5 * log.config.log_rate)].min() > 5.5


def test_wait_then_cross_walks_only_after_slowdown():
    log = run_episode(fixed_scenario(PedestrianBehavior.WAIT_THEN_CROSS, duration=10.0))
    # Moving from the first frame after which ped_y grows (walking never stops).
    moving = np.logical_or.accumulate(np.append(np.diff(log.ped_y) > 0.0, False))
    assert moving.any()
    first_step = int(np.argmax(moving))
    assert log.occ_speed[first_step] < log.config.wait_trigger_speed
    # until then the pedestrian stood at the curb
    curb = log.ped_y[log.ped_present & ~moving]
    np.testing.assert_allclose(curb[~np.isnan(curb)], log.config.ped_side_y)


def test_stand_behavior_never_walks():
    log = run_episode(fixed_scenario(PedestrianBehavior.STAND))
    present = log.ped_present
    assert present.any()
    np.testing.assert_allclose(log.ped_y[present], log.config.ped_side_y)


def test_ego_constant_velocity():
    log = run_episode(fixed_scenario(PedestrianBehavior.BOLD_CROSS))
    T = log.t[-1] - log.t[0]
    assert log.ego_x[-1] - log.ego_x[0] == pytest.approx(log.scenario.ego_speed * T, abs=1e-9)


def test_kinematic_consistency():
    for _, log in batch(10, seed=3):
        dt = 1.0 / log.config.log_rate
        dx = np.diff(log.occ_x)
        np.testing.assert_allclose(dx, log.occ_speed[:-1] * dt, atol=1e-6)
        dv = np.diff(log.occ_speed)
        np.testing.assert_allclose(dv, log.occ_accel[:-1] * dt, atol=1e-6)
        np.testing.assert_allclose(np.diff(log.t), dt, atol=1e-9)


def test_speed_and_accel_bounds():
    for _, log in batch(60, seed=4):
        cfg = log.config
        assert np.all(log.occ_speed >= 0.0)
        assert np.all(log.occ_accel >= -cfg.a_max_brake - 1e-9)
        assert np.all(log.occ_accel <= cfg.a_max_accel + 1e-9)


def test_occluder_yields_while_corridor_occupied():
    for _, log in batch(300, seed=5):
        cfg = log.config
        in_corridor = log.ped_present & (np.abs(np.nan_to_num(log.ped_y, nan=99.0))
                                         <= cfg.corridor_halfwidth)
        crossed = log.occ_front_x > log.crosswalk_x
        assert not np.any(in_corridor & crossed)


def test_behavioral_signal_over_batch():
    present_accels, absent_accels = [], []
    for _, log in batch(600, seed=6):
        sel = log.ped_present
        present_accels.append(log.occ_accel[sel])
        absent_accels.append(log.occ_accel[~sel])
    mean_present = float(np.concatenate(present_accels).mean())
    mean_absent = float(np.concatenate(absent_accels).mean())
    assert mean_present < mean_absent


def test_simulate_batch_rejects_empty():
    with pytest.raises(ConfigError):
        list(simulate_batch(ScenarioConfig(), 0, seed=0))


# ---------------------------------------------------------------------------
# lockstep integration against the one-episode loop
# ---------------------------------------------------------------------------

def reference_episode(scenario):
    """The one-episode per-frame loop the lockstep integrator replaced, kept
    as the reference every lockstep log must equal bit for bit.  It returns
    its columns by name: the stored states and, computed its own way, the
    ``t``, ``ego_x`` and ``occ_accel`` that a log derives."""
    cfg = scenario.config
    dt = 1.0 / cfg.log_rate
    n = scenario.n_frames
    rng = np.random.default_rng(scenario.noise_seed)

    half_len = cfg.occluder_length / 2.0
    occ_x = np.empty(n)
    occ_speed = np.empty(n)
    occ_accel = np.zeros(n)
    ped_y = np.full(n, np.nan)

    x = cfg.crosswalk_x - scenario.d0 - half_len  # center position
    v = scenario.v0
    ped_exists = scenario.behavior is not PedestrianBehavior.ABSENT
    walking = False
    braking = False
    y_ped = cfg.ped_side_y

    for i in range(n):
        t = i * dt
        present = ped_exists and t >= scenario.t_appear
        arrived = y_ped >= cfg.ped_far_y - 1e-9
        if present and not walking:
            if scenario.behavior is PedestrianBehavior.BOLD_CROSS:
                walking = True
            elif scenario.behavior is PedestrianBehavior.WAIT_THEN_CROSS and v < cfg.wait_trigger_speed:
                walking = True

        occ_x[i] = x
        occ_speed[i] = v
        if present:
            ped_y[i] = y_ped

        if i == n - 1:
            break

        front = x + half_len
        gap = (cfg.crosswalk_x - cfg.stop_margin) - front
        engaged = present and (not walking or y_ped <= cfg.corridor_halfwidth)
        aware = (
            engaged
            and front < cfg.crosswalk_x
            and (cfg.crosswalk_x - front) <= cfg.reaction_distance
        )
        if not aware:
            braking = False
        elif not braking and gap > 0.0 and v**2 / (2.0 * gap) >= cfg.brake_trigger_decel:
            braking = True
        elif gap <= 0.0:
            braking = True
        if aware and braking:
            if gap <= 0.0:
                a_cmd = -cfg.a_max_brake
            elif v > 0.0:
                a_cmd = -(v**2) / (2.0 * gap)
            else:
                a_cmd = 0.0
        else:
            a_cmd = (scenario.v0 - v) / dt
        if cfg.accel_noise_sigma > 0.0:
            a_cmd += cfg.accel_noise_sigma * rng.standard_normal()
        a_cmd = float(np.clip(a_cmd, -cfg.a_max_brake, cfg.a_max_accel))

        v_next = max(0.0, v + a_cmd * dt)
        occ_accel[i] = (v_next - v) / dt
        x = x + v * dt
        v = v_next

        if walking and not arrived:
            y_ped = min(cfg.ped_far_y, y_ped + scenario.ped_speed * dt)

    if n > 1:
        occ_accel[n - 1] = occ_accel[n - 2]

    t_arr = np.arange(n) * dt
    ego_x = (cfg.crosswalk_x - scenario.d0 - half_len) - cfg.ego_gap + scenario.ego_speed * t_arr
    return {"t": t_arr, "ego_x": ego_x, "occ_x": occ_x, "occ_speed": occ_speed,
            "occ_accel": occ_accel, "ped_present": ~np.isnan(ped_y), "ped_y": ped_y}


LOG_COLUMNS = ("t", "ego_x", "occ_x", "occ_speed", "occ_accel", "ped_present", "ped_y")


def assert_matches_reference(logs):
    """Every log equals the reference loop's columns for its scenario, bit
    for bit (so NaN ped_y and signed zeros must match too)."""
    for log in logs:
        want = reference_episode(log.scenario)
        for name in LOG_COLUMNS:
            got, ref = getattr(log, name), want[name]
            assert got.dtype == ref.dtype and got.shape == ref.shape, name
            assert got.tobytes() == ref.tobytes(), (name, log.scenario)


NOISY = ScenarioConfig()


def test_lockstep_all_behaviors_in_one_chunk():
    scenarios = [fixed_scenario(b, t_appear=0.4 * k, config=NOISY, noise_seed=k)
                 for k, b in enumerate(BEHAVIOR_ORDER)]
    assert_matches_reference(_run_lockstep(scenarios))


def test_lockstep_mixed_durations_end_at_different_frames():
    scenarios = [fixed_scenario(b, duration=d, config=NOISY, noise_seed=k)
                 for k, (b, d) in enumerate(zip(BEHAVIOR_ORDER * 2, (8.0, 5.0, 10.0, 6.3, 0.01, 9.1, 7.5, 5.5)))]
    logs = _run_lockstep(scenarios)
    assert sorted({log.n_frames for log in logs}) == [1, 151, 166, 190, 226, 241, 274, 301]
    assert_matches_reference(logs)


def test_lockstep_without_noise():
    scenarios = [fixed_scenario(b, d0=12.0 + 4 * k, v0=4.5 + 0.5 * k)
                 for k, b in enumerate(BEHAVIOR_ORDER)]
    assert_matches_reference(_run_lockstep(scenarios))


def test_lockstep_hard_braking_past_the_stop_line():
    # The pedestrian appears after the occluder's front has passed the stop
    # line (2 m short of the walk), so the gap is <= 0 and it brakes hard.
    scenario = fixed_scenario(PedestrianBehavior.BOLD_CROSS, t_appear=2.3)
    (log,) = _run_lockstep([scenario])
    cfg = log.config
    past = log.ped_present & (log.occ_front_x > cfg.crosswalk_x - cfg.stop_margin) & (log.occ_front_x < cfg.crosswalk_x)
    assert past.sum() >= 3
    np.testing.assert_allclose(log.occ_accel[past], -cfg.a_max_brake)
    assert_matches_reference([log, *_run_lockstep([scenario, fixed_scenario(PedestrianBehavior.ABSENT)])])


def test_lockstep_stopped_occluder():
    # A standing pedestrian holds the occluder at rest short of the stop line,
    # where the braking command is 0 (the v == 0 branch).
    logs = [*_run_lockstep([fixed_scenario(PedestrianBehavior.STAND, duration=10.0)]),
            *_run_lockstep([fixed_scenario(PedestrianBehavior.STAND, duration=10.0, config=NOISY, noise_seed=k)
                            for k in range(3)])]
    for log in logs:
        assert (log.occ_speed == 0.0).sum() > 100
    assert_matches_reference(logs)


def test_lockstep_more_episodes_than_one_chunk():
    cfg = ScenarioConfig(duration_range=(1.0, 3.0))
    pairs = batch(CHUNK_EPISODES + 9, seed=11, config=cfg)
    assert len(pairs) == CHUNK_EPISODES + 9
    assert all(log.scenario is scenario for scenario, log in pairs)
    assert_matches_reference([log for _, log in pairs])


def test_run_episode_is_the_one_episode_case():
    scenario = fixed_scenario(PedestrianBehavior.WAIT_THEN_CROSS, config=NOISY, noise_seed=5)
    assert_matches_reference([run_episode(scenario)])


def test_speed_squared_rounds_like_float_pow():
    speeds = np.random.default_rng(0).uniform(0.0, 7.0, 20_000)
    want = np.array([float.__pow__(float(v), 2) for v in speeds])
    differ = speeds * speeds != want
    if not differ.any():
        pytest.skip("this libm's pow rounds every sampled square like v * v")
    assert np.array_equal(_speed_squared(speeds[differ]), want[differ])
    assert np.array_equal(_speed_squared(speeds), want)


# ---------------------------------------------------------------------------
# anchored grids and ground truth
# ---------------------------------------------------------------------------

def test_anchor_geometry():
    template = GridSpec(6, 7, 1.0, frame="occluder")
    spec = anchored_spec(template, front_x=0.0, center_y=0.0)
    # the cell straight ahead of the bumper: row 6 is nearest, column 2 centered
    assert cell_center(spec, 2, 6) == (0.5, 0.0)
    assert cell_center(spec, 2, 0) == (6.5, 0.0)
    assert cell_center(spec, 0, 6) == (0.5, 2.0)


def test_anchored_spec_at_frames():
    log = run_episode(fixed_scenario(PedestrianBehavior.ABSENT))
    occ = anchored_spec_at(GridSpec(6, 7, 1.0, frame="occluder"), log, 0)
    assert occ.origin[0] == pytest.approx(log.occ_front_x[0] + 6.5)
    world = GridSpec(6, 7, 1.0, origin=(3.0, 1.0), frame="world")
    assert anchored_spec_at(world, log, 0) is world
    with pytest.raises(ValueError):
        anchored_spec_at(GridSpec(2, 2, frame="map"), log, 0)


def stand_log():
    # pedestrian fixed at (0, -2) the whole episode
    return run_episode(fixed_scenario(PedestrianBehavior.STAND, duration=5.0))


def frame_of(log, t):
    return int(round(t * log.config.log_rate))


def test_truth_single_cell():
    spec = GridSpec(3, 3, 1.0, origin=(1.0, -1.0), frame="world")
    log = stand_log()
    truth = ground_truth_grid(log, frame_of(log, 2.0), spec)
    want = np.zeros(9, dtype=np.int64)
    want[cell_index(spec, 1, 1)] = 1  # center (0, -2)
    assert np.array_equal(truth.cells, want)


def test_truth_straddles_two_cells():
    spec = GridSpec(3, 3, 1.0, origin=(1.0, -1.5), frame="world")
    log = stand_log()
    truth = ground_truth_grid(log, frame_of(log, 2.0), spec)
    want = np.zeros(9, dtype=np.int64)
    want[cell_index(spec, 0, 1)] = 1  # centers (0, -1.5) and (0, -2.5)
    want[cell_index(spec, 1, 1)] = 1
    assert np.array_equal(truth.cells, want)


def test_truth_absent_all_zero():
    log = run_episode(fixed_scenario(PedestrianBehavior.ABSENT))
    i = frame_of(log, 1.0)
    spec = anchored_spec_at(GridSpec(6, 7, 1.0, frame="occluder"), log, i)
    truth = ground_truth_grid(log, i, spec)
    assert not truth.cells.any()
    assert truth.spec is spec


def test_truth_frame_bounds():
    log = run_episode(fixed_scenario(PedestrianBehavior.ABSENT, duration=5.0))
    spec = anchored_spec_at(GridSpec(6, 7, 1.0, frame="occluder"), log, 0)
    assert not ground_truth_grid(log, log.n_frames - 1, spec).cells.any()
    with pytest.raises(ValueError):
        ground_truth_grid(log, log.n_frames, spec)
    with pytest.raises(ValueError):
        ground_truth_grid(log, -1, spec)


# ---------------------------------------------------------------------------
# dataset serialization
# ---------------------------------------------------------------------------

def read_dataset(path):
    """The episodes of a dataset file, through the CLI's line reader."""
    return read_episodes(_json_lines(str(path), "dataset"), str(path))


def test_jsonl_round_trip(tmp_path):
    cfg = ScenarioConfig()
    episodes = batch(4, seed=9, config=cfg)
    path = tmp_path / "episodes.jsonl"
    n = write_episodes(str(path), episodes, cfg, seed=9, n_episodes=4)
    assert n == 4
    logs = read_dataset(path)
    assert logs[0].config == cfg
    assert len(logs) == 4
    for (_, orig), loaded in zip(episodes, logs):
        assert loaded.scenario.behavior is orig.scenario.behavior
        for name in ("t", "ego_x", "occ_x", "occ_speed", "occ_accel", "ped_present"):
            assert np.array_equal(getattr(orig, name), getattr(loaded, name)), name
        assert np.array_equal(orig.ped_y, loaded.ped_y, equal_nan=True)
        assert loaded.scenario.to_dict() == orig.scenario.to_dict()


def test_read_rejects_malformed(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("")
    with pytest.raises(DataError):
        read_dataset(path)
    path.write_text('{"type": "frame"}\n')
    with pytest.raises(DataError):
        read_dataset(path)
    path.write_text("not json\n")
    with pytest.raises(DataError):
        read_dataset(path)
    with pytest.raises(DataError):
        read_dataset(tmp_path / "missing.jsonl")


def test_read_rejects_schema_1_dataset(tmp_path):
    cfg = ScenarioConfig()
    path = tmp_path / "episodes.jsonl"
    episodes = batch(1, seed=1, config=cfg)
    write_episodes(str(path), episodes, cfg, seed=1, n_episodes=1)
    header, record = map(json.loads, path.read_text().splitlines())
    header["schema_version"] = 1
    # schema 1: an episode header, then one record per frame
    (scenario, log), = episodes
    lines = [header, {"type": "episode", "index": 0, "behavior": scenario.behavior.value,
                      "scenario": record["scenario"]}]
    for i, t in enumerate(log.t.tolist()):
        lines.append({
            "type": "frame",
            "t": t,
            "ego": [float(log.ego_x[i]), cfg.lane_offset, 0.0, scenario.ego_speed],
            "occ": [float(log.occ_x[i]), 0.0, 0.0, float(log.occ_speed[i]), float(log.occ_accel[i])],
            "ped": [cfg.crosswalk_x, float(log.ped_y[i]), 0.0] if log.ped_present[i] else None,
        })
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    with pytest.raises(DataError, match="schema_version 1"):
        read_dataset(path)


def test_read_rejects_schema_2_dataset(tmp_path):
    """Schema 2 also stored t, ego_x, occ_accel and ped_speed, and the
    behaviour at the record's top level."""
    path, (header, line) = write_dataset(tmp_path, 1)
    header, record = json.loads(header), json.loads(line)
    header["schema_version"] = 2
    (_, log), = batch(1, seed=1)
    record.update(behavior=record["scenario"]["behavior"], t=log.t.tolist(), ego_x=log.ego_x.tolist(),
                  occ_accel=log.occ_accel.tolist(), ped_speed=[0.0] * log.n_frames)
    path.write_text(json.dumps(header) + "\n" + json.dumps(record) + "\n")
    with pytest.raises(DataError, match="schema_version 2, but only 3 is read; re-run simulate"):
        read_dataset(path)


def write_dataset(tmp_path, n):
    """A dataset of n default episodes and its lines."""
    cfg = ScenarioConfig()
    path = tmp_path / "episodes.jsonl"
    write_episodes(str(path), batch(n, seed=1, config=cfg), cfg, seed=1, n_episodes=n)
    return path, path.read_text().splitlines()


def test_read_rejects_dataset_cut_after_a_whole_episode(tmp_path):
    path, lines = write_dataset(tmp_path, 3)
    path.write_text("\n".join(lines[:3]) + "\n")
    with pytest.raises(DataError, match="header declares 3"):
        read_dataset(path)


def test_read_rejects_dataset_cut_inside_an_episode(tmp_path):
    path, lines = write_dataset(tmp_path, 2)
    path.write_text("\n".join(lines[:2] + [lines[2][: len(lines[2]) // 2]]))
    with pytest.raises(DataError, match=":3: invalid JSON"):
        read_dataset(path)


def test_read_skips_blank_lines_but_not_a_lost_episode(tmp_path):
    path, lines = write_dataset(tmp_path, 3)
    want = read_dataset(path)
    path.write_text("\n \n".join(lines) + "\n\t\r\n")
    got = read_dataset(path)
    assert [log.scenario for log in got] == [log.scenario for log in want]
    assert all(np.array_equal(a.occ_x, b.occ_x) for a, b in zip(got, want))
    path.write_text("\n".join([lines[0], lines[1], "", lines[3]]) + "\n")  # episode 1 blanked
    with pytest.raises(DataError, match="index 2 where 1 was expected"):
        read_dataset(path)


def test_read_rejects_episodes_out_of_order(tmp_path):
    path, lines = write_dataset(tmp_path, 2)
    path.write_text("\n".join([lines[0], lines[2], lines[1]]) + "\n")
    with pytest.raises(DataError, match="index 1"):
        read_dataset(path)


def test_read_rejects_episode_without_frames(tmp_path):
    path, (header, line) = write_dataset(tmp_path, 1)
    record = json.loads(line)
    record["occ_speed"].pop()
    path.write_text(header + "\n" + json.dumps(record) + "\n")
    n = len(record["occ_x"])
    with pytest.raises(DataError, match=f"{n - 1} occ_speed values; its duration needs {n} frames"):
        read_dataset(path)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("column,value,error", [
    ("occ_x", None, "episode 1 has a null occ_x value at frame 5"),
    ("occ_speed", None, "episode 1 has a null occ_speed value at frame 5"),
    ("occ_x", NAN, "episode 1 has a null occ_x value at frame 5"),
    ("occ_speed", INF, "episode 1 has an infinite occ_speed value at frame 5"),
    ("occ_x", -INF, "episode 1 has an infinite occ_x value at frame 5"),
    ("ped_y", INF, "episode 1 has an infinite ped_y value at frame 5"),
    ("ped_y", -INF, "episode 1 has an infinite ped_y value at frame 5"),
    ("d0", NAN, "malformed episode 1: d0 must be finite"),
    ("ego_speed", INF, "malformed episode 1: ego_speed must be finite"),
    ("duration", NAN, "malformed episode 1: duration must be finite"),
    ("duration", INF, "malformed episode 1: duration must be finite"),
    ("t_appear", -INF, "malformed episode 1: t_appear must be finite"),
    ("duration", 0.0, "malformed episode 1: duration must be positive"),
    ("duration", -0.02, "malformed episode 1: duration must be positive"),
], ids=["occ_x", "occ_speed", "occ_x-nan", "occ_speed-inf", "occ_x--inf", "ped_y-inf", "ped_y--inf",
        "scenario.d0-nan", "scenario.ego_speed-inf", "scenario.duration-nan", "scenario.duration-inf",
        "scenario.t_appear--inf", "scenario.duration-zero", "scenario.duration-negative"])
def test_read_rejects_null_outside_ped_y(tmp_path, column, value, error):
    """Stored values must be finite and only ped_y may be null (JSON's NaN
    reads as a null does); every float of the scenario must be finite, and
    its duration positive."""
    path, (header, first, second) = write_dataset(tmp_path, 2)
    record = json.loads(second)
    if column in record["scenario"]:
        record["scenario"][column] = value
    else:
        record[column][5] = value
    path.write_text("\n".join([header, first, json.dumps(record)]) + "\n")
    with pytest.raises(DataError, match=error):
        read_dataset(path)
