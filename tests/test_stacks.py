"""One call on a stack of F frames equals F single-frame calls, bit for bit.

The grid pipeline calls every layer once per episode with the episode's
frame indices; the single-frame calls the unit tests and the acceptance
gate make are the F = 1 case of the same code.  Each layer is checked here
on simulated episodes of every pedestrian behavior, anchored in every grid
frame.
"""

import numpy as np
import pytest

from occlusense.behavior import assign_actionlet, extract_features, kmeans_fit
from occlusense.grid import GridSpec, fuse_action, new_uniform_grid, threshold
from occlusense.metrics import score_pair
from occlusense.perception import raycast_scan, standard_inverse_update, visibility_mask
from occlusense.simulator import (
    BEHAVIOR_ORDER,
    Scenario,
    ScenarioConfig,
    anchored_spec_at,
    ground_truth_grid,
    run_episode,
)
from oracles import random_likelihood_table

TEMPLATES = {
    "occluder": GridSpec(6, 7, 1.0, frame="occluder"),
    "ego": GridSpec(12, 30, 1.0, frame="ego"),
    "world": GridSpec(6, 7, 1.0, origin=(6.5, 2.0), frame="world"),
}


def episodes():
    """One episode per behavior; the pedestrian appears after the first second."""
    cfg = ScenarioConfig()
    return [run_episode(Scenario(d0=20.0 + 3 * j, v0=6.0, behavior=behavior, ped_speed=1.2,
                                 t_appear=1.0, duration=5.0, ego_speed=cfg.ego_speed_factor * 6.0,
                                 noise_seed=j, config=cfg))
            for j, behavior in enumerate(BEHAVIOR_ORDER)]


def assert_rows_equal(stacked, singles):
    assert np.array_equal(stacked, np.array(singles))


@pytest.mark.parametrize("grid_frame", sorted(TEMPLATES))
def test_stack_call_equals_single_frame_calls(grid_frame):
    template = TEMPLATES[grid_frame]
    logs = episodes()
    assert {log.scenario.behavior for log in logs} == set(BEHAVIOR_ORDER)
    model = kmeans_fit(np.concatenate([extract_features(log, log.t[15:]) for log in logs]), k=4, seed=0)
    table = random_likelihood_table(template, 4, np.random.default_rng(1))
    for log in logs:
        frames = np.arange(15, log.n_frames, 3)
        assert not log.ped_present[frames].all()  # absent and present frames alike

        spec = anchored_spec_at(template, log, frames)
        specs = [anchored_spec_at(template, log, i) for i in frames]
        truth = ground_truth_grid(log, frames, spec)
        truths = [ground_truth_grid(log, i, s) for i, s in zip(frames, specs)]
        assert_rows_equal(truth.cells, [t.cells for t in truths])

        scan = raycast_scan(log.scene_at(frames), log.ego_pose(frames), 120, 30.0)
        scans = [raycast_scan(log.scene_at(i), log.ego_pose(i), 120, 30.0) for i in frames]
        assert_rows_equal(scan.ranges, [s.ranges for s in scans])
        assert_rows_equal(scan.hits, [s.hits for s in scans])
        occluded, hit = visibility_mask(scan, spec)
        single = [visibility_mask(s, sp) for s, sp in zip(scans, specs)]
        assert_rows_equal(occluded, [o for o, _ in single])
        assert_rows_equal(hit, [h for _, h in single])

        base = standard_inverse_update(new_uniform_grid(spec), occluded, hit)
        bases = [standard_inverse_update(new_uniform_grid(sp), o, h) for (o, h), sp in zip(single, specs)]
        assert_rows_equal(base.probs, [b.probs for b in bases])

        rows = extract_features(log, log.t[frames])
        assert_rows_equal(rows, [extract_features(log, float(log.t[i])) for i in frames])
        labels = assign_actionlet(model, rows)
        assert_rows_equal(labels, [assign_actionlet(model, r) for r in rows])

        fused = fuse_action(base, table, labels)
        fused_frames = [fuse_action(b, table, a) for b, a in zip(bases, labels)]
        assert_rows_equal(fused.probs, [f.probs for f in fused_frames])
        for predicted, singles in ((threshold(base, 0.6), [threshold(b, 0.6) for b in bases]),
                                   (threshold(fused, 0.6), [threshold(f, 0.6) for f in fused_frames])):
            assert_rows_equal(predicted.cells, [p.cells for p in singles])
            for mask, masks in ((None, [None] * len(frames)), (occluded, occluded)):
                score = score_pair(predicted, truth, mask)
                scores = [score_pair(p, t, m) for p, t, m in zip(singles, truths, masks)]
                for name in ("d_ab_free", "d_ab_occ", "d_ba_free", "d_ba_occ", "psi"):
                    assert_rows_equal(getattr(score, name), [getattr(s, name) for s in scores])
