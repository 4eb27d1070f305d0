"""Spans around the calls ``occlusense.cli`` makes into the other modules.

The program carries no timers of its own, so the traced run measures each
layer from outside: :func:`install` replaces every function that
``occlusense.cli`` imported from a module with a wrapper that records a
span, plus a few methods the CLI reaches through objects.  Spans are not
kept one by one (a grid eval makes about a million); the tracer keeps a
count, total time and self time per span name, and only the first
``max_spans`` raw spans.  Self time is a span's duration minus the
durations of the spans it directly encloses.
"""

from __future__ import annotations

import functools
import inspect
import time

#: Span name for each function ``occlusense.cli`` imports.  ``install``
#: refuses to run when the CLI imports a function missing here, so a new
#: call path cannot hide in ``cli.self``.
SPAN_OF_FUNCTION = {
    "simulate_batch": "simulator.run",
    "write_episodes": "simulator.write",
    "read_episodes": "simulator.read",
    "ground_truth_grid": "simulator.truth",
    "anchored_spec_at": "simulator.anchor",
    "extract_features": "behavior.features",
    "kmeans_fit": "behavior.kmeans",
    "assign_actionlet": "behavior.assign",
    "estimate_likelihoods": "behavior.likelihoods",
    "load_actionlet_model": "behavior.io",
    "load_likelihood_table": "behavior.io",
    "save_model_json": "behavior.io",
    "raycast_scan": "perception.raycast",
    "visibility_mask": "perception.visibility",
    "standard_inverse_update": "perception.update",
    "new_uniform_grid": "grid.new",
    "fuse_action": "grid.fuse",
    "threshold": "grid.threshold",
    "score_pair": "metrics.score",
    "aggregate_similarity": "metrics.aggregate",
    "mean_and_se": "metrics.aggregate",
    "improvement_ratio": "metrics.aggregate",
    "posterior_mass_at_truth": "metrics.aggregate",
    "bbox_to_landmark": "landmark.project",
    "fit_logit": "landmark.fit",
    "posterior_over_region": "landmark.posterior",
    "action_from_label": "landmark.label",
    "load_logit_model": "landmark.io",
    "save_logit_model": "landmark.io",
    "named_rng": "seeds.rng",
    "_sha256": "cli.hash",
}

#: Methods the CLI calls on objects: (module, class, method) -> span name.
SPAN_OF_METHOD = {
    ("simulator", "EpisodeLog", "scene_at"): "simulator.scene",
    ("simulator", "EpisodeLog", "ego_pose"): "simulator.scene",
    ("landmark", "OccludedRegion", "locate"): "landmark.locate",
}

#: Generator functions: each ``next`` on the returned generator is one span.
GENERATORS = {"simulate_batch"}

STAGE = "cli.stage"


class Tracer:
    """Per-name span aggregates plus a capped list of raw spans."""

    def __init__(self, max_spans: int = 10000):
        self.max_spans = max_spans
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.counters: dict[str, int] = {}
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent span id
        self._stack: list[list] = []  # [start, child seconds, span id]
        self._next_id = 0
        self.frame_open = False  # a frame was raycast and not scored yet

    def enter(self) -> None:
        self._next_id += 1
        self._stack.append([time.perf_counter(), 0.0, self._next_id])

    def exit(self, name: str) -> None:
        end = time.perf_counter()
        start, child, span_id = self._stack.pop()
        duration = end - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - child
        self.total_s[name] = self.total_s.get(name, 0.0) + duration
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += duration
        if len(self.spans) < self.max_spans:
            self.spans.append((name, start, end, parent[2] if parent else 0))

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording one span per call; ``after(tracer, result)`` sees each result."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(name)
            if after is not None:
                after(self, result)
            return result
        return traced

    def wrap_generator(self, name: str, fn):
        """Generator function ``fn`` recording one span per item produced."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            items = iter(fn(*args, **kwargs))
            while True:
                self.enter()
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    self.exit(name)
                yield item
        return traced


def _count_kmeans_iters(tracer: Tracer, model) -> None:
    tracer.count("behavior.kmeans_iters", len(model.sse_history))


def _count_fit_iters(tracer: Tracer, model) -> None:
    tracer.count("landmark.fit_iters", len(model.loglik_history))


def _count_raycast(tracer: Tracer, _scan) -> None:
    tracer.count("frames_raycast")
    tracer.frame_open = True


def _count_scored(tracer: Tracer, _score) -> None:
    # The first score after a raycast marks that frame as scored; the other
    # methods of the same frame score it again.
    if tracer.frame_open:
        tracer.count("frames_scored")
        tracer.frame_open = False


AFTER = {
    "behavior.kmeans": _count_kmeans_iters,
    "landmark.fit": _count_fit_iters,
    "perception.raycast": _count_raycast,
    "metrics.score": _count_scored,
}


def install(tracer: Tracer, cli, modules: dict) -> list[tuple[object, str, object]]:
    """Wrap the CLI's imported functions and the traced methods.

    ``modules`` maps short module names ("simulator", ...) to the imported
    modules.  Returns the (owner, attribute, original) list that
    :func:`uninstall` restores.
    """
    patched = []
    for attr, obj in sorted(vars(cli).items()):
        if not inspect.isfunction(obj):
            continue
        if obj.__module__ == cli.__name__ and attr != "_sha256":
            continue
        if not obj.__module__.startswith("occlusense."):
            continue
        if attr not in SPAN_OF_FUNCTION:
            raise KeyError(f"occlusense.cli imports {obj.__module__}.{attr}, which has no span name")
        name = SPAN_OF_FUNCTION[attr]
        wrapped = (tracer.wrap_generator(name, obj) if attr in GENERATORS
                   else tracer.wrap(name, obj, AFTER.get(name)))
        patched.append((cli, attr, obj))
        setattr(cli, attr, wrapped)
    for (module, cls_name, method), name in SPAN_OF_METHOD.items():
        cls = getattr(modules[module], cls_name)
        original = cls.__dict__[method]
        patched.append((cls, method, original))
        setattr(cls, method, tracer.wrap(name, original))
    return patched


def uninstall(patched: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(patched):
        setattr(owner, attr, original)


#: Per-layer metrics in the order they are reported, with their units.
#: ``_s`` metrics are self seconds of a span name and ``_calls`` its call
#: count; the rest are computed in :func:`layer_metrics`.
LAYER_METRICS = {
    "simulator.run_s": "s",
    "simulator.write_s": "s",
    "simulator.dataset_bytes": "bytes",
    "simulator.read_s": "s",
    "simulator.truth_s": "s",
    "simulator.truth_calls": "count",
    "simulator.anchor_s": "s",
    "simulator.scene_s": "s",
    "behavior.features_s": "s",
    "behavior.features_calls": "count",
    "behavior.kmeans_s": "s",
    "behavior.kmeans_iters": "count",
    "behavior.likelihoods_s": "s",
    "behavior.assign_s": "s",
    "behavior.assign_calls": "count",
    "behavior.io_s": "s",
    "perception.raycast_s": "s",
    "perception.raycast_calls": "count",
    "perception.visibility_s": "s",
    "perception.update_s": "s",
    "grid.new_s": "s",
    "grid.fuse_s": "s",
    "grid.threshold_s": "s",
    "metrics.score_s": "s",
    "metrics.score_calls": "count",
    "metrics.aggregate_s": "s",
    "landmark.project_s": "s",
    "landmark.project_calls": "count",
    "landmark.fit_s": "s",
    "landmark.fit_iters": "count",
    "landmark.posterior_s": "s",
    "landmark.posterior_calls": "count",
    "landmark.locate_s": "s",
    "landmark.label_s": "s",
    "landmark.io_s": "s",
    "seeds.rng_s": "s",
    "cli.self_s": "s",
    "cli.hash_s": "s",
    "cli.frame_yield": "ratio",
    "trace.overhead_frac": "ratio",
}


def layer_metrics(tracer: Tracer, rounds: int, dataset_bytes: float, overhead_frac: float) -> dict[str, float]:
    """Per-round values of every metric in :data:`LAYER_METRICS`.

    A layer that did not run reports zero.  ``cli.self_s`` is the self
    time of the stage spans, i.e. stage time no layer span covers.
    ``cli.frame_yield`` is frames scored over frames raycast (zero when
    nothing was raycast).
    """
    raycast = tracer.counters.get("frames_raycast", 0)
    special = {
        "simulator.dataset_bytes": dataset_bytes,
        "behavior.kmeans_iters": tracer.counters.get("behavior.kmeans_iters", 0) / rounds,
        "landmark.fit_iters": tracer.counters.get("landmark.fit_iters", 0) / rounds,
        "cli.self_s": tracer.self_s.get(STAGE, 0.0) / rounds,
        "cli.frame_yield": tracer.counters.get("frames_scored", 0) / raycast if raycast else 0.0,
        "trace.overhead_frac": overhead_frac,
    }
    out = {}
    for metric in LAYER_METRICS:
        if metric in special:
            out[metric] = special[metric]
        elif metric.endswith("_calls"):
            out[metric] = tracer.calls.get(metric[: -len("_calls")], 0) / rounds
        else:
            out[metric] = tracer.self_s.get(metric[: -len("_s")], 0.0) / rounds
    return out
