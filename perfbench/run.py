#!/usr/bin/env python3
"""Benchmark of the occlusense pipeline on generated inputs.

    python3 perfbench/run.py --workload grid-default --seed 0 --seconds 20 --trace 0

Run it from the repository root.  An untraced run (``--trace 0``) times
each CLI stage as its own process.  It repeats the whole pipeline for about
``--seconds`` seconds, each round on a dataset of its own made from the
seed, repeats the first round last to check that its artifacts come out
byte-identical, and reports medians over the rounds.  A traced
run (``--trace 1``) runs the same stages inside this process with spans
around every call ``occlusense.cli`` makes into the other modules (see
``spans.py``) and reports per-layer metrics.  Every round's outputs are
checked; a stage that exits non-zero or whose outputs fail a check counts
as failed.

The last line of stdout is the result object; the line before it holds
the detail record, with the stage names of the workload's own pipeline.
See ``perfbench/README.md`` for the workloads and the metrics.
"""

from __future__ import annotations

import os

#: BLAS threads for every stage; set before numpy is imported anywhere.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
import synthetic  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

#: Cold ``import occlusense.cli`` processes timed per round for ``setup_s``;
#: spreading them over the run averages over the host's speed changes.
SETUP_PER_ROUND = 3
#: A stage process is killed after this long and counted as failed.
STAGE_TIMEOUT_S = 120.0

#: CLI defaults the checks rely on: train split, eval stride, log rate and
#: the warm-up before the first evaluable frame.
TRAIN_SPLIT = 0.2
EVAL_STRIDE = 3
LOG_RATE_HZ = 30.0
WARMUP_S = 0.5
#: Length of every simulated episode, the middle of the default 5-10 s, so
#: that every seed scores the same number of frames.
EPISODE_S = 7.5


@dataclass(frozen=True)
class Workload:
    """One pipeline with its flat config keys and generated-input sizes."""

    mode: str
    config: dict[str, str]
    #: Check the headline claim, fused psi below standard psi.
    fusion_claim: bool = False
    clips: int = 0
    visible_per_clip: int = 0
    occluded_per_clip: int = 0

    @property
    def episodes(self) -> int:
        return int(self.config.get("sim.n_episodes", 0))

    def eligible_frames_per_episode(self) -> int:
        """Frames eval may score in one episode: from the warm-up on, every
        ``eval.stride``-th of the ``duration * rate + 1`` logged frames."""
        n_frames = round(EPISODE_S * LOG_RATE_HZ) + 1
        first = math.ceil(WARMUP_S * LOG_RATE_HZ - 1e-9)
        return len(range(first, n_frames, int(self.config.get("eval.stride", EVAL_STRIDE))))

    def n_train(self, n: int) -> int:
        """Episodes (or clips) of ``n`` that the CLI's split puts in training."""
        split = float(self.config.get("train.split", TRAIN_SPLIT))
        return min(max(int(round(n * split)), 1), n - 1)


CAMERA_KEYS = {f"camera.{k}": repr(v) for k, v in synthetic.CAMERA.items()}
REGION_KEYS = {f"region.{k}": repr(v) for k, v in synthetic.REGION.items()}

WORKLOADS = {
    # The paper's setup: 6 x 7 cells at 1 m, full region, standard + fused.
    "grid-default": Workload("grid", {
        "sim.n_episodes": "100",
        "sim.duration_range": f"{EPISODE_S}, {EPISODE_S}",
        "train.split": "0.5",
    }, fusion_claim=True),
    # The same area at 0.25 m, scored on occluded cells only.
    "grid-fine": Workload("grid", {
        "sim.n_episodes": "108",
        "sim.duration_range": f"{EPISODE_S}, {EPISODE_S}",
        "train.split": "0.8333",
        "train.stride": "2",
        "eval.stride": "18",
        "grid.width": "24",
        "grid.height": "28",
        "grid.resolution": "0.25",
        "eval.region": "occluded",
    }),
    # Synthetic detections on a 0.5 m candidate lattice.
    "landmark": Workload("landmark", {
        "mode": "landmark",
        "logit.max_iters": "1000",
        **CAMERA_KEYS,
        **REGION_KEYS,
    }, clips=40, visible_per_clip=600, occluded_per_clip=300),
}

GRID_OUTPUTS = {"simulate": ("dataset.jsonl",),
                "train": ("actionlets.json", "likelihoods.json"),
                "eval": ("eval_frames.csv", "eval_summary.json")}
LANDMARK_OUTPUTS = {"ingest": ("landmark_dataset.jsonl",),
                    "train": ("logit.json",),
                    "eval": ("eval_actions.csv", "eval_summary.json")}

#: End-to-end metrics with their units, in the order they are reported.
END_TO_END = {
    "setup_s": "s",
    "data_s": "s",
    "train_s": "s",
    "eval_s": "s",
    "total_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


@dataclass
class Round:
    """Timings, exit codes, check problems and figures of one pipeline run."""

    seconds: dict[str, float] = field(default_factory=dict)
    setup_s: list[float] = field(default_factory=list)
    rss_mb: dict[str, float] = field(default_factory=dict)
    codes: dict[str, int] = field(default_factory=dict)
    problems: dict[str, list[str]] = field(default_factory=dict)
    figures: dict[str, float] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)

    def failed(self) -> int:
        return sum(1 for s in self.codes if self.codes[s] != 0 or self.problems.get(s))


# ---------------------------------------------------------------------------
# Inputs and stages.
# ---------------------------------------------------------------------------

def prepare_inputs(wl: Workload, seed: int, work: Path) -> None:
    """Write the run's config file and, for landmark, its annotations."""
    work.mkdir(parents=True, exist_ok=True)
    (work / "run.cfg").write_text("".join(f"{k} = {v}\n" for k, v in wl.config.items()))
    if wl.mode == "landmark":
        records = synthetic.generate(seed, wl.clips, wl.visible_per_clip, wl.occluded_per_clip)
        synthetic.write(work / "annotations.jsonl", records)


def stage_argvs(wl: Workload, seed: int, work: Path, out: Path) -> list[tuple[str, list[str]]]:
    common = ["--config", str(work / "run.cfg"), "--seed", str(seed), "--out", str(out)]
    if wl.mode == "grid":
        data = str(out / "dataset.jsonl")
        first = ("simulate", ["simulate", *common])
    else:
        data = str(out / "landmark_dataset.jsonl")
        first = ("ingest", ["ingest", str(work / "annotations.jsonl"), *common])
    return [first,
            ("train", ["train", "--dataset", data, *common]),
            ("eval", ["eval", "--dataset", data, "--models", str(out), *common])]


def run_process(argv: list[str], log: Path) -> tuple[float, float, int]:
    """Wall seconds, peak RSS in MB and exit code of one process.

    The wait blocks in ``wait4``: ``Popen.wait`` with a timeout polls, which
    rounds every time up to its 50 ms poll step.  A process still running
    after ``STAGE_TIMEOUT_S`` is killed.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(log, "w") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=fh, stderr=subprocess.STDOUT)
        previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.setitimer(signal.ITIMER_REAL, STAGE_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, usage.ru_maxrss / 1024.0, proc.returncode


def run_stage(args: list[str], log: Path) -> tuple[float, float, int]:
    """``run_process`` of ``python -m occlusense <args>``."""
    return run_process([sys.executable, "-m", "occlusense", *args], log)


def time_setup(log: Path) -> float:
    """Seconds for a fresh interpreter to import ``occlusense.cli`` and exit."""
    seconds, _, code = run_process([sys.executable, "-c", "import occlusense.cli"], log)
    if code != 0:
        raise RuntimeError(f"importing occlusense.cli failed; see {log}")
    return seconds


# ---------------------------------------------------------------------------
# Output checks.
# ---------------------------------------------------------------------------

def _read_json(path: Path, problems: list[str]) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        problems.append(f"{path.name}: {exc}")
        return {}


def check_grid(wl: Workload, out: Path) -> tuple[dict[str, list[str]], dict[str, float]]:
    """Problems per stage and the quality figures of a grid round."""
    problems: dict[str, list[str]] = {"simulate": [], "train": [], "eval": []}
    figures: dict[str, float] = {}
    dataset = out / "dataset.jsonl"
    if not dataset.exists() or dataset.stat().st_size == 0:
        problems["simulate"].append("no dataset written")

    for name in GRID_OUTPUTS["train"]:
        if not _read_json(out / name, problems["train"]):
            problems["train"].append(f"{name} is empty")

    p = problems["eval"]
    methods = _read_json(out / "eval_summary.json", p).get("methods", {})
    rows: dict[str, int] = {}
    episodes: set[int] = set()
    try:
        with open(out / "eval_frames.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                rows[row["method"]] = rows.get(row["method"], 0) + 1
                episodes.add(int(row["episode"]))
    except (OSError, KeyError, ValueError) as exc:
        p.append(f"eval_frames.csv: {exc}")
    for method in ("standard", "fused"):
        stats = methods.get(method)
        if stats is None or not math.isfinite(stats.get("psi_mean", math.nan)):
            p.append(f"no finite psi for {method}")
            return problems, figures
        figures[f"psi_{method}"] = stats["psi_mean"]

    n_eval = wl.episodes - wl.n_train(wl.episodes)
    if len(episodes) != n_eval:
        p.append(f"{len(episodes)} episodes scored, expected {n_eval}")
    eligible = n_eval * wl.eligible_frames_per_episode()
    scored = methods["standard"]["n_frames"]
    figures["scored_frames"] = scored
    for method in ("standard", "fused"):
        if methods[method]["n_frames"] != scored or rows.get(method) != scored:
            p.append(f"{method}: summary and CSV disagree on the frame count")
    if wl.config.get("eval.region") == "occluded":
        if not 0 < scored <= eligible:
            p.append(f"{scored} occluded-region frames scored out of {eligible} eligible")
    elif scored != eligible:
        p.append(f"{scored} frames scored, expected {eligible}")
    return problems, figures


def check_landmark(wl: Workload, out: Path) -> tuple[dict[str, list[str]], dict[str, float]]:
    """Problems per stage and the quality figures of a landmark round."""
    problems: dict[str, list[str]] = {"ingest": [], "train": [], "eval": []}
    figures: dict[str, float] = {}
    expected = wl.clips * (wl.visible_per_clip + wl.occluded_per_clip)
    try:
        with open(out / "landmark_dataset.jsonl") as fh:
            accepted = sum(1 for _ in fh)
    except OSError as exc:
        problems["ingest"].append(str(exc))
        accepted = 0
    if accepted != expected:
        problems["ingest"].append(f"{accepted} records ingested, expected {expected}")

    model = _read_json(out / "logit.json", problems["train"])
    if model.get("kind") != "logit_model":
        problems["train"].append("logit.json is not a logit model")

    p = problems["eval"]
    summary = _read_json(out / "eval_summary.json", p)
    n_eval = (wl.clips - wl.n_train(wl.clips)) * wl.occluded_per_clip
    if summary.get("evaluated_samples") != n_eval:
        p.append(f"{summary.get('evaluated_samples')} samples evaluated, expected {n_eval}")
    actions = summary.get("actions", {})
    for action in ("stopped", "decelerating"):
        if action not in actions:
            p.append(f"no {action} samples evaluated")
            return problems, figures
        figures[f"lm_gain_{action}"] = actions[action]["improvement_ratio"]
    if not figures["lm_gain_stopped"] > 0.0:
        p.append(f"lm_gain_stopped {figures['lm_gain_stopped']} is not positive")
    return problems, figures


def check_claim(wl: Workload, rounds: list[Round]) -> None:
    """The headline claim over a run's datasets: mean fused psi below mean standard psi.

    It is a claim about many episodes: on one 50-episode dataset fusion
    can come out about even (1 seed in 40 in a sweep), so it is checked on
    the datasets of the whole run, and fails every round's eval when it
    does not hold.
    """
    distinct = rounds[:-1] or rounds
    if not wl.fusion_claim or any("psi_fused" not in r.figures for r in distinct):
        return
    fused = statistics.mean(r.figures["psi_fused"] for r in distinct)
    standard = statistics.mean(r.figures["psi_standard"] for r in distinct)
    if not fused < standard:
        for r in rounds:
            r.problems["eval"].append(f"mean psi_fused {fused} is not below mean psi_standard {standard}")


def digest_outputs(wl: Workload, out: Path) -> dict[str, str]:
    """sha256 over each stage's artifacts (manifests excluded: they hold times)."""
    outputs = GRID_OUTPUTS if wl.mode == "grid" else LANDMARK_OUTPUTS
    digests = {}
    for stage, names in outputs.items():
        h = hashlib.sha256()
        for name in names:
            path = out / name
            h.update(path.read_bytes() if path.exists() else b"<missing>")
        digests[stage] = h.hexdigest()
    return digests


def finish_round(wl: Workload, out: Path, rnd: Round, first: Round | None) -> None:
    """Check one round's outputs, and compare them with the first round's."""
    try:
        rnd.problems, rnd.figures = (check_grid if wl.mode == "grid" else check_landmark)(wl, out)
    except (KeyError, TypeError, ValueError, OSError) as exc:
        rnd.problems = {stage: [f"outputs unreadable: {exc!r}"] for stage in rnd.codes}
    rnd.digests = digest_outputs(wl, out)
    if first is not None:
        for stage, digest in rnd.digests.items():
            if digest != first.digests.get(stage):
                rnd.problems[stage].append("artifacts differ from the first round of this seed")


# ---------------------------------------------------------------------------
# Untraced and traced runs.
# ---------------------------------------------------------------------------

def round_seed(seed: int, index: int) -> int:
    """Pipeline seed of round ``index``: each round makes a dataset of its own."""
    return seed * 1000 + index


def run_rounds(wl: Workload, seed: int, seconds: float, work: Path, run_stages) -> list[Round]:
    """Pipeline rounds while time allows, then a repeat of the first round.

    Every round but the last runs on its own dataset, so that work which
    depends on the data (k-means iterations, say) is averaged within a
    run.  The last round repeats the first round's seed, and its artifacts
    must match the first round's byte for byte.  ``run_stages(rnd,
    stages, work)`` runs one round's stages.
    """
    rounds: list[Round] = []
    started = time.perf_counter()
    while True:
        rounds.append(_round(wl, round_seed(seed, len(rounds)), work, run_stages, None))
        elapsed = time.perf_counter() - started
        if elapsed + 2 * elapsed / len(rounds) > seconds:
            break
    rounds.append(_round(wl, round_seed(seed, 0), work, run_stages, rounds[0]))
    check_claim(wl, rounds)
    return rounds


def _round(wl: Workload, seed: int, work: Path, run_stages, first: Round | None) -> Round:
    prepare_inputs(wl, seed, work)
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    rnd = Round()
    run_stages(rnd, stage_argvs(wl, seed, work, out), work)
    finish_round(wl, out, rnd, first)
    return rnd


def stages_in_processes(rnd: Round, stages: list[tuple[str, list[str]]], work: Path) -> None:
    """Untraced round: cold imports for ``setup_s``, then one process per stage."""
    rnd.setup_s = [time_setup(work / "setup.log") for _ in range(SETUP_PER_ROUND)]
    for stage, argv in stages:
        rnd.seconds[stage], rnd.rss_mb[stage], rnd.codes[stage] = run_stage(argv, work / f"{stage}.log")


def measure_traced(wl: Workload, seed: int, seconds: float, work: Path) -> tuple[list[Round], dict[str, float]]:
    """Traced rounds in this process; returns the rounds and the per-layer metrics."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import occlusense.cli as cli
    from occlusense import landmark, simulator

    modules = {"simulator": simulator, "landmark": landmark}
    tracer = spans.Tracer()
    eval_s: dict[bool, list[float]] = {True: [], False: []}
    dataset_bytes: list[int] = []

    def stages_traced(rnd: Round, stages: list[tuple[str, list[str]]], work: Path) -> None:
        for stage, argv in stages:
            # Eval also runs untraced, alternating which goes first, for trace.overhead_frac.
            order = [True]
            if stage == "eval":
                order = [True, False] if len(eval_s[True]) % 2 == 0 else [False, True]
            for traced in order:
                taken, code = _run_in_process(cli, argv, work / f"{stage}.log", tracer if traced else None, modules)
                if stage == "eval":
                    eval_s[traced].append(taken)
                if traced:
                    rnd.seconds[stage] = taken
                if code != 0 or stage not in rnd.codes:
                    rnd.codes[stage] = code
            dataset = work / "out" / "dataset.jsonl"
            if stage == "simulate" and dataset.exists():
                dataset_bytes.append(dataset.stat().st_size)

    rounds = run_rounds(wl, seed, seconds, work, stages_traced)
    overhead = statistics.median(eval_s[True]) / statistics.median(eval_s[False]) - 1.0
    (work / "spans.json").write_text(json.dumps({
        "calls": tracer.calls, "self_s": tracer.self_s, "total_s": tracer.total_s,
        "counters": tracer.counters, "rounds": len(rounds),
        "spans": [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in tracer.spans],
    }, indent=1, sort_keys=True))
    mean_bytes = statistics.mean(dataset_bytes) if dataset_bytes else 0
    return rounds, spans.layer_metrics(tracer, len(rounds), mean_bytes, overhead)


def _run_in_process(cli, argv: list[str], log: Path, tracer, modules: dict) -> tuple[float, int]:
    """Wall seconds and exit code of ``cli.main(argv)``, traced when ``tracer`` is given."""
    patched = spans.install(tracer, cli, modules) if tracer is not None else []
    main = tracer.wrap(spans.STAGE, cli.main) if tracer is not None else cli.main
    try:
        with open(log, "w") as fh, contextlib.redirect_stdout(fh), contextlib.redirect_stderr(fh):
            start = time.perf_counter()
            code = main(argv)
            return time.perf_counter() - start, code
    finally:
        spans.uninstall(patched)


# ---------------------------------------------------------------------------
# Reporting.
# ---------------------------------------------------------------------------

def _median(rounds: list[Round], get) -> float:
    return statistics.median(get(r) for r in rounds)


def end_to_end(rounds: list[Round]) -> dict[str, float]:
    first = next(iter(rounds[0].seconds))
    attempted = sum(len(r.codes) for r in rounds)
    failed = sum(r.failed() for r in rounds)
    return {
        "setup_s": statistics.median(s for r in rounds for s in r.setup_s),
        "data_s": _median(rounds, lambda r: r.seconds[first]),
        "train_s": _median(rounds, lambda r: r.seconds["train"]),
        "eval_s": _median(rounds, lambda r: r.seconds["eval"]),
        "total_s": _median(rounds, lambda r: sum(r.seconds.values())),
        "peak_rss_mb": _median(rounds, lambda r: max(r.rss_mb.values())),
        "ok_frac": (attempted - failed) / attempted,
    }


def detail(name: str, seed: int, rounds: list[Round], metrics: dict[str, float]) -> dict:
    """The record printed before the result: stage times by their own names and
    quality figures, averaged over the run's distinct datasets."""
    attempted = sum(len(r.codes) for r in rounds)
    stages = {f"{s}_s": _median(rounds, lambda r, s=s: r.seconds[s]) for s in rounds[0].seconds}
    distinct = rounds[:-1]
    figures = {k: statistics.mean(r.figures.get(k, math.nan) for r in distinct) for k in rounds[0].figures}
    problems = sorted({f"{s}: {m}" for r in rounds for s, ms in r.problems.items() for m in ms})
    return {"workload": name, "seed": seed, "rounds": len(rounds), "blas_threads": int(BLAS_THREADS),
            **stages, **figures, "fail_frac": sum(r.failed() for r in rounds) / attempted,
            "problems": problems[:20], **{k: metrics[k] for k in ("setup_s", "peak_rss_mb") if k in metrics}}


def _natural(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("the seed must not be negative")
    return value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=_natural, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "occlusense" / "cli.py").is_file():
        print(f"error: no occlusense sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        rounds, metrics = measure_traced(wl, args.seed, args.seconds, work)
        units = spans.LAYER_METRICS
    else:
        rounds = run_rounds(wl, args.seed, args.seconds, work, stages_in_processes)
        metrics = end_to_end(rounds)
        units = END_TO_END
    failed = sum(r.failed() for r in rounds)
    print(json.dumps(detail(args.workload, args.seed, rounds, metrics)))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(len(r.codes) for r in rounds),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
