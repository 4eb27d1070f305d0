"""Malformed input exits 2, never 3: one value of one record is spoilt.

Each input the CLI reads comes from a small valid run: the grid dataset's
header and one episode record, the trained ``actionlets.json`` and
``likelihoods.json``, one annotation line, one landmark dataset line and
``logit.json``.  A property test changes one value in one of them (or cuts
the record short) and runs every command that reads it: each must exit 0,
1 or 2.  Exit 3 is an internal error, so a malformed record that reaches it
has escaped the readers' one rule (``occlusense.errors.MALFORMED``).
A config file is an input too: one hostile value of one config key must
exit 0, 1 or 2 in every command.
"""

import contextlib
import copy
import dataclasses
import importlib.util
import io
import json
import math
import shutil
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from occlusense.cli import main
from occlusense.simulator import ScenarioConfig

_spec = importlib.util.spec_from_file_location(
    "synthetic_annotations", Path(__file__).resolve().parent.parent / "perfbench" / "synthetic.py")
synthetic = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(synthetic)

DEEP = "deeply nested"
#: Nesting past the recursion limit: ``json.loads`` raises RecursionError.
DEEP_TEXT = "[" * 20_000 + "]" * 20_000
#: Within the parser's 4,300-digit limit, outside the float range.
HUGE_INT = 10**400 - 1
#: The replacement values: each JSON type, NaN, infinity, a huge integer
#: and deep nesting.  ``DELETE`` removes the key or list item instead, and
#: ``TRUNCATE`` cuts the whole record short.
DELETE, TRUNCATE = object(), object()
VALUES = ["x", [], {"a": 1}, None, True, math.nan, math.inf, HUGE_INT, DEEP]

GRID_KEYS = {"sim.duration_range": "1.0, 1.5", "train.split": "0.5"}
LANDMARK_KEYS = {
    "mode": "landmark",
    **{f"camera.{k}": repr(v) for k, v in synthetic.CAMERA.items()},
    **{f"region.{k}": repr(v) for k, v in synthetic.REGION.items()},
}


def run(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Valid inputs and the commands that read them, keyed by input name.

    Each entry is ``(path, line)`` of the record to spoil (``line`` None for
    a whole model file) and a function from a dataset path and a models
    directory to the argument lists of the commands that read it.
    """
    root = tmp_path_factory.mktemp("malformed")
    grid, landmark, work = root / "grid", root / "landmark", root / "work"
    for d, keys in ((grid, GRID_KEYS), (landmark, LANDMARK_KEYS), (work, {})):
        d.mkdir()
        (d / "run.cfg").write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    synthetic.write(landmark / "ann.jsonl", synthetic.generate(4, n_clips=3, visible_per_clip=20,
                                                                occluded_per_clip=10))

    def grid_argv(*args, out=work / "out"):
        return [*args, "--config", str(grid / "run.cfg"), "--seed", "3", "--out", str(out)]

    def landmark_argv(*args, out=work / "out"):
        return [*args, "--config", str(landmark / "run.cfg"), "--seed", "3", "--out", str(out)]

    for argv in (grid_argv("simulate", "--episodes", "4", out=grid),
                 grid_argv("train", "--dataset", str(grid / "dataset.jsonl"), out=grid),
                 landmark_argv("ingest", str(landmark / "ann.jsonl"), out=landmark),
                 landmark_argv("train", "--dataset", str(landmark / "landmark_dataset.jsonl"), out=landmark)):
        assert run(argv) == 0, argv

    def grid_data(dataset, models):
        return [grid_argv("train", "--dataset", dataset),
                grid_argv("eval", "--dataset", dataset, "--models", models)]

    def grid_models(dataset, models):
        return [grid_argv("eval", "--dataset", str(grid / "dataset.jsonl"), "--models", models)]

    def landmark_data(dataset, models):
        return [landmark_argv("train", "--dataset", dataset),
                landmark_argv("eval", "--dataset", dataset, "--models", models)]

    def landmark_model(dataset, models):
        return [landmark_argv("eval", "--dataset", str(landmark / "landmark_dataset.jsonl"),
                              "--models", models)]

    def annotations(dataset, models):
        return [landmark_argv("ingest", dataset)]

    table = {
        "header": ((grid / "dataset.jsonl", 0), grid_data),
        "episode": ((grid / "dataset.jsonl", 2), grid_data),
        "actionlets.json": ((grid / "actionlets.json", None), grid_models),
        "likelihoods.json": ((grid / "likelihoods.json", None), grid_models),
        "annotation": ((landmark / "ann.jsonl", 1), annotations),
        "landmark": ((landmark / "landmark_dataset.jsonl", 1), landmark_data),
        "logit.json": ((landmark / "logit.json", None), landmark_model),
    }
    return table, work


def spoil(inputs, name: str, text_of) -> list[int]:
    """Exit codes of the commands reading input ``name`` after its record's
    text is replaced by ``text_of(record)``."""
    table, work = inputs
    (path, line), commands = table[name]
    models = work / "models"
    shutil.rmtree(models, ignore_errors=True)
    shutil.copytree(path.parent, models)
    target = models / path.name
    if line is None:
        target.write_text(text_of(json.loads(path.read_text())))
    else:
        lines = path.read_text().splitlines()
        lines[line] = text_of(json.loads(lines[line]))
        target.write_text("\n".join(lines) + "\n")
    dataset = str(target) if line is not None else str(path)
    return [run(argv) for argv in commands(dataset, str(models))]


def dump(doc) -> str:
    return json.dumps(doc).replace(json.dumps(DEEP), DEEP_TEXT)


def leaf_paths(doc, prefix=()):
    """Every key and list-item path of ``doc``, the first and last item of each list."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else (
        [(i, doc[i]) for i in sorted({0, len(doc) - 1})] if isinstance(doc, list) and doc else ())
    for key, value in items:
        yield from leaf_paths(value, prefix + (key,))


def replaced(doc, path, value):
    """A copy of ``doc`` with the value at ``path`` replaced (or deleted)."""
    if not path:
        return {} if value is DELETE else value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


NAMES = ["header", "episode", "actionlets.json", "likelihoods.json", "annotation", "landmark", "logit.json"]


def test_the_valid_inputs_pass(inputs):
    for name in NAMES:
        codes = spoil(inputs, name, dump)
        assert codes == [0] * len(codes), name


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=30, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_one_spoilt_value_never_exits_3(inputs, name, data):
    table, _ = inputs
    (path, line), _ = table[name]
    text = path.read_text()
    doc = json.loads(text if line is None else text.splitlines()[line])
    value = data.draw(st.sampled_from([TRUNCATE, DELETE, *VALUES]), label="value")
    if value is TRUNCATE:
        record = dump(doc)
        cut = data.draw(st.integers(0, len(record) - 1), label="cut")
        codes = spoil(inputs, name, lambda _: record[:cut])
    else:
        where = data.draw(st.sampled_from(list(leaf_paths(doc))), label="path")
        codes = spoil(inputs, name, lambda d: dump(replaced(d, where, value)))
    assert 3 not in codes, codes


@pytest.mark.parametrize("name,where,value", [
    pytest.param("actionlets.json", (), [], id="actionlets-empty-list"),
    pytest.param("likelihoods.json", ("spec", "origin"), [1.0], id="likelihoods-one-origin-coordinate"),
    pytest.param("header", ("config", "d0_range"), [25], id="header-one-d0-bound"),
    pytest.param("episode", ("scenario", "noise_seed"), math.inf, id="episode-infinite-noise-seed"),
    pytest.param("landmark", ("x",), HUGE_INT, id="landmark-x-400-digits"),
    pytest.param("logit.json", ("reg",), HUGE_INT, id="logit-reg-400-digits"),
])
def test_spoilt_values_that_exited_3_exit_2(inputs, name, where, value):
    codes = spoil(inputs, name, lambda d: dump(replaced(d, where, value)))
    assert set(codes) == {2}, codes


# ---------------------------------------------------------------------------
# One hostile config value.
# ---------------------------------------------------------------------------

#: Values tried on each kind of key.  Values that only ask for more memory
#: (large grid sizes, episode counts, beam counts) are left out: a setting
#: the machine cannot hold may still exit 3, with a manifest.
FLOATS = ["0", "-1", "1e308", "-1e308", "1e-300", "nan", "inf", "1, 2", "1, 2, 3", "x", "1e400"]
INTEGERS = ["0", "-1", "1.5", "x", "1, 2"]
RANGES = ["30", "30, 40, 50", "1e308, 1e308", "1, 1e308", "-1, 1", "nan, 1"]
INTEGER_KEYS = ["seed", "grid.width", "grid.height", "sim.n_episodes", "train.k", "train.stride",
                "eval.stride", "eval.n_beams", "logit.max_iters"]
FLOAT_KEYS = ["grid.resolution", "train.split", "train.alpha", "eval.threshold", "eval.max_range",
              "logit.reg", "region.step", *(f"camera.{k}" for k in synthetic.CAMERA),
              *(f"region.{k}" for k in ("x_min", "x_max", "y_min", "y_max"))]
SIM_KEYS = {f"sim.{f.name}": isinstance(f.default, tuple) for f in dataclasses.fields(ScenarioConfig)}
HOSTILE = [
    *((key, value) for key in INTEGER_KEYS for value in INTEGERS),
    ("seed", "1" * 23), ("logit.max_iters", "1" * 23),
    *((key, value) for key in FLOAT_KEYS for value in FLOATS),
    *((key, value) for key, ranged in SIM_KEYS.items() for value in (RANGES if ranged else FLOATS)),
    ("region.step", "1e-9"),
]


def run_chains(case: Path, config: dict, annotations: Path) -> list[tuple]:
    """``(mode, command, exit)`` of the grid commands (simulate, train, eval)
    and the landmark commands (ingest, train, eval) under one config, each
    chain run in order up to its first non-zero exit.  An exception that
    leaves ``main`` is recorded in place of the exit code."""
    case.mkdir()
    (case / "run.cfg").write_text("".join(f"{k} = {v}\n" for k, v in config.items()))
    results = []
    for mode, first in (("grid", ["simulate"]), ("landmark", ["ingest", str(annotations)])):
        out = case / mode
        common = ["--config", str(case / "run.cfg"), "--mode", mode, "--out", str(out)]
        dataset = str(out / ("dataset.jsonl" if mode == "grid" else "landmark_dataset.jsonl"))
        for argv in (first, ["train", "--dataset", dataset], ["eval", "--dataset", dataset, "--models", str(out)]):
            try:
                code = run([*argv, *common])
            except Exception as exc:  # noqa: BLE001 - the failure being tested for
                code = f"{type(exc).__name__}: {exc}"
            results.append((mode, argv[0], code))
            if code != 0:
                break
    shutil.rmtree(case)
    return results


def test_no_hostile_config_value_exits_3(tmp_path):
    """Each case sets one key of a small valid config to one hostile value
    and runs both chains of commands: every exit must be 0, 1 or 2, and no
    exception may leave ``main``."""
    base = {**GRID_KEYS, **{k: v for k, v in LANDMARK_KEYS.items() if k != "mode"},
            "sim.n_episodes": "4", "eval.n_beams": "90", "logit.max_iters": "50"}
    annotations = tmp_path / "ann.jsonl"
    synthetic.write(annotations, synthetic.generate(4, n_clips=3, visible_per_clip=10, occluded_per_clip=5))
    assert [code for *_, code in run_chains(tmp_path / "base", base, annotations)] == [0] * 6
    failures = [(key, value, *result) for key, value in HOSTILE
                for result in run_chains(tmp_path / "case", {**base, key: value}, annotations)
                if result[-1] not in (0, 1, 2)]
    assert failures == []
