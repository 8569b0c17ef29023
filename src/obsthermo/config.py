"""Scenario configuration: the JSON schema and its reader, with path-to-field
messages.  This module reads scenarios and writes none.

A scenario names its questions (labels and axes), the question schedule, the
initial Bloch state, the analysis window, the memory strategy, and optional
optimizer settings (memory size, seed and history view) and temperature.
Unknown keys are rejected.
"""

import json
import numbers
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import ValidationError
from .optimize import OptimizerSettings
from .process import IIDProcess, MarkovProcess, PeriodicProcess, QuestionProcess
from .qubit import BlochVector, Question
from .strategy import KernelStrategy, NothingStrategy, Strategy, WindowStrategy

_SCENARIO_KEYS = {
    "name",
    "questions",
    "process",
    "initial_state",
    "window",
    "strategy",
    "optimizer",
    "temperature_kelvin",
    "output",
}


@dataclass(frozen=True, eq=False)
class Scenario:
    """A fully validated scenario, ready to run."""

    name: str
    questions: tuple
    process: QuestionProcess
    initial_state: BlochVector
    window: int
    strategy: Strategy | None
    optimizer: OptimizerSettings | None
    temperature_kelvin: float | None
    output: str | None

    @property
    def labels(self) -> tuple:
        return tuple(q.label for q in self.questions)


def _reject_unknown(data: dict, allowed: set, where: str) -> None:
    unknown = set(data) - allowed
    if unknown:
        raise ValidationError(f"{where}: unknown keys {sorted(unknown)}")


def _boolean(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise ValidationError(f"{where}: must be true or false, got {value!r}")
    return value


def _string(value, where: str) -> str:
    if not isinstance(value, str):
        raise ValidationError(f"{where}: must be a string, got {value!r}")
    return value


def _strings(value, where: str) -> tuple:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ValidationError(f"{where}: must be a list of strings, got {value!r}")
    return tuple(value)


def _integer(value, where: str) -> int:
    """A JSON integer, or a float with an integral value; never a bool."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValidationError(f"{where}: must be an integer, got {value!r}")


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not np.isfinite(value):
        raise ValidationError(f"{where}: must be a finite number, got {value!r}")
    return float(value)


def _numbers(value, where: str) -> np.ndarray:
    """A (nested) list of JSON numbers as a float array."""

    def numeric(v) -> bool:
        if isinstance(v, list):
            return all(numeric(x) for x in v)
        return isinstance(v, numbers.Real) and not isinstance(v, bool) and np.isfinite(v)

    if not isinstance(value, list) or not numeric(value):
        raise ValidationError(f"{where}: must be a list of finite numbers, got {value!r}")
    try:
        return np.asarray(value, dtype=float)
    except ValueError:  # ragged nesting
        raise ValidationError(f"{where}: rows must have equal lengths") from None


_REQUIRED = object()


def _field(data: dict, key: str, where: str, check, default=_REQUIRED):
    """data[key] passed through `check`, or `default` when the key is absent."""
    if key in data:
        return check(data[key], f"{where}.{key}")
    if default is _REQUIRED:
        raise ValidationError(f"{where}.{key}: required key missing")
    return default


def _optional_integer(value, where: str):
    return None if value is None else _integer(value, where)


def _parse_questions(items, where: str) -> tuple:
    if not isinstance(items, list) or not items:
        raise ValidationError(f"{where}: needs a non-empty list of questions")
    out = []
    for i, item in enumerate(items):
        spot = f"{where}[{i}]"
        if not isinstance(item, dict):
            raise ValidationError(f"{spot}: expected an object with label and axis")
        _reject_unknown(item, {"label", "axis"}, spot)
        label = _field(item, "label", spot, _string)
        axis = _field(item, "axis", spot, _numbers)
        try:
            out.append(Question(label=label, axis=axis))
        except ValidationError as exc:
            raise ValidationError(f"{spot}: {exc}") from None
    labels = [q.label for q in out]
    if len(set(labels)) != len(labels):
        raise ValidationError(f"{where}: duplicate labels {labels}")
    return tuple(out)


def _parse_process(data, labels, where: str) -> QuestionProcess:
    if not isinstance(data, dict):
        raise ValidationError(f"{where}: expected an object")
    kind = _field(data, "type", where, _string)
    fields = {"iid": ("weights",), "markov": ("transition", "initial"), "periodic": ("sequence",)}
    if kind not in fields:
        raise ValidationError(f"{where}.type: must be iid, markov or periodic, got {kind!r}")
    _reject_unknown(data, {"type", *fields[kind]}, where)
    if kind == "periodic":
        build, args = PeriodicProcess, {"sequence": _field(data, "sequence", where, _strings)}
    else:
        build = IIDProcess if kind == "iid" else MarkovProcess
        args = {key: _field(data, key, where, _numbers) for key in fields[kind]}
    try:
        return build(labels=labels, **args)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None


def _parse_strategy(data, where: str) -> Strategy:
    if not isinstance(data, dict):
        raise ValidationError(f"{where}: expected an object")
    kind = _field(data, "type", where, _string)
    fields = {"window": ("k", "labeled"), "nothing": (), "kernel": ("assignment", "k", "labeled")}
    if kind not in fields:
        raise ValidationError(f"{where}.type: must be window, kernel or nothing, got {kind!r}")
    _reject_unknown(data, {"type", *fields[kind]}, where)
    if kind == "nothing":
        return NothingStrategy()
    labeled = _field(data, "labeled", where, _boolean, True)
    if kind == "window":
        build, args = WindowStrategy, {"k": _field(data, "k", where, _integer)}
    else:
        build = KernelStrategy
        args = {
            "assignment": _field(data, "assignment", where, _numbers),
            "k": _field(data, "k", where, _optional_integer, None),
        }
    try:
        return build(labeled=labeled, **args)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None


_OPTIMIZER_KEYS = {"memory_size", "seed", "history"}


def _parse_optimizer(data, where: str) -> OptimizerSettings:
    if not isinstance(data, dict):
        raise ValidationError(f"{where}: expected an object")
    _reject_unknown(data, _OPTIMIZER_KEYS, where)
    history = {} if data.get("history") is None else data["history"]
    if not isinstance(history, dict):
        raise ValidationError(f"{where}.history: expected an object")
    _reject_unknown(history, {"k", "labeled"}, f"{where}.history")
    # only the keys given: OptimizerSettings holds the defaults
    settings = {"memory_size": _field(data, "memory_size", where, _integer)}
    if "seed" in data:
        settings["seed"] = _integer(data["seed"], f"{where}.seed")
    for key, check in (("k", _optional_integer), ("labeled", _boolean)):
        if key in history:
            settings[f"history_{key}"] = check(history[key], f"{where}.history.{key}")
    try:
        return OptimizerSettings(**settings)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None


def parse_scenario(data: dict) -> Scenario:
    """Validate a config dict into a Scenario; messages name the failing field."""
    if not isinstance(data, dict):
        raise ValidationError("scenario: expected a JSON object")
    _reject_unknown(data, _SCENARIO_KEYS, "scenario")
    name = _field(data, "name", "scenario", _string)
    if "/" in name or "\\" in name:  # output files are named after it, inside --out
        raise ValidationError(f"scenario.name: must not contain / or \\, got {name!r}")
    questions = _field(data, "questions", "scenario", _parse_questions)
    labels = tuple(q.label for q in questions)
    process = _field(data, "process", "scenario", lambda v, at: _parse_process(v, labels, at))
    initial_raw = _field(data, "initial_state", "scenario", _numbers, np.zeros(3))
    try:
        initial = BlochVector.from_array(initial_raw)
    except ValidationError as exc:
        raise ValidationError(f"scenario.initial_state: {exc}") from None
    window = _field(data, "window", "scenario", _integer)
    if window < 1:
        raise ValidationError(f"scenario.window: must be >= 1, got {window}")
    strategy = None
    if data.get("strategy") is not None:
        strategy = _parse_strategy(data["strategy"], "scenario.strategy")
    optimizer = None
    if data.get("optimizer") is not None:
        optimizer = _parse_optimizer(data["optimizer"], "scenario.optimizer")
    temperature = data.get("temperature_kelvin")
    if temperature is not None:
        temperature = _number(temperature, "scenario.temperature_kelvin")
        if temperature <= 0:
            raise ValidationError(f"scenario.temperature_kelvin: must be > 0, got {temperature}")
    output = data.get("output")
    if output is not None:
        output = _string(output, "scenario.output")
    return Scenario(
        name=name,
        questions=questions,
        process=process,
        initial_state=initial,
        window=window,
        strategy=strategy,
        optimizer=optimizer,
        temperature_kelvin=temperature,
        output=output,
    )


def load_scenario(path) -> Scenario:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"{path}: cannot read config ({exc})") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON ({exc})") from None
    return parse_scenario(data)


BUNDLED_SCENARIOS = (
    "case_a",
    "case_b_labeled",
    "case_b_unlabeled",
    "case_b_bestcase",
    "angle_sweep",
)


def bundled_scenario(name: str) -> Scenario:
    """Load one of the scenarios shipped with the package."""
    return load_scenario(bundled_scenario_path(name))


def bundled_scenario_path(name: str) -> str:
    """Filesystem path of a bundled scenario JSON; an unknown name is a ValidationError."""
    if name not in BUNDLED_SCENARIOS:
        raise ValidationError(f"unknown bundled scenario {name!r}; have {BUNDLED_SCENARIOS}")
    ref = resources.files("obsthermo").joinpath(f"scenarios/{name}.json")
    return str(ref)
