"""The benchmark's four workloads: fixed rounds of operations with their checks.

Each workload is a list of operations.  An operation's `run` is the timed call
into obsthermo; its `check` tests the output against reference.py or against
a property the method must have, and raises CheckFailed when it does not
hold.  `run` raises OperationFailed when the program reports an error.  The
run seed only draws the frame of the Bloch sphere (and, on `bundled`, the
sample seed); every quantity the checks test is invariant under it.
"""

import contextlib
import dataclasses
import importlib
import io
import json
import shutil
from pathlib import Path

import numpy as np

import reference as ref

TOL = 1e-9
SAMPLE_LENGTH = 20_000
MC_SAMPLES = 100_000
WIDE_WINDOWS = (5, 6, 7, 8)
WIDE_KS = (1, 2, 3)
# (questions K, window, view k, labeled view, memory size M): M^H from 59049 to 390625
EXHAUSTIVE_SHAPES = (
    (4, 1, 1, True, 4),
    (2, 3, 3, False, 4),
    (2, 2, 2, True, 2),
    (5, 1, 1, True, 3),
    (4, 1, 1, True, 5),
)


class CheckFailed(Exception):
    """An operation's output is wrong."""


class OperationFailed(Exception):
    """The program reported an error for an operation."""


@dataclasses.dataclass(frozen=True)
class Operation:
    name: str
    run: object  # () -> output
    check: object  # output -> None, raises CheckFailed


def _close(name: str, got: float, want: float, tol: float = TOL) -> None:
    if not abs(got - want) <= tol:
        raise CheckFailed(f"{name} = {got!r}, expected {want!r} within {tol}")


def _mod(name: str):
    # importlib, because the package attribute `obsthermo.optimize` is a function
    return importlib.import_module(f"obsthermo.{name}")


def _rotated(scenario, rotation: np.ndarray):
    qubit = _mod("qubit")
    questions = tuple(qubit.Question(q.label, rotation @ q.axis) for q in scenario.questions)
    initial = qubit.BlochVector.from_array(rotation @ scenario.initial_state.as_array())
    return dataclasses.replace(scenario, questions=questions, initial_state=initial)


class Workload:
    """A fixed round of operations, the ones the warm-up pass runs, and a clean-up."""

    operations: list
    warmup: list

    def close(self) -> None:
        """Undo any change the workload made to the program's modules."""


class Bundled(Workload):
    """The five shipped configs through analyze, optimize, sample and verify."""

    def __init__(self, seed: int, scratch: Path):
        self.cli = _mod("cli")
        config = _mod("config")
        sample_seed = int(np.random.default_rng(seed).integers(2**31))
        self.subcommands = (
            ("analyze",),
            ("optimize",),
            ("sample", "--length", str(SAMPLE_LENGTH), "--seed", str(sample_seed)),
            ("verify",),
        )
        self.first_outputs = {}
        self.operations = [
            Operation(
                name,
                self._runner(config.bundled_scenario_path(name), scratch / name),
                self._checker(name),
            )
            for name in config.BUNDLED_SCENARIOS
        ]
        self.warmup = self.operations  # its outputs are the reference for the byte check

    def _runner(self, path: str, out: Path):
        def run():
            codes = {}
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                for sub, *extra in self.subcommands:
                    codes[sub] = self.cli.main([sub, "--config", path, "--out", str(out), *extra])
            if any(codes.values()):
                raise OperationFailed(f"exit codes {codes}: {sink.getvalue()[-500:]}")
            return out

        return run

    def _checker(self, name: str):
        def check(out_dir: Path) -> None:
            files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
            shutil.rmtree(out_dir)
            expected = {
                f"{name}_{suffix}"
                for suffix in (
                    "report.json",
                    "window_joint.csv",
                    "memory_joint.csv",
                    "frontier.csv",
                    "best_strategy.csv",
                    "degeneracy.json",
                    "trajectory.csv",
                    "verify.jsonl",
                )
            }
            if set(files) != expected:
                raise CheckFailed(f"{name}: wrote {sorted(files)}, expected {sorted(expected)}")
            check_bundled_files(name, files)
            first = self.first_outputs.setdefault(name, files)
            changed = sorted(f for f in files if files[f] != first[f])
            if changed:
                raise CheckFailed(f"{name}: same config and seed wrote different {changed}")

        return check


def check_bundled_files(name: str, files: dict) -> None:
    """Closed forms and properties of one scenario's four CLI outputs."""
    report = json.loads(files[f"{name}_report.json"])
    _close(f"{name} analyze i_pred", report["i_pred"], ref.BUNDLED_I_PRED[name])
    if name == "case_a":
        _close("case_a analyze bound_bits", report["bound_bits"], 0.0)

    verdicts = [json.loads(line) for line in files[f"{name}_verify.jsonl"].splitlines()]
    failed = [v["check"] for v in verdicts if v.get("pass") is not True]
    if not verdicts or failed:
        raise CheckFailed(f"{name} verify: failed verdicts {failed} of {len(verdicts)}")

    rows = files[f"{name}_trajectory.csv"].decode().splitlines()
    if rows[0] != "t,question,answer" or len(rows) != SAMPLE_LENGTH + 1:
        raise CheckFailed(f"{name} sample: header {rows[0]!r}, {len(rows) - 1} steps")
    steps = [row.split(",") for row in rows[1:]]
    if [int(t) for t, _, _ in steps] != list(range(1, SAMPLE_LENGTH + 1)):
        raise CheckFailed(f"{name} sample: step numbers are not 1..{SAMPLE_LENGTH}")
    answers = {a for _, _, a in steps}
    if not answers <= {"0", "1"}:
        raise CheckFailed(f"{name} sample: answers {sorted(answers)}")
    if name in ("case_a", "case_b_bestcase") and answers != {steps[0][2]}:
        # the question never changes, so a repeated measurement repeats its answer
        raise CheckFailed(f"{name} sample: answer changed from its first value")

    frontier = files[f"{name}_frontier.csv"].decode().splitlines()
    for line in frontier[1:]:
        beta, i_mem, i_pred, nostalgia, _, converged, _ = line.split(",")
        i_mem, i_pred, nostalgia = float(i_mem), float(i_pred), float(nostalgia)
        if not -TOL <= i_pred <= i_mem + TOL or converged != "true":
            raise CheckFailed(f"{name} optimize: frontier row {line!r}")
        _close(f"{name} optimize nostalgia at beta {beta}", nostalgia, max(0.0, i_mem - i_pred), 1e-8)
    for d in json.loads(files[f"{name}_degeneracy.json"]):
        if d["nostalgia"] > TOL:
            raise CheckFailed(f"{name} optimize: degenerate map {d['map']} has nostalgia")


class WideWindow(Workload):
    """analyze on two orthogonal fair questions, windows 5 to 8, records up to k=3."""

    def __init__(self, seed: int, scratch: Path):
        self.workflows = _mod("workflows")
        config = _mod("config")
        rng = np.random.default_rng(seed)
        rotation = ref.random_rotation(rng)
        direction = rng.normal(size=3)
        initial = direction / np.linalg.norm(direction) * rng.uniform(0.0, 0.9)
        base = {
            "questions": [
                {"label": "A", "axis": [float(v) for v in rotation @ [0.0, 0.0, 1.0]]},
                {"label": "B", "axis": [float(v) for v in rotation @ [1.0, 0.0, 0.0]]},
            ],
            "process": {"type": "iid", "weights": [0.5, 0.5]},
            "initial_state": [float(v) for v in initial],
        }
        records = [
            (w, {"type": "window", "k": k, "labeled": labeled}, ref.window_record_info(k, labeled))
            for w in WIDE_WINDOWS
            for k in WIDE_KS
            for labeled in (True, False)
        ]
        records.append((WIDE_WINDOWS[-1], {"type": "nothing"}, (0.0, 0.0)))
        self.operations = []
        for w, strategy, expected in records:
            name = f"w{w}_" + (
                f"k{strategy['k']}_{'labeled' if strategy['labeled'] else 'unlabeled'}"
                if strategy["type"] == "window"
                else "nothing"
            )
            scenario = config.parse_scenario({"name": name, "window": w, "strategy": strategy, **base})
            self.operations.append(
                Operation(name, self._runner(scenario), self._checker(name, expected))
            )
        self.warmup = self.operations

    def _runner(self, scenario):
        return lambda: self.workflows.analyze(scenario).report

    @staticmethod
    def _checker(name: str, expected: tuple):
        def check(report) -> None:
            _close(f"{name} i_mem", report.i_mem, expected[0])
            _close(f"{name} i_pred", report.i_pred, expected[1])

        return check


class MonteCarlo(Workload):
    """verify with 10^5 Monte Carlo windows on the bundled scenarios, rotated."""

    MC_SEEDS = (101, 102, 103, 104, 105)  # fixed, so each 3-sigma verdict repeats

    def __init__(self, seed: int, scratch: Path):
        self.workflows = _mod("workflows")
        self.oracle = _mod("oracle")
        config = _mod("config")
        rotation = ref.random_rotation(np.random.default_rng(seed))
        # keep the Monte Carlo report that verify computes, for the closed-form check
        self.reports = []
        original = self.oracle.monte_carlo_check
        self._original = original

        def keep_report(*args, **kwargs):
            report = original(*args, **kwargs)
            self.reports.append(report)
            return report

        self.oracle.monte_carlo_check = keep_report
        self.operations = []
        for name, mc_seed in zip(config.BUNDLED_SCENARIOS, self.MC_SEEDS):
            scenario = _rotated(config.bundled_scenario(name), rotation)
            self.operations.append(
                Operation(name, self._runner(scenario, mc_seed), self._checker(name))
            )
        self.warmup = self.operations[1:2]  # case_b_labeled reaches every stage of verify

    def _runner(self, scenario, mc_seed: int):
        def run():
            self.reports.clear()
            verdicts = self.workflows.verify(scenario, mc_samples=MC_SAMPLES, seed=mc_seed)
            return verdicts, list(self.reports)

        return run

    @staticmethod
    def _checker(name: str):
        def check(output) -> None:
            verdicts, reports = output
            failed = [v["check"] for v in verdicts if not v["pass"]]
            if failed:
                raise CheckFailed(f"{name} verify: failed verdicts {failed}")
            if len(reports) != 1 or reports[0].n != MC_SAMPLES:
                raise CheckFailed(f"{name}: expected one Monte Carlo check of {MC_SAMPLES} windows")
            mc = reports[0]
            _close(f"{name} Monte Carlo i_pred", mc.i_pred, ref.BUNDLED_I_PRED[name], 3.0 * mc.se_i_pred)

        return check

    def close(self) -> None:
        self.oracle.monte_carlo_check = self._original


class Exhaustive(Workload):
    """optimize where deterministic maps are enumerated: M^H from 6e4 to 4e5."""

    def __init__(self, seed: int, scratch: Path):
        self.workflows = _mod("workflows")
        config = _mod("config")
        rotation = ref.random_rotation(np.random.default_rng(seed))
        self.operations = []
        for index, (k_questions, window, k, labeled, m) in enumerate(EXHAUSTIVE_SHAPES):
            # a fixed geometry per shape, seen in the run's frame
            shape_rng = np.random.default_rng(index)
            axes = shape_rng.normal(size=(k_questions, 3))
            axes = (axes / np.linalg.norm(axes, axis=1, keepdims=True)) @ rotation.T
            weights = shape_rng.dirichlet(np.full(k_questions, 4.0))
            name = f"K{k_questions}_k{k}{'L' if labeled else 'U'}_M{m}"
            scenario = config.parse_scenario(
                {
                    "name": name,
                    "questions": [
                        {"label": f"Q{i}", "axis": [float(v) for v in axis]}
                        for i, axis in enumerate(axes)
                    ],
                    "process": {"type": "iid", "weights": [float(v) for v in weights]},
                    "window": window,
                    "optimizer": {
                        "memory_size": m,
                        "seed": index,
                        "history": {"k": k, "labeled": labeled},
                    },
                }
            )
            axes = np.array([q.axis for q in scenario.questions])
            schedule = np.tile(scenario.process.weights, (k_questions, 1))
            table = ref.view_next_table(axes, schedule, k, labeled)
            self.operations.append(
                Operation(name, self._runner(scenario), self._checker(name, table, m))
            )
        self.warmup = self.operations[1:2]  # the cheapest shape reaches every stage of optimize

    def _runner(self, scenario):
        return lambda: self.workflows.optimize(scenario)

    @staticmethod
    def _checker(name: str, table: np.ndarray, m: int):
        return lambda result: check_exhaustive(name, table, m, result)


def check_exhaustive(name: str, table: np.ndarray, m: int, result) -> None:
    """Recompute the optimizer's reported numbers from p(view, next pair)."""
    best = result.exhaustive_reference
    if best is None or result.degeneracy is None:
        raise CheckFailed(f"{name}: no exhaustive reference or degeneracy report")
    best_map = np.argmax(best.strategy.assignment, axis=1)
    i_mem, i_pred = ref.map_info(table, best_map, m)
    _close(f"{name} best map i_mem", best.i_mem, i_mem)
    _close(f"{name} best map i_pred", best.i_pred, i_pred)
    i_mem, i_pred = ref.encoder_info(table, result.best.strategy.assignment)
    _close(f"{name} soft optimum i_mem", result.best.i_mem, i_mem)
    _close(f"{name} soft optimum i_pred", result.best.i_pred, i_pred)

    maps = set()
    for d in result.degeneracy:
        i_mem, i_pred = ref.map_info(table, d.map_indices, m)
        if i_mem - i_pred > TOL:
            raise CheckFailed(f"{name}: degenerate map {d.map_indices} has nostalgia {i_mem - i_pred}")
        maps.add(tuple(d.map_indices))
    constant = {(c,) * table.shape[0] for c in range(m)}
    if not constant <= maps:
        raise CheckFailed(f"{name}: constant maps {sorted(constant - maps)} not reported degenerate")

    cap = ref.mutual_information_2d(table)
    for p in result.points:
        if not -TOL <= p.i_pred <= min(p.i_mem, cap) + TOL:
            raise CheckFailed(
                f"{name}: frontier point at beta {p.beta} has i_pred {p.i_pred}, "
                f"i_mem {p.i_mem}, I(view; next) {cap}"
            )


WORKLOADS = {
    "bundled": Bundled,
    "wide_window": WideWindow,
    "monte_carlo": MonteCarlo,
    "exhaustive": Exhaustive,
}
