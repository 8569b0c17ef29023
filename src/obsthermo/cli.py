"""Command-line entry point, and the one module that writes files.

Subcommands: analyze, optimize, sample, verify.  Exit codes: 0 success,
1 usage, validation, size-cap or output-write error, 2 optimizer non-convergence
or failure, 3 verification failure.  All outputs are deterministic for a fixed config and seed.

Every output is UTF-8 with LF line ends; numbers carry 9 significant digits
(the `.9g` string in CSV, its float in JSON); answers +1/-1 are written 1/0;
a view of k pairs is written oldest pair first, `Qz:1|Qx:0` labeled, `1|0`
unlabeled.
"""

import argparse
import functools
import itertools
import json
import math
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import workflows
from .chain import Chain, sample_trajectory
from .config import load_scenario
from .errors import OptimizerError, SizeCapError, ValidationError
from .strategy import WindowStrategy, view_alphabet

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NONCONVERGENCE = 2
EXIT_VERIFY_FAIL = 3

_bit = {+1: "1", -1: "0"}.__getitem__  # answer -> bit
_ROWS_PER_WRITE = 2**13  # trajectory CSV rows joined into one write


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors ending in EXIT_VALIDATION, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(
        prog="obsthermo",
        description="Qubit question/answer chains, observer memories, dissipation bounds.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="scenario JSON path")
    common.add_argument("--out", default=None, help="output directory")
    seeded = argparse.ArgumentParser(add_help=False, parents=[common])
    seeded.add_argument("--seed", type=int, default=None, help="override random seed")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("analyze", parents=[common], help="exact InfoReport for the configured strategy")
    sub.add_parser("optimize", parents=[seeded], help="beta sweep plus degeneracy report")
    p_sample = sub.add_parser("sample", parents=[seeded], help="sample a trajectory CSV")
    p_sample.add_argument("--length", type=int, required=True, help="number of interactions")
    p_verify = sub.add_parser("verify", parents=[seeded], help="run all oracle cross-checks")
    p_verify.add_argument(
        "--mc-samples", type=int, default=workflows.DEFAULT_MC_SAMPLES, help="Monte Carlo sample count"
    )
    return parser


def _out_dir(args, scenario) -> Path:
    """The output directory; the first write creates it, so a failed run leaves none."""
    return Path(args.out or scenario.output or "out")


def _write_chunks(path: Path, chunks) -> None:
    """Write each chunk of text as it is, UTF-8; `chunks` may be a generator."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for chunk in chunks:
            fh.write(chunk)


def _write_lines(path: Path, lines) -> None:
    """Write each line and an LF, UTF-8; `lines` may be a generator."""
    _write_chunks(path, (line + "\n" for line in lines))


def _g9(x) -> str:
    """A number to 9 significant digits, as CSV text."""
    return format(float(x), ".9g")


def _sig9(x) -> float:
    """A number to 9 significant digits, as a JSON float: reports are bit-for-bit reproducible."""
    return float(_g9(x))


def _dump_json(data, path: Path) -> None:
    _write_lines(path, [json.dumps(data, sort_keys=True, indent=2)])


def _view_symbol(view, labeled: bool) -> str:
    if labeled:
        return "|".join(f"{label}:{_bit(a)}" for label, a in view)
    return "|".join(map(_bit, view))


def _joint_lines(joint, encoders: dict):
    """Header, then one row per cell in row-major order with its probability."""
    yield ",".join([*joint.names, "probability"])
    columns = [
        [encoders.get(name, str)(sym) for sym in alphabet]
        for name, alphabet in zip(joint.names, joint.alphabets)
    ]
    for cells, prob in zip(itertools.product(*columns), joint.table.ravel()):
        yield ",".join([*cells, _g9(prob)])


def _frontier_lines(points):
    yield "beta,i_mem_bits,i_pred_bits,nostalgia_bits,objective,converged,iterations"
    for p in points:
        beta = p.beta if p.beta is not None else float("nan")
        numbers = map(_g9, (beta, p.i_mem, p.i_pred, p.nostalgia, p.objective))
        yield ",".join([*numbers, "true" if p.converged else "false", str(p.iterations)])


def _kernel_lines(strategy, labels):
    """Rows = views of the strategy's k pairs (canonical order), columns = memory symbols."""
    yield (
        "# kernel strategy; history rows canonical: pairs oldest to newest, "
        "questions in scenario order, answers +1 then -1 (bits 1/0)"
    )
    yield f"# k={strategy.k} labeled={str(strategy.labeled).lower()} M={strategy.memory_size}"
    yield ",".join(["history", *(f"m{i}" for i in range(strategy.memory_size))])
    views = view_alphabet(labels, strategy.k, strategy.labeled)
    for view, row in zip(views, strategy.assignment, strict=True):
        yield ",".join([_view_symbol(view, strategy.labeled), *map(_g9, row)])


@functools.cache
def _digit_words() -> np.ndarray:
    """(10^4,) uint32 words whose bytes are the four ASCII digits of 0000 to 9999."""
    digits = np.arange(10**4, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], np.uint16)
    return (digits % 10 + ord("0")).astype(np.uint8).view(np.uint32)[:, 0]


def _trajectory_chunks(traj):
    """The trajectory CSV: its header, then `t,question,answer` rows, _ROWS_PER_WRITE per chunk.

    A block of rows is built as bytes, with no Python object per row.  A row
    is its number t as an even count of 4-digit groups, uint32 words of
    `_digit_words`, then the UTF-8 cell `,label,bit` plus LF of its chain
    state 2q + (0 if a == +1 else 1), uint64 words gathered from the 2K cells
    padded to whole words.  One boolean mask drops the leading zeros of t and
    the padding of each cell.
    """
    cells = [f",{label},{bit}\n".encode() for label in traj.question_labels for bit in "10"]
    width = -(-max(map(len, cells)) // 8)  # uint64 words per cell
    padded = np.zeros((2, len(cells), 8 * width), dtype=np.uint8)  # each cell's bytes, its mask
    for i, cell in enumerate(cells):
        padded[0, i, : len(cell)] = list(cell)
        padded[1, i, : len(cell)] = 1
    cell_words, cell_kept = padded.view(np.uint64)
    groups = 2 * -(-len(str(len(traj))) // 8)  # 4-digit groups per row number, two a word
    digits_kept = np.arange(4 * groups) >= 4 * groups - np.arange(4 * groups + 1)[:, None]
    digits_kept = digits_kept.view(np.uint64)  # row d keeps the last d digits
    yield "t,question,answer\n"
    for t0 in range(0, len(traj), _ROWS_PER_WRITE):
        t1 = min(t0 + _ROWS_PER_WRITE, len(traj))
        t = np.arange(t0 + 1, t1 + 1)
        states = 2 * traj.question_indices[t0:t1] + (traj.answer_values[t0:t1] < 0)
        words = np.empty((t1 - t0, groups // 2 + width), dtype=np.uint64)
        kept = np.empty_like(words)
        digits = words.view(np.uint32)
        for g in range(groups):  # the most significant group first
            digits[:, g] = _digit_words().take(t // 10 ** (4 * (groups - 1 - g)) % 10**4)
        words[:, groups // 2 :] = cell_words.take(states, axis=0)
        kept[:, groups // 2 :] = cell_kept.take(states, axis=0)
        row = 0  # t rises by one a row, so its digit count changes only at powers of 10
        for d in range(len(str(t0 + 1)), len(str(t1)) + 1):
            kept[row : 10**d - t0 - 1, : groups // 2] = digits_kept[d]
            row = 10**d - t0 - 1
        yield words.view(np.uint8)[kept.view(bool)].tobytes().decode()


def _cmd_analyze(args) -> int:
    scenario = load_scenario(args.config)
    out = _out_dir(args, scenario)
    result = workflows.analyze(scenario)
    window = result.window  # the full window may exceed the entry cap: fail before any write
    if result.chain.long_run.cesaro:
        print("note: periodic chain, long run is the Cesaro average", file=sys.stderr)
    # bound_joules is None, and left out, when the scenario has no temperature
    report = {k: _sig9(v) for k, v in asdict(result.report).items() if v is not None}
    _dump_json(report, out / f"{scenario.name}_report.json")
    answers = {name: _bit for name in window.names if name.startswith("a")}
    _write_lines(out / f"{scenario.name}_window_joint.csv", _joint_lines(window, answers))
    encoders = {"a+1": _bit}
    if isinstance(scenario.strategy, WindowStrategy):
        encoders["m"] = lambda view: _view_symbol(view, scenario.strategy.labeled)
    memory_joint = result.applied.marginal(["m", "q+1", "a+1"])
    _write_lines(out / f"{scenario.name}_memory_joint.csv", _joint_lines(memory_joint, encoders))
    print(json.dumps(report, sort_keys=True, indent=2))
    return EXIT_OK


def _cmd_optimize(args) -> int:
    scenario = load_scenario(args.config)
    if args.seed is not None and scenario.optimizer is not None:
        scenario = replace(scenario, optimizer=replace(scenario.optimizer, seed=args.seed))
    out = _out_dir(args, scenario)
    result = workflows.optimize(scenario)
    _write_lines(out / f"{scenario.name}_frontier.csv", _frontier_lines(result.points))
    best = result.best
    _write_lines(
        out / f"{scenario.name}_best_strategy.csv", _kernel_lines(best.strategy, scenario.labels)
    )
    if result.degeneracy is not None:
        payload = [
            {
                "map": list(d.map_indices),
                "i_mem": _sig9(d.i_mem),
                "i_pred": _sig9(d.i_pred),
                "nostalgia": _sig9(d.nostalgia),
                "observer_like": d.observer_like,
            }
            for d in result.degeneracy
        ]
        _dump_json(payload, out / f"{scenario.name}_degeneracy.json")
    summary = {
        "best_beta": best.beta,
        "best_objective": _sig9(best.objective),
        "i_mem": _sig9(best.i_mem),
        "i_pred": _sig9(best.i_pred),
        "nostalgia": _sig9(best.nostalgia),
        "all_converged": all(p.converged for p in result.points),
    }
    print(json.dumps(summary, sort_keys=True, indent=2))
    if not all(p.converged for p in result.points):
        print("warning: some beta points did not converge", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    return EXIT_OK


def _cmd_sample(args) -> int:
    scenario = load_scenario(args.config)
    out = _out_dir(args, scenario)
    seed = args.seed if args.seed is not None else 0
    chain = Chain(scenario.questions, scenario.process, scenario.initial_state)
    traj = sample_trajectory(chain, args.length, seed)
    path = out / f"{scenario.name}_trajectory.csv"
    _write_chunks(path, _trajectory_chunks(traj))
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    scenario = load_scenario(args.config)
    out = _out_dir(args, scenario)
    seed = args.seed if args.seed is not None else 0
    verdicts = workflows.verify(scenario, mc_samples=args.mc_samples, seed=seed)
    lines = []
    for v in verdicts:
        row = dict(v)
        for key in ("deviation", "tolerance"):  # a non-finite number is written as strict JSON null
            row[key] = _sig9(row[key]) if math.isfinite(row[key]) else None
        line = json.dumps(row, sort_keys=True, allow_nan=False)
        lines.append(line)
        print(line)
    _write_lines(out / f"{scenario.name}_verify.jsonl", lines)
    if not all(v["pass"] for v in verdicts):
        return EXIT_VERIFY_FAIL
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "analyze": _cmd_analyze,
        "optimize": _cmd_optimize,
        "sample": _cmd_sample,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except SizeCapError as exc:
        print(f"size cap exceeded: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValidationError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OptimizerError as exc:
        print(f"optimizer failed: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except OSError as exc:  # load_scenario reports a config it cannot read as invalid input
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
