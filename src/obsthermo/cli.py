"""Command-line entry point.

Subcommands: analyze, optimize, sample, verify.  Exit codes: 0 success,
1 validation or size-cap error, 2 optimizer non-convergence or failure,
3 verification failure.  All outputs are deterministic for a fixed config and seed.
"""

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import workflows
from .bound import _sig9
from .chain import write_trajectory_csv, write_window_joint_csv
from .config import load_scenario
from .errors import OptimizerError, SizeCapError, ValidationError
from .joint import write_joint_csv
from .optimize import write_frontier_csv
from .qubit import answer_to_bit
from .strategy import write_kernel_csv

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NONCONVERGENCE = 2
EXIT_VERIFY_FAIL = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="obsthermo",
        description="Qubit question/answer chains, observer memories, dissipation bounds.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="scenario JSON path")
    common.add_argument("--seed", type=int, default=None, help="override random seed")
    common.add_argument("--out", default=None, help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("analyze", parents=[common], help="exact InfoReport for the configured strategy")
    sub.add_parser("optimize", parents=[common], help="beta sweep plus degeneracy report")
    p_sample = sub.add_parser("sample", parents=[common], help="sample a trajectory CSV")
    p_sample.add_argument("--length", type=int, required=True, help="number of interactions")
    p_verify = sub.add_parser("verify", parents=[common], help="run all oracle cross-checks")
    p_verify.add_argument(
        "--mc-samples", type=int, default=workflows.DEFAULT_MC_SAMPLES, help="Monte Carlo sample count"
    )
    return parser


def _out_dir(args, scenario) -> Path:
    out = args.out or scenario.output or "out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _dump_json(data, path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(data, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _cmd_analyze(args) -> int:
    scenario = load_scenario(args.config)
    out = _out_dir(args, scenario)
    result = workflows.analyze(scenario)
    window = result.window  # the full window may exceed the entry cap: fail before any write
    if result.long_run.cesaro:
        print("note: periodic chain, long run is the Cesaro average", file=sys.stderr)
    report = result.report.to_dict()
    _dump_json(report, out / f"{scenario.name}_report.json")
    write_window_joint_csv(window, out / f"{scenario.name}_window_joint.csv")
    memory_joint = result.applied.marginal(["m", "q+1", "a+1"])
    write_joint_csv(
        memory_joint,
        out / f"{scenario.name}_memory_joint.csv",
        serializers={"a+1": answer_to_bit},
    )
    print(json.dumps(report, sort_keys=True, indent=2))
    return EXIT_OK


def _cmd_optimize(args) -> int:
    scenario = load_scenario(args.config)
    if args.seed is not None and scenario.optimizer is not None:
        scenario = replace(scenario, optimizer=replace(scenario.optimizer, seed=args.seed))
    out = _out_dir(args, scenario)
    result = workflows.optimize(scenario)
    write_frontier_csv(result.points, out / f"{scenario.name}_frontier.csv")
    best = result.best
    write_kernel_csv(best.strategy, scenario.labels, out / f"{scenario.name}_best_strategy.csv")
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
    traj = workflows.sample(scenario, length=args.length, seed=seed)
    path = out / f"{scenario.name}_trajectory.csv"
    write_trajectory_csv(traj, path)
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
        row["deviation"] = _sig9(row["deviation"])
        row["tolerance"] = _sig9(row["tolerance"])
        line = json.dumps(row, sort_keys=True)
        lines.append(line)
        print(line)
    with open(out / f"{scenario.name}_verify.jsonl", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
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


if __name__ == "__main__":
    sys.exit(main())
