"""obsthermo benchmark: one workload, a closed loop with one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; obsthermo is imported from its `src`.
An untimed warm-up round comes first, then whole rounds of the workload's
operations until S seconds of operation time have passed.  Every output is
checked.  The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and the end-to-end metrics (--trace 0) or the
per-layer metrics of a traced run (--trace 1).  See perfbench/README.md.
"""

import os

# one BLAS thread, set before numpy loads, here and in every import probe
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
IMPORT_PROBES = 5
SCIPY_PROBES = 3
IMPORT_CODE = "import time; t = time.perf_counter(); import obsthermo; print(time.perf_counter() - t)"

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "cpu_s_per_op": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def load_program():
    """Import obsthermo from this checkout's source tree, and nowhere else."""
    if not (SRC / "obsthermo" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no obsthermo package under {SRC}")
    sys.path.insert(0, str(SRC))
    import obsthermo

    if Path(obsthermo.__file__).resolve().parent != SRC / "obsthermo":
        raise SystemExit(f"perfbench: imported obsthermo from {obsthermo.__file__}, not {SRC}")


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True
    )


def import_seconds() -> float:
    """Wall time of `import obsthermo` in a fresh interpreter."""
    return float(_python("-c", IMPORT_CODE).stdout.split()[-1])


def scipy_import_seconds() -> float:
    """Self time of every scipy module in a fresh `import obsthermo`, from -X importtime."""
    total_us = 0
    for line in _python("-X", "importtime", "-c", "import obsthermo").stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[0].strip().isdigit():
            module = fields[2].strip()
            if module == "scipy" or module.startswith("scipy."):
                total_us += int(fields[0])
    return total_us / 1e6


class Loop:
    """Times the operations of one workload and collects what the checks find."""

    def __init__(self, operations):
        self.operations = operations
        self.attempted = 0
        self.failed = 0
        self.good = 0  # timed operations that ran and passed their check
        self.correct = True
        self.problems = []  # failures and wrong outputs, first few kept
        self.latencies = []  # (operation name, seconds) of operations that ran
        self.wall = 0.0
        self.cpu = 0.0

    def _note(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)

    def _execute(self, op):
        """(wall s, cpu s, ran, passed its check) for one operation."""
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            output = op.run()
        except Exception as exc:  # a failed operation is counted; the run goes on
            t1 = time.perf_counter()
            self._note(f"{op.name}: {type(exc).__name__}: {exc}")
            return t1 - t0, time.process_time() - cpu0, False, False
        t1 = time.perf_counter()
        cpu = time.process_time() - cpu0
        try:
            op.check(output)
        except Exception as exc:  # CheckFailed, or output too malformed to check
            self.correct = False
            self._note(f"{op.name}: wrong output: {type(exc).__name__}: {exc}")
            return t1 - t0, cpu, True, False
        return t1 - t0, cpu, True, True

    def round(self, timed: bool, between=None, operations=None) -> float:
        """One pass over the operations (default: all); returns their wall time."""
        spent = 0.0
        for op in operations or self.operations:
            wall, cpu, ran, passed = self._execute(op)
            spent += wall
            if timed:
                self.attempted += 1
                self.failed += not ran
                self.good += passed
                self.wall += wall
                self.cpu += cpu
                if ran:
                    self.latencies.append((op.name, wall))
            elif not ran:
                self.correct = False  # untimed rounds must succeed too
            if between is not None:
                between()
        return spent


def run(args) -> dict:
    load_program()
    RESULTS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(dir=RESULTS, prefix="tmp-") as scratch:
        workload = workloads.WORKLOADS[args.workload](args.seed, Path(scratch))
        try:
            if args.trace:
                result, details = traced_run(workload, args)
            else:
                result, details = timed_run(workload, args)
        finally:
            workload.close()
    (RESULTS / f"{tag}.json").write_text(json.dumps({"result": result, **details}, indent=1) + "\n")
    return result


def timed_run(workload, args):
    loop = Loop(workload.operations)
    probes = []

    def probe_when_due():
        # spread the import probes over the timed part of the run
        if len(probes) < IMPORT_PROBES * min(1.0, loop.wall / args.seconds):
            probes.append(import_seconds())

    loop.round(timed=False, operations=workload.warmup)
    while loop.wall < args.seconds:
        loop.round(timed=True, between=probe_when_due)
    while len(probes) < IMPORT_PROBES:
        probes.append(import_seconds())
    if not loop.latencies:
        raise SystemExit(f"perfbench: no operation succeeded: {loop.problems}")
    metrics = {
        "ops_per_s": loop.good / loop.wall,
        "latency_p50_s": statistics.median(wall for _, wall in loop.latencies),
        "cpu_s_per_op": loop.cpu / loop.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(probes),
    }
    result = _result(loop, {k: (v, END_TO_END[k]) for k, v in metrics.items()})
    details = {
        "problems": loop.problems,
        "import_probes_s": probes,
        "latencies_s": _by_name(loop.latencies),
    }
    return result, details


def _by_name(pairs) -> dict:
    out = {}
    for name, value in pairs:
        out.setdefault(name, []).append(value)
    return out


def traced_run(workload, args):
    tracer = tracing.Tracer()
    loop = Loop(workload.operations)
    round_walls = {True: [], False: []}
    loop.round(timed=False, operations=workload.warmup)
    traced = True
    while sum(map(sum, round_walls.values())) < args.seconds or not all(round_walls.values()):
        if traced:
            tracer.install()
            try:
                spent = loop.round(timed=True)
            finally:
                tracer.uninstall()
        else:
            spent = loop.round(timed=False)
        round_walls[traced].append(spent)
        traced = not traced
    summary = tracer.summary()
    missing = tracing.missing_layers(summary, args.workload)
    if missing:
        raise SystemExit(f"perfbench: layers mapped to {args.workload} recorded no call: {missing}")
    if not loop.latencies:
        raise SystemExit(f"perfbench: no traced operation succeeded: {loop.problems}")
    values = tracing.layer_metrics(summary, tracer.counts, loop.attempted, len(tracer.spans))
    values["import.scipy_s"] = statistics.median(scipy_import_seconds() for _ in range(SCIPY_PROBES))
    values["trace.overhead_share"] = (
        statistics.median(round_walls[True]) / statistics.median(round_walls[False]) - 1.0
    )
    metrics = {
        name: (values[name], unit) for name, (unit, _) in tracing.PER_LAYER_METRICS.items()
    }
    result = _result(loop, metrics)
    spans_path = RESULTS / f"{args.workload}-seed{args.seed}-spans.jsonl"
    with open(spans_path, "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    details = {
        "problems": loop.problems,
        "round_walls_s": {"traced": round_walls[True], "untraced": round_walls[False]},
        "layers": {name: dict(zip(("self_s", "inclusive_s", "calls"), agg)) for name, agg in summary.items()},
        "patched_sites": tracer.sites(),
    }
    return result, details


def _result(loop: Loop, metrics: dict) -> dict:
    for text in loop.problems:
        print(f"perfbench: {text}", file=sys.stderr)
    return {
        "correct": loop.correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    result = run(parser.parse_args(argv))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
