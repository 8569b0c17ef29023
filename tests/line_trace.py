"""Run pytest under a standard-library line trace of `src/obsthermo` and list the
function-body statements that never ran.

    PYTHONPATH=src python tests/line_trace.py [--report FILE] [pytest args ...]

`sys.settrace` and `threading.settrace` install a tracer that follows only
frames whose code lives under `src/obsthermo`.  A statement counts when it
starts a line of a function body that the compiler maps to bytecode (the
lines of `co_lines()` of every function in the package, nested ones too), and
it ran when the tracer saw a line event on it.  The markdown report (a count,
then one `file:line` and statement per never-run statement) is appended to
FILE, or printed after the tests.  The exit status is pytest's; the report
gates nothing.
"""

import argparse
import ast
import sys
import threading
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "obsthermo"


def function_statements(path: Path) -> dict:
    """{line: source text} of the statements in function bodies that have bytecode."""
    source = path.read_text()
    code_lines, stack = set(), list(compile(source, str(path), "exec").co_consts)
    while stack:
        code = stack.pop()
        if hasattr(code, "co_lines"):
            code_lines.update(line for _, _, line in code.co_lines() if line is not None)
            stack.extend(code.co_consts)
    starts = {
        stmt.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for top in node.body
        for stmt in ast.walk(top)
        if isinstance(stmt, ast.stmt)
    }
    text = source.splitlines()
    return {line: text[line - 1].strip() for line in sorted(starts & code_lines)}


class LineTrace:
    """The (file, line) pairs that ran in frames of code under `root`."""

    def __init__(self, root: Path):
        self.root, self.ran, self._inside = Path(root).resolve(), set(), {}

    def _local(self, frame, event, arg):
        if event == "line":
            self.ran.add((frame.f_code.co_filename, frame.f_lineno))
        return self._local

    def __call__(self, frame, event, arg):
        name = frame.f_code.co_filename
        inside = self._inside.get(name)
        if inside is None:
            inside = self._inside[name] = Path(name).resolve().is_relative_to(self.root)
        return self._local if inside else None

    def lines_of(self, path: Path) -> set:
        names = {name for name, inside in self._inside.items() if inside and Path(name).resolve() == path}
        return {line for name, line in self.ran if name in names}


def report(trace: LineTrace) -> str:
    missed, total = [], 0
    for path in sorted(SRC.rglob("*.py")):
        statements = function_statements(path)
        total += len(statements)
        ran = trace.lines_of(path.resolve())
        rel = path.relative_to(SRC.parents[1])
        missed += [f"- `{rel}:{line}` `{text}`" for line, text in statements.items() if line not in ran]
    head = f"Line trace: {len(missed)} of {total} function-body statements in src/obsthermo never ran"
    return "\n".join([head, "", *missed, ""])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--report", help="append the markdown report to this file")
    args, pytest_args = parser.parse_known_args(argv)
    trace = LineTrace(SRC)
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    text = report(trace)
    if args.report:
        with open(args.report, "a") as out:
            out.write(text)
    else:
        print(text)
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
