"""Byte-identity of the CLI outputs on the bundled scenarios.

`tests/golden_outputs.json` holds the sha256 of every file that `analyze`,
`optimize`, `verify` and `sample --length 5000 --seed 3` write for the five
bundled configs.  A change that moves any output byte fails here; one that is
meant to move them rewrites the file with

    PYTHONPATH=src python tests/test_golden_outputs.py

which names on stderr every record whose hash it moved.  Outputs written
elsewhere, by the installed console script for one, are checked without
rewriting anything by

    python tests/test_golden_outputs.py --compare DIR

which exits 1 and names every record that DIR moves, adds or lacks.  The same
files are also parsed: every CSV must be well-formed.
"""

import contextlib
import csv
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from obsthermo.cli import main

SCENARIOS = Path(__file__).resolve().parents[1] / "src" / "obsthermo" / "scenarios"
GOLDEN = Path(__file__).with_name("golden_outputs.json")
COMMANDS = (["analyze"], ["optimize"], ["verify"], ["sample", "--length", "5000", "--seed", "3"])


def output_hashes(out: Path) -> dict:
    """Run every command on every bundled config into `out`; sha256 by file name."""
    for config in sorted(SCENARIOS.glob("*.json")):
        for command in COMMANDS:
            argv = [command[0], "--config", str(config), "--out", str(out), *command[1:]]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            assert code == 0, f"{' '.join(argv)} exited {code}"
    return file_hashes(out)


def file_hashes(out: Path) -> dict:
    """sha256 of every file in `out`, by file name."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
    }


def changed_records(expected: dict, actual: dict) -> list:
    """The records whose hash `actual` moves from `expected` or that only one of them
    holds, sorted by file name."""
    return sorted(
        name for name in expected.keys() | actual.keys() if actual.get(name) != expected.get(name)
    )


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("outputs")
    return out, output_hashes(out)


def test_bundled_outputs_match_golden_hashes(outputs):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    _, actual = outputs
    assert len(expected) == 40
    assert sorted(actual) == sorted(expected)
    changed = changed_records(expected, actual)
    assert not changed, f"outputs differ from the golden hashes: {changed}"


def test_every_csv_has_rows_of_its_header_width_and_answers_in_bits(outputs):
    out, _ = outputs
    csvs = sorted(out.glob("*.csv"))
    assert len(csvs) == 5 * 5
    for path in csvs:
        lines = path.read_text(encoding="utf-8").splitlines()
        header, *rows = csv.reader(line for line in lines if not line.startswith("#"))
        assert rows, path.name
        answers = [i for i, name in enumerate(header) if name.startswith("a")]
        for row in rows:
            assert len(row) == len(header), f"{path.name}: {row}"
            assert {row[i] for i in answers} <= {"0", "1"}, f"{path.name}: {row}"


if __name__ == "__main__":
    import argparse
    import tempfile

    parser = argparse.ArgumentParser(description="Rewrite the golden hashes from a fresh run.")
    parser.add_argument(
        "--compare", metavar="DIR", type=Path,
        help="compare the outputs in DIR with the golden hashes instead; write nothing",
    )
    args = parser.parse_args()
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    if args.compare is not None:
        moved = changed_records(golden, file_hashes(args.compare))
        sys.exit(f"outputs differ from {GOLDEN.name}: {moved}" if moved else 0)
    with tempfile.TemporaryDirectory() as tmp:
        hashes = output_hashes(Path(tmp))
    for name in changed_records(golden, hashes):
        print(f"changed: {name}", file=sys.stderr)
    GOLDEN.write_text(json.dumps(hashes, sort_keys=True, indent=2) + "\n", encoding="utf-8")
