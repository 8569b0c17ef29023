"""Byte-identity of the CLI outputs on the bundled scenarios.

`tests/golden_outputs.json` holds the sha256 of every file that `analyze`,
`optimize`, `verify` and `sample --length 5000 --seed 3` write for the five
bundled configs.  A change that moves any output byte fails here; one that is
meant to move them regenerates the file with

    PYTHONPATH=src python tests/test_golden_outputs.py > tests/golden_outputs.json
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

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
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
    }


def test_bundled_outputs_match_golden_hashes(tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = output_hashes(tmp_path)
    assert len(expected) == 40
    assert sorted(actual) == sorted(expected)
    changed = sorted(name for name in expected if actual[name] != expected[name])
    assert not changed, f"outputs differ from the golden hashes: {changed}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        json.dump(output_hashes(Path(tmp)), sys.stdout, sort_keys=True, indent=2)
        sys.stdout.write("\n")
