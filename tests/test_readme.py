"""README's library quickstart runs as printed against the package."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quickstart_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    long_run, report = capsys.readouterr().out.splitlines()
    assert long_run == "[0.25 0.25 0.25 0.25]"
    i_pred, nostalgia, _ = map(float, report.split())
    assert i_pred == pytest.approx(0.5, abs=1e-9) and nostalgia == pytest.approx(3.0, abs=1e-9)
