"""The trajectory CSV of `obsthermo sample`: its bytes and its memory.

`cli` writes the rows from the trajectory's arrays, a block of rows per
write.  Its bytes must equal those of the plain writer, one f-string per row
over `Trajectory.steps`, at every length around both the writer's block and
the sampler's block, and a long run must not hold the steps as Python objects.
"""

import json
import sys
import tracemalloc

import numpy as np
import pytest

from obsthermo import Chain, bundled_scenario_path, load_scenario, sample_trajectory
from obsthermo import cli
from obsthermo import process as procmod

from test_sampler import reference_trajectory

QUESTIONS = [
    {"label": "Qz", "axis": [0.0, 0.0, 1.0]},
    {"label": "Qx", "axis": [1.0, 0.0, 0.0]},
    {"label": "Qy", "axis": [0.0, 0.6, 0.8]},
]
SCHEDULES = {
    "iid": {"type": "iid", "weights": [0.2, 0.5, 0.3]},
    "markov": {
        "type": "markov",
        "transition": [[0.1, 0.6, 0.3], [0.7, 0.1, 0.2], [0.3, 0.3, 0.4]],
        "initial": [0.0, 0.5, 0.5],
    },
    "periodic": {"type": "periodic", "sequence": ["Qz", "Qx", "Qx", "Qy"]},
    "unequal_labels": {"type": "iid", "weights": [0.1, 0.2, 0.3, 0.4]},
}
#: Labels of unequal length, one non-ASCII and one whose cell spans two 8-byte words.
QUESTIONS_OF = {
    "unequal_labels": [
        {"label": "Q0", "axis": [0.0, 0.0, 1.0]},
        {"label": "Q60", "axis": [0.8, 0.0, 0.6]},
        {"label": "Q\u03b8", "axis": [0.0, 1.0, 0.0]},
        {"label": "Q_tilted_\u03b8", "axis": [0.6, 0.0, 0.8]},
    ],
}


def around(block: int) -> list:
    return [1, 2, block - 1, block, block + 1, 3 * block + 7]


#: Around both blocks, and where row numbers reach a fifth digit, past one 4-digit group.
LENGTHS = sorted(
    set(around(cli._ROWS_PER_WRITE) + around(procmod._BLOCK_ENTRIES) + [9_999, 10_000, 10_001])
)


def reference_csv(steps) -> bytes:
    """The trajectory CSV written one f-string per row."""
    rows = [f"{t},{q},{1 if a == +1 else 0}\n" for t, (q, a) in enumerate(steps, start=1)]
    return "".join(["t,question,answer\n", *rows]).encode()


@pytest.mark.parametrize("length", LENGTHS)
@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
def test_trajectory_csv_matches_the_per_row_writer(tmp_path, schedule, length):
    config = {
        "name": schedule,
        "questions": QUESTIONS_OF.get(schedule, QUESTIONS),
        "process": SCHEDULES[schedule],
        "initial_state": [0.6, 0.0, 0.8],
        "window": 1,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    seed = 3 * length + 1
    argv = ["sample", "--config", str(path), "--length", str(length), "--seed", str(seed)]
    assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 0

    scenario = load_scenario(path)
    start = (scenario.questions, scenario.process, scenario.initial_state)
    traj = sample_trajectory(Chain(*start), length, seed)
    old = reference_trajectory(*start, length, seed)
    assert len(traj) == length
    assert [(type(q), type(a)) for q, a in traj.steps] == [(str, int)] * length
    assert traj.steps == old
    assert traj.labels() == [q for q, _ in old]
    answers = traj.answers()
    assert answers.dtype == np.array([a for _, a in old]).dtype and answers.tolist() == [a for _, a in old]
    assert (tmp_path / "out" / f"{schedule}_trajectory.csv").read_bytes() == reference_csv(old)


def test_a_long_sample_holds_arrays_and_one_block_of_text(tmp_path):
    n = 200_000
    # the two integer arrays the trajectory keeps, one block of rows (per row: the row number's
    # str, its list slots, its cell and its share of the joined text, well under 256 bytes),
    # and 1 MiB for the parser, the scenario, the chain and the file buffer
    bound = 2 * 8 * n + cli._ROWS_PER_WRITE * 256 + 2**20
    assert n * (sys.getsizeof(("Qz", 1)) + 8) > bound  # the steps as a tuple of pairs cannot fit
    argv = ["sample", "--config", bundled_scenario_path("case_b_labeled"), "--length", str(n)]
    tracemalloc.start()
    try:
        assert cli.main([*argv, "--out", str(tmp_path)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound
    assert len((tmp_path / "case_b_labeled_trajectory.csv").read_bytes().splitlines()) == n + 1


@pytest.mark.parametrize("args", [["--length", "0"], ["--length", "5", "--seed", "-1"]])
def test_a_failed_sample_writes_nothing(tmp_path, capsys, args):
    out = tmp_path / "out"
    argv = ["sample", "--config", bundled_scenario_path("case_a"), "--out", str(out), *args]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith("invalid input: ")
    assert not out.exists()
