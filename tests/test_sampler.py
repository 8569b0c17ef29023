"""The one sampler against per-step reference loops, its draw rule, and its block size.

`reference_questions` and `reference_trajectory` walk one step at a time, the
way a reader would simulate the chain by hand: a question from the schedule,
then a Born-rule answer from the last collapsed state.  The blocked prefix
scan behind `sample_questions`, `sample_trajectory` and `sample_windows` must
reproduce them bit for bit, whatever its block size.
"""

import numpy as np
import pytest

from obsthermo import (
    IIDProcess,
    MIXED_STATE,
    BlochVector,
    MarkovProcess,
    PeriodicProcess,
    Question,
    ValidationError,
    born_probability,
    Chain,
    sample_questions,
    sample_trajectory,
)
from obsthermo import process as procmod
from obsthermo.oracle import replica_plan, sample_windows

from conftest import born_plus_matrix

QZ = Question(label="Qz", axis=np.array([0.0, 0.0, 1.0]))
QX = Question(label="Qx", axis=np.array([1.0, 0.0, 0.0]))
QY = Question(label="Qy", axis=np.array([0.0, 0.6, 0.8]))
THREE = ("Qz", "Qx", "Qy")

SCHEDULES = {
    "iid_k1": IIDProcess(labels=("Qz",), weights=np.array([1.0])),
    "iid_k2": IIDProcess(labels=THREE[:2], weights=np.array([0.5, 0.5])),
    "iid_k3": IIDProcess(labels=THREE, weights=np.array([0.2, 0.5, 0.3])),
    "markov_identity": MarkovProcess(
        labels=THREE[:2], transition=np.eye(2), initial=np.array([0.5, 0.5])
    ),
    "markov_absorbing": MarkovProcess(  # Qz repeats forever once asked
        labels=THREE,
        transition=np.array([[1.0, 0.0, 0.0], [0.2, 0.5, 0.3], [0.1, 0.3, 0.6]]),
        initial=np.array([0.2, 0.4, 0.4]),
    ),
    "markov_mixing": MarkovProcess(
        labels=THREE,
        transition=np.array([[0.1, 0.6, 0.3], [0.7, 0.1, 0.2], [0.3, 0.3, 0.4]]),
        initial=np.array([0.0, 0.5, 0.5]),
    ),
    "periodic": PeriodicProcess(labels=THREE, sequence=("Qz", "Qx", "Qx", "Qy")),
}


def questions_of(process):
    return tuple(q for q in (QZ, QX, QY) if q.label in process.labels)


def reference_questions(process, length: int, seed: int) -> list:
    """One question per step: rng.choice for i.i.d. schedules; for Markov ones
    the normalized cumulative row of the last question and u >= c."""
    if isinstance(process, PeriodicProcess):
        return [process.sequence[t % len(process.sequence)] for t in range(length)]
    rng = np.random.Generator(np.random.Philox(key=seed))
    if isinstance(process, IIDProcess):
        idx = rng.choice(len(process.labels), size=length, p=process.weights)
        return [process.labels[i] for i in idx]
    u = rng.random(length)
    out, law = [], process.initial
    for t in range(length):
        cdf = np.cumsum(law)
        cdf /= cdf[-1]
        out.append(int(np.searchsorted(cdf, u[t], side="right")))
        law = process.transition[out[-1]]
    return [process.labels[i] for i in out]


def reference_trajectory(questions, process, initial, length: int, seed: int) -> tuple:
    """Draw a question, draw the Born outcome from the last collapsed state, repeat."""
    labels = reference_questions(process, length, seed)
    index = {q.label: i for i, q in enumerate(questions)}
    born = born_plus_matrix(questions)
    u = np.random.Generator(np.random.Philox(key=seed + 0x5EED)).random(length)
    steps, state = [], None
    for t, label in enumerate(labels):
        j = index[label]
        p_plus = born_probability(initial, questions[j].axis) if t == 0 else born[state, j]
        a = +1 if u[t] < p_plus else -1
        steps.append((label, a))
        state = 2 * j + (0 if a == +1 else 1)
    return tuple(steps)


@pytest.mark.parametrize("length", [1, 2, 777, 20_000])
@pytest.mark.parametrize("name", sorted(SCHEDULES))
def test_sampler_matches_the_per_step_reference(name, length):
    process = SCHEDULES[name]
    questions = questions_of(process)
    seed = 7 * length + 1
    initial = BlochVector(0.6, 0.0, 0.8)
    assert sample_questions(process, length, seed) == reference_questions(process, length, seed)
    got = sample_trajectory(Chain(questions, process, initial), length, seed).steps
    assert got == reference_trajectory(questions, process, initial, length, seed)


def test_question_step_never_draws_a_zero_weight_question():
    # a row summing to 1 - 5e-13 passes PROB_TOL; its unnormalized cumulative
    # weights stop short of 1, where u just below 1 would land on question 2
    u = np.array([[np.nextafter(1.0, 0.0), 0.5]] * 3)  # 3 steps of 2 paths
    rows = {
        (0.5, 0.5 - 5e-13, 0.0): [1, 0],  # normalized, the first weight is just above 0.5
        (0.5, 0.5, 0.0): [1, 1],  # an exact tie at u = 0.5 goes up: u >= c
    }
    for row, expected in rows.items():
        row = np.array(row)
        schedules = (
            IIDProcess(labels=THREE, weights=row),
            MarkovProcess(labels=THREE, transition=np.array([row] * 3), initial=row),
        )
        for process in schedules:
            step = procmod.question_step(process)
            for prev in (np.array([3, 3]), np.array([0, 2])):  # fresh starts, carried questions
                assert step(prev, u, 0).tolist() == [expected] * 3


def window_cases():
    absorbing, periodic = SCHEDULES["markov_absorbing"], SCHEDULES["periodic"]
    return {
        "mixing": ((QZ, QX), SCHEDULES["iid_k2"], MIXED_STATE, 2),
        "reducible": (questions_of(absorbing), absorbing, MIXED_STATE, 2),
        "periodic": (questions_of(periodic), periodic, BlochVector(0.6, 0.0, 0.8), 1),
    }


@pytest.mark.parametrize("name", ["mixing", "reducible", "periodic"])
def test_outputs_do_not_depend_on_the_block_size(name, monkeypatch):
    questions, process, initial, window = window_cases()[name]
    chain = Chain(questions, process, initial)
    n, length = 3000, 5000
    if name == "periodic":  # no kernel: Monte Carlo refuses it, trajectories still run
        with pytest.raises(ValidationError, match="periodic schedules have no time-homogeneous kernel"):
            sample_windows(chain, window, n, seed=11)
        total, windows = 0, lambda: ()
    else:
        burn_in, replicas, per = replica_plan(chain, n)
        assert (per > 1) == (name == "mixing")
        total = replicas * (burn_in + window + per)

        def windows():
            drawn, plan = sample_windows(chain, window, n, seed=11)
            return drawn.tobytes(), drawn.dtype, plan

    runs = []
    for budget in (1, procmod._BLOCK_ENTRIES, max(total, length)):
        monkeypatch.setattr(procmod, "_BLOCK_ENTRIES", budget)
        runs.append((*windows(), sample_trajectory(chain, length, seed=11).steps))
    assert runs[0] == runs[1] == runs[2]
