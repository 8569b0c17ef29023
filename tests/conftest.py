import itertools

import numpy as np
import pytest

from obsthermo import (
    Chain,
    IIDProcess,
    MarkovProcess,
    Question,
    bundled_scenario,
)
from obsthermo.chain import FUTURE_PAIR, pair_names
from obsthermo.config import parse_scenario
from obsthermo.optimize import history_future_joint
from obsthermo.qubit import collapsed_states, outcome_table


@pytest.fixture(scope="session")
def case_a():
    return bundled_scenario("case_a")


@pytest.fixture(scope="session")
def case_b_labeled():
    return bundled_scenario("case_b_labeled")


@pytest.fixture(scope="session")
def case_b_unlabeled():
    return bundled_scenario("case_b_unlabeled")


@pytest.fixture(scope="session")
def case_b_bestcase():
    return bundled_scenario("case_b_bestcase")


@pytest.fixture(scope="session")
def angle_sweep():
    return bundled_scenario("angle_sweep")


@pytest.fixture(scope="session")
def all_bundled(case_a, case_b_labeled, case_b_unlabeled, case_b_bestcase, angle_sweep):
    return (case_a, case_b_labeled, case_b_unlabeled, case_b_bestcase, angle_sweep)


def scenario_chain(scenario) -> Chain:
    """The measurement chain of a scenario, from its initial state."""
    return Chain(scenario.questions, scenario.process, scenario.initial_state)


def grouped_view_table(window, k: int, labeled: bool) -> np.ndarray:
    """p(view of the last k pairs, next pair) of a window joint, grouped by its marginal.

    Views in canonical order: pairs oldest first, each question before its answer.
    """
    view = [n for offset in range(1 - k, 1) for n in pair_names(offset)[0 if labeled else 1 :]]
    names = (*view, *FUTURE_PAIR)
    table = window.marginal(names).table
    return table.reshape(-1, 2 * len(window.alphabet(FUTURE_PAIR[0])))


def two_questions_at_angle(theta: float):
    """Axes z and (sin theta, 0, cos theta), IID with equal weights."""
    questions = (
        Question(label="QA", axis=np.array([0.0, 0.0, 1.0])),
        Question(label="QB", axis=np.array([np.sin(theta), 0.0, np.cos(theta)])),
    )
    process = IIDProcess(labels=("QA", "QB"), weights=np.array([0.5, 0.5]))
    return questions, process


def case_b_questions():
    questions = (
        Question(label="Qz", axis=np.array([0.0, 0.0, 1.0])),
        Question(label="Qx", axis=np.array([1.0, 0.0, 0.0])),
    )
    process = IIDProcess(labels=("Qz", "Qx"), weights=np.array([0.5, 0.5]))
    return questions, process


def markov_identity_questions():
    questions = (
        Question(label="Qz", axis=np.array([0.0, 0.0, 1.0])),
        Question(label="Qx", axis=np.array([1.0, 0.0, 0.0])),
    )
    process = MarkovProcess(
        labels=("Qz", "Qx"), transition=np.eye(2), initial=np.array([0.5, 0.5])
    )
    return questions, process


def three_questions_markov():
    """Three random axes (default_rng(5)) under a mixing 3 x 3 Markov schedule."""
    axes = np.random.default_rng(5).normal(size=(3, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    labels = ("Q0", "Q1", "Q2")
    questions = tuple(Question(label=lab, axis=axis) for lab, axis in zip(labels, axes))
    process = MarkovProcess(
        labels=labels,
        transition=np.array([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.4, 0.0, 0.6]]),
        initial=np.array([0.2, 0.5, 0.3]),
    )
    return questions, process


def born_plus_matrix(questions):
    """B[s, j] = P(+1 | chain state s, axis of question j), for every chain state s."""
    axes = [q.axis for q in questions]
    return outcome_table(collapsed_states(axes), axes)[:, :, 0]


def enumerate_deterministic(history_size: int, memory_size: int):
    """Every deterministic map history -> memory as an index array, in the exhaustive
    scan's order: mixed radix, the newest history varying fastest."""
    for combo in itertools.product(range(memory_size), repeat=history_size):
        yield np.array(combo, dtype=int)


# (questions K, window, view k, labeled view, memory size M) of the benchmark's
# `exhaustive` workload: M^H from 59,049 to 390,625 maps
EXHAUSTIVE_SHAPES = (
    (4, 1, 1, True, 4),
    (2, 3, 3, False, 4),
    (2, 2, 2, True, 2),
    (5, 1, 1, True, 3),
    (4, 1, 1, True, 5),
)


def exhaustive_scenarios(seed: int) -> list:
    """The five `exhaustive` benchmark scenarios of run seed `seed`: a fixed
    geometry per shape, seen in a frame rotated by the seed (perfbench/workloads.py)."""
    q, r = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))
    rotation = q * np.sign(np.diag(r))
    if np.linalg.det(rotation) < 0:
        rotation[:, 0] = -rotation[:, 0]
    scenarios = []
    for index, (k_questions, window, k, labeled, m) in enumerate(EXHAUSTIVE_SHAPES):
        shape_rng = np.random.default_rng(index)
        axes = shape_rng.normal(size=(k_questions, 3))
        axes = (axes / np.linalg.norm(axes, axis=1, keepdims=True)) @ rotation.T
        weights = shape_rng.dirichlet(np.full(k_questions, 4.0))
        scenarios.append(
            parse_scenario(
                {
                    "name": f"K{k_questions}_k{k}{'L' if labeled else 'U'}_M{m}",
                    "questions": [
                        {"label": f"Q{i}", "axis": [float(v) for v in axis]}
                        for i, axis in enumerate(axes)
                    ],
                    "process": {"type": "iid", "weights": [float(v) for v in weights]},
                    "window": window,
                    "optimizer": {"memory_size": m, "seed": index, "history": {"k": k, "labeled": labeled}},
                }
            )
        )
    return scenarios


def exhaustive_tables(seed: int) -> list:
    """(p(view, next pair), memory size) of the five `exhaustive` scenarios of run seed `seed`."""
    cases = []
    for scenario in exhaustive_scenarios(seed):
        opt = scenario.optimizer
        hf = history_future_joint(scenario_chain(scenario), opt.history_k, opt.history_labeled)
        cases.append((hf, opt.memory_size))
    return cases
