"""A labeled view of k >= 2 pairs is optimized on its last-pair table and lifted.

The next pair's law given a labeled view is the kernel at the view's last pair,
and the long run is invariant under the kernel, so p(view, x') summed over the
older pairs is the k = 1 table, and an encoder that reads the last pair only
keeps i_mem and i_pred.  The cases are fixed here: K = 2 and 3 questions, views
of k = 2 and 3 pairs, i.i.d. and Markov schedules (one of them periodic, so the
long run is a Cesaro average), and pure and mixed starts.  A question asked
twice answers alike, so every case has views of zero mass.
"""

import dataclasses

import numpy as np
import pytest

from obsthermo import (
    MIXED_STATE,
    BlochVector,
    IIDProcess,
    MarkovProcess,
    OptimizerSettings,
    Question,
    bundled_scenario,
    exhaustive_best,
    history_future_joint,
    sweep_beta,
    workflows,
)
import obsthermo.optimize as optmod
from obsthermo.optimize import lift_point

from conftest import case_b_questions, scenario_chain, three_questions_markov

EPS = np.finfo(float).eps


def _random_questions(K: int, seed: int) -> tuple:
    axes = np.random.default_rng(seed).normal(size=(K, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    return tuple(Question(label=f"Q{i}", axis=axis) for i, axis in enumerate(axes))


def _case(questions, process, start, k, m):
    return dataclasses.replace(
        bundled_scenario("case_b_labeled"),
        questions=questions,
        process=process,
        initial_state=start,
        window=k,
        optimizer=OptimizerSettings(memory_size=m, seed=k, history_k=k, history_labeled=True),
    )


def _cases():
    """(name, scenario) of every case: K, k, schedule and start fixed before any run."""
    orthogonal, iid = case_b_questions()
    labels2 = ("Q0", "Q1")
    markov2 = MarkovProcess(
        labels=labels2, transition=np.array([[0.7, 0.3], [0.4, 0.6]]), initial=np.array([1.0, 0.0])
    )
    periodic = MarkovProcess(
        labels=("Qz", "Qx"), transition=np.array([[0.0, 1.0], [1.0, 0.0]]), initial=np.array([1.0, 0.0])
    )
    questions3, markov3 = three_questions_markov()
    random3 = _random_questions(3, 34)
    iid3 = IIDProcess(labels=("Q0", "Q1", "Q2"), weights=np.array([0.2, 0.3, 0.5]))
    plus_z = BlochVector(0.0, 0.0, 1.0)
    return [
        ("K2_iid_orthogonal_mixed_k2", _case(orthogonal, iid, MIXED_STATE, 2, 2)),
        ("K2_iid_orthogonal_mixed_k3", _case(orthogonal, iid, MIXED_STATE, 3, 3)),
        ("K2_markov_random_pure_k2", _case(_random_questions(2, 33), markov2, plus_z, 2, 2)),
        ("K2_markov_random_pure_k3", _case(_random_questions(2, 33), markov2, plus_z, 3, 4)),
        ("K2_periodic_orthogonal_pure_k2", _case(orthogonal, periodic, plus_z, 2, 2)),
        ("K3_markov_random_mixed_k2", _case(questions3, markov3, BlochVector(0.3, -0.2, 0.5), 2, 3)),
        ("K3_iid_random_pure_k3", _case(random3, iid3, BlochVector(0.0, 0.6, 0.8), 3, 2)),
    ]


CASES = dict(_cases())


def _tables(scenario):
    chain = scenario_chain(scenario)
    k = scenario.optimizer.history_k
    return chain, history_future_joint(chain, k, True), history_future_joint(chain, 1, True)


@pytest.mark.parametrize("name", CASES)
def test_the_last_pair_table_is_the_view_table_summed_over_the_older_pairs(name):
    # each entry of the view table is a product of k + 1 factors; summing the
    # (2K)^(k-1) older views adds as many roundings, and every step from the long
    # run pi to pi K leaves its invariance defect |pi K - pi|, measured here.  So
    # the gap is at most ((2K)^(k-1) + k + 1) eps + (k - 1) * defect
    chain, hf, core = _tables(CASES[name])
    pi = chain.long_run.distribution
    defect = float(abs(pi @ chain.matrix - pi).max())
    assert defect <= 8 * EPS, defect  # the long run is invariant within a few roundings
    n = core.num_histories
    summed = hf.table.reshape(-1, n, n).sum(axis=0)
    bound = (hf.num_histories // n + hf.k + 1) * EPS + (hf.k - 1) * defect
    assert float(abs(summed - core.table).max()) <= bound
    assert chain.long_run.cesaro == (name == "K2_periodic_orthogonal_pure_k2")


@pytest.mark.parametrize("name", CASES)
def test_optimize_lifts_the_last_pair_sweep_and_rescores_it_on_the_view(name):
    scenario = CASES[name]
    _, hf, core = _tables(scenario)
    n = core.num_histories
    core_points = sweep_beta(core, scenario.optimizer)
    result = workflows.optimize(scenario)
    zero = hf.history_marginal() == 0.0
    for point, core_point in zip(result.points, core_points, strict=True):
        enc = point.strategy.assignment
        assert enc.shape == (hf.num_histories, scenario.optimizer.memory_size)
        assert (point.strategy.k, point.strategy.labeled) == (hf.k, True)
        # constant across the views that share a last pair, zero-mass views too
        lifted = np.tile(core_point.strategy.assignment, (len(enc) // n, 1))
        assert enc.tobytes() == lifted.tobytes()
        assert abs(point.objective - core_point.objective) <= 1e-12
        assert abs(point.i_mem - core_point.i_mem) <= 1e-12
        assert abs(point.i_pred - core_point.i_pred) <= 1e-12
        assert (point.beta, point.converged, point.iterations) == (
            core_point.beta,
            core_point.converged,
            core_point.iterations,
        )
    assert result.best is min(result.points, key=lambda p: p.objective)
    assert zero.any()  # a question asked twice answers alike: (q, +1), (q, -1) has no mass


@pytest.mark.parametrize("name", [n for n in CASES if "_k2" in n and n.startswith("K2")])
def test_the_lifted_exhaustive_optimum_is_the_full_tables(name):
    # 2^16 maps of the 16-view table against 2^4 on the last-pair table
    scenario = CASES[name]
    _, hf, core = _tables(scenario)
    m = scenario.optimizer.memory_size
    assert m**hf.num_histories <= optmod.ENUMERATION_CAP
    for beta in (None, 1.0, 2.5, float(optmod.BETAS[-1])):
        full = exhaustive_best(hf, m, beta=beta)
        lifted = lift_point(hf, exhaustive_best(core, m, beta=beta))
        if beta is None:
            assert abs(lifted.i_pred - full.i_pred) <= 1e-12
        else:
            assert abs(lifted.objective - full.objective) <= 1e-12
    result = workflows.optimize(scenario)
    reference = lift_point(hf, exhaustive_best(core, m, beta=float(optmod.BETAS[-1])))
    assert result.exhaustive_reference.strategy.assignment.tobytes() == (
        reference.strategy.assignment.tobytes()
    )
    assert result.exhaustive_reference.objective == reference.objective


def test_a_zero_mass_view_takes_its_last_pairs_row():
    # view (Qz, +1), (Qz, -1) has no mass: Qz asked twice answers alike.  Its row is
    # that of the last pair (Qz, -1), whatever the older pair
    scenario = CASES["K2_iid_orthogonal_mixed_k2"]
    _, hf, core = _tables(scenario)
    point = workflows.optimize(scenario).points[-1]
    view = 0 * 4 + 1  # older pair (Qz, +1) = 0, last pair (Qz, -1) = 1
    assert hf.history_marginal()[view] == 0.0
    core_row = sweep_beta(core, scenario.optimizer)[-1].strategy.assignment[1]
    assert point.strategy.assignment[view].tobytes() == core_row.tobytes()


def test_unlabeled_and_one_pair_views_sweep_their_own_table(monkeypatch):
    swept = []

    def spy(hf, settings):
        swept.append((hf.k, hf.labeled))
        return sweep_beta(hf, settings)

    monkeypatch.setattr(workflows, "sweep_beta", spy)
    base = CASES["K2_markov_random_pure_k3"]
    for k, labeled in ((3, False), (1, True), (3, True)):
        opt = dataclasses.replace(base.optimizer, history_k=k, history_labeled=labeled)
        workflows.optimize(dataclasses.replace(base, optimizer=opt))
    assert swept == [(3, False), (1, True), (1, True)]
