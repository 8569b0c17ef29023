import math

import numpy as np
import pytest

from obsthermo import (
    IIDProcess,
    MarkovProcess,
    PeriodicProcess,
    MIXED_STATE,
    Question,
    SizeCapError,
    ValidationError,
    BlochVector,
    Chain,
    bundled_scenario,
    max_abs_deviation,
    mutual_information,
    sample_trajectory,
    window_joint,
    window_names,
)
from obsthermo import chain as chainmod
from obsthermo.config import BUNDLED_SCENARIOS
from obsthermo.joint import JointDistribution

from conftest import (
    case_b_questions,
    grouped_view_table,
    markov_identity_questions,
    three_questions_markov,
    two_questions_at_angle,
)


def state_index(question_index: int, answer: int) -> int:
    return 2 * question_index + (0 if answer == +1 else 1)


def window_frequencies(trajectory, questions, window: int) -> JointDistribution:
    """Relative frequencies of the trajectory's sliding (window + 1)-pair windows."""
    label_to_idx = {q.label: i for i, q in enumerate(questions)}
    states = np.array([state_index(label_to_idx[q], a) for q, a in trajectory.steps])
    size = 2 * len(questions)
    cells = np.zeros(len(states) - window, dtype=int)
    for j in range(window + 1):
        cells = cells * size + states[j : j + len(cells)]
    counts = np.bincount(cells, minlength=size ** (window + 1))
    return JointDistribution(
        names=window_names(window),
        alphabets=(tuple(q.label for q in questions), (1, -1)) * (window + 1),
        table=(counts / counts.sum()).reshape((len(questions), 2) * (window + 1)),
    )


def single_question():
    q = (Question(label="Qz", axis=np.array([0.0, 0.0, 1.0])),)
    proc = IIDProcess(labels=("Qz",), weights=np.array([1.0]))
    return q, proc


def test_single_question_kernel_is_identity_on_outcome():
    questions, proc = single_question()
    kernel = Chain(questions, proc, MIXED_STATE)
    assert np.allclose(kernel.matrix, np.eye(2))


def test_two_orthogonal_kernel_entries():
    questions, proc = case_b_questions()
    kernel = Chain(questions, proc, MIXED_STATE)
    same = state_index(0, +1)
    assert kernel.matrix[same, same] == pytest.approx(0.5)  # 1/2 * 1 repeat
    cross = state_index(1, +1)
    assert kernel.matrix[same, cross] == pytest.approx(0.25)  # 1/2 * cos^2(45deg)
    assert np.allclose(kernel.matrix.sum(axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("theta", [math.pi / 6, math.pi / 3, math.pi / 2, 2.2])
def test_cross_question_repeat_probability(theta):
    questions, proc = two_questions_at_angle(theta)
    kernel = Chain(questions, proc, MIXED_STATE)
    # from (QA, +) to (QB, +): 1/2 * cos^2(theta/2)
    p = kernel.matrix[state_index(0, +1), state_index(1, +1)]
    assert p == pytest.approx(0.5 * math.cos(theta / 2) ** 2, abs=1e-12)


def test_periodic_process_refused_with_pointer_to_enumeration():
    questions, _ = single_question()
    proc = PeriodicProcess(labels=("Qz",), sequence=("Qz",))
    chain = Chain(questions, proc, MIXED_STATE)  # the samplers run on a periodic chain
    with pytest.raises(ValidationError, match="enumeration"):
        chain.matrix


def test_long_run_single_question_mixed_start():
    questions, proc = single_question()
    kernel = Chain(questions, proc, MIXED_STATE)
    assert np.allclose(kernel.long_run.distribution, [0.5, 0.5])
    assert not kernel.long_run.cesaro


def test_long_run_single_question_eigenstate_start():
    questions, proc = single_question()
    kernel = Chain(questions, proc, BlochVector(0, 0, 1))
    assert np.allclose(kernel.long_run.distribution, [1.0, 0.0])


def test_long_run_two_orthogonal_uniform():
    questions, proc = case_b_questions()
    kernel = Chain(questions, proc, MIXED_STATE)
    assert np.allclose(kernel.long_run.distribution, 0.25)
    assert not kernel.long_run.cesaro


def test_long_run_periodic_chain_gets_cesaro_flag():
    # deterministic question alternation makes the chain periodic
    questions, _ = case_b_questions()
    proc = MarkovProcess(
        labels=("Qz", "Qx"),
        transition=np.array([[0.0, 1.0], [1.0, 0.0]]),
        initial=np.array([1.0, 0.0]),
    )
    kernel = Chain(questions, proc, BlochVector(0, 0, 1))
    assert kernel.long_run.cesaro
    assert kernel.long_run.distribution.sum() == pytest.approx(1.0, abs=1e-12)
    # question marginal averages to 1/2 each
    assert kernel.long_run.distribution[:2].sum() == pytest.approx(0.5, abs=1e-9)


def test_long_run_slow_aperiodic_chain_not_flagged_periodic():
    # |lambda_2| = 0.99938: 10^4 power steps do not settle, yet no eigenvalue
    # other than 1 has modulus 1, so the chain is not periodic
    questions, proc = two_questions_at_angle(0.05)
    kernel = Chain(questions, proc, BlochVector(0, 0, 1))
    assert np.sort(np.abs(np.linalg.eigvals(kernel.matrix)))[-2] == pytest.approx(0.99938, abs=1e-5)
    lr = kernel.long_run
    assert not lr.cesaro
    assert np.allclose(lr.distribution, 0.25, atol=1e-9)


def count_decompositions(monkeypatch) -> list:
    """Patch np.linalg.eig and eigvals to record each call's name; returns the live record."""
    calls = []
    for name in ("eig", "eigvals"):
        func = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda m, n=name, f=func: calls.append(n) or f(m))
    return calls


def test_kernel_spectrum_is_computed_once(monkeypatch):
    # `periodic`, `mixes`, `slowest_mode` and the Cesaro limit's right vectors read one
    # eigendecomposition cache; the left vectors decompose P^T
    calls = count_decompositions(monkeypatch)
    questions, _ = case_b_questions()
    alternate = MarkovProcess(
        labels=("Qz", "Qx"), transition=np.array([[0.0, 1.0], [1.0, 0.0]]), initial=np.array([1.0, 0.0])
    )
    kernel = Chain(questions, alternate, BlochVector(0, 0, 1))
    assert kernel.long_run.cesaro
    assert kernel.periodic and not kernel.mixes
    assert kernel.slowest_mode == pytest.approx(0.0, abs=1e-12)
    assert calls == ["eig", "eig"]


def test_a_long_run_that_does_not_settle_decomposes_the_kernel_twice(monkeypatch):
    # theta = 0.05: the 10^4-step power loop does not settle, so the Cesaro limit runs;
    # it reads the right vectors of the chain's one `eigen` and decomposes P^T once
    questions, proc = two_questions_at_angle(0.05)
    chain = Chain(questions, proc, BlochVector(0, 0, 1))
    calls = count_decompositions(monkeypatch)
    assert not chain.long_run.cesaro
    assert chain.slowest_mode == pytest.approx(0.99938, abs=1e-5)
    assert calls == ["eig", "eig"]


def one_step_settle(chain, limit):
    """`chain.settle` as a loop of one kernel step and one stationarity check."""
    mu = chain.start_law
    for t in range(limit):
        nxt = mu @ chain.matrix
        if np.max(np.abs(nxt - mu)) < chainmod.STATIONARY_TOL:
            return t, nxt
        mu = nxt
    return limit, mu


def settle_chains() -> list:
    """The bundled chains from seeded random starts, and two that reach 10^4 steps unsettled."""
    chains = []
    for seed, name in enumerate(BUNDLED_SCENARIOS):
        scenario = bundled_scenario(name)
        rng = np.random.default_rng(seed)
        v = rng.normal(size=3)
        v *= rng.uniform() ** (1 / 3) / np.linalg.norm(v)
        chains.append(Chain(scenario.questions, scenario.process, BlochVector(*v)))
    # |lambda_2| = 0.99938 falls back to the Cesaro limit; the alternating schedule is periodic
    chains.append(Chain(*two_questions_at_angle(0.05), BlochVector(0, 0, 1)))
    alternate = MarkovProcess(
        labels=("Qz", "Qx"), transition=np.array([[0.0, 1.0], [1.0, 0.0]]), initial=np.array([1.0, 0.0])
    )
    chains.append(Chain(case_b_questions()[0], alternate, BlochVector(0.3, 0.2, 0.6)))
    return chains


@pytest.mark.parametrize("limit", [0, 1, 7, 64, 10_000])
def test_settle_matches_the_one_step_loop(limit):
    steps = []
    for chain in settle_chains():
        t, law = chainmod.settle(chain, limit)
        want_t, want_law = one_step_settle(chain, limit)
        assert t == want_t and law.tobytes() == want_law.tobytes()
        steps.append(t)
    # stops at the first check, and inside the blocks of 32 and 64 steps
    assert steps == [min(t, limit) for t in (0, 46, 45, 0, 106, 10_000, 10_000)]
    if limit == 10_000:
        assert [c.long_run.cesaro for c in settle_chains()[-2:]] == [False, True]


def test_window_case_a_fully_predictive():
    questions, proc = single_question()
    kernel = Chain(questions, proc, MIXED_STATE)
    w = window_joint(kernel, 1)
    marg = w.marginal(("a0", "a+1"))
    assert marg.table[0, 0] == pytest.approx(0.5, abs=1e-12)
    assert marg.table[1, 1] == pytest.approx(0.5, abs=1e-12)
    assert marg.table[0, 1] == 0.0 and marg.table[1, 0] == 0.0


def test_window_case_b_consecutive_answer_marginal():
    questions, proc = case_b_questions()
    kernel = Chain(questions, proc, MIXED_STATE)
    w = window_joint(kernel, 2)
    marg = w.marginal(("a-1", "a0")).table
    assert marg[0, 0] == pytest.approx(3 / 8, abs=1e-12)
    assert marg[1, 1] == pytest.approx(3 / 8, abs=1e-12)
    assert marg[0, 1] == pytest.approx(1 / 8, abs=1e-12)
    assert marg[1, 0] == pytest.approx(1 / 8, abs=1e-12)


def test_window_future_question_matches_process_law():
    questions, proc = case_b_questions()
    kernel = Chain(questions, proc, MIXED_STATE)
    w = window_joint(kernel, 1)
    assert np.allclose(w.marginal(("q+1",)).table, [0.5, 0.5], atol=1e-12)


def test_window_one_step_consistency():
    questions, proc = case_b_questions()
    kernel = Chain(questions, proc, MIXED_STATE)
    w2 = window_joint(kernel, 2)
    w1 = window_joint(kernel, 1)
    dropped = w2.marginal(window_names(2)[2:])
    assert max_abs_deviation(dropped, w1) < 1e-10


def test_window_exogeneity_for_iid():
    questions, proc = case_b_questions()
    kernel = Chain(questions, proc, MIXED_STATE)
    w = window_joint(kernel, 2)
    history = [n for n in w.names if n not in ("q+1", "a+1")]
    assert mutual_information(w, ["q+1"], history) < 1e-10


def test_window_size_cap_names_requirement(monkeypatch):
    questions, proc = case_b_questions()
    kernel = Chain(questions, proc, MIXED_STATE)
    monkeypatch.setattr(chainmod, "WINDOW_ENTRY_CAP", 100)
    assert window_joint(kernel, 2).table.size == 64
    with pytest.raises(SizeCapError, match="needs 256 entries, over WINDOW_ENTRY_CAP = 100"):
        window_joint(kernel, 3)
    # an unlabeled view table counts its own 2^k * 2K entries
    assert chainmod.view_table(kernel, 4, labeled=False).size == 64
    with pytest.raises(SizeCapError, match="needs 128 entries, over WINDOW_ENTRY_CAP = 100"):
        chainmod.view_table(kernel, 5, labeled=False)


VIEW_TABLE_CASES = {
    "one_question": single_question,
    "two_questions_iid": case_b_questions,
    "three_questions_markov": three_questions_markov,
}


@pytest.mark.parametrize("name", VIEW_TABLE_CASES)
def test_view_table_matches_the_window_joint_grouped_by_its_marginal(name):
    chain = Chain(*VIEW_TABLE_CASES[name](), MIXED_STATE)
    n = 2 * len(chain.questions)
    for k in range(1, 7):
        window = window_joint(chain, k)
        for labeled in (True, False):
            table = chainmod.view_table(chain, k, labeled)
            expected = grouped_view_table(window, k, labeled)
            assert table.shape == ((n if labeled else 2) ** k, n)
            assert np.max(np.abs(table - expected)) <= 1e-15, (k, labeled)


def test_labeled_view_table_is_the_long_run_times_the_kernel_bit_for_bit():
    # the product the window joint was built by before view_table, one pair at a time
    chain = Chain(*three_questions_markov(), MIXED_STATE)
    product = chain.long_run.distribution.copy()
    for k in range(1, 6):
        product = product[..., None] * chain.matrix
        assert np.array_equal(chainmod.view_table(chain, k, True).reshape(-1), product.reshape(-1))
        assert np.array_equal(window_joint(chain, k).table.reshape(-1), product.reshape(-1))


def test_unlabeled_view_table_past_the_window_cap_sums_to_the_shorter_view():
    # the long run is stationary, so dropping the oldest answer of a k-view gives the (k-1)-view
    chain = Chain(*three_questions_markov(), MIXED_STATE)
    with pytest.raises(SizeCapError, match="over WINDOW_ENTRY_CAP"):
        window_joint(chain, 16)
    shorter = chainmod.view_table(chain, 1, labeled=False)
    for k in range(2, 17):
        table = chainmod.view_table(chain, k, labeled=False)
        assert table.shape == (2**k, 6)
        dropped = table.reshape(2, 2 ** (k - 1), 6).sum(axis=0)
        assert np.max(np.abs(dropped - shorter)) <= 1e-15, k
        shorter = table


def test_trajectory_case_a_eigenstate_start_constant():
    questions, proc = single_question()
    traj = sample_trajectory(Chain(questions, proc, BlochVector(0, 0, 1)), 5, seed=7)
    assert list(traj.answers()) == [1, 1, 1, 1, 1]


def test_trajectory_case_b_repeat_rate():
    questions, proc = case_b_questions()
    traj = sample_trajectory(Chain(questions, proc, MIXED_STATE), 10**6, seed=123)
    a = traj.answers()
    repeat = (a[1:] == a[:-1]).mean()
    assert abs(repeat - 0.75) < 0.002  # 1/2 * 1 + 1/2 * 1/2


def test_plugin_i_pred_from_trajectory_windows():
    # sliding-window plug-in estimate of the labeled two-pair record's
    # predictive information lands on the exact half bit
    from obsthermo import WindowStrategy, apply_strategy, evaluate

    questions, proc = case_b_questions()
    traj = sample_trajectory(Chain(questions, proc, MIXED_STATE), 2 * 10**5, seed=31)
    emp = window_frequencies(traj, questions, 2)
    report = evaluate(apply_strategy(WindowStrategy(k=2, labeled=True), emp))
    assert abs(report.i_pred - 0.5) < 0.01


def test_trajectory_conditionals_match_kernel():
    questions, proc = case_b_questions()
    kernel = Chain(questions, proc, MIXED_STATE)
    traj = sample_trajectory(kernel, 2 * 10**5, seed=9)
    emp = window_frequencies(traj, questions, 1)
    # empirical transition from (Qz, +): compare against the kernel row
    cond = emp.table[0, 0] / emp.table[0, 0].sum()
    assert np.max(np.abs(cond.reshape(-1) - kernel.matrix[0])) < 0.01


def test_periodic_single_question_matches_degenerate_iid():
    questions, _ = case_b_questions()
    periodic = PeriodicProcess(labels=("Qz", "Qx"), sequence=("Qz",))
    degenerate = IIDProcess(labels=("Qz", "Qx"), weights=np.array([1.0, 0.0]))
    periodic = Chain(questions, periodic, MIXED_STATE)
    degenerate = Chain(questions, degenerate, MIXED_STATE)
    t1 = sample_trajectory(periodic, 100, seed=5)
    t2 = sample_trajectory(degenerate, 100, seed=5)
    assert t1.labels() == t2.labels()
    # within a trajectory the answer repeats, so the law only shows across
    # trajectories: the first answer is a fair coin under both schedules
    n = 2000
    f1 = np.mean([sample_trajectory(periodic, 2, seed=s).answers()[0] == 1 for s in range(n)])
    f2 = np.mean([sample_trajectory(degenerate, 2, seed=s).answers()[0] == 1 for s in range(n)])
    assert abs(f1 - 0.5) < 0.04 and abs(f2 - 0.5) < 0.04


def test_markov_identity_long_run_uniform(case_b_bestcase):
    questions, proc = markov_identity_questions()
    kernel = Chain(questions, proc, MIXED_STATE)
    assert np.allclose(kernel.matrix, np.eye(4))
    assert np.allclose(kernel.long_run.distribution, 0.25)
