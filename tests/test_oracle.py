import json
from pathlib import Path

import numpy as np
import pytest

from obsthermo import (
    BUNDLED_SCENARIOS,
    IIDProcess,
    MIXED_STATE,
    MarkovProcess,
    NothingStrategy,
    PeriodicProcess,
    Question,
    SizeCapError,
    ValidationError,
    WindowStrategy,
    BlochVector,
    born_probability,
    brute_force_joint,
    bundled_scenario,
    bundled_scenario_path,
    converged_tail,
    history_future_joint,
    max_abs_deviation,
    monte_carlo_check,
    sample_trajectory,
    verify,
    window_joint,
    window_names,
)
from obsthermo import chain as chainmod
from obsthermo.chain import Chain, window_alphabets
from obsthermo.cli import main as cli_main
from obsthermo.config import parse_scenario
from obsthermo.joint import JointDistribution
from obsthermo import oracle as oraclemod
from obsthermo.oracle import _view_next_cells, replica_plan, sample_windows, verdict
from obsthermo.process import question_law
from obsthermo.workflows import WINDOW_ORACLE_TOL, analyze, scenario_window

from conftest import (
    born_plus_matrix,
    case_b_questions,
    markov_identity_questions,
    two_questions_at_angle,
)


def at_angle_scenario(theta: float):
    """Two IID fair questions theta apart, start +z, window 2, last two answers kept."""
    questions, _ = two_questions_at_angle(theta)
    return parse_scenario(
        {
            "name": f"angle_{theta}",
            "questions": [{"label": q.label, "axis": q.axis.tolist()} for q in questions],
            "process": {"type": "iid", "weights": [0.5, 0.5]},
            "initial_state": [0.0, 0.0, 1.0],
            "window": 2,
            "strategy": {"type": "window", "k": 2, "labeled": False},
        }
    )


def tree_tail(joint, questions, window: int) -> JointDistribution:
    """The last window + 1 pairs of a tree's joint, summed out by a raw reshape as
    `converged_tail` does, under the window names."""
    k = len(questions)
    tail = joint.table.reshape(-1, (2 * k) ** (window + 1)).sum(axis=0)
    return JointDistribution(
        names=window_names(window),
        alphabets=window_alphabets(questions, window),
        table=tail.reshape((k, 2) * (window + 1)),
    )


ONE_PHASE_ALTERNATING = MarkovProcess(  # Qz, Qx, Qz, ... from Qz
    labels=("Qz", "Qx"), transition=np.array([[0.0, 1.0], [1.0, 0.0]]), initial=np.array([1.0, 0.0])
)
ABSORBING = MarkovProcess(  # Qz repeats forever once asked
    labels=("Qz", "Qx", "Qy"),
    transition=np.array([[1.0, 0.0, 0.0], [0.2, 0.5, 0.3], [0.1, 0.3, 0.6]]),
    initial=np.array([0.2, 0.4, 0.4]),
)


def single_question():
    q = (Question(label="Qz", axis=np.array([0.0, 0.0, 1.0])),)
    proc = IIDProcess(labels=("Qz",), weights=np.array([1.0]))
    return q, proc


def test_case_a_tree_only_constant_strings():
    questions, proc = single_question()
    res = brute_force_joint(questions, proc, MIXED_STATE, horizon=3)
    assert res.table.size == 2**3
    table = res.marginal(("a1", "a2", "a3")).table
    assert table[0, 0, 0] == pytest.approx(0.5, abs=1e-15)
    assert table[1, 1, 1] == pytest.approx(0.5, abs=1e-15)
    assert table.sum() == pytest.approx(1.0, abs=1e-12)
    assert table[0, 1, 0] == 0.0


def test_case_b_tree_repeat_probability():
    questions, proc = case_b_questions()
    res = brute_force_joint(questions, proc, MIXED_STATE, horizon=2)
    assert res.table.size == 4**2
    pair = res.marginal(("a1", "a2")).table
    assert pair[0, 0] + pair[1, 1] == pytest.approx(0.75, abs=1e-12)


def test_case_b_tree_window_marginal():
    questions, proc = case_b_questions()
    res = brute_force_joint(questions, proc, MIXED_STATE, horizon=3)
    pair = res.marginal(("a1", "a2")).table
    assert pair[0, 0] == pytest.approx(3 / 8, abs=1e-12)
    assert pair[0, 1] == pytest.approx(1 / 8, abs=1e-12)


def test_leaf_cap(monkeypatch):
    questions, proc = case_b_questions()
    with pytest.raises(SizeCapError, match="LEAF_CAP = 10000000"):
        brute_force_joint(questions, proc, MIXED_STATE, horizon=12)  # 4^12 leaves
    monkeypatch.setattr(oraclemod, "LEAF_CAP", 4**5)
    assert brute_force_joint(questions, proc, MIXED_STATE, horizon=5).table.size == 4**5
    with pytest.raises(SizeCapError, match="4096 leaves, over LEAF_CAP = 1024"):
        brute_force_joint(questions, proc, MIXED_STATE, horizon=6)
    with pytest.raises(SizeCapError, match="LEAF_CAP = 1024"):
        converged_tail(questions, proc, MIXED_STATE, 4)  # cannot compare horizons 5 and 6


def test_tail_alignment_and_cross_validation_case_a():
    questions, proc = single_question()
    kernel = Chain(questions, proc, MIXED_STATE)
    w = window_joint(kernel, 1)
    res = brute_force_joint(questions, proc, MIXED_STATE, horizon=3)
    tail = tree_tail(res, questions, 1)
    assert max_abs_deviation(w, tail) <= 1e-10


def test_tail_alignment_case_b_window2():
    questions, proc = case_b_questions()
    kernel = Chain(questions, proc, MIXED_STATE)
    w = window_joint(kernel, 2)
    tail, horizon = converged_tail(questions, proc, MIXED_STATE, 2)
    assert max_abs_deviation(w, tail) <= 1e-10
    assert horizon >= 4


def test_identical_tables_zero_deviation():
    questions, proc = case_b_questions()
    res = brute_force_joint(questions, proc, MIXED_STATE, horizon=2)
    tail = tree_tail(res, questions, 1)
    assert max_abs_deviation(tail, tail) == 0.0


def test_corrupted_table_detected():
    # negative control: a perturbed copy must fail the equivalence check
    questions, proc = case_b_questions()
    res = brute_force_joint(questions, proc, MIXED_STATE, horizon=2)
    tail = tree_tail(res, questions, 1)
    bad_table = tail.table.copy()
    bad_table[0, 0, 0, 0] += 1e-6  # same-question repeat cell, strictly positive
    bad_table[0, 0, 1, 0] -= 1e-6  # cross-question cell, strictly positive
    bad = JointDistribution(names=tail.names, alphabets=tail.alphabets, table=bad_table)
    deviation = max_abs_deviation(tail, bad)
    v = verdict("window_vs_oracle", "corrupted", deviation, 1e-10)
    assert not v["pass"]
    assert v["deviation"] >= 1e-6 - 1e-12


def test_cross_validate_variable_mismatch():
    questions, proc = case_b_questions()
    res = brute_force_joint(questions, proc, MIXED_STATE, horizon=2)
    with pytest.raises(ValidationError):
        max_abs_deviation(tree_tail(res, questions, 1), res)


def test_markov_identity_tail_matches_chain():
    questions, proc = markov_identity_questions()
    kernel = Chain(questions, proc, MIXED_STATE)
    w = window_joint(kernel, 2)
    tail, _ = converged_tail(questions, proc, MIXED_STATE, 2)
    assert max_abs_deviation(w, tail) <= 1e-10


def test_periodic_enumeration_matches_degenerate_iid():
    questions, _ = case_b_questions()
    periodic = PeriodicProcess(labels=("Qz", "Qx"), sequence=("Qz",))
    degenerate = IIDProcess(labels=("Qz", "Qx"), weights=np.array([1.0, 0.0]))
    res_p = brute_force_joint(questions, periodic, MIXED_STATE, horizon=3)
    res_i = brute_force_joint(questions, degenerate, MIXED_STATE, horizon=3)
    assert np.max(np.abs(res_p.table - res_i.table)) == 0.0


def test_tree_two_levels_equal_the_start_law_times_the_kernel_bitwise():
    # the tree and the kernel apply one Born table and one question law, so they agree exactly
    rng = np.random.default_rng(2506)
    for _ in range(400):
        k = int(rng.integers(1, 4))
        axes = rng.normal(size=(k, 3))
        questions = tuple(Question(f"Q{j}", a / np.linalg.norm(a)) for j, a in enumerate(axes))
        process = IIDProcess(tuple(q.label for q in questions), rng.dirichlet(np.ones(k)))
        r = rng.normal(size=3)
        initial = BlochVector.from_array(r / np.linalg.norm(r) * rng.uniform())
        p_plus = np.array([born_probability(initial, q.axis) for q in questions])
        start = question_law(process)[-1][:, None] * np.stack([p_plus, 1.0 - p_plus], 1)
        tree = brute_force_joint(questions, process, initial, 2).table.reshape(2 * k, 2 * k)
        assert np.array_equal(tree, start.reshape(-1, 1) * Chain(questions, process, initial).matrix)


@pytest.mark.parametrize("labeled", [True, False])
@pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
def test_monte_carlo_cells_and_the_exact_table_share_one_view_coding(name, labeled):
    # every window as one sample, weighed by its exact probability, fills the exact table
    scenario = bundled_scenario(name)
    _, window = scenario_window(scenario)
    w, k_q = scenario.window, len(scenario.questions)
    rows = np.indices(window.table.shape).reshape(2 * (w + 1), -1).T.astype(np.min_scalar_type(k_q))
    for k in range(1, w + 1):
        exact = history_future_joint(window, k, labeled).table
        cells = _view_next_cells(rows, k_q, k, labeled)
        table = np.bincount(cells, weights=window.table.reshape(-1), minlength=exact.size)
        assert np.max(np.abs(table.reshape(exact.shape) - exact)) <= 1e-15


def test_eigenstate_start_tree():
    questions, proc = single_question()
    res = brute_force_joint(questions, proc, BlochVector(0, 0, 1), horizon=2)
    assert res.table[0, 0, 0, 0] == pytest.approx(1.0, abs=1e-15)


def test_monte_carlo_nothing_strategy_exact_zero():
    report = monte_carlo_check(
        Chain(*case_b_questions(), MIXED_STATE), window=1, strategy=NothingStrategy(),
        n=2000, seed=1,
    )
    assert report.i_mem == 0.0 and report.i_pred == 0.0 and report.nostalgia == 0.0
    assert report.se_i_pred == 0.0


def test_monte_carlo_case_a_nostalgia_within_three_sigma():
    report = monte_carlo_check(
        Chain(*single_question(), MIXED_STATE), window=1,
        strategy=WindowStrategy(k=1, labeled=False), n=10**5, seed=2,
    )
    assert abs(report.nostalgia - 0.0) <= 3.0 * max(report.se_nostalgia, 1e-12)


def test_monte_carlo_case_b_labeled_i_pred():
    report = monte_carlo_check(
        Chain(*case_b_questions(), MIXED_STATE), window=2,
        strategy=WindowStrategy(k=2, labeled=True), n=5 * 10**4, seed=3,
    )
    assert abs(report.i_pred - 0.5) <= 3.0 * report.se_i_pred


def test_monte_carlo_slow_mixing_chain_within_three_sigma():
    # |lambda*| = 0.9777: a fixed 64-step burn-in started the windows short of
    # the long run and missed the exact i_pred by 15 sigma
    scenario = at_angle_scenario(0.3)
    chain = Chain(scenario.questions, scenario.process, scenario.initial_state)
    assert replica_plan(chain, 10**5)[0] == 612
    exact = analyze(scenario).report
    report = monte_carlo_check(
        chain, window=2, strategy=scenario.strategy, n=10**5, seed=0
    )
    assert abs(report.i_pred - exact.i_pred) <= 3.0 * report.se_i_pred


def test_burn_in_is_the_floor_on_fast_and_periodic_chains():
    questions, proc = case_b_questions()
    assert replica_plan(Chain(questions, proc, MIXED_STATE), 2000)[0] == 64  # |lambda*| = 0.5
    # a one-phase start on a periodic kernel: no mode below 1, and never stationary
    assert replica_plan(Chain(questions, ONE_PHASE_ALTERNATING, MIXED_STATE), 2000)[0] == 64
    periodic = PeriodicProcess(labels=("Qz", "Qx"), sequence=("Qz", "Qx"))
    assert replica_plan(Chain(questions, periodic, MIXED_STATE), 2000)[0] == 64


def test_one_window_replicas_burn_in_until_their_law_is_stationary(case_a, case_b_bestcase):
    # identity kernels: every state is absorbing, so the start law is already the long run
    for questions, proc in (
        (case_a.questions, case_a.process),
        (case_b_bestcase.questions, case_b_bestcase.process),
        markov_identity_questions(),
    ):
        for start in (MIXED_STATE, BlochVector(0.6, 0.0, 0.8)):
            assert replica_plan(Chain(questions, proc, start), 2000) == (0, 2000, 1)
    # Qz absorbs the others; the law is not stationary before the spectral bound
    three = case_b_questions()[0] + (Question(label="Qy", axis=np.array([0.0, 1.0, 0.0])),)
    assert replica_plan(Chain(three, ABSORBING, MIXED_STATE), 2000) == (88, 2000, 1)


def test_replica_plan_pins_burn_in_replicas_and_windows(case_a):
    questions, proc = case_b_questions()  # IID Qz/Qx
    chain = Chain(questions, proc, MIXED_STATE)
    assert replica_plan(chain, 10**4) == (64, 157, 64)
    assert replica_plan(chain, 10**5) == (64, 1563, 64)
    plus_z = BlochVector(0.0, 0.0, 1.0)
    slow, slow_proc = two_questions_at_angle(0.3)
    assert replica_plan(Chain(slow, slow_proc, plus_z), 10**4)[0] == 612
    slower, slower_proc = two_questions_at_angle(0.05)
    assert replica_plan(Chain(slower, slower_proc, plus_z), 10**5) == (22103, 100, 1000)
    reducible = Chain(case_a.questions, case_a.process, MIXED_STATE)
    assert replica_plan(reducible, 2000) == (0, 2000, 1)
    periodic = PeriodicProcess(labels=("Qz", "Qx"), sequence=("Qz", "Qx", "Qx"))
    for n in (1000, 2000, 12345):
        assert replica_plan(Chain(questions, periodic, MIXED_STATE), n) == (64, n, 1)


def test_monte_carlo_error_scales_with_sample_size():
    chain = Chain(*case_b_questions(), MIXED_STATE)
    small = monte_carlo_check(
        chain, window=1, strategy=WindowStrategy(k=1, labeled=True), n=10**4, seed=4
    )
    large = monte_carlo_check(
        chain, window=1, strategy=WindowStrategy(k=1, labeled=True), n=16 * 10**4, seed=4
    )
    ratio = small.se_i_pred / large.se_i_pred
    assert 2.0 < ratio < 8.0  # 1/sqrt(N): a 16x sample cuts the error about 4x


def test_monte_carlo_minimum_samples():
    with pytest.raises(ValidationError):
        monte_carlo_check(
            Chain(*case_b_questions(), MIXED_STATE), window=1, strategy=NothingStrategy(),
            n=10, seed=0,
        )


def test_monte_carlo_very_slow_chain_within_three_sigma():
    # |lambda*| = 0.99938 and a 22,103-step burn-in: 100 replicas of 1000 windows each
    scenario = at_angle_scenario(0.05)
    exact = analyze(scenario).report
    report = monte_carlo_check(
        Chain(scenario.questions, scenario.process, scenario.initial_state), window=2,
        strategy=scenario.strategy, n=10**5, seed=0,
    )
    assert (report.burn_in, report.replicas, report.windows_per_replica) == (22103, 100, 1000)
    assert abs(report.i_pred - exact.i_pred) <= 3.0 * report.se_i_pred


def reference_windows(questions, process, initial, window, n, seed, burn_in=None):
    """One trajectory per window, burned in on its own (by default as long as the
    plan says), drawn with rng.choice."""
    k = len(questions)
    if burn_in is None:
        burn_in = replica_plan(Chain(questions, process, initial), n)[0]
    rng = np.random.Generator(np.random.Philox(key=seed))
    born = born_plus_matrix(questions)
    p0 = np.array([born_probability(initial, q.axis) for q in questions])
    out = np.empty((n, 2 * (window + 1)), dtype=int)
    for t in range(burn_in + window + 1):
        if t == 0 or isinstance(process, IIDProcess):
            law = question_law(process)[-1] if t == 0 else process.weights
            q_next = rng.choice(k, size=n, p=law) if k > 1 else np.zeros(n, dtype=int)
        elif isinstance(process, MarkovProcess):
            cdf = np.cumsum(process.transition, axis=1)[q]
            q_next = (rng.random(n)[:, None] >= cdf / cdf[:, -1:]).sum(axis=1)
        if isinstance(process, PeriodicProcess):
            q_next = np.full(n, process.labels.index(process.sequence[t % len(process.sequence)]))
        p_plus = p0[q_next] if t == 0 else born[2 * q + a, q_next]
        q, a = q_next, (rng.random(n) >= p_plus).astype(int)
        if t >= burn_in:
            out[:, 2 * (t - burn_in)] = q
            out[:, 2 * (t - burn_in) + 1] = a
    return out


def test_sample_windows_slide_inside_a_replica():
    chain = Chain(*case_b_questions(), MIXED_STATE)
    out, plan = sample_windows(chain, window=2, n=10**4, seed=6)
    assert plan == replica_plan(chain, 10**4)
    _, replicas, per = plan
    assert (replicas, per) == (157, 64)
    assert out.shape == (10**4, 6) and out.dtype == np.uint8
    same_replica = np.arange(10**4 - 1) % per != per - 1
    slides = np.all(out[1:, :4] == out[:-1, 2:], axis=1)
    assert np.all(slides[same_replica])
    assert not np.all(slides[~same_replica])  # a new replica starts a fresh trajectory


def test_sample_windows_one_trajectory_per_window_on_reducible_and_periodic_chains(
    case_a, case_b_bestcase
):
    questions, _ = case_b_questions()
    periodic = PeriodicProcess(labels=("Qz", "Qx"), sequence=("Qz", "Qx", "Qx"))
    three = questions + (Question(label="Qy", axis=np.array([0.0, 1.0, 0.0])),)
    cases = [
        (case_a.questions, case_a.process, case_a.initial_state, case_a.window),
        (case_b_bestcase.questions, case_b_bestcase.process, MIXED_STATE, case_b_bestcase.window),
        (questions, periodic, BlochVector(0.6, 0.0, 0.8), 2),
        (three, ABSORBING, MIXED_STATE, 2),
    ]
    for seed, (qs, proc, start, w) in enumerate(cases):
        got, plan = sample_windows(Chain(qs, proc, start), window=w, n=2000, seed=seed)
        assert plan[1:] == (2000, 1)
        assert np.array_equal(got, reference_windows(qs, proc, start, w, 2000, seed))


def test_zero_burn_in_windows_equal_those_after_64_steps(case_a, case_b_bestcase):
    # on an identity kernel the first step's uniforms fix every later answer
    for scenario in (case_a, case_b_bestcase):
        qs, proc, start = scenario.questions, scenario.process, scenario.initial_state
        chain, w = Chain(qs, proc, start), scenario.window
        for n in (2000, 10**4):
            assert replica_plan(chain, n) == (0, n, 1)
            for seed in (0, 7, 101, 105):
                got, _ = sample_windows(chain, window=w, n=n, seed=seed)
                expected = reference_windows(qs, proc, start, w, n, seed, burn_in=64)
                assert np.array_equal(got, expected)


def test_tree_tail_after_a_zero_burn_in_is_the_long_run(case_a, case_b_bestcase):
    # the tree from the true start, read where a zero burn-in starts its window
    cases = [
        (case_a.questions, case_a.process, case_a.initial_state, case_a.window),
        (case_b_bestcase.questions, case_b_bestcase.process, case_b_bestcase.initial_state, 2),
        (*markov_identity_questions(), BlochVector(0.6, 0.0, 0.8), 2),
    ]
    for questions, proc, start, w in cases:
        kernel = Chain(questions, proc, start)
        burn_in = replica_plan(kernel, 2000)[0]
        assert burn_in == 0
        exact = window_joint(kernel, w)
        tree = brute_force_joint(questions, proc, start, horizon=burn_in + w + 1)
        assert max_abs_deviation(exact, tree_tail(tree, questions, w)) <= WINDOW_ORACLE_TOL


def test_sample_windows_rejects_bad_sizes():
    chain = Chain(*case_b_questions(), MIXED_STATE)
    for n, window, match in (
        (0, 2, "n must be >= 1, got 0"),
        (-5, 2, "n must be >= 1, got -5"),
        (2000, -1, "window must be >= 1, got -1"),
        (2000, 0, "window must be >= 1, got 0"),
    ):
        with pytest.raises(ValidationError, match=match):
            sample_windows(chain, window=window, n=n, seed=0)


def test_windows_per_replica_only_on_mixing_kernels(case_a, case_b_bestcase):
    questions, proc = case_b_questions()
    chain = Chain(questions, proc, MIXED_STATE)
    n = 10**5  # windows per replica are cut to n // MIN_REPLICAS = 1000, above every burn-in here
    # a replica gives its burn-in
    assert replica_plan(chain, n) == (64, 1563, 64)
    reducible = Chain(case_a.questions, case_a.process, MIXED_STATE)
    assert replica_plan(reducible, n) == (0, n, 1)
    bestcase = Chain(case_b_bestcase.questions, case_b_bestcase.process, MIXED_STATE)
    assert replica_plan(bestcase, n) == (0, n, 1)
    alternating = MarkovProcess(
        labels=("Qz", "Qx"), transition=np.array([[0.0, 1.0], [1.0, 0.0]]), initial=np.array([0.5, 0.5])
    )
    assert replica_plan(Chain(questions, alternating, MIXED_STATE), n)[1:] == (n, 1)  # periodic
    periodic = PeriodicProcess(labels=("Qz", "Qx"), sequence=("Qz", "Qx"))
    assert replica_plan(Chain(questions, periodic, MIXED_STATE), n)[1:] == (n, 1)  # no kernel
    # at least MIN_REPLICAS = 100 replicas: the windows per replica shrink with n
    assert replica_plan(chain, 1001) == (64, 101, 10)
    assert replica_plan(chain, 10**4) == (64, 157, 64)


def test_monte_carlo_report_records_its_replicas(case_a):
    report = monte_carlo_check(
        Chain(*case_b_questions(), MIXED_STATE), window=2, strategy=WindowStrategy(k=2),
        n=10**4, seed=1,
    )
    assert (report.n, report.burn_in, report.replicas, report.windows_per_replica) == (
        10**4, 64, 157, 64,
    )
    report = monte_carlo_check(
        Chain(case_a.questions, case_a.process, case_a.initial_state), window=1,
        strategy=case_a.strategy, n=2000, seed=1,
    )
    assert (report.burn_in, report.replicas, report.windows_per_replica) == (0, 2000, 1)


@pytest.mark.parametrize("name", ["case_b_unlabeled", "angle_0.3"])
def test_monte_carlo_three_sigma_coverage_and_calibration(name):
    # seeds 0-59 fixed in advance; 3 sigma misses about 1 run in 370 when the se is right
    scenario = bundled_scenario(name) if name.startswith("case") else at_angle_scenario(0.3)
    exact = analyze(scenario).report.i_pred
    chain = Chain(scenario.questions, scenario.process, scenario.initial_state)
    runs = [
        monte_carlo_check(
            chain, scenario.window, scenario.strategy, n=10**4, seed=seed
        )
        for seed in range(60)
    ]
    estimates = np.array([r.i_pred for r in runs])
    errors = np.array([r.se_i_pred for r in runs])
    assert np.sum(np.abs(estimates - exact) > 3.0 * errors) <= 1
    assert 0.7 <= np.std(estimates, ddof=1) / np.median(errors) <= 1.4


def test_schedule_must_list_the_questions_in_their_order():
    # a periodic schedule listing (Qx, Qz) for questions (Qz, Qx) used to ask Qx
    questions, _ = case_b_questions()
    plus_z = BlochVector(0.0, 0.0, 1.0)
    swapped = PeriodicProcess(labels=("Qx", "Qz"), sequence=("Qz",))
    fair = np.array([0.5, 0.5])
    for qs, process in (
        (questions, swapped),
        (questions, IIDProcess(labels=("Qx", "Qz"), weights=fair)),
        (questions, IIDProcess(labels=("Qz", "Qy"), weights=fair)),  # sampling it raised KeyError: 'Qy'
        (questions[:1] * 2, IIDProcess(labels=("Qz", "Qx"), weights=fair)),  # repeated labels
        ((), IIDProcess(labels=("Qz",), weights=np.ones(1))),  # no questions
    ):
        with pytest.raises(ValidationError, match="do not match"):
            sample_trajectory(Chain(qs, process, plus_z), 5, seed=0)
    with pytest.raises(ValidationError, match="do not match"):
        brute_force_joint(questions, swapped, plus_z, horizon=2)
    with pytest.raises(ValidationError, match="do not match"):
        converged_tail(questions, swapped, plus_z, window=1)

    ordered = PeriodicProcess(labels=("Qz", "Qx"), sequence=("Qz",))
    windows, _ = sample_windows(Chain(questions, ordered, plus_z), window=1, n=2000, seed=0)
    assert not windows.any()  # always Qz, always +1
    tail, _ = converged_tail(questions, ordered, plus_z, window=1)
    assert tail.table[0, 0, 0, 0] == pytest.approx(1.0)


def count_calls(monkeypatch, sites: dict) -> dict:
    """Patch each (owner, attribute) to count its calls; returns the live counts by key."""
    counts = dict.fromkeys(sites, 0)

    def counted(key, func):
        def call(*args, **kwargs):
            counts[key] += 1
            return func(*args, **kwargs)

        return call

    for key, (owner, attr) in sites.items():
        monkeypatch.setattr(owner, attr, counted(key, getattr(owner, attr)))
    return counts


@pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
def test_verify_builds_decomposes_and_plans_once(name, monkeypatch):
    # one chain value carries the kernel, its spectrum, its start and its long run from
    # scenario_window to the Monte Carlo check, which plans once and samples with that plan
    counts = count_calls(
        monkeypatch,
        {
            "chains": (Chain, "__post_init__"),
            "eigvals": (np.linalg, "eigvals"),
            "plans": (oraclemod, "replica_plan"),
            "long runs": (chainmod, "long_run_distribution"),
        },
    )
    verdicts = verify(bundled_scenario(name))
    assert "monte_carlo_i_pred" in [v["check"] for v in verdicts]
    assert all(v["pass"] for v in verdicts)
    assert counts == {"chains": 1, "eigvals": 1, "plans": 1, "long runs": 1}


def test_analyze_writes_the_full_window_from_the_same_long_run(tmp_path, monkeypatch):
    # a k = 1 view of a w = 2 scenario: analyze builds the view's window, and the CLI
    # writes the full window from a second window_joint on the same chain
    config = json.loads(Path(bundled_scenario_path("case_b_labeled")).read_text())
    config["strategy"]["k"] = 1
    path = tmp_path / "short_view.json"
    path.write_text(json.dumps(config))
    counts = count_calls(
        monkeypatch,
        {
            "chains": (Chain, "__post_init__"),
            "long runs": (chainmod, "long_run_distribution"),
            "windows": (chainmod, "window_joint"),
        },
    )
    assert cli_main(["analyze", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert counts == {"chains": 1, "long runs": 1, "windows": 2}
    rows = (tmp_path / "case_b_labeled_window_joint.csv").read_text().splitlines()
    assert rows[0] == "q-1,a-1,q0,a0,q+1,a+1,probability" and len(rows) == 1 + 4**3
