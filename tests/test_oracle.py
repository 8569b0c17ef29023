import numpy as np
import pytest

from obsthermo import (
    IIDProcess,
    MIXED_STATE,
    NothingStrategy,
    PeriodicProcess,
    Question,
    SizeCapError,
    ValidationError,
    WindowStrategy,
    BlochVector,
    brute_force_joint,
    build_chain,
    converged_tail,
    cross_validate,
    long_run_distribution,
    monte_carlo_check,
    tail_window_joint,
    window_joint,
)
from obsthermo.config import parse_scenario
from obsthermo.joint import JointDistribution
from obsthermo.oracle import mixing_burn_in, sample_windows, verdict
from obsthermo.workflows import analyze

from conftest import case_b_questions, markov_identity_questions, two_questions_at_angle


def single_question():
    q = (Question(label="Qz", axis=np.array([0.0, 0.0, 1.0])),)
    proc = IIDProcess(labels=("Qz",), weights=np.array([1.0]))
    return q, proc


def test_case_a_tree_only_constant_strings():
    questions, proc = single_question()
    res = brute_force_joint(questions, proc, MIXED_STATE, horizon=3)
    assert res.leaf_count == 2**3
    table = res.joint.marginal(("a1", "a2", "a3")).table
    assert table[0, 0, 0] == pytest.approx(0.5, abs=1e-15)
    assert table[1, 1, 1] == pytest.approx(0.5, abs=1e-15)
    assert table.sum() == pytest.approx(1.0, abs=1e-12)
    assert table[0, 1, 0] == 0.0


def test_case_b_tree_repeat_probability():
    questions, proc = case_b_questions()
    res = brute_force_joint(questions, proc, MIXED_STATE, horizon=2)
    assert res.leaf_count == 4**2
    pair = res.joint.marginal(("a1", "a2")).table
    assert pair[0, 0] + pair[1, 1] == pytest.approx(0.75, abs=1e-12)


def test_case_b_tree_window_marginal():
    questions, proc = case_b_questions()
    res = brute_force_joint(questions, proc, MIXED_STATE, horizon=3)
    pair = res.joint.marginal(("a1", "a2")).table
    assert pair[0, 0] == pytest.approx(3 / 8, abs=1e-12)
    assert pair[0, 1] == pytest.approx(1 / 8, abs=1e-12)


def test_leaf_cap():
    questions, proc = case_b_questions()
    with pytest.raises(SizeCapError):
        brute_force_joint(questions, proc, MIXED_STATE, horizon=5, leaf_cap=100)


def test_tail_alignment_and_cross_validation_case_a():
    questions, proc = single_question()
    kernel = build_chain(questions, proc)
    lr = long_run_distribution(kernel, MIXED_STATE)
    w = window_joint(kernel, lr, 1)
    res = brute_force_joint(questions, proc, MIXED_STATE, horizon=3)
    tail = tail_window_joint(res, 1)
    assert cross_validate(w, tail) <= 1e-10


def test_tail_alignment_case_b_window2():
    questions, proc = case_b_questions()
    kernel = build_chain(questions, proc)
    lr = long_run_distribution(kernel, MIXED_STATE)
    w = window_joint(kernel, lr, 2)
    tail, horizon = converged_tail(questions, proc, MIXED_STATE, 2)
    assert cross_validate(w, tail) <= 1e-10
    assert horizon >= 4


def test_identical_tables_zero_deviation():
    questions, proc = case_b_questions()
    res = brute_force_joint(questions, proc, MIXED_STATE, horizon=2)
    tail = tail_window_joint(res, 1)
    assert cross_validate(tail, tail) == 0.0


def test_corrupted_table_detected():
    # negative control: a perturbed copy must fail the equivalence check
    questions, proc = case_b_questions()
    res = brute_force_joint(questions, proc, MIXED_STATE, horizon=2)
    tail = tail_window_joint(res, 1)
    bad_table = tail.table.copy()
    bad_table[0, 0, 0, 0] += 1e-6  # same-question repeat cell, strictly positive
    bad_table[0, 0, 1, 0] -= 1e-6  # cross-question cell, strictly positive
    bad = JointDistribution(names=tail.names, alphabets=tail.alphabets, table=bad_table)
    deviation = cross_validate(tail, bad)
    v = verdict("window_vs_oracle", "corrupted", deviation, 1e-10)
    assert not v["pass"]
    assert v["deviation"] >= 1e-6 - 1e-12


def test_cross_validate_variable_mismatch():
    questions, proc = case_b_questions()
    res = brute_force_joint(questions, proc, MIXED_STATE, horizon=2)
    with pytest.raises(ValidationError):
        cross_validate(tail_window_joint(res, 1), res.joint)


def test_markov_identity_tail_matches_chain():
    questions, proc = markov_identity_questions()
    kernel = build_chain(questions, proc)
    lr = long_run_distribution(kernel, MIXED_STATE)
    w = window_joint(kernel, lr, 2)
    tail, _ = converged_tail(questions, proc, MIXED_STATE, 2)
    assert cross_validate(w, tail) <= 1e-10


def test_periodic_enumeration_matches_degenerate_iid():
    questions, _ = case_b_questions()
    periodic = PeriodicProcess(labels=("Qz", "Qx"), sequence=("Qz",))
    degenerate = IIDProcess(labels=("Qz", "Qx"), weights=np.array([1.0, 0.0]))
    res_p = brute_force_joint(questions, periodic, MIXED_STATE, horizon=3)
    res_i = brute_force_joint(questions, degenerate, MIXED_STATE, horizon=3)
    assert np.max(np.abs(res_p.joint.table - res_i.joint.table)) == 0.0


def test_eigenstate_start_tree():
    questions, proc = single_question()
    res = brute_force_joint(questions, proc, BlochVector(0, 0, 1), horizon=2)
    assert res.joint.table[0, 0, 0, 0] == pytest.approx(1.0, abs=1e-15)


def test_monte_carlo_nothing_strategy_exact_zero():
    questions, proc = case_b_questions()
    report = monte_carlo_check(
        questions, proc, MIXED_STATE, window=1, strategy=NothingStrategy(), n=2000, seed=1
    )
    assert report.i_mem == 0.0 and report.i_pred == 0.0 and report.nostalgia == 0.0
    assert report.se_i_pred == 0.0


def test_monte_carlo_case_a_nostalgia_within_three_sigma():
    questions, proc = single_question()
    report = monte_carlo_check(
        questions, proc, MIXED_STATE, window=1, strategy=WindowStrategy(k=1, labeled=False),
        n=10**5, seed=2,
    )
    assert abs(report.nostalgia - 0.0) <= 3.0 * max(report.se_nostalgia, 1e-12)


def test_monte_carlo_case_b_labeled_i_pred():
    questions, proc = case_b_questions()
    report = monte_carlo_check(
        questions, proc, MIXED_STATE, window=2, strategy=WindowStrategy(k=2, labeled=True),
        n=5 * 10**4, seed=3,
    )
    assert abs(report.i_pred - 0.5) <= 3.0 * report.se_i_pred


def test_monte_carlo_slow_mixing_chain_within_three_sigma():
    # |lambda*| = 0.9777: a fixed 64-step burn-in started the windows short of
    # the long run and missed the exact i_pred by 15 sigma
    theta = 0.3
    questions, proc = two_questions_at_angle(theta)
    scenario = parse_scenario(
        {
            "name": "slow_mixing",
            "questions": [{"label": q.label, "axis": q.axis.tolist()} for q in questions],
            "process": {"type": "iid", "weights": [0.5, 0.5]},
            "initial_state": [0.0, 0.0, 1.0],
            "window": 2,
            "strategy": {"type": "window", "k": 2, "labeled": False},
        }
    )
    assert mixing_burn_in(questions, proc) == 612
    exact = analyze(scenario).report
    report = monte_carlo_check(
        questions, proc, scenario.initial_state, window=2, strategy=scenario.strategy,
        n=10**5, seed=0,
    )
    assert abs(report.i_pred - exact.i_pred) <= 3.0 * report.se_i_pred


def test_burn_in_is_the_floor_on_fast_and_periodic_chains():
    questions, proc = case_b_questions()
    assert mixing_burn_in(questions, proc) == 64  # |lambda*| = 0.5
    assert mixing_burn_in(*single_question()) == 64  # reducible: no mode below 1
    periodic = PeriodicProcess(labels=("Qz", "Qx"), sequence=("Qz", "Qx"))
    assert mixing_burn_in(questions, periodic) == 64


def test_sample_windows_default_burn_in_is_the_derived_one():
    questions, proc = two_questions_at_angle(0.3)
    start = BlochVector(0, 0, 1)
    derived = sample_windows(questions, proc, start, window=1, n=2000, seed=5)
    explicit = sample_windows(questions, proc, start, window=1, n=2000, seed=5, burn_in=612)
    assert derived.shape == (2000, 4)
    assert np.array_equal(derived, explicit)


def test_monte_carlo_error_scales_with_sample_size():
    questions, proc = case_b_questions()
    small = monte_carlo_check(
        questions, proc, MIXED_STATE, window=1, strategy=WindowStrategy(k=1, labeled=True),
        n=10**4, seed=4,
    )
    large = monte_carlo_check(
        questions, proc, MIXED_STATE, window=1, strategy=WindowStrategy(k=1, labeled=True),
        n=16 * 10**4, seed=4,
    )
    ratio = small.se_i_pred / large.se_i_pred
    assert 2.0 < ratio < 8.0  # 1/sqrt(N): a 16x sample cuts the error about 4x


def test_monte_carlo_minimum_samples():
    questions, proc = case_b_questions()
    with pytest.raises(ValidationError):
        monte_carlo_check(
            questions, proc, MIXED_STATE, window=1, strategy=NothingStrategy(), n=10, seed=0
        )
