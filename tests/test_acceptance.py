"""Acceptance suite: the quantitative claims the package exists to reproduce.

Each test pins one criterion at its stated tolerance and prints a one-line
verdict (run with -s to see them).  The derived constants are frozen from
closed forms evaluated independently of the code paths under test.
"""

import math

import numpy as np
import pytest

from obsthermo import (
    BUNDLED_SCENARIOS,
    IIDProcess,
    MIXED_STATE,
    Question,
    WindowStrategy,
    analyze,
    apply_strategy,
    Chain,
    bundled_scenario,
    converged_tail,
    degeneracy_report,
    evaluate,
    exhaustive_best,
    history_future_joint,
    max_abs_deviation,
    memory_capacity_bits,
    monte_carlo_check,
    optimize_soft,
    predictive_cap_check,
    window_joint,
)
from obsthermo.optimize import OptimizerSettings
from obsthermo.workflows import optimize, scenario_window

from conftest import scenario_chain, two_questions_at_angle

# 1 - Hb(1/4), the unlabeled-record predictive information for orthogonal questions
IPRED_UNLABELED = 1.0 - (0.25 * math.log2(4.0) + 0.75 * math.log2(4.0 / 3.0))


def _report(criterion: int, text: str):
    print(f"[PASS] criterion {criterion:2d}: {text}")


def binary_entropy(p: float) -> float:
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def test_criterion_01_case_a_zero_bound(case_a):
    result = analyze(case_a)
    r = result.report
    assert abs(r.i_pred - 1.0) <= 1e-9
    assert abs(r.nostalgia) <= 1e-9
    assert abs(r.bound_bits) <= 1e-9
    _report(1, f"case A window(1): i_pred={r.i_pred}, nostalgia={r.nostalgia}, bound={r.bound_bits}")


def test_criterion_02_case_a_needs_two_memory_states(case_a):
    hf = history_future_joint(scenario_chain(case_a), k=1, labeled=True)
    best_m1 = exhaustive_best(hf, 1)
    best_m2 = exhaustive_best(hf, 2)
    assert best_m1.i_pred < 1.0 - 1e-9  # one state cannot hold the answer
    assert abs(best_m2.i_pred - 1.0) <= 1e-9
    _report(2, f"smallest M with i_pred=1 is 2 (M=1 gives {best_m1.i_pred}, M=2 gives {best_m2.i_pred})")


def test_criterion_03_case_b_labeled_half_bit(case_b_labeled):
    result = analyze(case_b_labeled)
    assert abs(result.report.i_pred - 0.5) <= 1e-9
    # the two-answer record needs four distinct memory states
    states = 2 ** memory_capacity_bits(WindowStrategy(k=2, labeled=False), case_b_labeled.labels)
    assert states == 4
    _report(3, f"case B labeled k=2: i_pred={result.report.i_pred}; 2-answer record needs {int(states)} states")


def test_criterion_04_best_case_schedule_one_bit(case_b_bestcase):
    result = analyze(case_b_bestcase)
    assert abs(result.report.i_pred - 1.0) <= 1e-9
    _report(4, f"markov-identity schedule: i_pred={result.report.i_pred}")


def test_criterion_05_case_b_unlabeled_less_information(case_b_unlabeled, case_b_labeled):
    unl = analyze(case_b_unlabeled).report
    lab = analyze(case_b_labeled).report
    assert abs(unl.i_pred - IPRED_UNLABELED) <= 1e-6
    assert unl.i_pred < lab.i_pred - 1e-6
    _report(5, f"unlabeled record: i_pred={unl.i_pred:.9f} < labeled {lab.i_pred}")


def test_criterion_06_predictive_cap_one_bit(case_a, case_b_labeled, case_b_unlabeled, angle_sweep):
    # the last (question, answer) pair is a sufficient statistic for the next
    # one, so the exhaustive search over the k=1 labeled view attains the true
    # maximum while staying inside the enumeration cap
    worst = 0.0
    for scenario in (case_a, case_b_labeled, case_b_unlabeled, angle_sweep):
        chain, window = scenario_window(scenario)
        hf = history_future_joint(chain, k=1, labeled=True)
        best = exhaustive_best(hf, hf.num_histories)
        assert best.i_pred <= 1.0 + 1e-10
        worst = max(worst, best.i_pred)
        strategies = [WindowStrategy(k=1, labeled=False), WindowStrategy(k=1, labeled=True)]
        check = predictive_cap_check(window, strategies, iid=True)
        assert check.asserted and check.max_i_pred <= 1.0 + 1e-10
    _report(6, f"exhaustive max i_pred over IID scenarios = {worst} <= 1 bit")


def test_criterion_07_longer_records_only_add_nostalgia(case_a):
    window = window_joint(scenario_window(case_a)[0], 3)
    nostalgia = []
    for k in (1, 2, 3):
        report = evaluate(apply_strategy(WindowStrategy(k=k, labeled=False), window))
        assert abs(report.i_pred - 1.0) <= 1e-9
        nostalgia.append(report.nostalgia)
    assert all(b >= a - 1e-9 for a, b in zip(nostalgia, nostalgia[1:]))
    _report(7, f"case A nostalgia(k=1,2,3) = {nostalgia}, i_pred pinned at 1 bit")


def test_criterion_08_degeneracy_at_beta_one(case_a):
    hf = history_future_joint(scenario_chain(case_a), k=1, labeled=True)
    point = optimize_soft(hf, 1.0, OptimizerSettings(memory_size=2, seed=11))
    assert point.converged and abs(point.objective) <= 1e-9
    members = degeneracy_report(hf, 2)
    constants = [d for d in members if not d.observer_like]
    predictors = [d for d in members if d.observer_like and abs(d.i_pred - 1.0) <= 1e-9]
    assert constants and predictors
    _report(
        8,
        f"beta=1 objective {point.objective}; degeneracy holds {len(constants)} constant "
        f"and {len(predictors)} fully predictive maps",
    )


def test_criterion_09_angle_sweep_closed_form():
    checked = []
    for theta in (0.0, math.pi / 6, math.pi / 3, math.pi / 2):
        questions, process = two_questions_at_angle(theta)
        kernel = Chain(questions, process, MIXED_STATE)
        window = window_joint(kernel, 1)
        report = evaluate(apply_strategy(WindowStrategy(k=1, labeled=True), window))
        expected = 1.0 - 0.5 * binary_entropy(math.cos(theta / 2.0) ** 2)
        assert abs(report.i_pred - expected) <= 1e-6, f"theta={theta}"
        checked.append((theta, report.i_pred))
    assert abs(checked[0][1] - 1.0) <= 1e-6
    assert abs(checked[-1][1] - 0.5) <= 1e-6
    _report(9, "i_pred(theta) = 1 - Hb(cos^2(theta/2))/2 at " + ", ".join(f"{t:.3f}" for t, _ in checked))


def test_criterion_10_oracle_equivalence_all_scenarios():
    worst = 0.0
    for name in BUNDLED_SCENARIOS:
        scenario = bundled_scenario(name)
        _, window = scenario_window(scenario)
        tail, _ = converged_tail(
            scenario.questions, scenario.process, scenario.initial_state, scenario.window
        )
        deviation = max_abs_deviation(window, tail)
        assert deviation <= 1e-10, name
        worst = max(worst, deviation)
    _report(10, f"chain vs brute-force tree: worst per-entry deviation {worst:.3e} <= 1e-10")


def test_criterion_11_soft_optimizer_certified():
    for name in BUNDLED_SCENARIOS:
        scenario = bundled_scenario(name)
        result = optimize(scenario)
        point = result.points[-1]
        assert point.beta == pytest.approx(8.0)
        assert point.converged, name
        assert result.exhaustive_reference is not None, name
        gap = abs(point.objective - result.exhaustive_reference.objective)
        assert gap <= 1e-6, f"{name}: gap {gap}"
    _report(11, "soft optimizer matches exhaustive optima at beta=8 on every bundled scenario")


def test_every_soft_row_is_within_criterion_11_of_the_deterministic_optimum_at_its_beta():
    # one-sided: a soft encoder may beat every hard map, never lose to one by more than 1e-6
    for name in BUNDLED_SCENARIOS:
        scenario = bundled_scenario(name)
        settings = scenario.optimizer
        hf = history_future_joint(scenario_chain(scenario), settings.history_k, settings.history_labeled)
        for point in optimize(scenario).points:
            reference = exhaustive_best(hf, settings.memory_size, beta=point.beta)
            gap = point.objective - reference.objective
            assert gap <= 1e-6, f"{name} at beta {point.beta}: soft row {gap} above"


def test_criterion_12_monte_carlo_consistency():
    n = 10**6
    for name in BUNDLED_SCENARIOS:
        scenario = bundled_scenario(name)
        result = analyze(scenario)
        exact = result.report
        mc = monte_carlo_check(result.chain, scenario.window, scenario.strategy, n=n, seed=2024)
        deviation = abs(mc.i_pred - exact.i_pred)
        assert deviation <= 3.0 * max(mc.se_i_pred, 1e-12), (
            f"{name}: |{mc.i_pred} - {exact.i_pred}| vs 3*{mc.se_i_pred}"
        )
    _report(12, f"Monte Carlo i_pred at N={n} within 3 sigma on every bundled scenario")
