import math

import numpy as np
import pytest

from obsthermo import (
    BOLTZMANN_J_PER_K,
    MIXED_STATE,
    NothingStrategy,
    ValidationError,
    WindowStrategy,
    apply_strategy,
    build_chain,
    evaluate,
    long_run_distribution,
    predictive_cap_check,
    window_joint,
)
from obsthermo.workflows import scenario_window

from conftest import case_b_questions, markov_identity_questions


@pytest.fixture(scope="module")
def case_b_window2():
    questions, proc = case_b_questions()
    kernel = build_chain(questions, proc)
    lr = long_run_distribution(kernel, MIXED_STATE)
    return window_joint(kernel, lr, 2)


def test_case_a_window1_zero_bound(case_a):
    _, _, window = scenario_window(case_a)
    applied = apply_strategy(WindowStrategy(k=1, labeled=False), window)
    report = evaluate(applied)
    assert report.i_mem == pytest.approx(1.0, abs=1e-12)
    assert report.i_pred == pytest.approx(1.0, abs=1e-12)
    assert report.bound_bits == 0.0


def test_nothing_strategy_zero_everything(case_b_window2):
    report = evaluate(apply_strategy(NothingStrategy(), case_b_window2))
    assert report.i_mem == 0.0
    assert report.i_pred == 0.0
    assert report.bound_bits == 0.0
    assert report.memory_capacity_bits == 0.0


def test_case_b_labeled_window2_values(case_b_window2):
    report = evaluate(apply_strategy(WindowStrategy(k=2, labeled=True), case_b_window2))
    assert report.i_pred == pytest.approx(0.5, abs=1e-12)
    assert report.i_mem == pytest.approx(3.5, abs=1e-12)
    assert report.nostalgia == pytest.approx(3.0, abs=1e-12)
    assert report.memory_capacity_bits == 4.0  # (2K)^2 = 16 states


def test_temperature_scaling(case_b_window2):
    applied = apply_strategy(WindowStrategy(k=2, labeled=True), case_b_window2)
    r300 = evaluate(applied, temperature_kelvin=300.0)
    r600 = evaluate(applied, temperature_kelvin=600.0)
    assert r300.bound_joules == pytest.approx(
        BOLTZMANN_J_PER_K * 300.0 * math.log(2.0) * 3.0, rel=1e-12
    )
    assert r600.bound_joules == pytest.approx(2.0 * r300.bound_joules, rel=1e-12)


def test_bound_joules_only_with_temperature(case_b_window2):
    applied = apply_strategy(WindowStrategy(k=1), case_b_window2)
    assert evaluate(applied).bound_joules is None
    assert evaluate(applied, temperature_kelvin=1.0).bound_joules is not None


def test_invalid_temperature(case_b_window2):
    applied = apply_strategy(WindowStrategy(k=1), case_b_window2)
    with pytest.raises(ValidationError):
        evaluate(applied, temperature_kelvin=0.0)
    with pytest.raises(ValidationError):
        evaluate(applied, temperature_kelvin=-4.0)


def test_missing_memory_variable_rejected(case_b_window2):
    with pytest.raises(ValidationError):
        evaluate(case_b_window2)


def test_cap_check_case_a(case_a):
    _, _, window = scenario_window(case_a)
    result = predictive_cap_check(
        window, [WindowStrategy(k=1, labeled=False), NothingStrategy()], iid=True
    )
    assert result.cap_bits == pytest.approx(1.0, abs=1e-12)
    assert result.max_i_pred == pytest.approx(1.0, abs=1e-12)  # cap met with equality
    assert result.asserted


def test_cap_check_case_b_all_window_strategies(case_b_window2):
    strategies = [
        WindowStrategy(k=1, labeled=False),
        WindowStrategy(k=1, labeled=True),
        WindowStrategy(k=2, labeled=False),
        WindowStrategy(k=2, labeled=True),
    ]
    result = predictive_cap_check(case_b_window2, strategies, iid=True)
    assert result.max_i_pred <= 0.5 + 1e-10
    assert result.cap_bits == pytest.approx(1.0, abs=1e-12)


def test_cap_check_markov_identity_reported_without_assertion():
    questions, proc = markov_identity_questions()
    kernel = build_chain(questions, proc)
    lr = long_run_distribution(kernel, MIXED_STATE)
    window = window_joint(kernel, lr, 2)
    result = predictive_cap_check(
        window,
        [WindowStrategy(k=2, labeled=False), WindowStrategy(k=1, labeled=False)],
        iid=False,
    )
    assert not result.asserted
    assert result.cap_bits == pytest.approx(1.0, abs=1e-12)
    # the unlabeled records achieve the answer cap exactly under this schedule
    assert result.max_i_pred == pytest.approx(1.0, abs=1e-12)


def test_case_a_longer_windows_only_add_nostalgia(case_a):
    # with a single repeating question the extra answers are copies, so
    # i_pred stays at 1 bit and the nostalgia never decreases with k
    kernel, lr, _ = scenario_window(case_a)
    window = window_joint(kernel, lr, 3)
    previous = -1.0
    for k in (1, 2, 3):
        report = evaluate(apply_strategy(WindowStrategy(k=k, labeled=False), window))
        assert report.i_pred == pytest.approx(1.0, abs=1e-9)
        assert report.nostalgia >= previous - 1e-9
        previous = report.nostalgia
