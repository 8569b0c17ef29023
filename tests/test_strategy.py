import dataclasses
import math

import numpy as np
import pytest

from obsthermo import (
    BlochVector,
    KernelStrategy,
    MIXED_STATE,
    MarkovProcess,
    NothingStrategy,
    OptimizerSettings,
    Question,
    SizeCapError,
    ValidationError,
    WindowStrategy,
    analyze,
    apply_strategy,
    Chain,
    bundled_scenario,
    conditional_mutual_information,
    entropy,
    evaluate,
    exhaustive_best,
    memory_capacity_bits,
    mutual_information,
    strategy_summary,
    window_joint,
    workflows,
)
import obsthermo.optimize as optmod
from obsthermo.chain import FUTURE_PAIR
from obsthermo.joint import JointDistribution
from obsthermo.optimize import HistoryFutureJoint, history_future_joint
from obsthermo.strategy import assignment_from_map, harden

from conftest import (
    case_b_questions,
    enumerate_deterministic,
    grouped_view_table,
    two_questions_at_angle,
)


H_CASE_B_PAIR = 3.0 - 0.75 * math.log2(3.0)


@pytest.fixture(scope="module")
def case_b_window2():
    questions, proc = case_b_questions()
    kernel = Chain(questions, proc, MIXED_STATE)
    return window_joint(kernel, 2)


@pytest.fixture(scope="module")
def case_b_window3():
    questions, proc = case_b_questions()
    kernel = Chain(questions, proc, MIXED_STATE)
    return window_joint(kernel, 3)


def test_nothing_strategy_carries_no_information(case_b_window2):
    applied = apply_strategy(NothingStrategy(), case_b_window2)
    assert mutual_information(applied, ["m"], ["q+1", "a+1"]) == 0.0
    assert mutual_information(applied, ["m"], ["a0"]) == 0.0


def test_case_a_window1_memory_is_one_bit():
    from obsthermo import IIDProcess, Question

    questions = (Question(label="Qz", axis=np.array([0.0, 0.0, 1.0])),)
    proc = IIDProcess(labels=("Qz",), weights=np.array([1.0]))
    kernel = Chain(questions, proc, MIXED_STATE)
    w = window_joint(kernel, 1)
    applied = apply_strategy(WindowStrategy(k=1, labeled=False), w)
    assert entropy(applied, ["m"]) == pytest.approx(1.0, abs=1e-12)


def test_case_b_unlabeled_window2_memory_entropy(case_b_window2):
    applied = apply_strategy(WindowStrategy(k=2, labeled=False), case_b_window2)
    assert entropy(applied, ["m"]) == pytest.approx(H_CASE_B_PAIR, abs=1e-12)


@pytest.mark.parametrize(
    "strategy",
    [
        NothingStrategy(),
        WindowStrategy(k=1, labeled=False),
        WindowStrategy(k=1, labeled=True),
        WindowStrategy(k=2, labeled=True),
        KernelStrategy(assignment=np.array([[0.7, 0.3], [0.2, 0.8]]), k=1, labeled=False),
    ],
)
def test_memory_is_a_function_of_the_past_only(case_b_window2, strategy):
    applied = apply_strategy(strategy, case_b_window2)
    history = [n for n in case_b_window2.names if n not in ("q+1", "a+1")]
    assert conditional_mutual_information(applied, ["m"], ["q+1", "a+1"], history) < 1e-10


@pytest.mark.parametrize(
    "strategy",
    [
        WindowStrategy(k=1, labeled=True),
        WindowStrategy(k=2, labeled=False),
        KernelStrategy(assignment=np.array([[0.9, 0.1], [0.1, 0.9]]), k=1, labeled=False),
    ],
)
def test_data_processing_nostalgia_nonnegative(case_b_window2, strategy):
    applied = apply_strategy(strategy, case_b_window2)
    history = [n for n in case_b_window2.names if n not in ("q+1", "a+1")]
    i_mem = mutual_information(applied, ["m"], history)
    i_pred = mutual_information(applied, ["m"], ["q+1", "a+1"])
    assert i_mem >= i_pred - 1e-10


def test_lookback_beyond_k_is_irrelevant(case_b_window2, case_b_window3):
    for labeled in (True, False):
        s = WindowStrategy(k=1, labeled=labeled)
        a2 = apply_strategy(s, case_b_window2)
        a3 = apply_strategy(s, case_b_window3)
        h2 = [n for n in case_b_window2.names if n not in ("q+1", "a+1")]
        h3 = [n for n in case_b_window3.names if n not in ("q+1", "a+1")]
        assert mutual_information(a2, ["m"], h2) == pytest.approx(
            mutual_information(a3, ["m"], h3), abs=1e-10
        )
        assert mutual_information(a2, ["m"], ["q+1", "a+1"]) == pytest.approx(
            mutual_information(a3, ["m"], ["q+1", "a+1"]), abs=1e-10
        )


WIDE_W = 4
WIDE_STRATEGIES = [
    *(WindowStrategy(k=k, labeled=labeled) for k in (1, 2) for labeled in (True, False)),
    NothingStrategy(),
    KernelStrategy(
        assignment=np.random.default_rng(3).dirichlet(np.ones(3), size=4**WIDE_W), k=None
    ),
]


@pytest.mark.parametrize(
    "strategy", WIDE_STRATEGIES, ids=lambda s: repr(s).split("(assignment")[0]
)
def test_analyze_on_its_view_matches_full_window(strategy):
    scenario = dataclasses.replace(
        bundled_scenario("case_b_labeled"), window=WIDE_W, strategy=strategy
    )
    result = analyze(scenario)
    full = apply_strategy(strategy, result.window)
    expected = evaluate(full)
    assert result.report.i_mem == pytest.approx(expected.i_mem, abs=1e-12)
    assert result.report.i_pred == pytest.approx(expected.i_pred, abs=1e-12)

    memory_size = len(full.alphabet("m"))
    k = WIDE_W if isinstance(strategy, KernelStrategy) else getattr(strategy, "k", 1)
    assert result.applied.table.size == memory_size * 4 ** (k + 1)
    pinned = ["m", "q+1", "a+1"]
    assert np.max(
        np.abs(result.applied.marginal(pinned).table - full.marginal(pinned).table)
    ) <= 1e-12


def _alternating_scenario():
    process = MarkovProcess(
        labels=("Qz", "Qx"), transition=np.array([[0.0, 1.0], [1.0, 0.0]]), initial=np.array([1.0, 0.0])
    )
    return dataclasses.replace(
        bundled_scenario("case_b_labeled"),
        process=process,
        initial_state=BlochVector(0, 0, 1),
    )


def _slow_scenario():
    questions, process = two_questions_at_angle(0.05)
    return dataclasses.replace(
        bundled_scenario("case_b_labeled"),
        questions=questions,
        process=process,
        initial_state=BlochVector(0, 0, 1),
    )


def _three_question_markov_scenario():
    questions, _ = case_b_questions()
    questions += (Question(label="Qy", axis=np.array([0.0, 0.6, 0.8])),)
    process = MarkovProcess(
        labels=("Qz", "Qx", "Qy"),
        transition=np.array([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.4, 0.0, 0.6]]),
        initial=np.array([0.2, 0.5, 0.3]),
    )
    return dataclasses.replace(
        bundled_scenario("case_b_labeled"),
        questions=questions,
        process=process,
        initial_state=BlochVector(0.3, -0.2, 0.5),
    )


# chains where the k-window equals the w-window's marginal only because the
# long run is invariant under the kernel: reducible, periodic (Cesaro), slow
AGREEMENT_CASES = {
    "case_a": lambda: bundled_scenario("case_a"),
    "case_b_bestcase": lambda: bundled_scenario("case_b_bestcase"),
    "alternating": _alternating_scenario,
    "theta_0.05_from_z": _slow_scenario,
    "three_question_markov": _three_question_markov_scenario,
}
AGREEMENT_W = 3
AGREEMENT_VIEWS = [(1, True), (2, False), (2, True)]


@pytest.mark.parametrize("name", AGREEMENT_CASES)
def test_k_window_routes_match_the_full_window(name, monkeypatch):
    base = dataclasses.replace(AGREEMENT_CASES[name](), window=AGREEMENT_W)
    kernel = Chain(base.questions, base.process, base.initial_state)
    full = window_joint(kernel, AGREEMENT_W)
    assert kernel.long_run.cesaro == (name == "alternating")

    strategies = [NothingStrategy(), *(WindowStrategy(k=k, labeled=lab) for k, lab in AGREEMENT_VIEWS)]
    for strategy in strategies:
        scenario = dataclasses.replace(base, strategy=strategy, temperature_kelvin=300.0)
        result = analyze(scenario)
        expected = evaluate(apply_strategy(strategy, full), temperature_kelvin=300.0)
        for field, value in dataclasses.asdict(expected).items():
            assert getattr(result.report, field) == pytest.approx(value, rel=0, abs=1e-12), field

    built = []

    def spy(chain, k, labeled=True):
        hf = history_future_joint(chain, k, labeled)
        built.append(hf)
        return hf

    monkeypatch.setattr(workflows, "history_future_joint", spy)
    monkeypatch.setattr(optmod, "BETAS", np.array([1.0]))
    monkeypatch.setattr(optmod, "RESTARTS", 1)
    for k, labeled in AGREEMENT_VIEWS:
        settings = OptimizerSettings(memory_size=2, history_k=k, history_labeled=labeled)
        workflows.optimize(dataclasses.replace(base, optimizer=settings))
        expected = grouped_view_table(full, k, labeled)
        assert built[-1].table.shape == expected.shape
        assert np.max(np.abs(built[-1].table - expected)) <= 1e-12


def test_analyze_beyond_the_entry_cap_reports_its_view():
    # K = 2, w = 11: the full window has 4^12 > WINDOW_ENTRY_CAP entries
    big = dataclasses.replace(
        bundled_scenario("case_b_labeled"), window=11, strategy=WindowStrategy(k=2, labeled=True)
    )
    result = analyze(big)
    small = analyze(dataclasses.replace(big, window=2)).report
    for field, value in dataclasses.asdict(small).items():
        assert getattr(result.report, field) == pytest.approx(value, rel=0, abs=1e-12), field
    with pytest.raises(SizeCapError):
        result.window


def test_analysis_window_is_the_view_when_k_equals_w():
    scenario = dataclasses.replace(
        bundled_scenario("case_b_labeled"), window=2, strategy=WindowStrategy(k=2, labeled=False)
    )
    result = analyze(scenario)
    assert result.window is result.view


def test_window_k_exceeding_joint_window_rejected(case_b_window2):
    with pytest.raises(ValidationError):
        apply_strategy(WindowStrategy(k=3), case_b_window2)


def test_apply_strategy_takes_only_window_joints_in_window_order(case_b_window2):
    names, alphabets = case_b_window2.names, case_b_window2.alphabets
    perm = (2, 3, 0, 1, 4, 5)  # the two history pairs swapped
    permuted = JointDistribution(
        names=tuple(names[i] for i in perm),
        alphabets=tuple(alphabets[i] for i in perm),
        table=case_b_window2.table.transpose(perm),
    )
    for joint in (permuted, case_b_window2.marginal(FUTURE_PAIR), case_b_window2.marginal(names[1:])):
        with pytest.raises(ValidationError, match=r"window order: \('"):
            apply_strategy(WindowStrategy(k=1), joint)


def test_kernel_alphabet_mismatch_rejected(case_b_window2):
    bad = KernelStrategy(assignment=np.full((3, 2), 1 / 2), k=1, labeled=True)
    with pytest.raises(ValidationError):
        apply_strategy(bad, case_b_window2)


@pytest.mark.parametrize("shape", [(0, 2), (2, 0), (0, 0), (4,)])
def test_kernel_assignment_needs_rows_and_columns(shape):
    with pytest.raises(ValidationError, match=r"must be \(H, M\) with H, M >= 1"):
        KernelStrategy(assignment=np.zeros(shape))


def test_kernel_rows_must_be_stochastic():
    with pytest.raises(ValidationError):
        KernelStrategy(assignment=np.array([[0.5, 0.6], [0.5, 0.5]]))


def test_enumeration_counts():
    assert len(list(enumerate_deterministic(2, 2))) == 4
    assert len(list(enumerate_deterministic(4, 4))) == 256


def test_enumeration_cap():
    hf = HistoryFutureJoint(table=np.full((30, 4), 1 / 120), k=1, labeled=False)
    with pytest.raises(SizeCapError, match="soft optimizer"):
        exhaustive_best(hf, 4)  # 4^30 maps


def test_summary_nothing():
    assert strategy_summary(NothingStrategy(), num_questions=2) == "nothing (M=1)"


def test_summary_window_forms():
    for k, labeled, num_questions, memory in (
        (1, True, 2, "labeled (M=4)"),
        (2, True, 3, "labeled (M=36)"),
        (2, False, 3, "unlabeled (M=4)"),
        (2, True, 2, "labeled (M=16)"),
    ):
        summary = strategy_summary(WindowStrategy(k=k, labeled=labeled), num_questions)
        assert summary == f"window k={k} {memory}"


def test_summary_kernel_equivalent_to_last_answer_map():
    # on a labeled k=1 view with 2 questions, grouping by the answer bit is the
    # last-answer record
    assignment = assignment_from_map(np.array([0, 1, 0, 1]), 2)
    s = KernelStrategy(assignment=assignment, k=1, labeled=True)
    assert strategy_summary(s, num_questions=2) == "kernel M=2 ≍ window k=1 unlabeled"


def test_summary_kernel_ties_reported():
    s = KernelStrategy(assignment=np.array([[0.5, 0.5], [1.0, 0.0]]), k=1, labeled=False)
    text = strategy_summary(s, num_questions=1)
    assert "0|1" in text


def test_harden_breaks_ties_low():
    assert list(harden(np.array([[0.5, 0.5], [0.1, 0.9]]))) == [0, 1]


def test_memory_capacity():
    labels = ("Qz", "Qx")
    assert memory_capacity_bits(WindowStrategy(k=1, labeled=True), labels) == 2.0  # 2K = 4
    assert memory_capacity_bits(WindowStrategy(k=2, labeled=False), labels) == 2.0  # 2^2
    assert memory_capacity_bits(NothingStrategy(), labels) == 0.0

