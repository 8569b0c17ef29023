import dataclasses
import functools
import math

import numpy as np
import pytest

from obsthermo import (
    BUNDLED_SCENARIOS,
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
from obsthermo.strategy import assignment_from_map, harden, view_alphabet, view_index

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
        built.clear()
        workflows.optimize(dataclasses.replace(base, optimizer=settings))
        # the view's table, and a labeled view of k >= 2 pairs also its last-pair table
        views = [(k, labeled)] + [(1, True)] * (labeled and k > 1)
        assert [(hf.k, hf.labeled) for hf in built] == views
        for hf, (j, labeled_j) in zip(built, views):
            expected = grouped_view_table(full, j, labeled_j)
            assert hf.table.shape == expected.shape
            assert np.max(np.abs(hf.table - expected)) <= 1e-12


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


@pytest.mark.parametrize("k", [0, -1])
def test_a_kernel_view_of_fewer_than_one_pair_is_rejected_when_built(k):
    with pytest.raises(ValidationError, match=f"kernel strategy needs k >= 1 or None, got {k}"):
        KernelStrategy(assignment=np.ones((1, 1)), k=k)
    with pytest.raises(ValidationError, match=f"window strategy needs k >= 1, got {k}"):
        WindowStrategy(k=k)
    assert KernelStrategy(assignment=np.ones((1, 1)), k=None).k is None


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


def test_summary_names_a_record_only_for_one_hot_kernels():
    # a soft kernel holds less than its argmax map: case_a's beta = 1 frontier kernel
    # keeps about 0.0017 bits, not the 1 bit of the last-answer record
    noisy = KernelStrategy(assignment=np.array([[0.9, 0.1], [0.1, 0.9]]), k=1, labeled=False)
    assert strategy_summary(noisy, num_questions=2) == "kernel M=2 map=[0,1]"
    hard = KernelStrategy(assignment=assignment_from_map([0, 1], 2), k=1, labeled=False)
    assert strategy_summary(hard, num_questions=2) == "kernel M=2 ≍ window k=1 unlabeled"
    point = workflows.optimize(bundled_scenario("case_a")).points[0]
    assert point.beta == 1.0 and point.i_mem < 0.01
    assert "≍" not in strategy_summary(point.strategy, num_questions=1)


def test_summary_rejects_a_kernel_whose_rows_do_not_fit_its_view():
    # 4 rows fit a labeled k=1 view of two questions only: 6 views at K = 3, 2 at K = 1
    s = KernelStrategy(assignment=assignment_from_map(np.array([0, 1, 0, 1]), 2), k=1, labeled=True)
    for num_questions, views in ((3, 6), (1, 2)):
        with pytest.raises(ValidationError, match=f"has 4 rows but .* has {views} configurations"):
            strategy_summary(s, num_questions)


def test_summary_of_a_deep_last_pair_kernel_names_the_record():
    # a labeled k=6 view of two questions has 4^6 = 4,096 views; the map keeps the last pair
    pairs = np.indices((2, 2) * 6)[-2:]
    last_pair = view_index(pairs, 2, labeled=True).ravel()
    s = KernelStrategy(assignment=assignment_from_map(last_pair, 4), k=6, labeled=True)
    assert strategy_summary(s, num_questions=2) == "kernel M=4 ≍ window k=1 labeled"


@functools.lru_cache(maxsize=None)
def _reference_window_map_on_view(k_view, labeled_view, j, labeled_j, num_questions):
    """Deterministic map from a (k_view, labeled_view) history view onto the
    window-j record, built from the view's symbols."""
    if j > k_view or (labeled_j and not labeled_view):
        return None
    symbols = view_alphabet([str(i) for i in range(num_questions)], k_view, labeled_view)
    out = []
    for sym in symbols:
        tail = sym[-j:]
        if labeled_view and not labeled_j:
            tail = tuple(a for _, a in tail)
        out.append(tail)
    uniq = {s: i for i, s in enumerate(sorted(set(out), key=out.index))}
    return np.array([uniq[s] for s in out])


def _reference_same_partition(f, g) -> bool:
    return all(
        (f[i] == f[j]) == (g[i] == g[j]) for i in range(len(f)) for j in range(i + 1, len(f))
    )


def reference_summary(strategy, num_questions: int) -> str:
    """`strategy_summary` by symbol tuples and a comparison of every pair of views."""
    if isinstance(strategy, NothingStrategy):
        return "nothing (M=1)"
    if isinstance(strategy, WindowStrategy):
        kind = "labeled" if strategy.labeled else "unlabeled"
        m = (2 * num_questions if strategy.labeled else 2) ** strategy.k
        return f"window k={strategy.k} {kind} (M={m})"
    arr = strategy.assignment
    m = strategy.memory_size
    hard = harden(arr).tolist()
    one_hot = all(v in (0.0, 1.0) for v in arr.ravel().tolist())
    if strategy.k is not None and one_hot:
        for j in range(1, strategy.k + 1):
            for labeled_j in (False, True):
                cand = _reference_window_map_on_view(
                    strategy.k, strategy.labeled, j, labeled_j, num_questions
                )
                if cand is not None and _reference_same_partition(hard, cand.tolist()):
                    kind = "labeled" if labeled_j else "unlabeled"
                    return f"kernel M={m} ≍ window k={j} {kind}"
    cells = []
    for row in arr:
        top = np.flatnonzero(np.abs(row - row.max()) < 1e-12)
        cells.append("|".join(str(int(i)) for i in top))
    return f"kernel M={m} map=[{','.join(cells)}]"


#: (K, k, labeled) of views of at most 256 configurations: labeled ones of K <= 3
#: questions, K = 1 up to k = 4, and unlabeled ones, alike for every K
SUMMARY_VIEWS = [(K, k, True) for K in (1, 2, 3) for k in range(1, 5) if (2 * K) ** k <= 256]
SUMMARY_VIEWS += [(2, k, False) for k in range(1, 9)]


def _seeded_kernels(K, k, labeled, rng):
    """Random maps, relabelled and merged window records of every j, and soft mixtures."""
    views = (2 * K if labeled else 2) ** k
    maps = [rng.integers(0, m, views) for m in (1, 2, 3, 4)]
    for j in range(1, k + 1):
        for labeled_j in (False, True) if labeled else (False,):
            record = _reference_window_map_on_view(k, labeled, j, labeled_j, K)
            size = record.max() + 1
            relabelled = rng.permutation(size)[record]
            maps.append(relabelled)
            if size > 1:
                maps.append(np.minimum(relabelled, size - 2))  # two cells merged
    for hard in maps:
        memory = int(hard.max()) + 1 + int(rng.integers(0, 2))
        one_hot = assignment_from_map(hard, memory)
        yield KernelStrategy(assignment=one_hot, k=k, labeled=labeled)
        soft = 0.5 * one_hot + 0.5 * rng.dirichlet(np.ones(memory), size=views)
        yield KernelStrategy(assignment=soft / soft.sum(axis=1, keepdims=True), k=k, labeled=labeled)
        tied = one_hot.copy()
        tied[::3] = 1 / memory  # every third row ties all cells
        yield KernelStrategy(assignment=tied, k=k, labeled=labeled)


def test_summary_matches_the_symbol_reference_on_windows_and_seeded_kernels():
    rng = np.random.default_rng(20261021)
    cases = [(NothingStrategy(), K) for K in (1, 2, 3)]
    cases += [
        (WindowStrategy(k=k, labeled=labeled), K)
        for K in (1, 2, 3)
        for k in (1, 2, 3)
        for labeled in (True, False)
    ]
    for K, k, labeled in SUMMARY_VIEWS:
        cases += [(s, K) for s in _seeded_kernels(K, k, labeled, rng)]
    cases.append((KernelStrategy(assignment=np.full((16, 2), 0.5), k=None, labeled=True), 2))
    windows = 0
    for strategy, K in cases:
        summary = strategy_summary(strategy, K)
        assert summary == reference_summary(strategy, K), (strategy, K)
        windows += "≍ window" in summary
    assert windows >= len(SUMMARY_VIEWS)  # every view names some record


def test_summary_matches_the_symbol_reference_on_the_bundled_frontiers():
    for name in BUNDLED_SCENARIOS:
        scenario = bundled_scenario(name)
        result = workflows.optimize(scenario)
        strategies = [p.strategy for p in result.points] + [result.exhaustive_reference.strategy]
        for strategy in strategies:
            K = len(scenario.labels)
            assert strategy_summary(strategy, K) == reference_summary(strategy, K), name


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

