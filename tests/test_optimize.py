import dataclasses
import inspect
import math

import numpy as np
import pytest

from obsthermo import (
    MIXED_STATE,
    OptimizerError,
    OptimizerSettings,
    SizeCapError,
    ValidationError,
    Chain,
    bundled_scenario,
    bundled_scenario_path,
    degeneracy_report,
    exhaustive_best,
    history_future_joint,
    optimize_soft,
    sweep_beta,
    window_joint,
    workflows,
)
import obsthermo
import obsthermo.optimize as optmod
from obsthermo.cli import main as cli_main
from obsthermo.optimize import (
    HistoryFutureJoint,
    _initial_encoders,
    _point_from_encoder,
    _run_fixed_points,
)
from obsthermo.strategy import assignment_from_map, harden

from conftest import case_b_questions, enumerate_deterministic, scenario_chain, three_questions_markov


IPRED_UNLABELED = 0.18872187554086717  # 1 - Hb(1/4)


def test_the_package_attribute_optimize_is_the_submodule():
    # the workflow lives in obsthermo.workflows, so it no longer shadows the module
    assert obsthermo.optimize is optmod and inspect.ismodule(optmod)


@pytest.fixture(scope="module")
def case_a_hf(case_a):
    return history_future_joint(scenario_chain(case_a), k=1, labeled=True)


@pytest.fixture(scope="module")
def case_b_hf_labeled():
    questions, proc = case_b_questions()
    return history_future_joint(Chain(questions, proc, MIXED_STATE), k=1, labeled=True)


@pytest.fixture(scope="module")
def case_b_hf_unlabeled():
    questions, proc = case_b_questions()
    return history_future_joint(Chain(questions, proc, MIXED_STATE), k=1, labeled=False)


def settings(m, seed=0):
    return OptimizerSettings(memory_size=m, seed=seed)


def test_history_future_shapes(case_b_hf_labeled, case_b_hf_unlabeled):
    assert case_b_hf_labeled.table.shape == (4, 4)
    assert case_b_hf_unlabeled.table.shape == (2, 4)
    assert case_b_hf_labeled.table.sum() == pytest.approx(1.0, abs=1e-12)


def test_beta_one_degeneracy_reaches_zero(case_a_hf, case_b_hf_labeled):
    for hf in (case_a_hf, case_b_hf_labeled):
        point = optimize_soft(hf, 1.0, settings(2))
        assert point.converged
        assert abs(point.objective) <= 1e-9


def test_case_a_beta4_hardens_to_last_answer(case_a_hf):
    point = optimize_soft(case_a_hf, 4.0, settings(2, seed=5))
    assert point.i_mem == pytest.approx(1.0, abs=1e-6)
    assert point.i_pred == pytest.approx(1.0, abs=1e-6)
    assert point.nostalgia == pytest.approx(0.0, abs=1e-6)
    reference = exhaustive_best(case_a_hf, 2, beta=4.0)
    assert point.objective == pytest.approx(reference.objective, abs=1e-9)
    # hardened encoder separates the two histories like the last-answer map
    hard = harden(point.strategy.assignment)
    assert hard[0] != hard[1]


def test_memory_size_one_is_trivial(case_b_hf_labeled):
    for beta in (1.0, 4.0, 16.0):
        point = optimize_soft(case_b_hf_labeled, beta, settings(1))
        assert point.i_mem == 0.0
        assert point.i_pred == 0.0


def test_beta_below_one_rejected(case_a_hf):
    with pytest.raises(ValidationError, match="beta must be >= 1"):
        optimize_soft(case_a_hf, 0.5, settings(2))
    with pytest.raises(ValidationError, match="beta must be >= 1"):
        optimize_soft(case_a_hf, np.nextafter(1.0, 0.0), settings(2))


def test_sweep_i_pred_monotone_and_saturates(case_b_hf_labeled, monkeypatch):
    monkeypatch.setattr(optmod, "BETAS", np.geomspace(1.0, 16.0, 9))
    points = sweep_beta(case_b_hf_labeled, settings(4, seed=3))
    assert [p.beta for p in points] == np.geomspace(1.0, 16.0, 9).tolist()
    ipreds = [p.i_pred for p in points]
    for a, b in zip(ipreds, ipreds[1:]):
        assert b >= a - 1e-6
    assert ipreds[-1] == pytest.approx(0.5, abs=1e-6)  # saturation at the labeled optimum
    assert points[0].objective <= 1e-9  # degeneracy endpoint


def test_sweep_case_a_saturates_at_one_bit(case_a_hf):
    points = sweep_beta(case_a_hf, settings(2, seed=1))
    assert points[-1].i_pred == pytest.approx(1.0, abs=1e-6)


def test_exhaustive_max_i_pred_labeled(case_b_hf_labeled):
    best = exhaustive_best(case_b_hf_labeled, 4)
    assert best.i_pred == pytest.approx(0.5, abs=1e-12)
    assert best.nostalgia == pytest.approx(1.5, abs=1e-12)
    # identity map up to relabeling: all four histories separated
    hard = harden(best.strategy.assignment)
    assert len(set(hard.tolist())) == 4


def test_exhaustive_max_i_pred_unlabeled(case_b_hf_unlabeled):
    best = exhaustive_best(case_b_hf_unlabeled, 2)
    assert best.i_pred == pytest.approx(IPRED_UNLABELED, abs=1e-12)
    hard = harden(best.strategy.assignment)
    assert hard[0] != hard[1]  # identity on the last answer


def test_exhaustive_memory_one_is_nothing(case_b_hf_labeled):
    best = exhaustive_best(case_b_hf_labeled, 1)
    assert best.i_mem == 0.0 and best.i_pred == 0.0 and best.nostalgia == 0.0


@pytest.mark.parametrize("map_block", [4096, 2])
def test_exhaustive_ties_go_to_the_earliest_map(case_a_hf, monkeypatch, map_block):
    # the identity (0, 1) and the swap (1, 0) tie; a block of 2 maps puts them in different blocks
    monkeypatch.setattr(optmod, "_MAP_BLOCK", map_block)
    for beta in (None, 8.0):
        best = exhaustive_best(case_a_hf, 2, beta=beta)
        assert harden(best.strategy.assignment).tolist() == [0, 1]
        assert best.beta == beta


def test_degeneracy_case_a_lists_both_kinds(case_a_hf):
    report = degeneracy_report(case_a_hf, 2)
    assert len(report) == 4  # both constants, identity, and the swap
    observers = [d for d in report if d.observer_like]
    blind = [d for d in report if not d.observer_like]
    assert len(observers) == 2 and len(blind) == 2
    assert all(d.i_pred == pytest.approx(1.0, abs=1e-12) for d in observers)
    assert all(d.i_pred == 0.0 for d in blind)


def test_degeneracy_case_b_unlabeled_only_constants(case_b_hf_unlabeled):
    report = degeneracy_report(case_b_hf_unlabeled, 2)
    assert len(report) == 2
    assert all(not d.observer_like for d in report)
    # the identity map keeps nostalgia 1 - 0.1887 = 0.8113 > 0, so it is absent
    assert all(len(set(d.map_indices)) == 1 for d in report)


def test_degeneracy_memory_one(case_b_hf_labeled):
    report = degeneracy_report(case_b_hf_labeled, 1)
    assert len(report) == 1
    assert report[0].map_indices == (0, 0, 0, 0)


def test_soft_never_beats_exhaustive_by_more_than_tolerance(case_b_hf_labeled):
    point = optimize_soft(case_b_hf_labeled, 8.0, settings(4, seed=2))
    reference = exhaustive_best(case_b_hf_labeled, 4, beta=8.0)
    assert point.objective <= reference.objective + 1e-6


def test_unlabeled_view_admits_genuinely_soft_optimum(case_b_hf_unlabeled):
    # at beta = 8 the best stochastic encoder on the 2-state history strictly
    # beats every deterministic map; the dominance inequality still holds
    point = optimize_soft(case_b_hf_unlabeled, 8.0, settings(2, seed=4))
    reference = exhaustive_best(case_b_hf_unlabeled, 2, beta=8.0)
    assert point.objective <= reference.objective + 1e-6
    assert point.objective < reference.objective - 1e-3
    assert 0.0 < point.i_pred < IPRED_UNLABELED


def test_hardening_consistency(case_a_hf):
    # a soft solution that is essentially deterministic keeps its i_pred when
    # hardened and re-evaluated exactly
    from obsthermo.optimize import _point_from_encoder
    from obsthermo.strategy import assignment_from_map

    point = optimize_soft(case_a_hf, 8.0, settings(2, seed=6))
    enc = point.strategy.assignment
    assert np.max(np.abs(enc - np.round(enc))) < 1e-8  # effectively deterministic
    hard_enc = assignment_from_map(harden(enc), enc.shape[1])
    hard_point = _point_from_encoder(case_a_hf, hard_enc, 8.0, True, 0)
    assert abs(hard_point.i_pred - point.i_pred) < 1e-6


def test_warm_start_is_used(case_b_hf_labeled, monkeypatch):
    # one seeded restart, cut short: each beta past the first still does at least
    # as well as the point before it, its warm start, whose objective can only fall
    monkeypatch.setattr(optmod, "RESTARTS", 1)
    monkeypatch.setattr(optmod, "MAX_ITERATIONS", 50)
    points = sweep_beta(case_b_hf_labeled, settings(4, seed=9))
    for before, point in zip(points, points[1:]):
        enc = before.strategy.assignment
        warm = _point_from_encoder(case_b_hf_labeled, enc, point.beta, True, 0)
        assert point.objective <= warm.objective + 1e-9


def test_descent_holds_on_random_joints():
    # hostile random tables: descent is asserted inside the iteration, so any
    # violation raises; data processing must hold at every returned point
    from obsthermo.optimize import HistoryFutureJoint

    rng = np.random.default_rng(11)
    for trial in range(25):
        t = rng.dirichlet(np.ones(12)).reshape(3, 4)
        hf = HistoryFutureJoint(table=t, k=1, labeled=False)
        for beta in (1.0, 2.0, 8.0):
            point = optimize_soft(hf, beta, settings(2, seed=trial))
            assert point.i_pred <= point.i_mem + 1e-10


# (histories H, memory M): M = 1, 3 and 5 give blocks of other than 4096 maps,
# and (13, 2) gives two blocks that share the leading history
SCAN_SHAPES = ((2, 1), (1, 3), (3, 2), (5, 3), (4, 5), (13, 2))


def random_hf(n_hist, seed, n_future=4):
    table = np.random.default_rng(seed).dirichlet(np.ones(n_hist * n_future))
    return HistoryFutureJoint(table=table.reshape(n_hist, n_future), k=1, labeled=False)


def brute_force_points(hf, m):
    """(map, i_mem, i_pred) of every deterministic map, in enumeration order."""
    out = []
    for map_indices in enumerate_deterministic(hf.num_histories, m):
        point = _point_from_encoder(hf, assignment_from_map(map_indices, m), None, True, 0)
        out.append((tuple(map_indices.tolist()), point.i_mem, point.i_pred))
    return out


@pytest.mark.parametrize("n_hist,m", SCAN_SHAPES)
def test_exhaustive_best_matches_brute_force(n_hist, m):
    hf = random_hf(n_hist, seed=n_hist * 10 + m)
    brute = brute_force_points(hf, m)
    values = {mp: (i_mem, i_pred) for mp, i_mem, i_pred in brute}
    cases = [
        ({"beta": 1.0}, lambda i_mem, i_pred: i_mem - i_pred),
        ({"beta": 3.7}, lambda i_mem, i_pred: i_mem - 3.7 * i_pred),
        ({}, lambda i_mem, i_pred: -i_pred),
    ]
    for kwargs, score in cases:
        best = exhaustive_best(hf, m, **kwargs)
        reference = min(score(i_mem, i_pred) for _, i_mem, i_pred in brute)
        chosen = tuple(harden(best.strategy.assignment).tolist())
        assert np.array_equal(best.strategy.assignment, assignment_from_map(chosen, m))
        i_mem, i_pred = values[chosen]
        assert best.i_mem == pytest.approx(i_mem, abs=1e-12)
        assert best.i_pred == pytest.approx(i_pred, abs=1e-12)
        assert score(best.i_mem, best.i_pred) == pytest.approx(reference, abs=1e-12)


@pytest.mark.parametrize("n_hist,m", SCAN_SHAPES)
def test_degeneracy_report_matches_brute_force_in_enumeration_order(n_hist, m, monkeypatch):
    hf = random_hf(n_hist, seed=n_hist * 10 + m + 1)
    brute = brute_force_points(hf, m)
    nostalgia = sorted(i_mem - i_pred for _, i_mem, i_pred in brute)
    # a tolerance in the middle of a clear gap, so rounding decides no membership
    j = len(nostalgia) // 3
    while j + 1 < len(nostalgia) and nostalgia[j + 1] - nostalgia[j] < 1e-6:
        j += 1
    tol = nostalgia[j] + 0.5 * (nostalgia[j + 1] - nostalgia[j]) if j + 1 < len(nostalgia) else 1e-9
    expected = [(mp, i_mem, i_pred) for mp, i_mem, i_pred in brute if i_mem - i_pred <= tol]
    constants = [d.map_indices for d in degeneracy_report(hf, m) if len(set(d.map_indices)) == 1]
    assert constants == [(c,) * n_hist for c in range(m)]
    monkeypatch.setattr(optmod, "DEGENERACY_TOL", tol)
    report = degeneracy_report(hf, m)
    assert [d.map_indices for d in report] == [mp for mp, _, _ in expected]
    for d, (_, i_mem, i_pred) in zip(report, expected):
        assert d.i_mem == pytest.approx(i_mem, abs=1e-12)
        assert d.i_pred == pytest.approx(i_pred, abs=1e-12)
        assert d.nostalgia == pytest.approx(max(0.0, i_mem - i_pred), abs=1e-12)
        assert d.observer_like == (d.i_pred > 1e-9)


@pytest.mark.parametrize("n_hist,m", SCAN_SHAPES)
def test_map_scan_over_cap_points_to_soft_optimizer(n_hist, m, monkeypatch):
    hf = random_hf(n_hist, seed=0)
    monkeypatch.setattr(optmod, "ENUMERATION_CAP", m**n_hist - 1)
    over = rf"{m**n_hist} deterministic maps exceed ENUMERATION_CAP = {m**n_hist - 1}; use the soft optimizer"
    with pytest.raises(SizeCapError, match=over):
        exhaustive_best(hf, m)
    with pytest.raises(SizeCapError, match=over):
        degeneracy_report(hf, m)


def test_optimize_skips_the_map_scan_over_the_cap(monkeypatch):
    scenario = bundled_scenario("case_a")  # 2**2 maps: H = 2, M = 2
    result = workflows.optimize(scenario)
    assert result.degeneracy is not None and result.exhaustive_reference is not None
    monkeypatch.setattr(optmod, "ENUMERATION_CAP", 3)
    over = workflows.optimize(scenario)
    assert over.degeneracy is None and over.exhaustive_reference is None
    assert [p.objective for p in over.points] == [p.objective for p in result.points]


def test_optimize_reads_an_unlabeled_view_deeper_than_any_window():
    # K = 3 and k = w = 12: a window would need 6**13 entries, the unlabeled view has 2**12 rows
    questions, process = three_questions_markov()
    settings = OptimizerSettings(memory_size=2, history_k=12, history_labeled=False)
    scenario = dataclasses.replace(
        bundled_scenario("case_b_unlabeled"),
        questions=questions,
        process=process,
        window=12,
        optimizer=settings,
    )
    with pytest.raises(SizeCapError):
        window_joint(scenario_chain(scenario), 12)
    result = workflows.optimize(scenario)
    assert [p.beta for p in result.points] == [float(b) for b in optmod.BETAS]
    assert result.degeneracy is None and result.exhaustive_reference is None  # 2**4096 maps
    for point in result.points:
        assert point.strategy.assignment.shape == (2**12, 2)
        assert point.strategy.k == 12 and not point.strategy.labeled
        assert 0.0 <= point.i_pred <= point.i_mem + 1e-9


def starts_with_warm(hf, m, seed, warm):
    """The stack optimize_soft runs: 8 seeded restarts, then one warm start."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    return np.concatenate([_initial_encoders(hf.num_histories, m, 8, rng), warm[None]])


def batch_cases(case_b_unlabeled):
    opt = case_b_unlabeled.optimizer
    hf = history_future_joint(scenario_chain(case_b_unlabeled), opt.history_k, opt.history_labeled)
    # beta = 4 is the critical beta of case_b_unlabeled: restarts stop after
    # very different iteration counts there
    warm = exhaustive_best(hf, opt.memory_size, beta=4.0).strategy.assignment
    cases = [(hf, 4.0, starts_with_warm(hf, opt.memory_size, opt.seed, warm), opt)]
    for seed, (n_hist, m, beta) in enumerate(((3, 2, 2.0), (6, 3, 4.0), (9, 4, 8.0))):
        hf = random_hf(n_hist, seed=100 + seed)
        warm = np.random.default_rng(seed).dirichlet(np.ones(m), size=n_hist)
        cases.append((hf, beta, starts_with_warm(hf, m, seed, warm), settings(m, seed=seed)))
    return cases


def test_batched_restarts_equal_each_restart_alone(case_b_unlabeled):
    for hf, beta, starts, _ in batch_cases(case_b_unlabeled):
        # one beta for the whole stack, then a beta per restart: the case's own beta,
        # the critical beta 4 of case_b_unlabeled and the ends of the schedule
        mixed = np.resize([beta, 4.0, 1.0, optmod.BETAS[-1], optmod.BETAS[2]], len(starts))
        for betas in (np.full(len(starts), beta), mixed):
            encs, objectives, converged, iterations = _run_fixed_points(hf, starts, betas)
            assert encs.shape == starts.shape
            assert len(set(iterations.tolist())) > 1  # restarts leave the loop at different times
            for r in range(len(starts)):
                enc1, obj1, conv1, its1 = _run_fixed_points(hf, starts[r : r + 1], betas[r : r + 1])
                assert enc1[0].tobytes() == encs[r].tobytes()
                assert obj1[0].tobytes() == objectives[r].tobytes()
                assert conv1[0] == converged[r]
                assert its1[0] == iterations[r]


def test_iteration_cap_reports_unfinished_restarts(case_b_unlabeled, monkeypatch):
    monkeypatch.setattr(optmod, "MAX_ITERATIONS", 3)
    for index, (hf, beta, starts, opt) in enumerate(batch_cases(case_b_unlabeled)):
        _, _, converged, iterations = _run_fixed_points(hf, starts, np.full(len(starts), beta))
        assert np.all(iterations[~converged] == 3)
        assert np.all((iterations[converged] >= 1) & (iterations[converged] <= 3))
        if index == 0:
            # at the critical beta some restarts are still far from settled
            assert not converged.all()
            point = optimize_soft(hf, beta, opt)
            assert not point.converged and point.iterations == 3


def test_descent_violation_is_a_typed_error(tmp_path, monkeypatch, capsys, case_a_hf):
    # a negative slack makes every step count as a rise in the objective
    monkeypatch.setattr(optmod, "_DESCENT_SLACK", -1.0)
    with pytest.raises(OptimizerError, match="restart 0: .* monotone descent violated"):
        optimize_soft(case_a_hf, 4.0, settings(2))
    rc = cli_main(["optimize", "--config", bundled_scenario_path("case_a"), "--out", str(tmp_path)])
    assert rc == 2
    assert "optimizer failed: " in capsys.readouterr().err


def test_constant_maps_report_positive_zero_information(case_a):
    # the scan clamps as the soft optimizer does: -0.0 reads +0.0 in *_degeneracy.json
    settings = case_a.optimizer
    hf = history_future_joint(scenario_chain(case_a), settings.history_k, settings.history_labeled)
    constant = [d for d in degeneracy_report(hf, settings.memory_size) if len(set(d.map_indices)) == 1]
    assert len(constant) == 2
    for d in constant:
        assert d.i_mem == 0.0 and math.copysign(1.0, d.i_mem) == 1.0
        assert d.i_pred == 0.0 and math.copysign(1.0, d.i_pred) == 1.0
