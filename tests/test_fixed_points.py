"""The stacked SQUAREM loop pinned bit for bit against the same cycle run on one restart.

`reference_fixed_points` runs each restart of the stack on its own, one map
evaluation and one objective at a time: two updates x1 and x2, the SqS3 point
of x, x1 and x2, its update x3, and the cycle's end at x3 where its objective
does not rise above x's, else at x2.  It checks descent, stops and counts as
`optimize._run_fixed_points` documents, and of the restarts that rise it names
the one at the earliest map evaluation, then the first in the stack.  Each
restart carries its own beta, a scalar in every operation it enters.  It reads
the module's constants when called, so a monkeypatched stopping rule or
descent slack applies to both loops.  Both loops run with warnings as errors:
the steps the stacked loop takes past a restart's stop must stay as silent as
the one-restart loop.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings as hsettings, strategies as st

from obsthermo import (
    OptimizerError,
    OptimizerSettings,
    bundled_scenario,
    history_future_joint,
)
import obsthermo.optimize as optmod
from obsthermo.info import xlogx
from obsthermo.optimize import HistoryFutureJoint, _initial_encoders, _run_fixed_points
from obsthermo.process import _rng

from conftest import exhaustive_scenarios, scenario_chain
from test_optimize import batch_cases


BUNDLED = ("case_a", "case_b_labeled", "case_b_unlabeled", "case_b_bestcase", "angle_sweep")


def reference_fixed_points(
    hf: HistoryFutureJoint, encs: np.ndarray, betas: np.ndarray, first_restart: int = 0
) -> tuple:
    """(encoders, objectives, converged, iterations): each restart's SqS3 cycles on their own."""
    p_h = hf.history_marginal()
    cond = hf.future_conditionals()
    cond_self = xlogx(cond).sum(axis=1)[:, None]
    uniform = 1.0 / hf.table.shape[1]
    h_sum = xlogx(p_h).sum()
    x_sum = xlogx(hf.table.sum(axis=0)).sum()
    ln2 = np.log(2.0)

    def objective(e, beta):
        p_m = p_h @ e
        p_mx = e.transpose(0, 2, 1) @ hf.table
        m_sum = xlogx(p_m).sum(axis=1)
        i_mem = (xlogx(p_h[:, None] * e).reshape(len(e), -1).sum(axis=1) - h_sum - m_sum) / ln2
        i_pred = (xlogx(p_mx).reshape(len(e), -1).sum(axis=1) - m_sum - x_sum) / ln2
        i_mem = np.where(i_mem > 0.0, i_mem, 0.0)
        i_pred = np.where(i_pred > 0.0, i_pred, 0.0)
        return (i_mem - beta * i_pred)[0]

    def update(e, beta):
        p_m = p_h @ e
        p_mx = e.transpose(0, 2, 1) @ hf.table
        safe_pm = np.where(p_m > 0, p_m, 1.0)
        dec = p_mx / safe_pm[:, :, None]
        dec[p_m == 0] = uniform
        cross = cond @ np.log(np.maximum(dec, optmod._LOG_FLOOR)).transpose(0, 2, 1)
        logits = np.log(np.maximum(p_m, optmod._LOG_FLOOR))[:, None, :] - beta * (cond_self - cross)
        logits -= logits.max(axis=2, keepdims=True)
        enc = np.exp(logits)
        enc /= enc.sum(axis=2, keepdims=True)
        return enc

    def sqs3_point(x, x1, x2):
        r = x1 - x
        v = (x2 - x1) - r
        norm_r = np.sqrt(np.square(r).reshape(-1).sum())
        norm_v = np.sqrt(np.square(v).reshape(-1).sum())
        alpha = min(-(norm_r / norm_v), -1.0) if norm_v > 0.0 else -1.0
        point = np.maximum(x - alpha * (2.0 * r - alpha * v), 0.0)
        return point / point.sum(axis=2, keepdims=True)

    encs = np.array(encs, dtype=float)
    betas = np.asarray(betas, dtype=float)
    n = len(encs)
    objectives = np.array([objective(encs[i : i + 1], betas[i]) for i in range(n)])
    converged = np.zeros(n, dtype=bool)
    iterations = np.zeros(n, dtype=int)
    rises = []  # (map evaluation, restart index, error text) of each restart's first rise
    for i in range(n):
        beta = betas[i]
        restart = first_restart + int(np.count_nonzero(betas[:i] == beta))

        def rose(f, follows, evaluation) -> bool:
            """Record a rise of the objective from `follows` to f, if it is one."""
            rising = f > follows + optmod._DESCENT_SLACK * beta
            if rising:
                text = (
                    f"beta {float(beta)!r}, restart {restart}: objective increased from "
                    f"{float(follows)!r} to {float(f)!r} at map evaluation {evaluation}; "
                    "monotone descent violated"
                )
                rises.append((evaluation, i, text))
            return rising

        x, f, count = encs[i : i + 1], objectives[i], 0
        while count < optmod.MAX_ITERATIONS:
            x1 = update(x, beta)
            f1 = objective(x1, beta)
            count += 1
            if rose(f1, f, count):
                break
            if abs(f1 - f) <= optmod.TOLERANCE or count == optmod.MAX_ITERATIONS:
                x, f, converged[i] = x1, f1, abs(f1 - f) <= optmod.TOLERANCE
                break
            x2 = update(x1, beta)
            f2 = objective(x2, beta)
            count += 1
            if rose(f2, f1, count):
                break
            if abs(f2 - f1) <= optmod.TOLERANCE or count == optmod.MAX_ITERATIONS:
                x, f, converged[i] = x2, f2, abs(f2 - f1) <= optmod.TOLERANCE
                break
            x3 = update(sqs3_point(x, x1, x2), beta)
            f3 = objective(x3, beta)
            count += 1
            end, f_end = (x3, f3) if not f3 > f else (x2, f2)
            if rose(f_end, f, count):
                break
            x, f = end, f_end
        encs[i], objectives[i], iterations[i] = x[0], f, count
    if rises:
        raise OptimizerError(min(rises)[2])
    return encs, objectives, converged, iterations


def run_silently(run, hf, starts, betas, first_restart=0):
    """The loop's four arrays, or the text of the OptimizerError it raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return run(hf, starts, betas, first_restart)
        except OptimizerError as error:
            return str(error)


def assert_same_run(hf, starts, beta, first_restart=0):
    """Run both loops from the same starts: every returned byte, or the error text, agrees.

    `beta` is each restart's beta, or one beta for the whole stack.
    """
    betas = np.broadcast_to(np.asarray(beta, dtype=float), (len(starts),))
    want = run_silently(reference_fixed_points, hf, starts, betas, first_restart)
    got = run_silently(_run_fixed_points, hf, starts, betas, first_restart)
    if isinstance(want, str):
        assert got == want
        return got
    encs, objectives, converged, iterations = got
    assert encs.tobytes() == want[0].tobytes()
    assert objectives.tobytes() == want[1].tobytes()
    assert converged.tolist() == want[2].tolist()
    assert iterations.tolist() == want[3].tolist()
    return got


def per_beta_sweep(hf, opt, warm_wins=None):
    """The sweep as a chain of one stack per beta: the seeded restarts and, past the
    first beta, the point before as one warm start, reduced to their best restart.

    `warm_wins`, a list, receives for each beta whether its warm start won."""
    points = []
    for beta in optmod.BETAS:
        encs = _initial_encoders(hf.num_histories, opt.memory_size, optmod.RESTARTS, _rng(opt.seed))
        if points:
            encs = np.concatenate([encs, points[-1].strategy.assignment[None]])
        run = _run_fixed_points(hf, encs, np.full(len(encs), beta))
        if warm_wins is not None:
            warm_wins.append(optmod._best_restart(run[1]) == optmod.RESTARTS)
        points.append(optmod._best_point(hf, float(beta), run))
    return points


def warm_calls(warm_wins, per_stack):
    """The betas of each warm-start call of `sweep_beta`: stacks of up to `per_stack`
    guesses for betas 1 on, then one call for each beta after one whose warm start won."""
    betas = optmod.BETAS.tolist()
    calls = [betas[i : i + per_stack] for i in range(1, len(betas), per_stack)]
    return calls + [[betas[i]] for i in range(2, len(betas)) if warm_wins[i - 1]]


def point_bytes(point):
    numbers = [point.beta, point.i_mem, point.i_pred, point.nostalgia, point.objective]
    return (
        np.array(numbers).tobytes(),
        point.converged,
        point.iterations,
        point.strategy.assignment.tobytes(),
    )


def assert_sweep_matches(hf, opt, monkeypatch, groups=(len(optmod.BETAS),)):
    """sweep_beta equals the per-beta chain byte for byte, and each of its calls the one-step loop.

    `groups` is the number of betas in each stack of seeded restarts, in beta order.
    """
    warm_wins = []
    want = [point_bytes(p) for p in per_beta_sweep(hf, opt, warm_wins)]
    calls = []

    def checked(hf, encs, betas, first_restart=0):
        calls.append((betas.tolist(), first_restart))
        return assert_same_run(hf, encs, betas, first_restart)

    with monkeypatch.context() as patch:
        patch.setattr(optmod, "_run_fixed_points", checked)
        got = [point_bytes(p) for p in optmod.sweep_beta(hf, opt)]
    assert got == want
    # stacks of consecutive betas' seeded restarts, then the warm starts
    betas = optmod.BETAS.tolist()
    stacks = []
    for first, size in zip(np.cumsum((0,) + groups), groups):
        stacks.append((np.repeat(betas[first : first + size], optmod.RESTARTS).tolist(), 0))
    per_stack = max(1, optmod._CHUNK_ENTRIES // optmod._step_entries(hf, opt.memory_size))
    warm = warm_calls(warm_wins, per_stack)
    assert calls == stacks + [(w, optmod.RESTARTS) for w in warm]
    return warm


def test_bundled_sweeps_match_the_one_step_loop(monkeypatch):
    for name in BUNDLED:
        scenario = bundled_scenario(name)
        opt = scenario.optimizer
        hf = history_future_joint(scenario_chain(scenario), opt.history_k, opt.history_labeled)
        assert_sweep_matches(hf, opt, monkeypatch)


@pytest.mark.parametrize("seed", range(4))
def test_random_table_sweeps_match_the_per_beta_chain(seed, monkeypatch):
    n_hist, n_future, m = ((3, 2, 2), (5, 4, 3), (6, 6, 4), (4, 4, 2))[seed]
    rng = np.random.default_rng(seed)
    table = rng.dirichlet(np.full(n_hist * n_future, 0.5)).reshape(n_hist, n_future)
    if seed % 2:  # a history of zero mass
        table[1] = 0.0
        table /= table.sum()
    hf = HistoryFutureJoint(table=table, k=1, labeled=False)
    assert_sweep_matches(hf, OptimizerSettings(memory_size=m, seed=seed), monkeypatch)


def test_batch_cases_match_the_one_step_loop(case_b_unlabeled):
    for hf, beta, starts, _ in batch_cases(case_b_unlabeled):
        _, _, _, iterations = assert_same_run(hf, starts, beta)
        assert len(set(iterations.tolist())) > 1


@pytest.mark.parametrize("cap", [1, 2, 3, 255, 256, 257, 777])
def test_iteration_cap_inside_and_on_both_sides_of_a_chunk_edge(cap, case_b_unlabeled, monkeypatch):
    # cycles of three map evaluations end after 3, 6, ..., 255, 258, ..., 777: the caps
    # cut the first cycle after x1 and x2, end on a cycle's edge, and cut one after
    # x1 and x2 again.  A restart that stops by the cap keeps its uncapped bytes, and
    # one still moving reports the cap, unconverged.
    uncapped = [
        _run_fixed_points(hf, starts, np.full(len(starts), beta))
        for hf, beta, starts, _ in batch_cases(case_b_unlabeled)
    ]
    monkeypatch.setattr(optmod, "MAX_ITERATIONS", cap)
    capped = 0
    for (hf, beta, starts, _), free in zip(batch_cases(case_b_unlabeled), uncapped):
        encs, _, converged, iterations = assert_same_run(hf, starts, beta)
        within = free[3] <= cap
        assert encs[within].tobytes() == free[0][within].tobytes()
        assert converged.tolist() == within.tolist()
        assert iterations.tolist() == np.minimum(free[3], cap).tolist()
        capped += int(np.count_nonzero(~within))
    # the critical-beta case has restarts still running at every cap but the last
    assert capped if cap < 259 else not capped


@st.composite
def fixed_point_cases(draw):
    """(hf, starts, beta): random tables, some with a zero-mass history, at beta 1-8, 50 and 1e4."""
    n_hist = draw(st.integers(1, 6))
    n_future = draw(st.sampled_from((2, 4, 6)))
    m = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    table = rng.dirichlet(np.full(n_hist * n_future, draw(st.sampled_from((0.3, 1.0, 5.0)))))
    table = table.reshape(n_hist, n_future)
    if n_hist > 1 and draw(st.booleans()):
        table[draw(st.integers(0, n_hist - 1))] = 0.0
    table /= table.sum()
    # at beta = 1e4 a memory state's p(m) can underflow to exactly 0
    beta = draw(st.one_of(st.floats(1.0, 8.0), st.sampled_from((50.0, 1e4))))
    starts = _initial_encoders(n_hist, m, draw(st.integers(1, 9)), rng)
    return HistoryFutureJoint(table=table, k=1, labeled=False), starts, beta


@hsettings(max_examples=150, deadline=None)
@given(fixed_point_cases())
def test_random_tables_match_the_one_step_loop(case):
    assert_same_run(*case)


def test_a_memory_state_that_empties_matches_the_one_step_loop():
    # at large beta a memory state loses all mass: p(m) underflows to exactly 0,
    # and its decoder row becomes uniform
    table = np.array([[0.4, 0.1], [0.1, 0.4]])
    hf = HistoryFutureJoint(table=table, k=1, labeled=False)
    starts = np.array([[[0.6, 0.3, 0.1], [0.3, 0.6, 0.1]]])
    encs, _, converged, _ = assert_same_run(hf, starts, 1e4)
    assert converged.all()
    assert (hf.history_marginal() @ encs[0] == 0.0).any()


def test_large_views_split_the_sweep_by_beta_within_the_entry_budget(monkeypatch):
    # H = 1500 views, X' = 4, M = 2: one step of all 7 * 8 seeded restarts holds
    # 56 * 3010 entries, over the budget; stacks of 5 and 2 betas stay within it
    rng = np.random.default_rng(21)
    hf = HistoryFutureJoint(table=rng.dirichlet(np.ones(6000)).reshape(1500, 4), k=1, labeled=False)
    opt = OptimizerSettings(memory_size=2, seed=21)
    step = optmod._step_entries(hf, 2)
    assert len(optmod.BETAS) * optmod.RESTARTS * step > optmod._CHUNK_ENTRIES
    assert 5 * optmod.RESTARTS * step <= optmod._CHUNK_ENTRIES
    assert_sweep_matches(hf, opt, monkeypatch, groups=(5, 2))


def test_a_rise_after_a_stop_in_the_same_chunk_does_not_raise(monkeypatch):
    # one restart, stopping at x1 of a cycle, map evaluation t; the objective falls by
    # d(t) <= TOLERANCE there and by less, d(t + 1), at x2, which the cycle still takes.
    # A slack of -(d(t) + d(t + 1)) / 2 per beta makes the fall after the stop a rise,
    # and no other.
    table = np.array([[0.3, 0.1], [0.05, 0.25], [0.2, 0.1]])
    hf = HistoryFutureJoint(table=table, k=1, labeled=False)
    starts = _initial_encoders(3, 2, 1, np.random.default_rng(5))
    beta = 3.0
    _, objectives, converged, iterations = reference_fixed_points(hf, starts, [beta])
    stop = int(iterations[0])
    assert converged[0] and stop % 3 == 1  # x1: the cycle goes on to x2 and x3

    def objective_at(t):
        with monkeypatch.context() as patch:
            patch.setattr(optmod, "MAX_ITERATIONS", t)
            patch.setattr(optmod, "TOLERANCE", -1.0)  # never stop early
            return reference_fixed_points(hf, starts, [beta])[1][0]

    assert objective_at(stop) == objectives[0]
    fall = objective_at(stop - 1) - objectives[0]
    fall_after = objectives[0] - objective_at(stop + 1)
    assert fall_after < fall
    monkeypatch.setattr(optmod, "_DESCENT_SLACK", -(fall + fall_after) / 2 / beta)
    assert not isinstance(assert_same_run(hf, starts, beta), str)
    # without its stop, the same restart raises one step later
    monkeypatch.setattr(optmod, "TOLERANCE", -1.0)
    assert f"at map evaluation {stop + 1};" in assert_same_run(hf, starts, beta)


def test_a_rise_at_the_stop_names_the_one_step_loops_restart_and_iteration(
    case_b_unlabeled, monkeypatch
):
    # a slack of -TOLERANCE per beta makes a fall of less than TOLERANCE a rise:
    # each restart rises at its stop or before, and the earliest rise raises
    named = set()
    for hf, beta, starts, _ in batch_cases(case_b_unlabeled):
        monkeypatch.setattr(optmod, "_DESCENT_SLACK", -optmod.TOLERANCE / beta)
        for stack in (starts, starts[:-1]):  # with and without the warm start
            text = assert_same_run(hf, stack, beta)
            assert text.endswith("monotone descent violated")
            named.add(text.split(";")[0].split(" at ")[-1])
            named.add(text.split(":")[0].split(", ")[-1])
            assert text.startswith(f"beta {beta!r}, restart ")
    # errors at many cycles, not only the first, and not only from restart 0
    assert {f"map evaluation {e}" for e in (1, 7, 10, 16, 25)} <= named
    assert {"restart 0", "restart 1", "restart 3", "restart 8"} <= named
    # restart 3 rises at x1 of the cycle of evaluations 19-21, restart 2 at its x2:
    # the earlier evaluation is named, not the earlier restart
    rng = np.random.default_rng(5)
    hf = HistoryFutureJoint(table=rng.dirichlet(np.ones(16)).reshape(4, 4), k=1, labeled=False)
    starts = _initial_encoders(4, 3, 9, rng)
    monkeypatch.setattr(optmod, "_DESCENT_SLACK", -optmod.TOLERANCE / 4.0)
    assert "at map evaluation 20;" in assert_same_run(hf, starts[2:3], 4.0)
    text = assert_same_run(hf, starts, 4.0)
    assert text.startswith("beta 4.0, restart 3: ") and "at map evaluation 19;" in text
    # a cycle's end that falls less than 1e-5 below x rises, after x1 and x2 fell by more
    rng = np.random.default_rng(50)
    hf = HistoryFutureJoint(table=rng.dirichlet(np.ones(16)).reshape(4, 4), k=1, labeled=False)
    monkeypatch.setattr(optmod, "_DESCENT_SLACK", -1e-5 / 4.0)
    text = assert_same_run(hf, _initial_encoders(4, 3, 1, rng), 4.0)
    assert text.startswith("beta 4.0, restart 0: ") and "at map evaluation 12;" in text


def test_a_rise_in_the_stacked_sweep_names_its_beta_and_its_restart(monkeypatch):
    # a slack of -TOLERANCE per beta makes each restart rise at its stop or before.
    # The seeded restarts of every beta run as one stack, so the earliest evaluation
    # across the schedule raises, at beta 8 here; the per-beta chain raised at beta 1
    scenario = bundled_scenario("case_b_unlabeled")
    opt = scenario.optimizer
    hf = history_future_joint(scenario_chain(scenario), opt.history_k, opt.history_labeled)
    monkeypatch.setattr(optmod, "_DESCENT_SLACK", -optmod.TOLERANCE)
    with pytest.raises(OptimizerError) as stacked:
        optmod.sweep_beta(hf, opt)
    with pytest.raises(OptimizerError) as chained:
        per_beta_sweep(hf, opt)
    text = str(stacked.value)
    assert text.startswith("beta 8.0, restart 1: ") and "at map evaluation 5;" in text
    assert str(chained.value).startswith("beta 1.0, restart ")
    starts = _initial_encoders(hf.num_histories, opt.memory_size, optmod.RESTARTS, _rng(opt.seed))
    stack = np.tile(starts, (len(optmod.BETAS), 1, 1))
    assert assert_same_run(hf, stack, np.repeat(optmod.BETAS, optmod.RESTARTS)) == text


def test_rounding_at_large_beta_is_not_a_rise(monkeypatch):
    # the objective I(M;H) - beta I(M;X') carries rounding of order eps * beta * I(M;X'):
    # at beta = 1e4 restart 1 here "rises" by 1.2e-12 at map evaluation 4 under a fixed slack
    rng = np.random.default_rng(7)
    hf = HistoryFutureJoint(table=rng.dirichlet(np.ones(4)).reshape(2, 2), k=1, labeled=False)
    starts = _initial_encoders(2, 2, 4, rng)
    _, _, converged, _ = assert_same_run(hf, starts, 1e4)
    assert converged.all()
    monkeypatch.setattr(optmod, "_DESCENT_SLACK", optmod._DESCENT_SLACK / 1e4)
    assert "restart 1: " in assert_same_run(hf, starts, 1e4)


def sweep_stack(scenario):
    """The table, and the seeded restarts of every beta as `sweep_beta` stacks them."""
    opt = scenario.optimizer
    hf = history_future_joint(scenario_chain(scenario), opt.history_k, opt.history_labeled)
    starts = _initial_encoders(hf.num_histories, opt.memory_size, optmod.RESTARTS, _rng(opt.seed))
    stack = np.tile(starts, (len(optmod.BETAS), 1, 1))
    assert len(stack) * optmod._step_entries(hf, opt.memory_size) <= optmod._CHUNK_ENTRIES
    return hf, stack, np.repeat(optmod.BETAS, optmod.RESTARTS)


def test_sweep_stacks_converge_in_a_few_hundred_map_evaluations():
    # the plain update's slowest seeded restart took 2,646 and 3,283 updates on
    # case_b_labeled and case_b_unlabeled, whose critical beta 4 is in BETAS, and 51 to
    # 519 on the five `exhaustive` shapes; the SqS3 cycles stop every restart within
    # 300 and 100 map evaluations, with the bytes of the one-restart loop
    cases = [(bundled_scenario(name), 300) for name in BUNDLED]
    cases += [(scenario, 100) for scenario in exhaustive_scenarios(1)]
    for scenario, most in cases:
        hf, starts, betas = sweep_stack(scenario)
        _, _, converged, iterations = assert_same_run(hf, starts, betas)
        assert converged.all() and iterations.max() <= most, scenario.name


@pytest.mark.parametrize("tolerance", [0.0, -1.0, 1e-300])
def test_a_restart_that_never_stops_stays_silent(tolerance, monkeypatch):
    # no stop at TOLERANCE < 0: each restart reaches its fixed point in floats, where
    # r and v are 0 and alpha is -1, and runs on to the cap; at 0 and 1e-300 it stops
    # only where an update leaves its objective unchanged.  Both loops run under
    # warnings as errors
    monkeypatch.setattr(optmod, "TOLERANCE", tolerance)
    monkeypatch.setattr(optmod, "MAX_ITERATIONS", 300)
    rng = np.random.default_rng(4)
    hf = HistoryFutureJoint(table=rng.dirichlet(np.ones(12)).reshape(3, 4), k=1, labeled=False)
    _, _, converged, iterations = assert_same_run(hf, _initial_encoders(3, 2, 4, rng), 2.5)
    assert converged.tolist() == [tolerance >= 0.0] * 4
    assert (iterations[~converged] == 300).all()


def test_a_warm_start_after_a_warm_win_runs_again_from_the_point_before_it(monkeypatch):
    # on the seed-1 `exhaustive` shapes the warm start wins at betas before the last
    # on K5_k1L_M3 (three times) and K4_k1L_M5 (twice): the guess for the beta after
    # each is dropped, and that beta's warm start runs on its own
    singles = {}
    for scenario in exhaustive_scenarios(1):
        opt = scenario.optimizer
        hf = history_future_joint(scenario_chain(scenario), opt.history_k, opt.history_labeled)
        if hf.labeled and hf.k > 1:
            hf = history_future_joint(scenario_chain(scenario), 1, True)  # what optimize sweeps
        calls = assert_sweep_matches(hf, opt, monkeypatch)
        singles[scenario.name] = sum(len(betas) == 1 for betas in calls)
    assert singles["K5_k1L_M3"] == 3 and singles["K4_k1L_M5"] == 2, singles


def test_a_rise_in_a_warm_start_raises_the_one_by_one_error(monkeypatch):
    # a slack of -TOLERANCE per beta in the warm starts' calls only.  On case_a the stack
    # of six guesses raises at beta 2, its earliest map evaluation; the sweep then runs its
    # warm starts one at a time, so beta sqrt(2), the first in beta order to rise, raises,
    # as the chain of warm starts does
    scenario = bundled_scenario("case_a")
    opt = scenario.optimizer
    hf = history_future_joint(scenario_chain(scenario), opt.history_k, opt.history_labeled)
    first = per_beta_sweep(hf, opt)[0].strategy.assignment[None]
    betas = optmod.BETAS.tolist()
    calls = []
    run = optmod._run_fixed_points

    def rising_warm_starts(hf, encs, betas, first_restart=0):
        with monkeypatch.context() as patch:
            if first_restart == optmod.RESTARTS:
                patch.setattr(optmod, "_DESCENT_SLACK", -optmod.TOLERANCE)
            try:
                return run(hf, encs, betas, first_restart)
            except OptimizerError as error:
                calls.append((betas.tolist(), str(error)))
                raise

    with monkeypatch.context() as patch:
        patch.setattr(optmod, "_DESCENT_SLACK", -optmod.TOLERANCE)
        want = assert_same_run(hf, first, betas[1:2], optmod.RESTARTS)
    assert want.startswith(f"beta {betas[1]!r}, restart 8: ")
    monkeypatch.setattr(optmod, "_run_fixed_points", rising_warm_starts)
    with pytest.raises(OptimizerError) as raised:
        optmod.sweep_beta(hf, opt)
    assert str(raised.value) == want
    (stack_betas, stack_text), alone = calls
    assert stack_betas == betas[1:] and stack_text.startswith("beta 2.0, restart 8: ")
    assert alone == (betas[1:2], want)
