"""The chunked fixed-point loop pinned bit for bit against the one-step loop.

`reference_fixed_points` is `optimize._run_fixed_points` as it was before it
ran its updates in chunks: each iteration updates every running restart,
computes their objectives, checks descent and drops the restarts that stopped.
Each restart carries its own beta, a scalar in every operation it enters.
It reads the module's constants when called, so a monkeypatched stopping rule
or descent slack applies to both loops.  Both loops run with warnings as
errors: the updates the chunked loop runs past a restart's stop must stay as
silent as the one-step loop.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings as hsettings, strategies as st

from obsthermo import (
    IIDProcess,
    MIXED_STATE,
    OptimizerError,
    Question,
    Chain,
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
    """(encoders, objectives, converged, iterations): one update and one objective per iteration.

    Each restart carries its own beta.
    """
    p_h = hf.history_marginal()
    cond = hf.future_conditionals()
    cond_self = xlogx(cond).sum(axis=1)[:, None]
    uniform = 1.0 / hf.table.shape[1]
    h_sum = xlogx(p_h).sum()
    x_sum = xlogx(hf.table.sum(axis=0)).sum()
    ln2 = np.log(2.0)

    def marginals_and_objectives(e, beta):
        p_m = p_h @ e
        p_mx = e.transpose(0, 2, 1) @ hf.table
        m_sum = xlogx(p_m).sum(axis=1)
        i_mem = (xlogx(p_h[:, None] * e).reshape(len(e), -1).sum(axis=1) - h_sum - m_sum) / ln2
        i_pred = (xlogx(p_mx).reshape(len(e), -1).sum(axis=1) - m_sum - x_sum) / ln2
        i_mem = np.where(i_mem > 0.0, i_mem, 0.0)
        i_pred = np.where(i_pred > 0.0, i_pred, 0.0)
        return p_m, p_mx, i_mem - beta * i_pred

    encs = np.array(encs, dtype=float)
    betas = np.asarray(betas, dtype=float)
    n = len(encs)
    p_m, p_mx, objectives = marginals_and_objectives(encs, betas)
    converged = np.zeros(n, dtype=bool)
    iterations = np.zeros(n, dtype=int)
    active = np.arange(n)
    for it in range(1, optmod.MAX_ITERATIONS + 1):
        beta = betas[active]
        safe_pm = np.where(p_m > 0, p_m, 1.0)
        dec = p_mx / safe_pm[:, :, None]
        dec[p_m == 0] = uniform
        cross = cond @ np.log(np.maximum(dec, optmod._LOG_FLOOR)).transpose(0, 2, 1)
        b = beta[:, None, None]
        logits = np.log(np.maximum(p_m, optmod._LOG_FLOOR))[:, None, :] - b * (cond_self - cross)
        logits -= logits.max(axis=2, keepdims=True)
        enc = np.exp(logits)
        enc /= enc.sum(axis=2, keepdims=True)
        p_m, p_mx, obj = marginals_and_objectives(enc, beta)
        prev = objectives[active]
        rising = np.flatnonzero(obj > prev + optmod._DESCENT_SLACK * beta)
        if rising.size:
            at = active[rising[0]]
            restart = first_restart + int(np.count_nonzero(betas[:at] == betas[at]))
            raise OptimizerError(
                f"beta {float(betas[at])!r}, restart {restart}: objective increased from "
                f"{float(prev[rising[0]])!r} to {float(obj[rising[0]])!r} at iteration {it}; "
                "monotone descent violated"
            )
        encs[active] = enc
        objectives[active] = obj
        iterations[active] = it
        done = np.abs(prev - obj) <= optmod.TOLERANCE
        if done.any():
            converged[active[done]] = True
            keep = ~done
            active = active[keep]
            if not active.size:
                break
            p_m, p_mx = p_m[keep], p_mx[keep]
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


def per_beta_sweep(hf, opt):
    """The sweep as a chain of one stack per beta: the seeded restarts and, past the
    first beta, the point before as one warm start, reduced to their best restart."""
    points = []
    for beta in optmod.BETAS:
        encs = _initial_encoders(hf.num_histories, opt.memory_size, optmod.RESTARTS, _rng(opt.seed))
        if points:
            encs = np.concatenate([encs, points[-1].strategy.assignment[None]])
        run = _run_fixed_points(hf, encs, np.full(len(encs), beta))
        points.append(optmod._best_point(hf, float(beta), run))
    return points


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
    want = [point_bytes(p) for p in per_beta_sweep(hf, opt)]
    calls = []

    def checked(hf, encs, betas, first_restart=0):
        calls.append((betas.tolist(), first_restart))
        return assert_same_run(hf, encs, betas, first_restart)

    with monkeypatch.context() as patch:
        patch.setattr(optmod, "_run_fixed_points", checked)
        got = [point_bytes(p) for p in optmod.sweep_beta(hf, opt)]
    assert got == want
    # stacks of consecutive betas' seeded restarts, then the warm starts one by one
    betas = optmod.BETAS.tolist()
    stacks = []
    for first, size in zip(np.cumsum((0,) + groups), groups):
        stacks.append((np.repeat(betas[first : first + size], optmod.RESTARTS).tolist(), 0))
    assert calls == stacks + [([beta], optmod.RESTARTS) for beta in betas[1:]]


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
    # chunks of 1, 2, 4, ..., 256 steps end after 1, 3, 7, ..., 255, 511, 767 iterations,
    # or sooner at a predicted stop
    monkeypatch.setattr(optmod, "MAX_ITERATIONS", cap)
    capped = 0
    for hf, beta, starts, _ in batch_cases(case_b_unlabeled):
        _, _, converged, iterations = assert_same_run(hf, starts, beta)
        capped += int((iterations[~converged] == cap).sum())
        assert np.all(iterations <= cap)
    assert capped  # the critical-beta case has restarts still running at every cap


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


def test_buffers_stay_within_the_entry_budget(monkeypatch):
    # labeled k = 3 views of three questions: H = 6**3 = 216 views, X' = 6, M = 8;
    # 256 unbudgeted steps of 9 restarts would hold 256 * 9 * 1784 entries
    axes = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 0.6, 0.8]])
    questions = tuple(Question(label=f"Q{i}", axis=a) for i, a in enumerate(axes))
    process = IIDProcess(labels=("Q0", "Q1", "Q2"), weights=np.full(3, 1 / 3))
    hf = history_future_joint(Chain(questions, process, MIXED_STATE), k=3, labeled=True)
    assert hf.table.shape == (216, 6)
    starts = _initial_encoders(216, 8, 9, np.random.default_rng(3))

    sizes = []

    class Recorder:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def empty(shape, *args, **kwargs):
            sizes.append(int(np.prod(shape)))
            return np.empty(shape, *args, **kwargs)

    monkeypatch.setattr(optmod, "np", Recorder())
    _, _, _, iterations = _run_fixed_points(hf, starts, np.full(9, 4.0))
    monkeypatch.undo()
    assert len(sizes) % 3 == 0 and iterations.max() > 64
    chunks = [sum(sizes[i : i + 3]) for i in range(0, len(sizes), 3)]
    assert max(chunks) <= optmod._CHUNK_ENTRIES
    assert max(chunks) > optmod._CHUNK_ENTRIES // 2  # the budget, not the schedule, set the size
    assert_same_run(hf, starts, 4.0)


def test_large_views_split_the_sweep_by_beta_within_the_entry_budget(monkeypatch):
    # H = 1500 views, X' = 4, M = 2: one step of all 7 * 8 seeded restarts holds
    # 56 * 3010 entries, over the budget; stacks of 5 and 2 betas stay within it
    rng = np.random.default_rng(21)
    hf = HistoryFutureJoint(table=rng.dirichlet(np.ones(6000)).reshape(1500, 4), k=1, labeled=False)
    opt = OptimizerSettings(memory_size=2, seed=21)
    step = optmod._step_entries(hf, 2)
    assert len(optmod.BETAS) * optmod.RESTARTS * step > optmod._CHUNK_ENTRIES
    monkeypatch.setattr(optmod, "MAX_ITERATIONS", 300)  # past the 256-step chunks
    assert_sweep_matches(hf, opt, monkeypatch, groups=(5, 2))

    sizes = []

    class Recorder:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def empty(shape, *args, **kwargs):
            sizes.append(int(np.prod(shape)))
            return np.empty(shape, *args, **kwargs)

    monkeypatch.setattr(optmod, "np", Recorder())
    optmod.sweep_beta(hf, opt)
    monkeypatch.undo()
    chunks = [sum(sizes[i : i + 3]) for i in range(0, len(sizes), 3)]
    assert len(sizes) % 3 == 0 and chunks[0] == 5 * optmod.RESTARTS * step  # one step of 40
    assert max(chunks) <= optmod._CHUNK_ENTRIES


def test_a_rise_after_a_stop_in_the_same_chunk_does_not_raise(monkeypatch):
    # one restart, stopping at iteration t inside a chunk; the objective falls by
    # d(t) <= TOLERANCE there and by less, d(t + 1), one step later.  A slack of
    # -(d(t) + d(t + 1)) / 2 per beta makes the fall after the stop a rise, and no other.
    table = np.array([[0.3, 0.1], [0.05, 0.25], [0.2, 0.1]])
    hf = HistoryFutureJoint(table=table, k=1, labeled=False)
    starts = _initial_encoders(3, 2, 1, np.random.default_rng(5))
    beta = 3.0
    _, objectives, converged, iterations = reference_fixed_points(hf, starts, [beta])
    stop = int(iterations[0])
    assert converged[0] and stop not in (1, 3, 7, 15, 31, 63, 127, 255)  # not a chunk's last step

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
    assert f"at iteration {stop + 1};" in assert_same_run(hf, starts, beta)


def test_a_rise_at_the_stop_names_the_one_step_loops_restart_and_iteration(
    case_b_unlabeled, monkeypatch
):
    # a slack of -TOLERANCE per beta makes a fall of less than TOLERANCE a rise:
    # each restart rises at its stop, and the first stop raises
    named = set()
    for hf, beta, starts, _ in batch_cases(case_b_unlabeled):
        monkeypatch.setattr(optmod, "_DESCENT_SLACK", -optmod.TOLERANCE / beta)
        for stack in (starts, starts[:-1]):  # with and without the warm start
            text = assert_same_run(hf, stack, beta)
            assert text.endswith("monotone descent violated")
            named.add(text.split(";")[0].split(" at ")[-1])
            named.add(text.split(":")[0].split(", ")[-1])
            assert text.startswith(f"beta {beta!r}, restart ")
    # errors inside chunks, not only at their edges, and not only from restart 0
    assert {"iteration 12", "iteration 20", "iteration 23", "iteration 83"} <= named
    assert {"restart 0", "restart 1", "restart 5"} <= named
    # restart 1 rises at iteration 145, restart 0 at 215 in the same chunk (128-255):
    # the earlier iteration is named, not the earlier restart
    rng = np.random.default_rng(9)
    hf = HistoryFutureJoint(table=rng.dirichlet(np.ones(16)).reshape(4, 4), k=1, labeled=False)
    monkeypatch.setattr(optmod, "_DESCENT_SLACK", -optmod.TOLERANCE / 2.0)
    text = assert_same_run(hf, _initial_encoders(4, 3, 9, rng), 2.0)
    assert text.startswith("beta 2.0, restart 1: ") and "at iteration 145;" in text


def test_a_rise_in_the_stacked_sweep_names_its_beta_and_its_restart(monkeypatch):
    # a slack of -TOLERANCE per beta makes each restart rise at its stop or before.
    # The seeded restarts of every beta run as one stack, so the earliest iteration
    # across the schedule raises, at beta 8 here; the per-beta chain raised at beta 1
    scenario = bundled_scenario("case_b_labeled")
    opt = scenario.optimizer
    hf = history_future_joint(scenario_chain(scenario), opt.history_k, opt.history_labeled)
    monkeypatch.setattr(optmod, "_DESCENT_SLACK", -optmod.TOLERANCE)
    with pytest.raises(OptimizerError) as stacked:
        optmod.sweep_beta(hf, opt)
    with pytest.raises(OptimizerError) as chained:
        per_beta_sweep(hf, opt)
    text = str(stacked.value)
    assert text.startswith("beta 8.0, restart 5: ") and "at iteration 6;" in text
    assert str(chained.value).startswith("beta 1.0, restart ")
    starts = _initial_encoders(hf.num_histories, opt.memory_size, optmod.RESTARTS, _rng(opt.seed))
    stack = np.tile(starts, (len(optmod.BETAS), 1, 1))
    assert assert_same_run(hf, stack, np.repeat(optmod.BETAS, optmod.RESTARTS)) == text


def test_rounding_at_large_beta_is_not_a_rise():
    # the objective I(M;H) - beta I(M;X') carries rounding of order eps * beta * I(M;X'):
    # at beta = 1e4 restart 3 here "rises" by 1.3e-12 at iteration 7 under a fixed slack
    rng = np.random.default_rng(7)
    hf = HistoryFutureJoint(table=rng.dirichlet(np.ones(4)).reshape(2, 2), k=1, labeled=False)
    _, _, converged, _ = assert_same_run(hf, _initial_encoders(2, 2, 4, rng), 1e4)
    assert converged.all()


def doubling_steps(hf, starts, iterations, converged):
    """The updates the loop runs in chunks of 1, 2, 4, ... _CHUNK_CAP steps, within
    the entry budget and MAX_ITERATIONS, until every restart has stopped."""
    stops = np.where(converged, iterations, optmod.MAX_ITERATIONS)
    step_entries = optmod._step_entries(hf, starts.shape[2])
    done, chunk = 0, 1
    while (stops > done).any() and done < optmod.MAX_ITERATIONS:
        budget = max(1, optmod._CHUNK_ENTRIES // (int((stops > done).sum()) * step_entries))
        done += min(chunk, optmod.MAX_ITERATIONS - done, budget)
        chunk = min(2 * chunk, optmod._CHUNK_CAP)
    return done


def updates_against_doubling(hf, starts, betas, monkeypatch):
    """The updates the loop ran, read off its chunk buffers, and those of the doubling
    chunks; the loop never runs more, nor fewer than its slowest restart needs."""
    steps = []

    class Recorder:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def empty(shape, *args, **kwargs):
            steps.append(shape[0])
            return np.empty(shape, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(optmod, "np", Recorder())
        _, _, converged, iterations = _run_fixed_points(hf, starts, betas)
    updates = sum(steps[::3])  # three buffers a chunk
    doubling = doubling_steps(hf, starts, iterations, converged)
    assert converged.all() and iterations.max() <= updates <= doubling
    return updates, doubling


def sweep_stack(scenario):
    """The table, and the seeded restarts of every beta as `sweep_beta` stacks them."""
    opt = scenario.optimizer
    hf = history_future_joint(scenario_chain(scenario), opt.history_k, opt.history_labeled)
    starts = _initial_encoders(hf.num_histories, opt.memory_size, optmod.RESTARTS, _rng(opt.seed))
    stack = np.tile(starts, (len(optmod.BETAS), 1, 1))
    assert len(stack) * optmod._step_entries(hf, opt.memory_size) <= optmod._CHUNK_ENTRIES
    return hf, stack, np.repeat(optmod.BETAS, optmod.RESTARTS)


def test_chunks_that_end_at_the_predicted_stop_move_no_bit(case_b_unlabeled, monkeypatch):
    # the five `exhaustive` sweep stacks contract geometrically to their stops, and
    # their last doubled chunk ran past the slowest one: 767 updates where K4_k1L_M5
    # stops at 519
    for scenario in exhaustive_scenarios(1):
        hf, starts, betas = sweep_stack(scenario)
        assert_same_run(hf, starts, betas)
        updates, doubling = updates_against_doubling(hf, starts, betas, monkeypatch)
        assert updates < doubling
    # the critical beta = 4 stack of case_b_unlabeled converges sublinearly
    hf, beta, starts, _ = batch_cases(case_b_unlabeled)[0]
    assert_same_run(hf, starts, beta)
    updates_against_doubling(hf, starts, np.full(len(starts), beta), monkeypatch)


def test_bundled_sweep_stacks_run_no_more_updates_than_the_doubling_chunks(monkeypatch):
    for name in BUNDLED:
        updates_against_doubling(*sweep_stack(bundled_scenario(name)), monkeypatch)


@pytest.mark.parametrize("tolerance", [0.0, -1.0, 1e-300])
def test_a_stop_that_cannot_be_predicted_stays_silent(tolerance, monkeypatch):
    # no stop at TOLERANCE <= 0, and log(TOLERANCE / d1) far below zero at 1e-300;
    # both loops run under warnings as errors
    monkeypatch.setattr(optmod, "TOLERANCE", tolerance)
    monkeypatch.setattr(optmod, "MAX_ITERATIONS", 300)
    rng = np.random.default_rng(4)
    hf = HistoryFutureJoint(table=rng.dirichlet(np.ones(12)).reshape(3, 4), k=1, labeled=False)
    assert_same_run(hf, _initial_encoders(3, 2, 4, rng), 2.5)
