"""The chunked fixed-point loop pinned bit for bit against the one-step loop.

`reference_fixed_points` is `optimize._run_fixed_points` as it was before it
ran its updates in chunks: each iteration updates every running restart,
computes their objectives, checks descent and drops the restarts that stopped.
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
    bundled_scenario,
    history_future_joint,
    window_joint,
)
import obsthermo.optimize as optmod
from obsthermo.info import xlogx
from obsthermo.optimize import HistoryFutureJoint, _initial_encoders, _run_fixed_points
from obsthermo.workflows import scenario_window

from test_optimize import batch_cases


BUNDLED = ("case_a", "case_b_labeled", "case_b_unlabeled", "case_b_bestcase", "angle_sweep")


def reference_fixed_points(hf: HistoryFutureJoint, encs: np.ndarray, beta: float) -> tuple:
    """(encoders, objectives, converged, iterations): one update and one objective per iteration."""
    p_h = hf.history_marginal()
    cond = hf.future_conditionals()
    cond_self = xlogx(cond).sum(axis=1)[:, None]
    uniform = 1.0 / hf.table.shape[1]
    h_sum = xlogx(p_h).sum()
    x_sum = xlogx(hf.table.sum(axis=0)).sum()
    ln2 = np.log(2.0)

    def marginals_and_objectives(e):
        p_m = p_h @ e
        p_mx = e.transpose(0, 2, 1) @ hf.table
        m_sum = xlogx(p_m).sum(axis=1)
        i_mem = (xlogx(p_h[:, None] * e).reshape(len(e), -1).sum(axis=1) - h_sum - m_sum) / ln2
        i_pred = (xlogx(p_mx).reshape(len(e), -1).sum(axis=1) - m_sum - x_sum) / ln2
        i_mem = np.where(i_mem > 0.0, i_mem, 0.0)
        i_pred = np.where(i_pred > 0.0, i_pred, 0.0)
        return p_m, p_mx, i_mem - beta * i_pred

    encs = np.array(encs, dtype=float)
    n = len(encs)
    p_m, p_mx, objectives = marginals_and_objectives(encs)
    converged = np.zeros(n, dtype=bool)
    iterations = np.zeros(n, dtype=int)
    active = np.arange(n)
    for it in range(1, optmod.MAX_ITERATIONS + 1):
        safe_pm = np.where(p_m > 0, p_m, 1.0)
        dec = p_mx / safe_pm[:, :, None]
        dec[p_m == 0] = uniform
        cross = cond @ np.log(np.maximum(dec, optmod._LOG_FLOOR)).transpose(0, 2, 1)
        logits = np.log(np.maximum(p_m, optmod._LOG_FLOOR))[:, None, :] - beta * (cond_self - cross)
        logits -= logits.max(axis=2, keepdims=True)
        enc = np.exp(logits)
        enc /= enc.sum(axis=2, keepdims=True)
        p_m, p_mx, obj = marginals_and_objectives(enc)
        prev = objectives[active]
        rising = np.flatnonzero(obj > prev + optmod._DESCENT_SLACK * beta)
        if rising.size:
            j = rising[0]
            raise OptimizerError(
                f"restart {active[j]}: objective increased from {float(prev[j])!r} "
                f"to {float(obj[j])!r} at iteration {it}; monotone descent violated"
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


def run_silently(run, hf, starts, beta):
    """The loop's four arrays, or the text of the OptimizerError it raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return run(hf, starts, beta)
        except OptimizerError as error:
            return str(error)


def assert_same_run(hf, starts, beta):
    """Run both loops from the same starts: every returned byte, or the error text, agrees."""
    want = run_silently(reference_fixed_points, hf, starts, beta)
    got = run_silently(_run_fixed_points, hf, starts, beta)
    if isinstance(want, str):
        assert got == want
        return got
    encs, objectives, converged, iterations = got
    assert encs.tobytes() == want[0].tobytes()
    assert objectives.tobytes() == want[1].tobytes()
    assert converged.tolist() == want[2].tolist()
    assert iterations.tolist() == want[3].tolist()
    return got


def test_bundled_sweeps_match_the_one_step_loop(monkeypatch):
    # every call sweep_beta makes, seeded restarts and warm start together
    calls = []

    def checked(hf, encs, beta):
        calls.append(beta)
        return assert_same_run(hf, encs, beta)

    monkeypatch.setattr(optmod, "_run_fixed_points", checked)
    for name in BUNDLED:
        scenario = bundled_scenario(name)
        opt = scenario.optimizer
        _, window = scenario_window(scenario, opt.history_k)
        hf = history_future_joint(window, k=opt.history_k, labeled=opt.history_labeled)
        optmod.sweep_beta(hf, opt)
    assert calls == [float(beta) for beta in optmod.BETAS] * len(BUNDLED)


def test_batch_cases_match_the_one_step_loop(case_b_unlabeled):
    for hf, beta, starts, _ in batch_cases(case_b_unlabeled):
        _, _, _, iterations = assert_same_run(hf, starts, beta)
        assert len(set(iterations.tolist())) > 1


@pytest.mark.parametrize("cap", [1, 2, 3, 255, 256, 257, 777])
def test_iteration_cap_inside_and_on_both_sides_of_a_chunk_edge(cap, case_b_unlabeled, monkeypatch):
    # chunks of 1, 2, 4, ..., 256 steps end after 1, 3, 7, ..., 255, 511, 767 iterations
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
    window = window_joint(Chain(questions, process, MIXED_STATE), 3)
    hf = history_future_joint(window, k=3, labeled=True)
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
    _, _, _, iterations = _run_fixed_points(hf, starts, 4.0)
    monkeypatch.undo()
    assert len(sizes) % 3 == 0 and iterations.max() > 64
    chunks = [sum(sizes[i : i + 3]) for i in range(0, len(sizes), 3)]
    assert max(chunks) <= optmod._CHUNK_ENTRIES
    assert max(chunks) > optmod._CHUNK_ENTRIES // 2  # the budget, not the schedule, set the size
    assert_same_run(hf, starts, 4.0)


def test_a_rise_after_a_stop_in_the_same_chunk_does_not_raise(monkeypatch):
    # one restart, stopping at iteration t inside a chunk; the objective falls by
    # d(t) <= TOLERANCE there and by less, d(t + 1), one step later.  A slack of
    # -(d(t) + d(t + 1)) / 2 per beta makes the fall after the stop a rise, and no other.
    table = np.array([[0.3, 0.1], [0.05, 0.25], [0.2, 0.1]])
    hf = HistoryFutureJoint(table=table, k=1, labeled=False)
    starts = _initial_encoders(3, 2, 1, np.random.default_rng(5))
    beta = 3.0
    _, objectives, converged, iterations = reference_fixed_points(hf, starts, beta)
    stop = int(iterations[0])
    assert converged[0] and stop not in (1, 3, 7, 15, 31, 63, 127, 255)  # not a chunk's last step

    def objective_at(t):
        with monkeypatch.context() as patch:
            patch.setattr(optmod, "MAX_ITERATIONS", t)
            patch.setattr(optmod, "TOLERANCE", -1.0)  # never stop early
            return reference_fixed_points(hf, starts, beta)[1][0]

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
            named.add(text.split(":")[0])
    # errors inside chunks, not only at their edges, and not only from restart 0
    assert {"iteration 12", "iteration 20", "iteration 23", "iteration 83"} <= named
    assert {"restart 0", "restart 1", "restart 5"} <= named
    # restart 1 rises at iteration 145, restart 0 at 215 in the same chunk (128-255):
    # the earlier iteration is named, not the earlier restart
    rng = np.random.default_rng(9)
    hf = HistoryFutureJoint(table=rng.dirichlet(np.ones(16)).reshape(4, 4), k=1, labeled=False)
    monkeypatch.setattr(optmod, "_DESCENT_SLACK", -optmod.TOLERANCE / 2.0)
    text = assert_same_run(hf, _initial_encoders(4, 3, 9, rng), 2.0)
    assert text.startswith("restart 1: ") and "at iteration 145;" in text


def test_rounding_at_large_beta_is_not_a_rise():
    # the objective I(M;H) - beta I(M;X') carries rounding of order eps * beta * I(M;X'):
    # at beta = 1e4 restart 3 here "rises" by 1.3e-12 at iteration 7 under a fixed slack
    rng = np.random.default_rng(7)
    hf = HistoryFutureJoint(table=rng.dirichlet(np.ones(4)).reshape(2, 2), k=1, labeled=False)
    _, _, converged, _ = assert_same_run(hf, _initial_encoders(2, 2, 4, rng), 1e4)
    assert converged.all()
