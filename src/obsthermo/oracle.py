"""Independent ground truth for the chain machinery: full trajectory-tree
enumeration and seeded Monte Carlo.

The tree enumerates every (question, answer) path explicitly, multiplying
process weights and Born factors leaf by leaf from the actual Bloch vectors.
It shares only the one-step physics (Born rule, collapse) with the chain
module, none of its kernel or stationary-distribution algebra, so agreement
between the two certifies both.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import bound as boundmod
from . import chain as chainmod
from . import joint as jointmod
from . import process as procmod
from .errors import SizeCapError, ValidationError
from .joint import JointDistribution
from .qubit import ANSWERS, BlochVector, born_probability
from .strategy import Strategy, apply_strategy

LEAF_CAP = 10**7
TAIL_TOL = 1e-12
MIN_BURN_IN = 64
BURN_IN_TOL = 1e-6  # slowest mode's share left when a Monte Carlo window starts


@dataclass(frozen=True, eq=False)
class EnumerationResult:
    """Exact joint over (Q_1, A_1, ..., Q_T, A_T) plus the leaf count.

    Every question branch is enumerated each step regardless of its schedule
    weight (zero-probability branches are kept as zero-mass leaves), so the
    leaf count is always (2K)^T.
    """

    horizon: int
    joint: JointDistribution
    leaf_count: int


def _axes_matrix(questions) -> np.ndarray:
    return np.stack([q.axis for q in questions])


def _first_leaves(questions, process, initial: BlochVector):
    k = len(questions)
    axes = _axes_matrix(questions)
    first = procmod.first_question_distribution(process)
    p_plus = np.array([born_probability(initial, q.axis) for q in questions])
    probs = np.empty(2 * k)
    probs[0::2] = first * p_plus
    probs[1::2] = first * (1.0 - p_plus)
    signs = np.tile([1.0, -1.0], k)
    states = np.repeat(axes, 2, axis=0) * signs[:, None]
    return probs, states


def _expand_leaves(questions, process, probs, states, time_index):
    """One tree level: each leaf branches into 2K children (question, answer)."""
    k = len(questions)
    axes = _axes_matrix(questions)
    n = probs.shape[0]
    if isinstance(process, procmod.IIDProcess):
        law = np.tile(process.weights, (n, 1))
    elif isinstance(process, procmod.MarkovProcess):
        last_q = (np.arange(n) // 2) % k
        law = process.transition[last_q]
    else:
        law = np.zeros((n, k))
        label = process.sequence[time_index % len(process.sequence)]
        law[:, process.labels.index(label)] = 1.0
    p_plus = 0.5 * (1.0 + states @ axes.T)  # (n, k), Born from the actual Bloch vectors
    p_plus = np.clip(p_plus, 0.0, 1.0)
    children = np.empty((n, k, 2))
    children[:, :, 0] = law * p_plus
    children[:, :, 1] = law * (1.0 - p_plus)
    new_probs = (probs[:, None, None] * children).reshape(-1)
    signs = np.tile([1.0, -1.0], k)
    pattern = np.repeat(axes, 2, axis=0) * signs[:, None]
    new_states = np.tile(pattern, (n, 1))
    return new_probs, new_states


def _grow_tree(questions, process, initial: BlochVector, horizon: int):
    """Leaf masses and post-measurement states of the depth-`horizon` tree."""
    probs, states = _first_leaves(questions, process, initial)
    for t in range(1, horizon):
        probs, states = _expand_leaves(questions, process, probs, states, t)
    return probs, states


def _enumeration(questions, probs: np.ndarray, horizon: int) -> EnumerationResult:
    """The trajectory joint over (Q_1, A_1, ..., Q_T, A_T) held by the leaf masses."""
    labels = tuple(q.label for q in questions)
    joint = JointDistribution(
        names=tuple(n for t in range(1, horizon + 1) for n in (f"q{t}", f"a{t}")),
        alphabets=(labels, ANSWERS) * horizon,
        table=probs.reshape((len(questions), 2) * horizon),
    )
    return EnumerationResult(horizon=horizon, joint=joint, leaf_count=probs.size)


def brute_force_joint(
    questions, process, initial: BlochVector, horizon: int, leaf_cap: int = LEAF_CAP
) -> EnumerationResult:
    """Exact probability of every length-`horizon` trajectory."""
    questions = tuple(questions)
    if horizon < 1:
        raise ValidationError(f"horizon must be >= 1, got {horizon}")
    leaves = (2 * len(questions)) ** horizon
    if leaves > leaf_cap:
        raise SizeCapError(
            f"enumeration needs {leaves} leaves; raise leaf_cap to at least {leaves}"
        )
    probs, _ = _grow_tree(questions, process, initial, horizon)
    return _enumeration(questions, probs, horizon)


def tail_window_joint(result: EnumerationResult, window: int) -> JointDistribution:
    """Marginal of the last window+1 pairs, renamed to the window convention."""
    if result.horizon < window + 1:
        raise ValidationError(
            f"horizon {result.horizon} too short for a window of {window} history pairs"
        )
    t0 = result.horizon - window  # absolute time of the oldest window pair
    target = chainmod.window_names(window)
    keep, mapping = [], {}
    for j, t in enumerate(range(t0, result.horizon + 1)):
        keep += [f"q{t}", f"a{t}"]
        mapping[f"q{t}"] = target[2 * j]
        mapping[f"a{t}"] = target[2 * j + 1]
    marg = result.joint.marginal(keep)
    return marg.rename(mapping).reorder(target)


def converged_tail(
    questions,
    process,
    initial: BlochVector,
    window: int,
    tol: float = TAIL_TOL,
    leaf_cap: int = LEAF_CAP,
) -> tuple:
    """Grow the horizon until successive tail windows agree within tol.

    Returns (tail joint, horizon used).  Reducible chains such as the single
    question scenario stabilize immediately; mixing chains take a few steps.
    """
    questions = tuple(questions)
    k = len(questions)
    horizon = window + 1
    if (2 * k) ** (horizon + 1) > leaf_cap:
        raise SizeCapError(
            f"cannot even compare horizons {horizon} and {horizon + 1} under leaf cap {leaf_cap}"
        )
    probs, states = _grow_tree(questions, process, initial, horizon)
    prev_tail = tail_window_joint(_enumeration(questions, probs, horizon), window)
    while True:
        if probs.size * 2 * k > leaf_cap:
            raise SizeCapError(
                f"tail has not stabilized within the leaf cap {leaf_cap}; "
                f"last deviation at horizon {horizon}"
            )
        probs, states = _expand_leaves(questions, process, probs, states, horizon)
        horizon += 1
        tail = tail_window_joint(_enumeration(questions, probs, horizon), window)
        if jointmod.max_abs_deviation(tail, prev_tail) < tol:
            return tail, horizon
        prev_tail = tail


def cross_validate(chain_joint: JointDistribution, oracle_joint: JointDistribution) -> float:
    """Max absolute per-entry deviation between two window joints."""
    return jointmod.max_abs_deviation(chain_joint, oracle_joint)


def verdict(check: str, scenario: str, deviation: float, tolerance: float) -> dict:
    """The standard verification verdict record."""
    return {
        "check": check,
        "scenario": scenario,
        "deviation": float(deviation),
        "tolerance": float(tolerance),
        "pass": bool(deviation <= tolerance),
    }


def mixing_burn_in(questions, process) -> int:
    """Steps a Monte Carlo trajectory discards before its window.

    max(MIN_BURN_IN, ceil(ln BURN_IN_TOL / ln lam)), where lam is the chain
    kernel's `slowest_mode_modulus`: after that many steps the slowest decaying
    mode has shrunk by BURN_IN_TOL.  Periodic schedules have no
    time-homogeneous kernel and keep MIN_BURN_IN.  Only this length comes
    from the kernel; the windows are still simulated from the Born rule.
    """
    if isinstance(process, procmod.PeriodicProcess):
        return MIN_BURN_IN
    lam = chainmod.slowest_mode_modulus(chainmod.build_chain(questions, process))
    if lam == 0.0:
        return MIN_BURN_IN
    return max(MIN_BURN_IN, math.ceil(math.log(BURN_IN_TOL) / math.log(lam)))


def sample_windows(
    questions,
    process,
    initial: BlochVector,
    window: int,
    n: int,
    seed: int,
    burn_in: int | None = None,
) -> np.ndarray:
    """Draw n independent (window+1)-pair windows by direct simulation.

    Each window comes from its own trajectory (burn_in steps discarded; None
    means `mixing_burn_in`), so samples are i.i.d. and plain bootstrap errors
    are valid.  Returns an (n, 2*(window+1)) index array aligned with
    chain.window_names(window).
    """
    questions = tuple(questions)
    if burn_in is None:
        burn_in = mixing_burn_in(questions, process)
    k = len(questions)
    rng = np.random.Generator(np.random.Philox(key=seed))
    born = chainmod.born_plus_matrix(questions)  # (2k, k) one-step physics lookup
    if isinstance(process, procmod.MarkovProcess):
        cum_rows = np.cumsum(process.transition, axis=1)
    first = procmod.first_question_distribution(process)
    p0 = np.array([born_probability(initial, q.axis) for q in questions])

    out = np.empty((n, 2 * (window + 1)), dtype=int)
    for t in range(burn_in + window + 1):
        if t == 0:
            q = rng.choice(k, size=n, p=first) if k > 1 else np.zeros(n, dtype=int)
            if isinstance(process, procmod.PeriodicProcess):
                q = np.full(n, process.labels.index(process.sequence[0]))
            p_plus = p0[q]
        else:
            q_prev, a_prev = q, a
            if isinstance(process, procmod.IIDProcess):
                q = rng.choice(k, size=n, p=process.weights) if k > 1 else np.zeros(n, dtype=int)
            elif isinstance(process, procmod.MarkovProcess):
                u = rng.random(n)
                q = (u[:, None] > cum_rows[q_prev]).sum(axis=1)
            else:
                label = process.sequence[t % len(process.sequence)]
                q = np.full(n, process.labels.index(label))
            p_plus = born[2 * q_prev + a_prev, q]
        a = (rng.random(n) >= p_plus).astype(int)  # 0 is +1, 1 is -1
        if t >= burn_in:
            out[:, 2 * (t - burn_in)] = q
            out[:, 2 * (t - burn_in) + 1] = a
    return out


@dataclass(frozen=True)
class MonteCarloReport:
    """Plug-in estimates of the info quantities with bootstrap standard errors."""

    n: int
    i_mem: float
    i_pred: float
    nostalgia: float
    se_i_mem: float
    se_i_pred: float
    se_nostalgia: float


def monte_carlo_check(
    questions,
    process,
    initial: BlochVector,
    window: int,
    strategy: Strategy,
    n: int,
    seed: int,
    n_bootstrap: int = 200,
    burn_in: int | None = None,
) -> MonteCarloReport:
    """Monte Carlo estimate of an InfoReport, with seeded bootstrap errors."""
    if n < 10**3:
        raise ValidationError(f"need at least 1000 samples, got {n}")
    questions = tuple(questions)
    samples = sample_windows(questions, process, initial, window, n, seed, burn_in=burn_in)
    names = chainmod.window_names(window)
    alphabets = chainmod.window_alphabets(questions, window)
    sizes = tuple(len(a) for a in alphabets)
    flat = np.ravel_multi_index(tuple(samples.T), sizes)
    counts = np.bincount(flat, minlength=int(np.prod(sizes))).astype(float)

    def metrics(count_vec: np.ndarray):
        emp = jointmod.from_counts(names, alphabets, count_vec.reshape(sizes))
        rep = boundmod.evaluate(apply_strategy(strategy, emp))
        return rep.i_mem, rep.i_pred, rep.nostalgia

    i_mem, i_pred, nostalgia = metrics(counts)
    rng = np.random.Generator(np.random.Philox(key=seed + 0xB00))
    p_hat = counts / counts.sum()
    boots = np.empty((n_bootstrap, 3))
    for b in range(n_bootstrap):
        boots[b] = metrics(rng.multinomial(n, p_hat).astype(float))
    se = boots.std(axis=0, ddof=1)
    return MonteCarloReport(
        n=n,
        i_mem=i_mem,
        i_pred=i_pred,
        nostalgia=nostalgia,
        se_i_mem=float(se[0]),
        se_i_pred=float(se[1]),
        se_nostalgia=float(se[2]),
    )
