"""Independent ground truth for the chain machinery: full trajectory-tree
enumeration and seeded Monte Carlo.

The tree enumerates every (question, answer) path explicitly, multiplying
process weights and Born factors leaf by leaf from the actual Bloch vectors.
It shares only the one-step physics with the chain module: the Born table
`qubit.outcome_table`, the question law `process.question_law` and the step
`chain.step_law` that multiplies them.  It shares none of the kernel,
long-run or window algebra, so agreement between the two certifies both.

Monte Carlo takes the scenario's `chain.Chain`, which carries the start,
and draws its windows from the replica trajectories of `replica_plan`, the
one place that reads the kernel: how long a replica burns in and how many
sliding windows it gives.  The plan reads the chain's cached spectrum, which
bounds the burn-in; a replica that gives one window burns in only until its
own law, the chain's start law pushed through the kernel by `chain.settle`,
is stationary.  The plan never reads the long-run distribution that Monte
Carlo checks, and `sample_windows` returns it with the windows it drew.
Caps, tolerances and counts are module constants, each read where it
applies: LEAF_CAP bounds the tree, TAIL_TOL ends `converged_tail`,
MIN_BURN_IN, BURN_IN_TOL and MIN_REPLICAS shape the plan, and N_BOOTSTRAP
counts the bootstrap resamples.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import chain as chainmod
from . import info
from . import process as procmod
from .errors import SizeCapError, ValidationError
from .joint import JointDistribution
from .qubit import ANSWERS, BlochVector, collapsed_states, outcome_table
from .strategy import Strategy, view_encoder, view_index
from .strategy import apply_strategy  # noqa: F401  unused; perfbench/selftest.py expects this import site

LEAF_CAP = 10**7
TAIL_TOL = 1e-12
MIN_BURN_IN = 64
BURN_IN_TOL = 1e-6  # slowest mode's share left when a Monte Carlo window starts
MIN_REPLICAS = 100  # fewest independent trajectories a Monte Carlo bootstrap resamples
N_BOOTSTRAP = 200  # replica bootstrap resamples behind each Monte Carlo error


def _tree_levels(questions, process, initial: BlochVector):
    """Leaf masses of the tree at horizons 1, 2, ...: each level branches every
    leaf into 2K children (question, answer), a fresh root first.

    The root sits at `initial`.  Leaf i of a level ends in chain state i % 2K,
    so its Bloch vector is row i % 2K of the collapsed states.
    """
    k = len(questions)
    axes = [q.axis for q in questions]
    pairs = collapsed_states(axes)
    last = np.arange(2 * k) // 2
    probs, states, prev = np.ones(1), initial.as_array()[None], np.full(1, k)
    for t in itertools.count():
        law = procmod.question_law(process, t)[prev]
        probs = (probs[:, None] * chainmod.step_law(law, outcome_table(states, axes))).reshape(-1)
        yield probs
        copies = probs.size // (2 * k)
        states, prev = np.tile(pairs, (copies, 1)), np.tile(last, copies)


def brute_force_joint(questions, process, initial: BlochVector, horizon: int) -> JointDistribution:
    """Exact probability of every length-`horizon` trajectory, over (q1, a1, ..., qT, aT).

    Every question branch is enumerated each step regardless of its schedule
    weight (zero-probability branches are kept as zero-mass leaves), so the
    table has (2K)^T entries.
    """
    questions = chainmod.check_process_labels(questions, process)
    if horizon < 1:
        raise ValidationError(f"horizon must be >= 1, got {horizon}")
    leaves = (2 * len(questions)) ** horizon
    if leaves > LEAF_CAP:
        raise SizeCapError(f"enumeration needs {leaves} leaves, over LEAF_CAP = {LEAF_CAP}")
    probs = next(itertools.islice(_tree_levels(questions, process, initial), horizon - 1, None))
    labels = tuple(q.label for q in questions)
    return JointDistribution(
        names=tuple(n for t in range(1, horizon + 1) for n in (f"q{t}", f"a{t}")),
        alphabets=(labels, ANSWERS) * horizon,
        table=probs.reshape((len(questions), 2) * horizon),
    )


def converged_tail(questions, process, initial: BlochVector, window: int) -> tuple:
    """Grow the horizon until successive tail windows agree within TAIL_TOL.

    Returns (tail joint, horizon used).  Reducible chains such as the single
    question scenario stabilize immediately; mixing chains take a few steps.
    """
    questions = chainmod.check_process_labels(questions, process)
    k = len(questions)
    if (2 * k) ** (window + 2) > LEAF_CAP:
        raise SizeCapError(
            f"cannot even compare horizons {window + 1} and {window + 2} under LEAF_CAP = {LEAF_CAP}"
        )
    width = (2 * k) ** (window + 1)
    levels = enumerate(_tree_levels(questions, process, initial), start=1)
    for horizon, probs in itertools.islice(levels, window, None):
        tail = probs.reshape(-1, width).sum(axis=0)  # the last window + 1 pairs
        if horizon > window + 1 and np.max(np.abs(tail - prev_tail)) < TAIL_TOL:
            table = tail.reshape((k, 2) * (window + 1))
            names = chainmod.window_names(window)
            alphabets = chainmod.window_alphabets(questions, window)
            return JointDistribution(names=names, alphabets=alphabets, table=table), horizon
        if probs.size * 2 * k > LEAF_CAP:
            raise SizeCapError(
                f"tail has not stabilized within LEAF_CAP = {LEAF_CAP} leaves; "
                f"last deviation at horizon {horizon}"
            )
        prev_tail = tail


def verdict(check: str, scenario: str, deviation: float, tolerance: float) -> dict:
    """The standard verification verdict record."""
    return {
        "check": check,
        "scenario": scenario,
        "deviation": float(deviation),
        "tolerance": float(tolerance),
        "pass": bool(deviation <= tolerance),
    }


def replica_plan(chain: chainmod.Chain, n: int) -> tuple:
    """(burn-in, replicas R, windows L per replica) with which Monte Carlo draws n windows.

    The spectral burn-in is max(MIN_BURN_IN, ceil(ln BURN_IN_TOL / ln lam))
    steps, where lam is the chain's cached `slowest_mode`: after that many
    steps the slowest decaying mode has shrunk by BURN_IN_TOL (Levin,
    Peres & Wilmer, Markov Chains and Mixing Times, ch. 4).

    L is the spectral burn-in when the chain `mixes`: a replica then has
    forgotten its start and its next windows all follow the long run.  It is
    cut to n // MIN_REPLICAS so that at least MIN_REPLICAS replicas carry the
    bootstrap.  L is 1 otherwise: on a reducible kernel a trajectory never
    leaves the class it lands in, on a periodic one it keeps its phase, so each
    window needs its own replica.  R = ceil(n / L), and the last replica may
    give fewer.

    A plan with L > 1 burns in the spectral burn-in.  With L = 1 the burn-in
    is exact: the first step, at most the spectral burn-in, at which the law
    of a replica started from the chain's own start is stationary
    (`chain.settle`), so that every window has the long-run law.  It is 0 on
    an identity kernel, where every state is absorbing; a start that keeps
    its phase on a periodic kernel never gets there.  The plan never reads
    the long-run distribution, and the windows are still simulated from the
    Born rule.
    A periodic schedule has no time-homogeneous kernel: it burns in
    MIN_BURN_IN steps and gives one window per replica.
    """
    burn_in, per = MIN_BURN_IN, 1
    if not isinstance(chain.process, procmod.PeriodicProcess):
        lam = chain.slowest_mode
        if lam != 0.0:
            burn_in = max(MIN_BURN_IN, math.ceil(math.log(BURN_IN_TOL) / math.log(lam)))
        if chain.mixes:
            per = max(1, min(burn_in, n // MIN_REPLICAS))
        if per == 1:
            burn_in = chainmod.settle(chain, burn_in)[0]
    return burn_in, -(-n // per), per


def sample_windows(chain: chainmod.Chain, window: int, n: int, seed: int) -> tuple:
    """(windows, plan): n (window+1)-pair windows drawn from R replica trajectories,
    and the `replica_plan` (burn-in, R, L) that drew them.

    The replicas start from the chain's `initial` and run through the
    sampler's question and answer steps, b = max(1, process._BLOCK_ENTRIES // R)
    steps at a time; no output depends on b.  Each discards its burn-in and
    then gives L consecutive sliding windows, as `replica_plan` sets out.  Replicas are
    i.i.d.; windows inside one are not, so errors must resample whole
    replicas.  Where L = 1 (reducible or periodic chains) R = n, every window
    has its own trajectory, the samples are i.i.d. and plain bootstrap errors
    are valid.
    A burn-in of 0 keeps the first step: its uniforms come first in the
    stream, so on an identity kernel the windows equal those after any longer
    burn-in.

    The windows are an (n, 2*(window+1)) index array aligned with
    chain.window_names(window), in the smallest integer dtype that holds the
    question count.  Rows r*L to r*L + L - 1 are replica r's windows in time
    order, so row i+1's first 2*window columns are row i's last 2*window.
    """
    if window < 1:
        raise ValidationError(f"window must be >= 1, got {window}")
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    plan = burn_in, replicas, per = replica_plan(chain, n)
    questions, process = chain.questions, chain.process
    k = len(questions)
    rng = procmod._rng(seed)
    next_questions = procmod.question_step(process)
    next_answers = chainmod.answer_step(chain)
    # one Philox stream, per step R question uniforms and then R answer uniforms; no question
    # uniforms for K = 1, nor after step 0 on periodic or one-question i.i.d. schedules
    periodic = isinstance(process, procmod.PeriodicProcess)
    later = not periodic and (k > 1 or isinstance(process, procmod.MarkovProcess))
    steps = window + per  # pairs each replica keeps after its burn-in
    kept = np.empty((replicas, steps, 2), dtype=np.min_scalar_type(k))
    q = np.full(replicas, k)  # a fresh start: question K, chain state 2K
    state = 2 * q
    spans = [(0, 1)] + procmod.blocks(1, burn_in, replicas)
    spans += procmod.blocks(max(1, burn_in), burn_in + steps, replicas)
    buffer = np.empty(2 * replicas * max(t1 - t0 for t0, t1 in spans))
    for t0, t1 in spans:
        shape = (t1 - t0, 1 + (k > 1 if t0 == 0 else later), replicas)
        u = rng.random(out=buffer[: math.prod(shape)].reshape(shape))
        qs = next_questions(q, u[:, 0], t0)  # reads no uniform where none is drawn
        a = next_answers(state, qs, u[:, -1])
        q = qs[-1]
        state = q * 2
        state += a[-1]
        if t0 >= burn_in:
            kept[:, t0 - burn_in : t1 - burn_in, 0] = qs.T
            kept[:, t0 - burn_in : t1 - burn_in, 1] = a.T
    width = 2 * (window + 1)
    kept = kept.reshape(replicas, 2 * steps)
    out = np.empty((replicas, per, width), dtype=kept.dtype)
    for c in range(width):  # a replica's window j starts at its kept pair j
        out[:, :, c] = kept[:, c : c + 2 * per : 2]
    return out.reshape(-1, width)[:n], plan


@dataclass(frozen=True)
class MonteCarloReport:
    """Plug-in estimates of the info quantities with replica bootstrap errors.

    `replicas` trajectories each discarded `burn_in` steps and gave
    `windows_per_replica` windows (the last replica may give fewer).  With
    one window per replica the burn-in ends where a replica's law is
    stationary, so it is 0 on an identity kernel.
    """

    n: int
    i_mem: float
    i_pred: float
    nostalgia: float
    se_i_mem: float
    se_i_pred: float
    se_nostalgia: float
    burn_in: int
    replicas: int
    windows_per_replica: int


def _view_next_cells(samples: np.ndarray, num_questions: int, k: int, labeled: bool) -> np.ndarray:
    """Each window's (view, next pair) cell: view-major, views in canonical order."""
    w = samples.shape[1] // 2 - 1
    columns = samples.T
    cell = view_index(columns[2 * (w - k) : 2 * w], num_questions, labeled)
    cell *= 2 * num_questions
    cell += view_index(columns[2 * w :], num_questions, True)  # the next pair, with its label
    return cell


def monte_carlo_check(
    chain: chainmod.Chain, window: int, strategy: Strategy, n: int, seed: int
) -> MonteCarloReport:
    """Monte Carlo estimate of an InfoReport's information terms, with bootstrap errors.

    Counts only the (view, next pair) cells of `strategy.view_encoder`: the
    memory reads the window through its view, so the plug-in I(M; window)
    equals I(M; view).  The errors come from a replica bootstrap: the
    replicas that `sample_windows` drew, as its plan sets them out, are
    resampled whole, N_BOOTSTRAP times from a seeded generator.  With one
    window per replica this is the ordinary bootstrap, drawn over the cells.
    All replicates are scored at once.
    """
    if n < 10**3:
        raise ValidationError(f"need at least 1000 samples, got {n}")
    samples, (burn_in, replicas, per) = sample_windows(chain, window, n, seed)
    questions = chain.questions
    labels = tuple(q.label for q in questions)
    k, labeled, encoder, _ = view_encoder(strategy, labels, window)
    views, nexts = encoder.shape[0], 2 * len(questions)
    cells = _view_next_cells(samples, len(questions), k, labeled)

    rng = procmod._rng(seed, offset=0xB00)
    if per == 1:
        counts = np.bincount(cells, minlength=views * nexts)
        boots = rng.multinomial(n, counts / counts.sum(), size=N_BOOTSTRAP)
    else:
        # per-replica cell counts; a replicate weighs each replica by how often it was drawn
        cells += np.arange(n) // per * (views * nexts)
        by_replica = np.bincount(cells, minlength=replicas * views * nexts).astype(float)
        by_replica = by_replica.reshape(replicas, views * nexts)
        counts = by_replica.sum(axis=0)
        weights = np.empty((N_BOOTSTRAP, replicas))
        for b in range(N_BOOTSTRAP):
            weights[b] = np.bincount(rng.integers(replicas, size=replicas), minlength=replicas)
        boots = np.einsum("br,rc->bc", weights, by_replica)  # not BLAS: no thread pool

    def scores(table: np.ndarray) -> tuple:
        p = table.reshape(table.shape[:-1] + (views, nexts))
        i_mem, i_pred = info.encoder_information(p / p.sum(axis=(-2, -1), keepdims=True), encoder)
        return i_mem, i_pred, np.maximum(i_mem - i_pred, 0.0)

    i_mem, i_pred, nostalgia = scores(counts)
    se = np.std(scores(boots), axis=1, ddof=1)
    return MonteCarloReport(
        n=n,
        i_mem=i_mem,
        i_pred=i_pred,
        nostalgia=float(nostalgia),
        se_i_mem=float(se[0]),
        se_i_pred=float(se[1]),
        se_nostalgia=float(se[2]),
        burn_in=burn_in,
        replicas=replicas,
        windows_per_replica=per,
    )
