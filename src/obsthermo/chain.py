"""The exact Markov chain over (question, answer) pairs induced by repeated
projective measurement, its long-run behavior, exact windowed joints, and
sampled trajectories.

A chain state names the post-measurement eigenstate: after answering question
q with outcome a the qubit sits at a * axis(q), so the pair (q, a) is a
complete system description between interactions.  States are indexed
s = 2 * question_index + (0 if a == +1 else 1).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import process as procmod
from .errors import SizeCapError, ValidationError
from .joint import JointDistribution
from .qubit import ANSWERS, BlochVector, Question, collapsed_states, outcome_table

KERNEL_TOL = 1e-12
LONG_RUN_TOL = 1e-10
STATIONARY_TOL = 1e-15  # a law whose one-step change stays below this is stationary
WINDOW_ENTRY_CAP = 10**7
_UNIT_TOL = 1e-9  # eigenvalues this close to a unit-modulus value count as on it

#: Variable names of the one-step-ahead pair in every window joint.
FUTURE_PAIR = ("q+1", "a+1")


def pair_names(offset: int) -> tuple:
    """Names of the (question, answer) variables at time t + offset."""
    suffix = f"+{offset}" if offset > 0 else str(offset)
    return (f"q{suffix}", f"a{suffix}")


def window_names(window: int) -> tuple:
    """Variable names for a window of `window` history pairs plus the future pair."""
    names = []
    for offset in range(-window + 1, 1):
        names.extend(pair_names(offset))
    names.extend(FUTURE_PAIR)
    return tuple(names)


def _check_questions(questions) -> tuple:
    questions = tuple(questions)
    if not questions:
        raise ValidationError("need at least one question")
    labels = [q.label for q in questions]
    if len(set(labels)) != len(labels):
        raise ValidationError(f"question labels must be unique within a scenario, got {labels}")
    return questions


def check_process_labels(questions, process: procmod.QuestionProcess) -> tuple:
    """The questions as a tuple, once the schedule lists their labels in their order.

    Kernels, samplers and the oracle tree read a scheduled question's position
    in `process.labels` as its index into `questions`.
    """
    questions = _check_questions(questions)
    labels = tuple(q.label for q in questions)
    if tuple(process.labels) != labels:
        raise ValidationError(f"process labels {process.labels} do not match questions {labels}")
    return questions


def state_symbols(questions) -> list:
    """Chain states in index order: [(label0, +1), (label0, -1), (label1, +1), ...]."""
    return [(q.label, a) for q in questions for a in ANSWERS]


def step_law(law: np.ndarray, states: np.ndarray, axes) -> np.ndarray:
    """(n, 2K) law of the next chain state from n qubit states: the one-step law.

    Row i is law[i, q] times the Born factor of answer a for states[i] along
    axes[q], at column 2q + (0 if a == +1 else 1); `law` holds rows of
    `process.question_law`.
    """
    return (law[:, :, None] * outcome_table(states, axes)).reshape(len(law), -1)


def answer_step(questions, initial: BlochVector):
    """The sampler's Born answer step: a function (prev, q, u) -> (b, R) answers, 0 for +1.

    `prev` holds the chain state of each of R paths before the block, 2K for
    a fresh start from `initial`; `q` and `u` are the block's (b, R) questions
    and uniforms.  An answer is +1 when u < P(+1).  The first is a direct
    lookup, the later ones {+,-} -> {+,-} maps of the answer before.
    """
    k = len(questions)
    axes = [q.axis for q in questions]
    born = outcome_table(np.vstack([collapsed_states(axes), initial.as_array()]), axes)
    born = born[:, :, 0].ravel()
    rows = np.array([[0], [k]])  # born[2 q_prev + a_prev, q] for a_prev = 0, 1

    def step(prev, q, u):
        at = prev * k
        at += q[0]
        first = u[0] >= born.take(at)
        if len(q) == 1:
            return first[None]
        maps = u[1:, None] >= born.take(2 * k * q[:-1, None] + q[1:, None] + rows)
        return procmod.iterate_maps(first, maps)

    return step


@dataclass(frozen=True, eq=False)
class ChainKernel:
    """Row-stochastic transition matrix over chain states, with its question set."""

    questions: tuple
    process: procmod.QuestionProcess
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=float)
        rows = mat.sum(axis=1)
        if np.max(np.abs(rows - 1.0)) > KERNEL_TOL:
            raise ValidationError(f"kernel rows must sum to 1 within {KERNEL_TOL}")
        mat = mat.copy()
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    @property
    def num_states(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_questions(self) -> int:
        return len(self.questions)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """The matrix's eigenvalues, computed once for `mixes`, `slowest_mode_modulus`
        and the long run's periodicity flag."""
        return np.linalg.eigvals(self.matrix)


def build_chain(questions, process: procmod.QuestionProcess) -> ChainKernel:
    """Kernel P((q',a') | (q,a)) = P_proc(q'|q) * Born(a' | collapse(q,a), axis(q')).

    Only IID and Markov schedules define a time-homogeneous kernel; periodic
    schedules must go through time-unrolled enumeration (see obsthermo.oracle).
    """
    if isinstance(process, procmod.PeriodicProcess):
        raise ValidationError(
            "periodic schedules have no time-homogeneous kernel; "
            "use oracle.brute_force_joint for time-unrolled enumeration"
        )
    questions = check_process_labels(questions, process)
    axes = [q.axis for q in questions]
    law = np.repeat(procmod.question_law(process)[:-1], 2, axis=0)  # row s: after question s // 2
    mat = step_law(law, collapsed_states(axes), axes)
    return ChainKernel(questions=questions, process=process, matrix=mat)


@dataclass(frozen=True, eq=False)
class LongRunResult:
    """Long-run distribution over chain states, from a given start.

    `cesaro` flags periodic chains where only the Cesaro (time-averaged) limit
    exists; for aperiodic or reducible-but-converging chains it is False.
    """

    distribution: np.ndarray
    cesaro: bool

    def __post_init__(self):
        mu = np.asarray(self.distribution, dtype=float)
        if abs(mu.sum() - 1.0) > LONG_RUN_TOL:
            raise ValidationError(f"long-run mass {mu.sum()!r} differs from 1 beyond {LONG_RUN_TOL}")
        mu = np.clip(mu, 0.0, None)
        mu = mu / mu.sum()
        mu.flags.writeable = False
        object.__setattr__(self, "distribution", mu)


def _is_periodic(kernel: ChainKernel) -> bool:
    """True when the kernel has an eigenvalue of modulus 1 other than 1."""
    vals = kernel.eigenvalues
    on_circle = np.abs(np.abs(vals) - 1.0) < _UNIT_TOL
    return bool(np.any(on_circle & (np.abs(vals - 1.0) >= _UNIT_TOL)))


def mixes(kernel: ChainKernel) -> bool:
    """True when 1 is the kernel's only eigenvalue of modulus 1.

    Then the chain has one recurrent class and it is aperiodic: every start
    converges to the same long run, and one trajectory forgets where it began.
    """
    moduli = np.abs(kernel.eigenvalues)
    return int(np.sum(moduli >= 1.0 - _UNIT_TOL)) == 1


def slowest_mode_modulus(kernel: ChainKernel) -> float:
    """Largest eigenvalue modulus of the kernel below 1 (0.0 when there is none).

    Stationary and periodic modes, within the unit tolerance of modulus 1, are
    left out: what remains sets how fast the chain forgets its start.
    """
    moduli = np.abs(kernel.eigenvalues)
    inner = moduli[moduli < 1.0 - _UNIT_TOL]
    return float(inner.max()) if inner.size else 0.0


def _cesaro_limit(matrix: np.ndarray, mu0: np.ndarray) -> np.ndarray:
    """Exact Cesaro limit of mu0 P^t via the spectral projector at eigenvalue 1.

    Peripheral eigenvalues (|lam| = 1, lam != 1) average to zero, interior ones
    decay, so the projector onto the eigenvalue-1 subspace is the limit.  For
    stochastic matrices that eigenvalue is semisimple, so left/right eigenvector
    bases are enough: right ones from P, left ones from P^T.
    """
    vals, right = np.linalg.eig(matrix)
    vals_t, left = np.linalg.eig(matrix.T)
    sel = np.abs(vals - 1.0) < _UNIT_TOL
    sel_t = np.abs(vals_t - 1.0) < _UNIT_TOL
    if not np.any(sel) or sel.sum() != sel_t.sum():
        raise ValidationError("stochastic matrix lost its unit eigenvalue; numerical failure")
    r = right[:, sel]
    l = left[:, sel_t].T
    proj = r @ np.linalg.solve(l @ r, l)
    mu = np.real(mu0 @ proj)
    return mu


def _start_law(kernel: ChainKernel, initial: BlochVector) -> np.ndarray:
    """Law of the first chain state: the one-step law of a fresh start at `initial`."""
    start = procmod.question_law(kernel.process)[-1:]
    return step_law(start, initial.as_array()[None], [q.axis for q in kernel.questions])[0]


def settle(kernel: ChainKernel, initial: BlochVector, limit: int) -> tuple:
    """(t, law): the first step t < limit at which the chain law is stationary, or (limit, law).

    The law mu_0 is that of the first chain state of a start at `initial`, and
    mu_(t+1) = mu_t P.  mu_t counts as stationary once one more step moves it
    by less than STATIONARY_TOL; the law returned is then mu_(t+1), else mu_limit.
    """
    mu = _start_law(kernel, initial)
    for t in range(limit):
        nxt = mu @ kernel.matrix
        if np.max(np.abs(nxt - mu)) < STATIONARY_TOL:
            return t, nxt
        mu = nxt
    return limit, mu


def long_run_distribution(kernel: ChainKernel, initial: BlochVector) -> LongRunResult:
    """Limit of the chain distribution started from the induced initial law.

    Reducible chains (e.g. a single question) get the initial-condition-induced
    limit, not an arbitrary stationary vector.  The power iteration `settle`s
    within 10,000 steps or the result is the Cesaro average; it is flagged only
    if the chain is genuinely periodic, not merely slow to mix.
    """
    limit = 10_000
    steps, mu = settle(kernel, initial, limit)
    if steps < limit:
        return LongRunResult(distribution=mu, cesaro=False)
    mu0 = _start_law(kernel, initial)
    return LongRunResult(distribution=_cesaro_limit(kernel.matrix, mu0), cesaro=_is_periodic(kernel))


def window_alphabets(questions, window: int) -> tuple:
    labels = tuple(q.label for q in questions)
    alphabets = []
    for _ in range(window + 1):
        alphabets.append(labels)
        alphabets.append(ANSWERS)
    return tuple(alphabets)


def window_joint(kernel: ChainKernel, long_run: LongRunResult, window: int) -> JointDistribution:
    """Exact joint over w history pairs plus the next pair, at the long run.

    Variables are named q-w+1, a-w+1, ..., q0, a0, q+1, a+1; the table has
    (2K)^(w+1) entries, at most WINDOW_ENTRY_CAP.
    """
    if window < 1:
        raise ValidationError(f"window must be >= 1, got {window}")
    n = kernel.num_states
    entries = n ** (window + 1)
    if entries > WINDOW_ENTRY_CAP:
        raise SizeCapError(
            f"window joint needs {entries} entries, over WINDOW_ENTRY_CAP = {WINDOW_ENTRY_CAP}"
        )
    table = long_run.distribution.copy()
    for _ in range(window):
        table = table[..., None] * kernel.matrix
    k = kernel.num_questions
    table = table.reshape((k, 2) * (window + 1))
    return JointDistribution(
        names=window_names(window),
        alphabets=window_alphabets(kernel.questions, window),
        table=table,
    )


@dataclass(frozen=True, eq=False)
class Trajectory:
    """An ordered record of (question label, answer) pairs with its provenance."""

    steps: tuple
    seed: int
    initial: BlochVector

    def __len__(self):
        return len(self.steps)

    def answers(self) -> np.ndarray:
        return np.array([a for _, a in self.steps])

    def labels(self) -> list:
        return [q for q, _ in self.steps]


def sample_trajectory(
    questions, process: procmod.QuestionProcess, initial: BlochVector, length: int, seed: int
) -> Trajectory:
    """Simulate the measurement chain on one path: questions from
    `process.sample_questions`, Born answers from `answer_step` block by
    block, fed from their own Philox stream.  Reproducible for a given seed."""
    questions = _check_questions(questions)
    if length < 1:
        raise ValidationError(f"length must be >= 1, got {length}")
    labels = procmod.sample_questions(process, length, seed)
    label_to_idx = {q.label: i for i, q in enumerate(questions)}
    q = np.fromiter(map(label_to_idx.__getitem__, labels), np.intp, length)[:, None]
    rng = procmod._rng(seed, offset=0x5EED)  # decouple answer draws from question draws
    a = np.empty_like(q)
    step, state = answer_step(questions, initial), np.full(1, 2 * len(questions))
    for t0, t1 in procmod.blocks(0, length, 1):
        a[t0:t1] = step(state, q[t0:t1], rng.random((t1 - t0, 1)))
        state = 2 * q[t1 - 1] + a[t1 - 1]
    answers = (1 - 2 * a[:, 0]).tolist()
    return Trajectory(tuple(zip(map(str, labels), answers)), seed, initial)

