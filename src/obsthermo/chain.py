"""The exact Markov chain over (question, answer) pairs induced by repeated
projective measurement, its long-run behavior, exact windowed joints, and
sampled trajectories.

A chain state names the post-measurement eigenstate: after answering question
q with outcome a the qubit sits at a * axis(q), so the pair (q, a) is a
complete system description between interactions.  States are indexed
s = 2 * question_index + (0 if a == +1 else 1).
"""

from dataclasses import dataclass

import numpy as np

from . import process as procmod
from .errors import SizeCapError, ValidationError
from .joint import JointDistribution, write_joint_csv
from .qubit import ANSWERS, BlochVector, Question, answer_to_bit, born_probability, collapse

KERNEL_TOL = 1e-12
LONG_RUN_TOL = 1e-10
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


def state_index(question_index: int, answer: int) -> int:
    return 2 * question_index + (0 if answer == +1 else 1)


def state_symbols(questions) -> list:
    """Chain states in index order: [(label0, +1), (label0, -1), (label1, +1), ...]."""
    return [(q.label, a) for q in questions for a in ANSWERS]


def born_plus_matrix(questions) -> np.ndarray:
    """B[s, j] = P(+1 | state s, axis of question j), for every chain state s."""
    questions = _check_questions(questions)
    k = len(questions)
    out = np.empty((2 * k, k))
    for i, q in enumerate(questions):
        for a in ANSWERS:
            state = collapse(q.axis, a)
            for j, q2 in enumerate(questions):
                out[state_index(i, a), j] = born_probability(state, q2.axis)
    return out


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


def build_chain(questions, process: procmod.QuestionProcess) -> ChainKernel:
    """Kernel P((q',a') | (q,a)) = P_proc(q'|q) * Born(a' | collapse(q,a), axis(q')).

    Only IID and Markov schedules define a time-homogeneous kernel; periodic
    schedules must go through time-unrolled enumeration (see obsthermo.oracle).
    """
    questions = _check_questions(questions)
    if isinstance(process, procmod.PeriodicProcess):
        raise ValidationError(
            "periodic schedules have no time-homogeneous kernel; "
            "use oracle.brute_force_joint for time-unrolled enumeration"
        )
    if tuple(process.labels) != tuple(q.label for q in questions):
        raise ValidationError(
            f"process labels {process.labels} do not match questions "
            f"{tuple(q.label for q in questions)}"
        )
    k = len(questions)
    if isinstance(process, procmod.IIDProcess):
        qstep = np.tile(process.weights, (k, 1))
    else:
        qstep = np.asarray(process.transition)
    born = born_plus_matrix(questions)  # (2k, k)
    mat = np.empty((2 * k, 2 * k))
    for s in range(2 * k):
        q = s // 2
        for j in range(k):
            mat[s, state_index(j, +1)] = qstep[q, j] * born[s, j]
            mat[s, state_index(j, -1)] = qstep[q, j] * (1.0 - born[s, j])
    return ChainKernel(questions=questions, process=process, matrix=mat)


def initial_state_distribution(
    questions, initial: BlochVector, first_question_dist: np.ndarray
) -> np.ndarray:
    """Distribution of the first (question, answer) pair from a fresh state."""
    questions = _check_questions(questions)
    k = len(questions)
    first = np.asarray(first_question_dist, dtype=float)
    if first.shape != (k,):
        raise ValidationError(f"first question law needs {k} entries, got shape {first.shape}")
    mu = np.empty(2 * k)
    for j, q in enumerate(questions):
        p_plus = born_probability(initial, q.axis)
        mu[state_index(j, +1)] = first[j] * p_plus
        mu[state_index(j, -1)] = first[j] * (1.0 - p_plus)
    return mu


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


def _is_periodic(matrix: np.ndarray) -> bool:
    """True when the kernel has an eigenvalue of modulus 1 other than 1."""
    vals = np.linalg.eigvals(matrix)
    on_circle = np.abs(np.abs(vals) - 1.0) < _UNIT_TOL
    return bool(np.any(on_circle & (np.abs(vals - 1.0) >= _UNIT_TOL)))


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


def long_run_distribution(
    kernel: ChainKernel, initial: BlochVector, first_question_dist: np.ndarray | None = None
) -> LongRunResult:
    """Limit of the chain distribution started from the induced initial law.

    Reducible chains (e.g. a single question) get the initial-condition-induced
    limit, not an arbitrary stationary vector.  When the power iteration does
    not settle, the result is the Cesaro average; it is flagged only if the
    chain is genuinely periodic, not merely slow to mix.
    """
    if first_question_dist is None:
        first_question_dist = procmod.first_question_distribution(kernel.process)
    mu = initial_state_distribution(kernel.questions, initial, first_question_dist)
    mat = kernel.matrix
    for _ in range(10_000):
        nxt = mu @ mat
        if np.max(np.abs(nxt - mu)) < 1e-15:
            return LongRunResult(distribution=nxt, cesaro=False)
        mu = nxt
    mu0 = initial_state_distribution(kernel.questions, initial, first_question_dist)
    return LongRunResult(distribution=_cesaro_limit(mat, mu0), cesaro=_is_periodic(mat))


def window_alphabets(questions, window: int) -> tuple:
    labels = tuple(q.label for q in questions)
    alphabets = []
    for _ in range(window + 1):
        alphabets.append(labels)
        alphabets.append(ANSWERS)
    return tuple(alphabets)


def window_joint(
    kernel: ChainKernel,
    long_run: LongRunResult,
    window: int,
    entry_cap: int = WINDOW_ENTRY_CAP,
) -> JointDistribution:
    """Exact joint over w history pairs plus the next pair, at the long run.

    Variables are named q-w+1, a-w+1, ..., q0, a0, q+1, a+1; the table has
    (2K)^(w+1) entries.
    """
    if window < 1:
        raise ValidationError(f"window must be >= 1, got {window}")
    n = kernel.num_states
    entries = n ** (window + 1)
    if entries > entry_cap:
        raise SizeCapError(
            f"window joint needs {entries} entries; raise entry_cap to at least {entries}"
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

    def __post_init__(self):
        steps = tuple((str(q), int(a)) for q, a in self.steps)
        if not steps:
            raise ValidationError("trajectory must be non-empty")
        for _, a in steps:
            if a not in ANSWERS:
                raise ValidationError(f"answers must be +1/-1, got {a!r}")
        object.__setattr__(self, "steps", steps)

    def __len__(self):
        return len(self.steps)

    def answers(self) -> np.ndarray:
        return np.array([a for _, a in self.steps])

    def labels(self) -> list:
        return [q for q, _ in self.steps]


def sample_trajectory(
    questions, process: procmod.QuestionProcess, initial: BlochVector, length: int, seed: int
) -> Trajectory:
    """Simulate the measurement chain directly: draw a question, draw the Born
    outcome, collapse, repeat.  Reproducible for a given seed."""
    questions = _check_questions(questions)
    if length < 1:
        raise ValidationError(f"length must be >= 1, got {length}")
    labels = procmod.sample_questions(process, length, seed)
    label_to_idx = {q.label: i for i, q in enumerate(questions)}
    born = born_plus_matrix(questions)
    rng = procmod._rng(seed + 0x5EED)  # decouple answer draws from question draws
    u = rng.random(length)
    steps = []
    q0 = label_to_idx[labels[0]]
    p_plus = born_probability(initial, questions[q0].axis)
    a = +1 if u[0] < p_plus else -1
    steps.append((labels[0], a))
    state = state_index(q0, a)
    for t in range(1, length):
        j = label_to_idx[labels[t]]
        a = +1 if u[t] < born[state, j] else -1
        steps.append((labels[t], a))
        state = state_index(j, a)
    return Trajectory(steps=tuple(steps), seed=seed, initial=initial)


def trajectory_window_indices(trajectory: Trajectory, questions, window: int) -> np.ndarray:
    """Sliding (w+1)-pair windows of a trajectory as symbol indices.

    Returns an (N, 2*(w+1)) integer array aligned with window_names(window),
    ready for info.plugin_from_samples.
    """
    questions = _check_questions(questions)
    if len(trajectory) < window + 1:
        raise ValidationError("trajectory shorter than one window")
    label_to_idx = {q.label: i for i, q in enumerate(questions)}
    q_idx = np.array([label_to_idx[q] for q in trajectory.labels()])
    a_idx = np.array([0 if a == +1 else 1 for a in trajectory.answers()])
    n = len(trajectory) - window
    cols = []
    for j in range(window + 1):
        cols.append(q_idx[j : j + n])
        cols.append(a_idx[j : j + n])
    return np.stack(cols, axis=1)


def write_trajectory_csv(trajectory: Trajectory, path) -> None:
    """Columns t, question, answer with answers serialized as 1/0."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,question,answer\n")
        for t, (q, a) in enumerate(trajectory.steps, start=1):
            fh.write(f"{t},{q},{answer_to_bit(a)}\n")


def write_window_joint_csv(window: JointDistribution, path) -> None:
    """Window joint as CSV, answers serialized as 1/0."""
    serializers = {n: answer_to_bit for n in window.names if n.startswith("a")}
    write_joint_csv(window, path, serializers=serializers)
