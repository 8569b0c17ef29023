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
from .qubit import ANSWERS, BlochVector, collapsed_states, outcome_table

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


def check_process_labels(questions, process: procmod.QuestionProcess) -> tuple:
    """The questions as a tuple, once the schedule lists their labels in their order.

    Kernels, samplers and the oracle tree read a scheduled question's position
    in `process.labels` as its index into `questions`.  A valid schedule's
    labels are non-empty and unique, so matching them makes the questions so.
    """
    questions = tuple(questions)
    labels = tuple(q.label for q in questions)
    if tuple(process.labels) != labels:
        raise ValidationError(f"process labels {process.labels} do not match questions {labels}")
    return questions


def state_symbols(questions) -> list:
    """Chain states in index order: [(label0, +1), (label0, -1), (label1, +1), ...]."""
    return [(q.label, a) for q in questions for a in ANSWERS]


def step_law(law: np.ndarray, born: np.ndarray) -> np.ndarray:
    """(n, 2K) law of the next chain state from n qubit states: the one-step law.

    Row i is law[i, q] times born[i, q, a], the Born factor of answer a for
    qubit state i along question q (`qubit.outcome_table`), at column
    2q + (0 if a == +1 else 1); `law` holds rows of `process.question_law`.
    """
    return (law[:, :, None] * born).reshape(len(law), -1)


def answer_step(chain: "Chain"):
    """The sampler's Born answer step: a function (prev, q, u) -> (b, R) answers, 0 for +1.

    `prev` holds the chain state of each of R paths before the block, 2K for
    a fresh start from the chain's `initial`; `q` and `u` are the block's
    (b, R) questions and uniforms.  An answer is +1 when u < P(+1).  The first
    is a direct lookup, the later ones {+,-} -> {+,-} maps of the answer before.
    """
    k = len(chain.questions)
    born = chain.born[:, :, 0].ravel()
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
class Chain:
    """The measurement chain of a schedule over its questions from a start, checked once.

    A Markov chain is its kernel together with its initial law, and on a
    reducible kernel the long run depends on that law, so the chain carries
    the qubit's `initial` state.  The constructor checks that the schedule
    lists the question labels in their order.  Each of the following is
    computed on first access and kept: the `born` table, the kernel `matrix`,
    what is read from its spectrum (`eigenvalues`, `slowest_mode`, `mixes`,
    `periodic`), the `start_law` and the `long_run`.

    A periodic schedule builds a chain that the samplers run on, but it has
    no time-homogeneous kernel: reading its `matrix`, or anything read from
    it, raises ValidationError.  Its exact numbers come from time-unrolled
    enumeration (see obsthermo.oracle).
    """

    questions: tuple
    process: procmod.QuestionProcess
    initial: BlochVector

    def __post_init__(self):
        object.__setattr__(self, "questions", check_process_labels(self.questions, self.process))

    @cached_property
    def born(self) -> np.ndarray:
        """(2K + 1, K, 2) Born table of every state a measurement starts from:
        chain state s in row s (`collapsed_states`), the start `initial` in row 2K."""
        axes = [q.axis for q in self.questions]
        table = outcome_table(np.vstack([collapsed_states(axes), self.initial.as_array()]), axes)
        table.flags.writeable = False
        return table

    @cached_property
    def matrix(self) -> np.ndarray:
        """Row-stochastic P((q',a') | (q,a)) = P_proc(q'|q) * Born(a' | collapse(q,a), axis(q'))."""
        if isinstance(self.process, procmod.PeriodicProcess):
            raise ValidationError(
                "periodic schedules have no time-homogeneous kernel; "
                "use oracle.brute_force_joint for time-unrolled enumeration"
            )
        # row s: the law after question s // 2
        law = np.repeat(procmod.question_law(self.process)[:-1], 2, axis=0)
        mat = step_law(law, self.born[:-1])
        if not np.max(np.abs(mat.sum(axis=1) - 1.0)) <= KERNEL_TOL:
            raise ValidationError(f"kernel rows must sum to 1 within {KERNEL_TOL}")
        mat.flags.writeable = False
        return mat

    @cached_property
    def start_law(self) -> np.ndarray:
        """Law of the first chain state: the one-step law of a fresh start at `initial`."""
        law = step_law(procmod.question_law(self.process)[-1:], self.born[-1:])[0]
        law.flags.writeable = False
        return law

    @cached_property
    def long_run(self) -> "LongRunResult":
        """The chain's `long_run_distribution`."""
        return long_run_distribution(self)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        vals = np.linalg.eigvals(self.matrix)
        vals.flags.writeable = False  # shared by every reader, like `matrix`
        return vals

    @cached_property
    def slowest_mode(self) -> float:
        """Largest eigenvalue modulus below 1 (0.0 when there is none).

        Stationary and periodic modes, within the unit tolerance of modulus 1,
        are left out: what remains sets how fast the chain forgets its start.
        """
        moduli = np.abs(self.eigenvalues)
        inner = moduli[moduli < 1.0 - _UNIT_TOL]
        return float(inner.max()) if inner.size else 0.0

    @cached_property
    def mixes(self) -> bool:
        """True when 1 is the only eigenvalue of modulus 1.

        Then the chain has one recurrent class and it is aperiodic: every start
        converges to the same long run, and one trajectory forgets where it began.
        """
        return int(np.sum(np.abs(self.eigenvalues) >= 1.0 - _UNIT_TOL)) == 1

    @cached_property
    def periodic(self) -> bool:
        """True when an eigenvalue of modulus 1 other than 1 exists."""
        vals = self.eigenvalues
        on_circle = np.abs(np.abs(vals) - 1.0) < _UNIT_TOL
        return bool(np.any(on_circle & (np.abs(vals - 1.0) >= _UNIT_TOL)))


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
        if not abs(mu.sum() - 1.0) <= LONG_RUN_TOL:
            raise ValidationError(f"long-run mass {mu.sum()!r} differs from 1 beyond {LONG_RUN_TOL}")
        mu = np.clip(mu, 0.0, None)
        mu = mu / mu.sum()
        mu.flags.writeable = False
        object.__setattr__(self, "distribution", mu)


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


def settle(chain: Chain, limit: int) -> tuple:
    """(t, law): the first step t < limit at which the chain law is stationary, or (limit, law).

    The law mu_0 is the chain's `start_law`, and mu_(t+1) = mu_t P.  mu_t
    counts as stationary once one more step moves it by less than
    STATIONARY_TOL; the law returned is then mu_(t+1), else mu_limit.
    """
    mu = chain.start_law
    for t in range(limit):
        nxt = mu @ chain.matrix
        if np.max(np.abs(nxt - mu)) < STATIONARY_TOL:
            return t, nxt
        mu = nxt
    return limit, mu


def long_run_distribution(chain: Chain) -> LongRunResult:
    """Limit of the chain distribution from its `start_law`; read it as `chain.long_run`.

    Reducible chains (e.g. a single question) get the initial-condition-induced
    limit, not an arbitrary stationary vector.  The power iteration `settle`s
    within 10,000 steps or the result is the Cesaro average; it is flagged only
    if the chain is genuinely periodic, not merely slow to mix.
    """
    limit = 10_000
    steps, mu = settle(chain, limit)
    if steps < limit:
        return LongRunResult(distribution=mu, cesaro=False)
    mu = _cesaro_limit(chain.matrix, chain.start_law)
    return LongRunResult(distribution=mu, cesaro=chain.periodic)


def window_alphabets(questions, window: int) -> tuple:
    labels = tuple(q.label for q in questions)
    alphabets = []
    for _ in range(window + 1):
        alphabets.append(labels)
        alphabets.append(ANSWERS)
    return tuple(alphabets)


def window_joint(chain: Chain, window: int) -> JointDistribution:
    """Exact joint over w history pairs plus the next pair, at the chain's long run.

    Variables are named q-w+1, a-w+1, ..., q0, a0, q+1, a+1; the table has
    (2K)^(w+1) entries, at most WINDOW_ENTRY_CAP.
    """
    if window < 1:
        raise ValidationError(f"window must be >= 1, got {window}")
    k = len(chain.questions)
    entries = (2 * k) ** (window + 1)
    if entries > WINDOW_ENTRY_CAP:
        raise SizeCapError(
            f"window joint needs {entries} entries, over WINDOW_ENTRY_CAP = {WINDOW_ENTRY_CAP}"
        )
    table = chain.long_run.distribution.copy()
    for _ in range(window):
        table = table[..., None] * chain.matrix
    table = table.reshape((k, 2) * (window + 1))
    return JointDistribution(
        names=window_names(window),
        alphabets=window_alphabets(chain.questions, window),
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


def sample_trajectory(chain: Chain, length: int, seed: int) -> Trajectory:
    """Simulate the measurement chain on one path: questions from
    `process.sample_questions`, Born answers from `answer_step` block by
    block, fed from their own Philox stream.  Reproducible for a given seed."""
    if length < 1:
        raise ValidationError(f"length must be >= 1, got {length}")
    questions = chain.questions
    labels = procmod.sample_questions(chain.process, length, seed)
    label_to_idx = {q.label: i for i, q in enumerate(questions)}
    q = np.fromiter(map(label_to_idx.__getitem__, labels), np.intp, length)[:, None]
    rng = procmod._rng(seed, offset=0x5EED)  # decouple answer draws from question draws
    a = np.empty_like(q)
    step, state = answer_step(chain), np.full(1, 2 * len(questions))
    for t0, t1 in procmod.blocks(0, length, 1):
        a[t0:t1] = step(state, q[t0:t1], rng.random((t1 - t0, 1)))
        state = 2 * q[t1 - 1] + a[t1 - 1]
    answers = (1 - 2 * a[:, 0]).tolist()
    return Trajectory(tuple(zip(map(str, labels), answers)), seed, chain.initial)

