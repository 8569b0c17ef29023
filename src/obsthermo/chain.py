"""The exact Markov chain over (question, answer) pairs induced by repeated
projective measurement, its long-run behavior, the exact p(view, next pair)
table that every reported number reads, and sampled trajectories.

A chain state names the post-measurement eigenstate: after answering question
q with outcome a the qubit sits at a * axis(q), so the pair (q, a) is a
complete system description between interactions.  States are indexed
s = 2 * question_index + (0 if a == +1 else 1).

`view_table` is the one place where the long run meets the kernel: the
window joint is its labeled table, reshaped and named, and an unlabeled view
of any depth costs 2^k rows, not the (2K)^(k+1) entries of a window.
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
_SETTLE_BLOCK = 256  # most steps `settle` takes between two stationarity checks
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
    is a direct lookup, the later ones {+,-} -> {+,-} maps of the answer before,
    built as the images of + and of - apart and composed by
    `process.iterate_maps` in closed form: each map repeats, flips or fixes
    the answer.
    """
    k = len(chain.questions)
    born = chain.born[:, :, 0].ravel()  # P(+1) of question q from state s at s * k + q

    def step(prev, q, u):
        at = prev * k
        at += q[0]
        first = u[0] >= born.take(at)
        if len(q) == 1:
            return first[None]
        maps = np.empty((2, len(q) - 1, q.shape[1]), dtype=bool)  # the images of 0 and 1
        at = 2 * k * q[:-1]
        at += q[1:]
        np.greater_equal(u[1:], born.take(at), out=maps[0])
        at += k
        np.greater_equal(u[1:], born.take(at), out=maps[1])
        return procmod.iterate_maps(first, maps.transpose(1, 0, 2))

    return step


@dataclass(frozen=True, eq=False)
class Chain:
    """The measurement chain of a schedule over its questions from a start, checked once.

    A Markov chain is its kernel together with its initial law, and on a
    reducible kernel the long run depends on that law, so the chain carries
    the qubit's `initial` state.  The constructor checks that the schedule
    lists the question labels in their order.  Each of the following is
    computed on first access and kept: the `born` table, the kernel `matrix`,
    its one eigendecomposition `eigen` and what is read from it
    (`eigenvalues`, `slowest_mode`, `mixes`, `periodic`), the `start_law` and
    the `long_run`.

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
    def eigen(self) -> tuple:
        """(values, right vectors) of the kernel `matrix`: its one eigendecomposition."""
        vals, right = np.linalg.eig(self.matrix)
        vals.flags.writeable = False  # shared by every reader, like `matrix`
        right.flags.writeable = False
        return vals, right

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.eigen[0]

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


def _cesaro_limit(chain: Chain) -> np.ndarray:
    """Exact Cesaro limit of start_law P^t via the spectral projector at eigenvalue 1.

    Peripheral eigenvalues (|lam| = 1, lam != 1) average to zero, interior ones
    decay, so the projector onto the eigenvalue-1 subspace is the limit.  For
    stochastic matrices that eigenvalue is semisimple, so left/right eigenvector
    bases are enough: right ones from the chain's cached `eigen`, left ones from P^T.
    """
    vals, right = chain.eigen
    vals_t, left = np.linalg.eig(chain.matrix.T)
    sel = np.abs(vals - 1.0) < _UNIT_TOL
    sel_t = np.abs(vals_t - 1.0) < _UNIT_TOL
    if not np.any(sel) or sel.sum() != sel_t.sum():
        raise ValidationError("stochastic matrix lost its unit eigenvalue; numerical failure")
    r = right[:, sel]
    l = left[:, sel_t].T
    proj = r @ np.linalg.solve(l @ r, l)
    mu = np.real(chain.start_law @ proj)
    return mu


def settle(chain: Chain, limit: int) -> tuple:
    """(t, law): the first step t < limit at which the chain law is stationary, or (limit, law).

    The law mu_0 is the chain's `start_law`, and mu_(t+1) = mu_t P.  mu_t
    counts as stationary once one more step moves it by less than
    STATIONARY_TOL; the law returned is then mu_(t+1), else mu_limit.

    The steps run in blocks of 1, 2, 4, ... up to _SETTLE_BLOCK laws: each
    law is one vector-matrix product into a row of a buffer, the product
    `mu @ P` would give, and one vectorized check per block finds its first
    stationary step.  So the (t, law) bytes are those of a one-step loop.
    """
    matrix = chain.matrix
    laws = np.empty((_SETTLE_BLOCK + 1, len(matrix)))
    laws[0] = chain.start_law
    t, block = 0, 1
    while t < limit:
        b = min(block, limit - t)
        for i in range(b):
            np.matmul(laws[i], matrix, out=laws[i + 1])
        still = np.abs(laws[1 : b + 1] - laws[:b]).max(axis=1) < STATIONARY_TOL
        if still.any():
            i = int(still.argmax())
            return t + i, laws[i + 1].copy()
        laws[0] = laws[b]
        t += b
        block = min(2 * block, _SETTLE_BLOCK)
    return limit, laws[0].copy()


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
    mu = _cesaro_limit(chain)
    return LongRunResult(distribution=mu, cesaro=chain.periodic)


def window_alphabets(questions, window: int) -> tuple:
    labels = tuple(q.label for q in questions)
    alphabets = []
    for _ in range(window + 1):
        alphabets.append(labels)
        alphabets.append(ANSWERS)
    return tuple(alphabets)


def view_table(chain: Chain, k: int, labeled: bool) -> np.ndarray:
    """(views, 2K) table p(view of the last k pairs, next pair) at the chain's long run.

    The only code that multiplies the long run by the kernel.  Rows start as
    the long run; each of k steps multiplies them by the kernel, so the state
    being left joins the view, and an unlabeled view then sums out that
    state's question.  Views come out in the canonical `strategy.view_index`
    order.  The table has (2K)^(k+1) entries labeled and 2^k * 2K unlabeled,
    at most WINDOW_ENTRY_CAP.
    """
    if k < 1:
        raise ValidationError(f"window must be >= 1, got {k}")
    n = 2 * len(chain.questions)
    entries = (n**k if labeled else 2**k) * n
    if entries > WINDOW_ENTRY_CAP:
        raise SizeCapError(
            f"view table needs {entries} entries, over WINDOW_ENTRY_CAP = {WINDOW_ENTRY_CAP}"
        )
    rows = chain.long_run.distribution[None]
    for _ in range(k):
        rows = rows[:, :, None] * chain.matrix
        if not labeled:
            rows = rows.reshape(len(rows), n // 2, 2, n).sum(axis=1)
        rows = rows.reshape(-1, n)
    return rows


def window_joint(chain: Chain, window: int) -> JointDistribution:
    """Exact joint over w history pairs plus the next pair, at the chain's long run.

    It is the labeled `view_table` of the w pairs, with its variables named
    q-w+1, a-w+1, ..., q0, a0, q+1, a+1.
    """
    table = view_table(chain, window, labeled=True)
    return JointDistribution(
        names=window_names(window),
        alphabets=window_alphabets(chain.questions, window),
        table=table.reshape((len(chain.questions), 2) * (window + 1)),
    )


@dataclass(frozen=True, eq=False)
class Trajectory:
    """An ordered record of (question label, answer) pairs and the seed that drew it.

    The record is kept as two read-only integer arrays of one entry per step:
    `question_indices`, each step's question as an index into
    `question_labels` (the chain's labels, in order), and `answer_values`,
    its answer, +1 or -1.  `steps`, the same record as a tuple of
    (label, answer) pairs of str and int, is built on first access and kept.
    """

    question_labels: tuple
    question_indices: np.ndarray
    answer_values: np.ndarray
    seed: int

    def __len__(self):
        return len(self.question_indices)

    @cached_property
    def steps(self) -> tuple:
        return tuple(zip(self.labels(), self.answer_values.tolist()))

    def labels(self) -> list:
        return list(map(self.question_labels.__getitem__, self.question_indices.tolist()))


def sample_trajectory(chain: Chain, length: int, seed: int) -> Trajectory:
    """Simulate the measurement chain on one path: questions from
    `process.sample_questions`, Born answers from `answer_step` block by
    block, fed from their own Philox stream.  Reproducible for a given seed."""
    if length < 1:
        raise ValidationError(f"length must be >= 1, got {length}")
    questions = chain.questions
    q = procmod.sample_questions(chain.process, length, seed)
    rng = procmod._rng(seed, offset=0x5EED)  # decouple answer draws from question draws
    a = np.empty_like(q)  # 0 for +1, 1 for -1, then the answer itself
    step, state = answer_step(chain), np.full(1, 2 * len(questions))
    for t0, t1 in procmod.blocks(0, length, 1):
        a[t0:t1] = step(state, q[t0:t1, None], rng.random((t1 - t0, 1)))[:, 0]
        state = 2 * q[t1 - 1 : t1] + a[t1 - 1 : t1]
    a *= -2
    a += 1
    q.flags.writeable = False
    a.flags.writeable = False
    return Trajectory(tuple(x.label for x in questions), q, a, seed)
