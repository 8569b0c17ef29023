"""Observer memory strategies: what function of the questioned/answered past
gets written into a finite memory.

Three variants: windowed records (the last k pairs, with or without question
labels), general stochastic kernels over a history view, and the do-nothing
strategy (a one-symbol memory).  Each one is an encoder p(m | view) on a view
of the last k pairs (see view_encoder).  A strategy applied to a window joint
yields the joint over (memory, history, next pair) from which all information
quantities follow; the memory depends on the past only, so M and the next pair
are conditionally independent given the history by construction.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from . import chain as chainmod
from .errors import ValidationError
from .joint import JointDistribution
from .qubit import ANSWERS

ROW_TOL = 1e-12


@dataclass(frozen=True)
class WindowStrategy:
    """Record the last k (question, answer) pairs; `labeled` keeps the labels."""

    k: int
    labeled: bool = True

    def __post_init__(self):
        if self.k < 1:
            raise ValidationError(f"window strategy needs k >= 1, got {self.k}")


@dataclass(frozen=True)
class NothingStrategy:
    """Write nothing: a single-symbol memory, equivalent to a kernel with M = 1."""


@dataclass(frozen=True, eq=False)
class KernelStrategy:
    """Stochastic assignment p(m | history view), rows indexed canonically.

    The view is the last `k` pairs of the joint the kernel is applied to
    (k = None means the full supplied history), labels kept or dropped.
    Canonical row order: pairs oldest to newest, question index before answer,
    answers +1 then -1.
    """

    assignment: np.ndarray
    k: int | None = None
    labeled: bool = True

    def __post_init__(self):
        if self.k is not None and self.k < 1:
            raise ValidationError(f"kernel strategy needs k >= 1 or None, got {self.k}")
        arr = np.asarray(self.assignment, dtype=float)
        if arr.ndim != 2 or min(arr.shape) < 1:
            raise ValidationError(f"kernel assignment must be (H, M) with H, M >= 1, got {arr.shape}")
        if np.any(arr < 0):
            raise ValidationError("kernel assignment entries must be >= 0")
        rows = arr.sum(axis=1)
        if not np.max(np.abs(rows - 1.0)) <= ROW_TOL:
            raise ValidationError(f"kernel assignment rows must sum to 1 within {ROW_TOL}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "assignment", arr)

    @property
    def memory_size(self) -> int:
        return self.assignment.shape[1]


Strategy = WindowStrategy | NothingStrategy | KernelStrategy

MEMORY_VAR = "m"


def view_alphabet(labels, k: int, labeled: bool) -> tuple:
    """Canonically ordered symbols of a history view.

    Labeled symbols are tuples of (label, answer) pairs, unlabeled ones tuples
    of answers, oldest pair first.
    """
    labels = tuple(labels)
    if labeled:
        pair_syms = [(lab, a) for lab in labels for a in ANSWERS]
    else:
        pair_syms = list(ANSWERS)
    return tuple(itertools.product(pair_syms, repeat=k))


def memory_alphabet(strategy: Strategy, labels) -> tuple:
    """Memory symbols, full capacity: (2K)^k labeled, 2^k unlabeled, M for kernels."""
    if isinstance(strategy, NothingStrategy):
        return (0,)
    if isinstance(strategy, WindowStrategy):
        return view_alphabet(labels, strategy.k, strategy.labeled)
    return tuple(range(strategy.memory_size))


def memory_capacity_bits(strategy: Strategy, labels) -> float:
    return float(np.log2(len(memory_alphabet(strategy, labels))))


def view_index(pairs, num_questions: int, labeled: bool) -> np.ndarray:
    """Canonical index of the view made of k pairs, oldest first, in `view_alphabet` order.

    pairs[2j] and pairs[2j + 1] hold pair j's question index and answer bit
    (0 for +1, 1 for -1), arrays of one shape.  Pair by pair the index becomes
    idx * 2K + 2q + a on a labeled view and idx * 2 + a on an unlabeled one.
    """
    idx = np.zeros(np.shape(pairs[0]), dtype=np.intp)
    for q, a in zip(pairs[::2], pairs[1::2]):
        if labeled:
            idx *= 2 * num_questions
            idx += 2 * q.astype(np.intp, copy=False)
        else:
            idx *= 2
        idx += a
    return idx


def view_encoder(strategy: Strategy, labels, w: int) -> tuple:
    """(k, labeled, p(m | view), memory alphabet) of a strategy on a w-pair history.

    The encoder has one row per canonical view symbol.  A window record is the
    identity on its view; the do-nothing strategy is one column on the last
    answer; a kernel is its own assignment, on the full history when k is None.
    """
    m_alpha = memory_alphabet(strategy, labels)
    if isinstance(strategy, NothingStrategy):
        return 1, False, np.ones((2, 1)), m_alpha
    k = strategy.k if strategy.k is not None else w
    if not 1 <= k <= w:
        raise ValidationError(f"strategy view k={k} outside the joint's history window w={w}")
    if isinstance(strategy, WindowStrategy):
        return k, strategy.labeled, np.eye(len(m_alpha)), m_alpha
    expected = (2 * len(labels) if strategy.labeled else 2) ** k
    if strategy.assignment.shape[0] != expected:
        raise ValidationError(
            f"kernel assignment has {strategy.assignment.shape[0]} rows but the "
            f"(k={k}, labeled={strategy.labeled}) view of this joint has {expected} configurations"
        )
    return k, strategy.labeled, strategy.assignment, m_alpha


def apply_strategy(strategy: Strategy, joint: JointDistribution) -> JointDistribution:
    """P(m, history, q', a') = p(m | view of history) * P(history, q', a').

    The joint is a window joint as `chain.window_joint` gives it: w >= 1
    history pairs and the next pair, named and ordered q-w+1, a-w+1, ...,
    q0, a0, q+1, a+1.  Any other joint raises ValidationError.
    """
    w = len(joint.names) // 2 - 1
    if w < 1 or joint.names != chainmod.window_names(w):
        raise ValidationError(f"not a window joint's variables in window order: {joint.names}")
    labels = joint.alphabet(chainmod.FUTURE_PAIR[0])
    k, labeled, encoder, m_alpha = view_encoder(strategy, labels, w)
    pairs = np.indices(joint.table.shape[: 2 * w])[2 * (w - k) :]  # the view's k pairs
    rows = encoder[view_index(pairs, len(labels), labeled)]

    # result[m, hist..., q', a'] = rows[hist..., m] * table[hist..., q', a']
    rows_m = np.moveaxis(rows, -1, 0)[..., None, None]
    table = rows_m * joint.table[None, ...]
    return JointDistribution(
        names=(MEMORY_VAR, *joint.names),
        alphabets=(m_alpha, *joint.alphabets),
        table=table,
    )


def assignment_from_map(map_indices, memory_size: int) -> np.ndarray:
    """One-hot (H, M) assignment matrix for a deterministic map."""
    map_indices = np.asarray(map_indices, dtype=int)
    rows = np.zeros((map_indices.size, memory_size))
    rows[np.arange(map_indices.size), map_indices] = 1.0
    return rows


def harden(assignment: np.ndarray) -> np.ndarray:
    """Argmax map of a stochastic assignment; ties go to the lowest memory index."""
    return np.argmax(np.asarray(assignment), axis=1)


def _same_partition(f: np.ndarray, g: np.ndarray) -> bool:
    """Whether two maps on one set of views group them alike: each is a function
    of the other when there are as many distinct (f, g) pairs as values of either."""
    pairs = len(np.unique(f * (g.max() + 1) + g))
    return pairs == len(np.unique(f)) == len(np.unique(g))


def strategy_summary(strategy: Strategy, num_questions: int) -> str:
    """Stable one-line description: variant, sizes, and for kernels the hardened
    argmax cells (ties reported lexicographically, e.g. '0|1').

    A one-hot kernel on a k-pair view whose map groups the views as the window
    record of their last j pairs does, for some j <= k, is reported as that
    record instead: the smallest j, unlabeled before labeled.  A soft kernel
    holds less than its argmax map, so it is reported by its cells.  Its rows
    must match the view, as in `view_encoder`.
    """
    if isinstance(strategy, NothingStrategy):
        return "nothing (M=1)"
    if isinstance(strategy, WindowStrategy):
        kind = "labeled" if strategy.labeled else "unlabeled"
        m = (2 * num_questions if strategy.labeled else 2) ** strategy.k
        return f"window k={strategy.k} {kind} (M={m})"
    arr = strategy.assignment
    m = strategy.memory_size
    hard = harden(arr)
    if strategy.k is not None:
        k, labeled, _, _ = view_encoder(strategy, range(num_questions), strategy.k)
        if ((arr == 0.0) | (arr == 1.0)).all():  # one-hot: see above
            pairs = np.indices((num_questions if labeled else 1, 2) * k).reshape(2 * k, -1)
            for j in range(1, k + 1):
                for labeled_j in (False, True) if labeled else (False,):
                    record = view_index(pairs[2 * (k - j) :], num_questions, labeled_j)
                    if _same_partition(hard, record):
                        kind = "labeled" if labeled_j else "unlabeled"
                        return f"kernel M={m} ≍ window k={j} {kind}"
    cells = []
    for row in arr:
        top = np.flatnonzero(np.abs(row - row.max()) < 1e-12)
        cells.append("|".join(str(int(i)) for i in top))
    return f"kernel M={m} map=[{','.join(cells)}]"

