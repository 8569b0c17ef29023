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
        arr = np.asarray(self.assignment, dtype=float)
        if arr.ndim != 2 or arr.shape[1] < 1:
            raise ValidationError(f"kernel assignment must be (H, M) with M >= 1, got {arr.shape}")
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


def _history_names(joint: JointDistribution) -> list:
    future = set(chainmod.FUTURE_PAIR)
    missing = future - set(joint.names)
    if missing:
        raise ValidationError(f"joint lacks the future pair variables {sorted(missing)}")
    return [n for n in joint.names if n not in future]


def history_window(joint: JointDistribution) -> int:
    """Number of history pairs in a window joint."""
    hist = _history_names(joint)
    if len(hist) % 2 != 0 or not hist:
        raise ValidationError(f"history block {hist} is not a sequence of (q, a) pairs")
    return len(hist) // 2


def view_variables(joint: JointDistribution, k: int, labeled: bool) -> list:
    """Names of the last-k-pairs history view, in canonical order."""
    w = history_window(joint)
    if not 1 <= k <= w:
        raise ValidationError(f"view k={k} outside the joint's history window w={w}")
    names = []
    for offset in range(-k + 1, 1):
        qn, an = chainmod.pair_names(offset)
        if labeled:
            names.append(qn)
        names.append(an)
    return names


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

    The joint must follow the window naming convention (q-w+1 ... a0, q+1, a+1)
    and is reordered canonically first.
    """
    w = history_window(joint)
    joint = joint.reorder(chainmod.window_names(w))
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


def deterministic_count(history_size: int, memory_size: int) -> int:
    return memory_size**history_size


def assignment_from_map(map_indices, memory_size: int) -> np.ndarray:
    """One-hot (H, M) assignment matrix for a deterministic map."""
    map_indices = np.asarray(map_indices, dtype=int)
    rows = np.zeros((map_indices.size, memory_size))
    rows[np.arange(map_indices.size), map_indices] = 1.0
    return rows


def harden(assignment: np.ndarray) -> np.ndarray:
    """Argmax map of a stochastic assignment; ties go to the lowest memory index."""
    return np.argmax(np.asarray(assignment), axis=1)


def _window_map_on_view(k_view: int, labeled_view: bool, j: int, labeled_j: bool, num_questions: int):
    """Deterministic map from a (k_view, labeled_view) history view onto the
    window-j record, used for equivalence reporting."""
    if j > k_view or (labeled_j and not labeled_view):
        return None
    symbols = view_alphabet([str(i) for i in range(num_questions)], k_view, labeled_view)
    out = []
    for sym in symbols:
        tail = sym[-j:]
        if labeled_view and not labeled_j:
            tail = tuple(a for _, a in tail)
        out.append(tail)
    uniq = {s: i for i, s in enumerate(sorted(set(out), key=out.index))}
    return np.array([uniq[s] for s in out])


def _same_partition(f: np.ndarray, g: np.ndarray) -> bool:
    return all(
        (f[i] == f[j]) == (g[i] == g[j]) for i in range(len(f)) for j in range(i + 1, len(f))
    )


def strategy_summary(strategy: Strategy, num_questions: int | None = None) -> str:
    """Stable one-line description: variant, sizes, and for kernels the hardened
    argmax cells (ties reported lexicographically, e.g. '0|1')."""
    if isinstance(strategy, NothingStrategy):
        return "nothing (M=1)"
    if isinstance(strategy, WindowStrategy):
        kind = "labeled" if strategy.labeled else "unlabeled"
        if strategy.labeled:
            if num_questions is None:
                m_txt = "2K" if strategy.k == 1 else f"(2K)^{strategy.k}"
            else:
                m_txt = str((2 * num_questions) ** strategy.k)
        else:
            m_txt = str(2**strategy.k)
        return f"window k={strategy.k} {kind} (M={m_txt})"
    # kernel: report hardened cells, or a window equivalence when one exists
    arr = strategy.assignment
    m = strategy.memory_size
    hard = harden(arr)
    if strategy.k is not None and num_questions is not None:
        for j in range(1, strategy.k + 1):
            for labeled_j in (False, True):
                cand = _window_map_on_view(
                    strategy.k, strategy.labeled, j, labeled_j, num_questions
                )
                if cand is not None and _same_partition(hard, cand):
                    kind = "labeled" if labeled_j else "unlabeled"
                    return f"kernel M={m} ≍ window k={j} {kind}"
    cells = []
    for row in arr:
        top = np.flatnonzero(np.abs(row - row.max()) < 1e-12)
        cells.append("|".join(str(int(i)) for i in top))
    return f"kernel M={m} map=[{','.join(cells)}]"

