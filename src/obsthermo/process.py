"""Exogenous question schedules: i.i.d., Markov, or periodic over a finite
question set, and the sampler's question step.

The observer never influences the schedule.  Questions are drawn by
`question_step` from uniforms of numpy's Philox counter-based generator, so
that parallel sweeps with distinct seeds stay reproducible and decorrelated.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

PROB_TOL = 1e-12
#: Path-steps in one sampler block: R paths advance max(1, _BLOCK_ENTRIES // R) steps at a time.
#: From about 10^3 paths up a plain R-wide step is faster than a scan, so such blocks are one step.
_BLOCK_ENTRIES = 2**11


def _rng(seed: int, offset: int = 0) -> np.random.Generator:
    """The Philox generator keyed by (seed + offset) mod 2**128, for a seed in [0, 2**128).

    A nonzero offset derives a second stream from the same seed; the key wraps,
    so every valid seed has one.
    """
    if not 0 <= seed < 2**128:
        raise ValidationError(f"seed must be in [0, 2**128), got {seed}")
    return np.random.Generator(np.random.Philox(key=(int(seed) + offset) % 2**128))


def _check_prob_vector(vec, size: int, where: str) -> np.ndarray:
    arr = np.asarray(vec, dtype=float)
    if arr.shape != (size,):
        raise ValidationError(f"{where}: expected {size} entries, got shape {arr.shape}")
    if np.any(arr < 0):
        raise ValidationError(f"{where}: entries must be >= 0")
    if not abs(arr.sum() - 1.0) <= PROB_TOL:
        raise ValidationError(f"{where}: entries sum to {arr.sum()!r}, not 1 within {PROB_TOL}")
    arr.flags.writeable = False
    return arr


def _check_labels(labels) -> tuple:
    labels = tuple(labels)
    if not labels:
        raise ValidationError("question label set must be non-empty")
    if len(set(labels)) != len(labels):
        raise ValidationError(f"question labels must be unique, got {labels}")
    return labels


@dataclass(frozen=True, eq=False)
class IIDProcess:
    """Each question drawn independently with fixed weights."""

    labels: tuple
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "labels", _check_labels(self.labels))
        object.__setattr__(
            self, "weights", _check_prob_vector(self.weights, len(self.labels), "weights")
        )


@dataclass(frozen=True, eq=False)
class MarkovProcess:
    """Next question depends on the previous one through a row-stochastic matrix."""

    labels: tuple
    transition: np.ndarray
    initial: np.ndarray

    def __post_init__(self):
        labels = _check_labels(self.labels)
        object.__setattr__(self, "labels", labels)
        k = len(labels)
        mat = np.asarray(self.transition, dtype=float)
        if mat.shape != (k, k):
            raise ValidationError(f"transition: expected shape ({k}, {k}), got {mat.shape}")
        for i in range(k):
            _check_prob_vector(mat[i], k, f"transition row {i}")
        mat = mat.copy()
        mat.flags.writeable = False
        object.__setattr__(self, "transition", mat)
        object.__setattr__(self, "initial", _check_prob_vector(self.initial, k, "initial"))


@dataclass(frozen=True, eq=False)
class PeriodicProcess:
    """Questions follow a fixed repeating sequence of labels."""

    labels: tuple
    sequence: tuple

    def __post_init__(self):
        labels = _check_labels(self.labels)
        object.__setattr__(self, "labels", labels)
        seq = tuple(self.sequence)
        if not seq:
            raise ValidationError("periodic sequence must be non-empty")
        for s in seq:
            if s not in labels:
                raise ValidationError(f"periodic sequence entry {s!r} not in labels {labels}")
        object.__setattr__(self, "sequence", seq)


QuestionProcess = IIDProcess | MarkovProcess | PeriodicProcess


def question_law(process: QuestionProcess, time_index: int = 0) -> np.ndarray:
    """(K+1, K) law of the question at `time_index`: row q after question q, row K
    at a fresh start.

    IID rows are all the weights; Markov rows are the transition rows and then
    the initial law; Periodic rows are all one-hot on the scheduled label.
    """
    k = len(process.labels)
    if isinstance(process, MarkovProcess):
        return np.vstack([process.transition, process.initial])
    if isinstance(process, IIDProcess):
        law = process.weights
    elif isinstance(process, PeriodicProcess):
        law = np.zeros(k)
        law[process.labels.index(process.sequence[time_index % len(process.sequence)])] = 1.0
    else:
        raise ValidationError(f"unknown process type {type(process).__name__}")
    return np.tile(law, (k + 1, 1))


def blocks(start: int, stop: int, paths: int) -> list:
    """[t0, t1) spans over range(start, stop), max(1, _BLOCK_ENTRIES // paths) steps each."""
    size = max(1, _BLOCK_ENTRIES // paths)
    return [(t, min(t + size, stop)) for t in range(start, stop, size)]


def iterate_maps(start: np.ndarray, maps: np.ndarray) -> np.ndarray:
    """The (b, R) orbit of `start` under maps[i, x, r], path r's image of x at step i + 1.

    Two or more maps on two states compose in closed form.  Such a map either
    resets the orbit (f(0) = f(1)) or XORs it with f(0), so an orbit entry is
    the value after the last reset XOR the flips since: one XOR scan, one
    running max of the reset positions and one gather.  Otherwise a
    Hillis-Steele prefix scan (Hillis & Steele, CACM 29, 1986) composes the
    b - 1 maps in ceil(log2 b) rounds of one flat gather each, so one map is
    one lookup.  Both give the same intp orbit.
    """
    if not len(maps):
        return start[None]
    steps, size, paths = maps.shape
    if size == 2 and steps > 1:
        # row 0 is 0, then the start and each step's reset value or flip, XOR-scanned
        xors = np.empty((steps + 2, paths), dtype=np.intp)
        xors[0], xors[1], xors[2:] = 0, start, maps[:, 0]
        np.bitwise_xor.accumulate(xors, axis=0, out=xors)
        # last reset at or before each orbit entry (entry 0 is one), as a flat index into xors
        last = np.arange((steps + 1) * paths).reshape(steps + 1, paths)
        last[1:] *= maps[:, 0] == maps[:, 1]
        np.maximum.accumulate(last, axis=0, out=last)
        return xors[1:] ^ xors.take(last)
    maps = maps.astype(np.intp, order="C")
    at = np.arange(steps)[:, None, None] * (size * paths) + np.arange(paths)  # maps[i, 0, r]
    shift = 1
    while shift < steps:
        maps[shift:] = maps.take(at[shift:] + maps[:-shift] * paths)
        shift *= 2
    return np.concatenate([start[None], maps.take(at[:, 0] + start * paths)])


def question_step(process: QuestionProcess):
    """The sampler's question step: a function (prev, u, t0) -> (b, R) question indices.

    `prev` holds the question of each of R paths before the block, K for a
    fresh start, drawn from row K of `question_law`; `u` holds (b, R)
    uniforms; `t0` is the block's first time index.  A draw counts the
    normalized cumulative weights c with u >= c, so a question of weight zero
    is never drawn.  Periodic reads the sequence and no uniform.  Markov draws
    the first step at `prev`, then composes the K -> K maps of the rest with
    `iterate_maps`: in closed form at K = 2, by its prefix scan at K >= 3.
    """
    if isinstance(process, PeriodicProcess):
        seq = np.array([process.labels.index(s) for s in process.sequence])[:, None]
        return lambda prev, u, t0: seq.take(t0 + np.arange(len(u)), 0, mode="wrap").repeat(len(prev), 1)
    cdf = question_law(process).cumsum(axis=1)
    cols, k = (cdf / cdf[:, -1:]).T[:-1], len(process.labels)
    if isinstance(process, IIDProcess):
        return lambda prev, u, t0: sum((u >= c for c in cols[:, k]), np.zeros(u.shape, np.intp))

    def markov(prev, u, t0):
        first = np.zeros(u.shape[1], dtype=np.intp)
        maps = np.zeros((k, len(u) - 1, u.shape[1]), dtype=np.intp)  # the image of each question
        for col in cols:
            first += u[0] >= col[prev]
            maps += u[1:] >= col[:k, None, None]
        return iterate_maps(first, maps.transpose(1, 0, 2))

    return markov


def sample_questions(process: QuestionProcess, length: int, seed: int) -> np.ndarray:
    """Draw a reproducible question sequence of the given length: `question_step`
    on one path, fed from one Philox stream, as an intp array of indices into
    `process.labels`."""
    if length < 1:
        raise ValidationError(f"length must be >= 1, got {length}")
    rng = _rng(seed)
    idx = np.empty(length, dtype=np.intp)
    step, prev = question_step(process), np.full(1, len(process.labels))
    for t0, t1 in blocks(0, length, 1):
        idx[t0:t1] = step(prev, rng.random((t1 - t0, 1)), t0)[:, 0]
        prev = idx[t1 - 1 : t1]
    return idx
