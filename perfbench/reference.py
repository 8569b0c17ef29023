"""Independent reference values for the benchmark's output checks.

Nothing here calls obsthermo: closed forms for the bundled and wide-window
scenarios, the Bloch-frame rotation that makes a seed's inputs, and a small
numpy route from questions and schedule to the 2-D table p(view, next pair)
with the information quantities of a memory encoder on it.
"""

import math

import numpy as np


def binary_entropy(p: float) -> float:
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


#: Exact predictive information of each bundled scenario's configured record.
BUNDLED_I_PRED = {
    "case_a": 1.0,
    "case_b_labeled": 0.5,
    "case_b_unlabeled": 1.0 - binary_entropy(0.25),
    "case_b_bestcase": 1.0,
    "angle_sweep": 1.0 - binary_entropy(math.cos(math.radians(30.0)) ** 2) / 2.0,
}


def window_record_info(k: int, labeled: bool) -> tuple:
    """(i_mem, i_pred) of a k-pair record on two orthogonal fair IID questions.

    A labeled pair carries 2 bits, each later pair 1.5 more (the question bit,
    plus the answer bit half the time); unlabeled answers flip with chance 1/4.
    """
    if labeled:
        return 2.0 + 1.5 * (k - 1), 0.5
    return 1.0 + (k - 1) * binary_entropy(0.25), 1.0 - binary_entropy(0.25)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """A uniformly random proper rotation of the Bloch sphere."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def pair_kernel(axes: np.ndarray, schedule: np.ndarray) -> np.ndarray:
    """P[s, s'] over pair states s = 2*question + (0 for +1, 1 for -1).

    After answer a to question q the qubit sits at a*axis(q); the next
    question q' is drawn from schedule[q] and answers +1 with (1 + r.n')/2.
    """
    k = len(axes)
    signs = (1.0, -1.0)
    mat = np.empty((2 * k, 2 * k))
    for s in range(2 * k):
        state = signs[s % 2] * axes[s // 2]
        for q2 in range(k):
            p_plus = 0.5 * (1.0 + float(state @ axes[q2]))
            mat[s, 2 * q2] = schedule[s // 2, q2] * p_plus
            mat[s, 2 * q2 + 1] = schedule[s // 2, q2] * (1.0 - p_plus)
    return mat


def stationary(mat: np.ndarray) -> np.ndarray:
    """The unique stationary law of an irreducible chain."""
    vals, vecs = np.linalg.eig(mat.T)
    unit = np.flatnonzero(np.abs(vals - 1.0) < 1e-9)
    if unit.size != 1:
        raise ValueError(f"chain has {unit.size} unit eigenvalues; no unique stationary law")
    pi = np.real(vecs[:, unit[0]])
    return pi / pi.sum()


def view_next_table(axes: np.ndarray, schedule: np.ndarray, k: int, labeled: bool) -> np.ndarray:
    """p(view, next pair) at stationarity, views of the last k pairs in canonical
    order: oldest pair most significant, answer +1 before -1."""
    mat = pair_kernel(axes, schedule)
    n = mat.shape[0]
    table = stationary(mat)
    for _ in range(k):
        table = table[..., None] * mat
    table = table.reshape(n**k, n)
    if labeled:
        return table
    # drop the question of each history pair: state s keeps answer bit s % 2
    states = np.indices((n,) * k).reshape(k, -1)
    bits = np.zeros(states.shape[1], dtype=int)
    for row in states:
        bits = bits * 2 + row % 2
    out = np.zeros((2**k, n))
    np.add.at(out, bits, table)
    return out


def _entropy_bits(p: np.ndarray) -> float:
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def mutual_information_2d(table: np.ndarray) -> float:
    return (
        _entropy_bits(table.sum(axis=1))
        + _entropy_bits(table.sum(axis=0))
        - _entropy_bits(table.ravel())
    )


def encoder_info(table: np.ndarray, encoder: np.ndarray) -> tuple:
    """(i_mem, i_pred) of an encoder p(m | view) on a p(view, next) table."""
    p_view = table.sum(axis=1)
    return (
        mutual_information_2d(p_view[:, None] * encoder),
        mutual_information_2d(encoder.T @ table),
    )


def map_info(table: np.ndarray, map_indices, memory_size: int) -> tuple:
    """(i_mem, i_pred) of a deterministic map view -> memory symbol."""
    idx = np.asarray(map_indices, dtype=int)
    encoder = np.zeros((idx.size, memory_size))
    encoder[np.arange(idx.size), idx] = 1.0
    return encoder_info(table, encoder)
