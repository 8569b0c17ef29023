"""Exact Shannon quantities, in bits, on joint tables.

Log base 2 throughout; conversion to physical units happens only in the
dissipation bound.  Tiny negatives from floating-point cancellation (>= -1e-10)
are clamped to 0; anything more negative indicates a broken table and raises.
This is the package's only place that evaluates p ln p.
"""

import numpy as np

from . import joint as jointmod
from .errors import ValidationError

CLAMP_TOL = 1e-10
_LN2 = np.log(2.0)
_TINY = np.finfo(float).tiny


def xlogx(p):
    """Elementwise p ln p in nats, with 0 ln 0 = 0, built in one new array."""
    out = np.maximum(p, _TINY, out=np.empty_like(p, dtype=float))  # p's memory layout
    np.log(out, out=out)
    out *= p  # ln(p) * p: the bits of p * ln(p)
    return out


def _clamp(value: float, what: str) -> float:
    if value < -CLAMP_TOL:
        raise ValidationError(f"{what} = {value!r} is negative beyond tolerance {CLAMP_TOL}")
    return max(0.0, float(value))


def _check_subsets(joint, *groups):
    seen = set()
    for group in groups:
        names = tuple(group)
        if not names:
            raise ValidationError("variable subsets must be non-empty")
        joint.axes(names)  # raises on unknown variables
        overlap = seen & set(names)
        if overlap:
            raise ValidationError(f"variable subsets must be disjoint; {sorted(overlap)} repeated")
        seen |= set(names)


def _entropy_of_table(table: np.ndarray) -> float:
    return float(-xlogx(table).sum() / _LN2)


def mutual_information_table(table: np.ndarray):
    """I(row; column) in bits of a 2-D joint table, clamped at 0.

    A stack of tables, shaped (..., rows, columns), gives the array of their
    values, each computed as the 2-D table alone would be.
    """
    px = table.sum(axis=-1)
    py = table.sum(axis=-2)
    mi = (
        xlogx(table).sum(axis=(-2, -1)) - xlogx(px).sum(axis=-1) - xlogx(py).sum(axis=-1)
    ) / _LN2
    if table.ndim == 2:
        return max(0.0, float(mi))
    return np.maximum(mi, 0.0)


def encoder_information(table: np.ndarray, encoder: np.ndarray) -> tuple:
    """(I(M; view), I(M; next)) in bits of a p(view, next) table read through p(m | view).

    i_mem is the information of p(view) p(m | view), i_pred that of
    encoder^T @ table.  A stack of tables, shaped (..., views, nexts), gives
    arrays of values, each computed as the 2-D table alone would be.
    """
    i_mem = mutual_information_table(table.sum(axis=-1)[..., None] * encoder)
    i_pred = mutual_information_table(encoder.T @ table)
    return i_mem, i_pred


def pointwise_information(table: np.ndarray, encoder: np.ndarray) -> np.ndarray:
    """(views, nexts) table of iota(v, x') = sum_m p(m | v) log2 p(m, x') / (p(m) p(x')) in bits.

    p(m) and p(x') are the margins of p(m, x') = encoder^T @ table, so a one-symbol
    memory scores exactly 0 and sum(table * iota) is `encoder_information`'s i_pred.
    Cells of p(m, x') with no mass add 0, so every entry is finite.
    """
    joint = encoder.T @ table
    p_m = joint.sum(axis=1, keepdims=True)
    p_x = joint.sum(axis=0, keepdims=True)
    ratio = np.divide(joint * p_m.sum(), p_m * p_x, out=np.ones_like(joint), where=joint > 0)
    return encoder @ np.log2(ratio)


def entropy(joint: jointmod.JointDistribution, names) -> float:
    """Shannon entropy H(names) in bits, with 0 log 0 = 0."""
    _check_subsets(joint, names)
    return _clamp(_entropy_of_table(joint.marginal(names).table), "entropy")


def mutual_information(joint: jointmod.JointDistribution, names_a, names_b) -> float:
    """I(A;B) = H(A) + H(B) - H(A,B) in bits, clamped at 0 within 1e-10."""
    _check_subsets(joint, names_a, names_b)
    h_a = _entropy_of_table(joint.marginal(names_a).table)
    h_b = _entropy_of_table(joint.marginal(names_b).table)
    h_ab = _entropy_of_table(joint.marginal(tuple(names_a) + tuple(names_b)).table)
    return _clamp(h_a + h_b - h_ab, "mutual information")


def conditional_mutual_information(
    joint: jointmod.JointDistribution, names_a, names_b, names_c
) -> float:
    """I(A;B|C) = H(A,C) + H(B,C) - H(A,B,C) - H(C), clamped at 0 within 1e-10."""
    _check_subsets(joint, names_a, names_b, names_c)
    a, b, c = tuple(names_a), tuple(names_b), tuple(names_c)
    h_ac = _entropy_of_table(joint.marginal(a + c).table)
    h_bc = _entropy_of_table(joint.marginal(b + c).table)
    h_abc = _entropy_of_table(joint.marginal(a + b + c).table)
    h_c = _entropy_of_table(joint.marginal(c).table)
    return _clamp(h_ac + h_bc - h_abc - h_c, "conditional mutual information")
