"""Exact Shannon quantities, in bits, on joint tables.

One formula, `_information`, gives I(row; column) of a 2-D table: a named
I(A;B) is that of the marginal over A and B laid out as (A, B) configurations,
and I(A;B|C) = I(A; C,B) - I(A; C) reads one marginal over A, C and B.  Log
base 2 throughout; conversion to physical units happens only in the dissipation
bound.  Tiny negatives from floating-point cancellation (>= -1e-10) are clamped
to 0; anything more negative indicates a broken table and raises.  This is the
package's only place that evaluates p ln p.
"""

import math

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


def _check_subsets(*groups):
    seen = set()
    for group in groups:
        names = tuple(group)
        if not names:
            raise ValidationError("variable subsets must be non-empty")
        repeated = {n for i, n in enumerate(names) if n in seen or n in names[:i]}
        if repeated:
            raise ValidationError(f"variable subsets must be disjoint; {sorted(repeated)} repeated")
        seen |= set(names)


def _entropy_of_table(table: np.ndarray) -> float:
    return float(-xlogx(table).sum() / _LN2)


def _information(table: np.ndarray) -> float:
    """I(row; column) in bits of a 2-D joint table, unclamped: the one information formula."""
    mi = xlogx(table).sum() - xlogx(table.sum(axis=1)).sum() - xlogx(table.sum(axis=0)).sum()
    return float(mi / _LN2)


def mutual_information_table(table: np.ndarray) -> float:
    """I(row; column) in bits of a 2-D joint table, clamped at 0."""
    return max(0.0, _information(table))


def _grouped(joint: jointmod.JointDistribution, *groups) -> np.ndarray:
    """The marginal over the groups' variables, one axis per group over its configurations."""
    names = sum(groups, ())
    marginal = joint.marginal(names)
    table = marginal.table.transpose(marginal.axes(names))
    return table.reshape([math.prod(len(marginal.alphabet(n)) for n in g) for g in groups])


def encoder_information(table: np.ndarray, encoder: np.ndarray) -> tuple:
    """(I(M; view), I(M; next)) in bits of a p(view, next) table read through p(m | view):
    the informations of p(view) p(m | view) and of encoder^T @ table."""
    i_mem = mutual_information_table(table.sum(axis=1)[:, None] * encoder)
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
    _check_subsets(names)
    return _clamp(_entropy_of_table(joint.marginal(names).table), "entropy")


def mutual_information(joint: jointmod.JointDistribution, names_a, names_b) -> float:
    """I(A;B) in bits of the marginal over A and B as an (A, B) table, clamped at 0 within 1e-10."""
    _check_subsets(names_a, names_b)
    table = _grouped(joint, tuple(names_a), tuple(names_b))
    return _clamp(_information(table), "mutual information")


def conditional_mutual_information(
    joint: jointmod.JointDistribution, names_a, names_b, names_c
) -> float:
    """I(A;B|C) = I(A; C,B) - I(A; C) of the marginal over A, C and B, clamped at 0 within 1e-10."""
    _check_subsets(names_a, names_b, names_c)
    table = _grouped(joint, tuple(names_a), tuple(names_c), tuple(names_b))
    i_acb = _information(table.reshape(len(table), -1))
    return _clamp(i_acb - _information(table.sum(axis=2)), "conditional mutual information")
