"""Exact Shannon quantities, in bits, on joint tables; plug-in estimates from samples.

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
    """Elementwise p ln p in nats, with 0 ln 0 = 0."""
    return p * np.log(np.maximum(p, _TINY))


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


def mutual_information_table(table2d: np.ndarray) -> float:
    """I(row; column) in bits of a 2-D joint table, clamped at 0."""
    px = table2d.sum(axis=1)
    py = table2d.sum(axis=0)
    mi = (xlogx(table2d).sum() - xlogx(px).sum() - xlogx(py).sum()) / _LN2
    return max(0.0, float(mi))


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


def plugin_from_samples(samples: np.ndarray, names, alphabets) -> jointmod.JointDistribution:
    """Empirical joint from an (N, num_vars) array of symbol indices.

    No bias correction: plug-in estimates serve as statistical cross-checks of
    the exact tables, not as primary outputs.
    """
    samples = np.asarray(samples)
    if samples.ndim != 2 or samples.shape[0] < 1:
        raise ValidationError(f"samples must be a non-empty (N, vars) array, got {samples.shape}")
    names = tuple(names)
    alphabets = tuple(tuple(a) for a in alphabets)
    if samples.shape[1] != len(names):
        raise ValidationError(
            f"samples have {samples.shape[1]} columns but {len(names)} variables were named"
        )
    sizes = tuple(len(a) for a in alphabets)
    if samples.min(initial=0) < 0 or np.any(samples.max(axis=0) >= np.array(sizes)):
        raise ValidationError("sample indices out of range for the given alphabets")
    flat = np.ravel_multi_index(tuple(samples.T), sizes)
    counts = np.bincount(flat, minlength=int(np.prod(sizes))).reshape(sizes)
    return jointmod.from_counts(names, alphabets, counts)
