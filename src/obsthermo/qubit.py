"""Qubit states as Bloch vectors, with projective measurements along arbitrary axes.

The workload only ever needs Born probabilities and rank-1 collapse, so states
are real 3-vectors instead of complex density matrices: pure states live on the
unit sphere, the maximally mixed state at the origin.  All functions are pure;
values are immutable.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# Tolerances: inputs are checked at 1e-9, internal identities at 1e-12, and
# axes arriving from config files may be auto-normalized within 1e-6.
STATE_NORM_SLACK = 1e-12
UNIT_TOL = 1e-9
PURE_TOL = 1e-9
AXIS_CONFIG_TOL = 1e-6
_EIGEN_ROUNDING = 4 * np.finfo(float).eps  # |r.n| of n against itself stays within 2 eps of 1

#: Measurement outcomes, canonical order.  `cli` writes them as 1 / 0.
ANSWERS = (+1, -1)


@dataclass(frozen=True)
class BlochVector:
    """A qubit state r = (x, y, z) with |r| <= 1; pure iff |r| = 1."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        for name in ("x", "y", "z"):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise ValidationError(f"BlochVector.{name} must be finite, got {v!r}")
        if self.norm > 1.0 + STATE_NORM_SLACK:
            raise ValidationError(
                f"Bloch vector norm {self.norm!r} exceeds 1 (+{STATE_NORM_SLACK} slack)"
            )

    @property
    def norm(self) -> float:
        return float(np.sqrt(self.x**2 + self.y**2 + self.z**2))

    @property
    def is_pure(self) -> bool:
        return abs(self.norm - 1.0) <= PURE_TOL

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)

    @classmethod
    def from_array(cls, arr) -> "BlochVector":
        arr = np.asarray(arr, dtype=float)
        if arr.shape != (3,):
            raise ValidationError(f"Bloch vector needs 3 components, got shape {arr.shape}")
        return cls(float(arr[0]), float(arr[1]), float(arr[2]))


#: Maximally mixed state, the default initial condition.
MIXED_STATE = BlochVector(0.0, 0.0, 0.0)


def _unit_axis(axis, tol: float = UNIT_TOL) -> np.ndarray:
    """Validate a measurement axis and return it exactly normalized."""
    arr = np.asarray(axis, dtype=float)
    if arr.shape != (3,):
        raise ValidationError(f"axis needs 3 components, got shape {arr.shape}")
    n = float(np.linalg.norm(arr))
    if not abs(n - 1.0) <= tol:
        raise ValidationError(f"axis norm {n!r} is not 1 within {tol}")
    return arr / n


@dataclass(frozen=True, eq=False)
class Question:
    """A labeled binary question: a projective measurement along a unit axis.

    The axis is auto-normalized if its norm is within 1e-6 of 1 (the config
    interface tolerance) and rejected otherwise.
    """

    label: str
    axis: np.ndarray

    def __post_init__(self):
        if not self.label or not isinstance(self.label, str):
            raise ValidationError(f"question label must be a non-empty string, got {self.label!r}")
        axis = _unit_axis(self.axis, tol=AXIS_CONFIG_TOL)
        axis.flags.writeable = False
        object.__setattr__(self, "axis", axis)

    def __repr__(self):
        ax = ",".join(f"{v:.6g}" for v in self.axis)
        return f"Question({self.label!r}, axis=[{ax}])"


def _unit_axes(axes) -> np.ndarray:
    return np.stack([_unit_axis(axis) for axis in axes])


def outcome_table(states, axes) -> np.ndarray:
    """(n, K, 2) Born table: [i, j] holds P(+1), P(-1) for measuring states[i] along axes[j].

    `states` is an (n, 3) array of Bloch vectors.  p(+1) = (1 + r.n) / 2.  An
    overlap within a few ulps of +-1 is rounding on an eigenstate and counts as
    exactly +-1, so a repeated measurement repeats its answer with probability
    exactly 1.
    """
    # one vector dot per (state, axis) pair: a matrix product picks gemm, gemv or dot
    # by shape, and their last bits differ, so an overlap would depend on the batch
    states = np.asarray(states, dtype=float)[:, None, None, :]
    overlap = (states @ _unit_axes(axes)[:, :, None])[..., 0, 0]
    overlap = np.where(np.abs(overlap) > 1.0 - _EIGEN_ROUNDING, np.sign(overlap), overlap)
    p_plus = 0.5 * (1.0 + overlap)
    return np.stack([p_plus, 1.0 - p_plus], axis=-1)


def collapsed_states(axes) -> np.ndarray:
    """(2K, 3) post-measurement states: rows 2j and 2j + 1 are +axes[j] and -axes[j]."""
    return np.repeat(_unit_axes(axes), 2, axis=0) * np.tile([1.0, -1.0], len(axes))[:, None]


def born_probability(state: BlochVector, axis) -> float:
    """Probability of outcome +1 when measuring `state` along `axis`: one entry of
    :func:`outcome_table`."""
    return float(outcome_table(state.as_array()[None], [axis])[0, 0, 0])


def collapse(axis, outcome: int) -> BlochVector:
    """Post-measurement state: +axis for outcome +1, -axis for outcome -1."""
    if outcome not in ANSWERS:
        raise ValidationError(f"outcome must be +1 or -1, got {outcome!r}")
    return BlochVector.from_array(collapsed_states([axis])[ANSWERS.index(outcome)])
