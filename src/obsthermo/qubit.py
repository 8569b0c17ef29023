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

#: Measurement outcomes, canonical order.  Serialized externally as 1 / 0.
ANSWERS = (+1, -1)


def answer_to_bit(answer: int) -> int:
    """Serialize an outcome: +1 -> 1, -1 -> 0."""
    if answer == +1:
        return 1
    if answer == -1:
        return 0
    raise ValidationError(f"answer must be +1 or -1, got {answer!r}")


def bit_to_answer(bit: int) -> int:
    """Inverse of :func:`answer_to_bit`."""
    if bit == 1:
        return +1
    if bit == 0:
        return -1
    raise ValidationError(f"answer bit must be 0 or 1, got {bit!r}")


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
    if abs(n - 1.0) > tol:
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


def born_probability(state: BlochVector, axis) -> float:
    """Probability of outcome +1 when measuring `state` along `axis`.

    p(+1) = (1 + r.n) / 2; p(-1) is its complement.  An overlap within a few
    ulps of +-1 is rounding on an eigenstate and counts as exactly +-1, so a
    repeated measurement repeats its answer with probability exactly 1.
    """
    overlap = float(state.as_array() @ _unit_axis(axis))
    if abs(overlap) > 1.0 - _EIGEN_ROUNDING:
        overlap = float(np.sign(overlap))
    return 0.5 * (1.0 + overlap)


def outcome_probability(state: BlochVector, axis, outcome: int) -> float:
    """Born probability of a specific outcome in {+1, -1}."""
    p_plus = born_probability(state, axis)
    if outcome == +1:
        return p_plus
    if outcome == -1:
        return 1.0 - p_plus
    raise ValidationError(f"outcome must be +1 or -1, got {outcome!r}")


def collapse(axis, outcome: int) -> BlochVector:
    """Post-measurement state: +axis for outcome +1, -axis for outcome -1."""
    n = _unit_axis(axis)
    if outcome not in ANSWERS:
        raise ValidationError(f"outcome must be +1 or -1, got {outcome!r}")
    return BlochVector.from_array(outcome * n)


def repeat_measurement_check(state: BlochVector, axis) -> float:
    """Probability that re-measuring `axis` reproduces the outcome encoded in `state`.

    Expects `state` to be an eigenstate of the axis (i.e. collapse(axis, a));
    returns the Born probability of that same outcome a, which is exactly 1
    by projective repeatability.
    """
    n = _unit_axis(axis)
    overlap = float(state.as_array() @ n)
    if abs(abs(overlap) - 1.0) > UNIT_TOL:
        raise ValidationError(
            "state is not an eigenstate of the given axis; repeatability check undefined"
        )
    outcome = +1 if overlap > 0 else -1
    return outcome_probability(state, n, outcome)
