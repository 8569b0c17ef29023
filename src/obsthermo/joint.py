"""Exact probability tables over tuples of named finite-alphabet variables.

Alphabets here are tiny, so tables are dense: marginalization is an exact
numpy sum, never an approximation.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

MASS_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """A dense joint table; axis i of `table` ranges over alphabets[i]."""

    names: tuple
    alphabets: tuple
    table: np.ndarray

    def __post_init__(self):
        names = tuple(self.names)
        alphabets = tuple(tuple(a) for a in self.alphabets)
        if len(names) != len(set(names)):
            raise ValidationError(f"variable names must be unique, got {names}")
        if len(names) != len(alphabets):
            raise ValidationError("one alphabet required per variable")
        table = np.asarray(self.table, dtype=float)
        expected = tuple(len(a) for a in alphabets)
        if table.shape != expected:
            raise ValidationError(f"table shape {table.shape} does not match alphabets {expected}")
        if table.min(initial=0.0) < -MASS_TOL:
            raise ValidationError(f"negative probability {table.min()!r} in table")
        mass = float(table.sum())
        if not abs(mass - 1.0) <= MASS_TOL:
            raise ValidationError(f"table mass {mass!r} differs from 1 by more than {MASS_TOL}")
        table = np.clip(table, 0.0, None)
        table.flags.writeable = False
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "alphabets", alphabets)
        object.__setattr__(self, "table", table)

    @property
    def num_vars(self) -> int:
        return len(self.names)

    def axis(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ValidationError(f"unknown variable {name!r}; have {self.names}") from None

    def axes(self, names) -> tuple:
        return tuple(self.axis(n) for n in names)

    def alphabet(self, name: str) -> tuple:
        return self.alphabets[self.axis(name)]

    def marginal(self, names) -> "JointDistribution":
        """Sum out every variable not in `names` (kept in this joint's order)."""
        keep = set(self.axes(names))
        if not keep:
            raise ValidationError("marginal needs at least one variable")
        drop = tuple(i for i in range(self.num_vars) if i not in keep)
        table = self.table.sum(axis=drop) if drop else self.table
        kept = sorted(keep)
        return JointDistribution(
            names=tuple(self.names[i] for i in kept),
            alphabets=tuple(self.alphabets[i] for i in kept),
            table=table,
        )

    def reorder(self, names) -> "JointDistribution":
        """Return the same distribution with variables permuted into `names` order."""
        names = tuple(names)
        if sorted(names) != sorted(self.names):
            raise ValidationError(f"reorder needs a permutation of {self.names}, got {names}")
        perm = self.axes(names)
        return JointDistribution(
            names=names,
            alphabets=tuple(self.alphabets[i] for i in perm),
            table=np.transpose(self.table, perm),
        )


def max_abs_deviation(a: JointDistribution, b: JointDistribution) -> float:
    """Largest per-entry difference between two joints over the same variables."""
    if set(a.names) != set(b.names):
        raise ValidationError(f"variable mismatch: {a.names} vs {b.names}")
    b = b.reorder(a.names)
    if a.alphabets != b.alphabets:
        raise ValidationError("alphabet mismatch between joints")
    return float(np.max(np.abs(a.table - b.table)))

