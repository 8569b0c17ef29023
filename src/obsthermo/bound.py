"""The strategy-dependent lower bound on average dissipation per interaction.

Memory information is I(M; history) over the full supplied window (equal to
H(M) for deterministic strategies); predictive information is I(M; next pair).
Their difference, the nostalgia, is the non-predictive share of the record and
sets the bound: k_B T ln2 joules per nostalgic bit.
"""

import math
from dataclasses import dataclass

from . import chain as chainmod
from . import info
from .errors import ValidationError
from .joint import JointDistribution
from .strategy import MEMORY_VAR, apply_strategy

BOLTZMANN_J_PER_K = 1.380649e-23
CAP_TOL = 1e-10


@dataclass(frozen=True)
class InfoReport:
    """Information content of a memory strategy and the bound it implies."""

    i_mem: float
    i_pred: float
    nostalgia: float
    bound_bits: float
    memory_capacity_bits: float
    bound_joules: float | None = None


def evaluate(
    joint_with_memory: JointDistribution, temperature_kelvin: float | None = None
) -> InfoReport:
    """InfoReport for a joint over (m, history block, q+1, a+1)."""
    names = set(joint_with_memory.names)
    needed = {MEMORY_VAR, *chainmod.FUTURE_PAIR}
    missing = needed - names
    if missing:
        raise ValidationError(f"joint is missing variables {sorted(missing)}")
    history = [n for n in joint_with_memory.names if n not in needed]
    if not history:
        raise ValidationError("joint has no history block")
    if temperature_kelvin is not None and not temperature_kelvin > 0:
        raise ValidationError(f"temperature must be > 0 K, got {temperature_kelvin}")

    i_mem = info.mutual_information(joint_with_memory, [MEMORY_VAR], history)
    i_pred = info.mutual_information(joint_with_memory, [MEMORY_VAR], chainmod.FUTURE_PAIR)
    nostalgia = i_mem - i_pred
    if nostalgia < -info.CLAMP_TOL:
        raise ValidationError(
            f"i_pred {i_pred} exceeds i_mem {i_mem} beyond tolerance; table is inconsistent"
        )
    nostalgia = max(0.0, nostalgia)
    joules = None
    if temperature_kelvin is not None:
        joules = BOLTZMANN_J_PER_K * temperature_kelvin * math.log(2.0) * nostalgia
    capacity = math.log2(len(joint_with_memory.alphabet(MEMORY_VAR)))
    return InfoReport(
        i_mem=i_mem,
        i_pred=i_pred,
        nostalgia=nostalgia,
        bound_bits=nostalgia,
        memory_capacity_bits=capacity,
        bound_joules=joules,
    )


@dataclass(frozen=True)
class CapCheckResult:
    """Outcome of the predictive-information cap check.

    `cap_bits` is H(A' | Q') from the window joint, which is at most 1 bit for
    binary answers.  For IID schedules every strategy's i_pred is bounded by it
    (asserted); for non-IID schedules i_pred = I(M; (Q', A')) can additionally
    pick up information about the upcoming question itself, so the cap is
    reported without the assertion.
    """

    cap_bits: float
    max_i_pred: float
    per_strategy: tuple
    asserted: bool


def predictive_cap_check(
    window: JointDistribution, strategies, iid: bool = True
) -> CapCheckResult:
    """Evaluate i_pred for each strategy against the answer-entropy cap."""
    q_next, a_next = chainmod.FUTURE_PAIR
    cap = info.entropy(window, [q_next, a_next]) - info.entropy(window, [q_next])
    per = []
    for strat in strategies:
        applied = apply_strategy(strat, window)
        per.append(info.mutual_information(applied, [MEMORY_VAR], chainmod.FUTURE_PAIR))
    max_i_pred = max(per) if per else 0.0
    if iid:
        if cap > 1.0 + CAP_TOL:
            raise ValidationError(f"answer cap {cap} exceeds 1 bit; table is inconsistent")
        if max_i_pred > cap + CAP_TOL:
            raise ValidationError(
                f"max i_pred {max_i_pred} exceeds the cap {cap} for an IID schedule"
            )
    return CapCheckResult(
        cap_bits=cap, max_i_pred=max_i_pred, per_strategy=tuple(per), asserted=bool(iid)
    )
