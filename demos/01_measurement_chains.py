"""A qubit under repeated binary questions.

Walks the physical layer: Born probabilities, collapse, repeatability, and the
exact (question, answer) chain a measurement schedule induces.
"""

import numpy as np

from obsthermo import (
    BlochVector,
    Chain,
    IIDProcess,
    MIXED_STATE,
    Question,
    born_probability,
    collapse,
    sample_trajectory,
    window_joint,
)
from obsthermo.strategy import view_alphabet

qz = Question(label="Qz", axis=np.array([0.0, 0.0, 1.0]))
qx = Question(label="Qx", axis=np.array([1.0, 0.0, 0.0]))

print("== one measurement ==")
up = BlochVector(0, 0, 1)
print(f"P(+1 | z-up, ask z)  = {born_probability(up, qz.axis)}")
print(f"P(+1 | z-up, ask x)  = {born_probability(up, qx.axis)}")
print(f"P(+1 | mixed, ask z) = {born_probability(MIXED_STATE, qz.axis)}")

print("\n== collapse and repeatability ==")
state = collapse(qx.axis, -1)
print(f"after answering Qx with -1 the state is {state}")
print(f"asking Qx again: P(-1) = {1 - born_probability(state, qx.axis)} (certain)")
print(f"asking Qz next:  P(+1) = {born_probability(state, qz.axis)} (coin flip)")

print("\n== the induced chain ==")
process = IIDProcess(labels=("Qz", "Qx"), weights=np.array([0.5, 0.5]))
chain = Chain((qz, qx), process, MIXED_STATE)  # the schedule, its questions and the start
print("states:", [v[0] for v in view_alphabet(process.labels, 1, labeled=True)])
print(np.array_str(chain.matrix, precision=3))

long_run = chain.long_run
print(f"long run distribution: {long_run.distribution} (cesaro={long_run.cesaro})")

window = window_joint(chain, 1)
pair = window.marginal(("a0", "a+1")).table
print(f"P(next answer repeats the last) = {pair[0, 0] + pair[1, 1]}  (1/2 + 1/2 * 1/2)")

print("\n== a sampled answer string ==")
traj = sample_trajectory(chain, length=20, seed=42)
print(" ".join(f"{q}:{'+' if a > 0 else '-'}" for q, a in traj.steps))
