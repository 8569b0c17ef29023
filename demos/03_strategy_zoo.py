"""A zoo of memory strategies on the two-question scenario.

Longer records remember more and predict no better, so the bound grows with
the window; doing nothing is free but blind.
"""

import numpy as np

from obsthermo import (
    KernelStrategy,
    NothingStrategy,
    WindowStrategy,
    apply_strategy,
    bundled_scenario,
    evaluate,
    predictive_cap_check,
    strategy_summary,
    window_joint,
)
from obsthermo.workflows import scenario_window

scenario = bundled_scenario("case_b_labeled")
chain, _ = scenario_window(scenario)
window = window_joint(chain, 3)

strategies = [
    NothingStrategy(),
    WindowStrategy(k=1, labeled=False),
    WindowStrategy(k=1, labeled=True),
    WindowStrategy(k=2, labeled=False),
    WindowStrategy(k=2, labeled=True),
    WindowStrategy(k=3, labeled=True),
    KernelStrategy(  # a noisy last-answer memory
        assignment=np.array([[0.9, 0.1], [0.1, 0.9]]), k=1, labeled=False
    ),
]

temperature = 300.0
print(f"{'strategy':38s} {'i_mem':>8s} {'i_pred':>8s} {'nostalgia':>9s} {'bound (J)':>12s}")
for strategy in strategies:
    report = evaluate(apply_strategy(strategy, window), temperature_kelvin=temperature)
    label = strategy_summary(strategy, num_questions=2)
    print(
        f"{label:38s} {report.i_mem:8.4f} {report.i_pred:8.4f} "
        f"{report.nostalgia:9.4f} {report.bound_joules:12.3e}"
    )

check = predictive_cap_check(
    window,
    [WindowStrategy(k=k, labeled=lab) for k in (1, 2, 3) for lab in (True, False)],
    iid=True,
)
print(f"\nanswer-entropy cap H(A'|Q') = {check.cap_bits:.4f} bits;")
print(f"best window strategy reaches {check.max_i_pred:.4f} bits, below the 1-bit ceiling")
