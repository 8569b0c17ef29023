"""Trust, then verify: the brute-force tree and Monte Carlo against exact tables.

The tree enumerates every trajectory leaf by leaf, sharing nothing with the
chain algebra beyond the one-step Born rule; Monte Carlo samples windows by
direct simulation.  Agreement across all three routes certifies the numbers.
"""

from obsthermo import (
    analyze,
    brute_force_joint,
    bundled_scenario,
    converged_tail,
    max_abs_deviation,
    monte_carlo_check,
)
from obsthermo.workflows import scenario_window

scenario = bundled_scenario("case_b_labeled")

print("== exact chain vs brute-force tree ==")
chain, window = scenario_window(scenario)  # the chain carries the scenario's start
tail, horizon = converged_tail(
    scenario.questions, scenario.process, scenario.initial_state, scenario.window
)
deviation = max_abs_deviation(window, tail)
print(f"tree stabilized at horizon {horizon}; max per-entry deviation {deviation:.3e}")

joint = brute_force_joint(scenario.questions, scenario.process, scenario.initial_state, 3)
pair = joint.marginal(("a1", "a2")).table
print(f"tree P(a1=a2) = {pair[0, 0] + pair[1, 1]} over {joint.table.size} leaves")

print("\n== Monte Carlo cross-check ==")
exact = analyze(scenario).report
for n in (10**4, 10**5, 10**6):
    mc = monte_carlo_check(chain, scenario.window, scenario.strategy, n=n, seed=7)
    pull = abs(mc.i_pred - exact.i_pred) / mc.se_i_pred
    print(
        f"N={n:>8d}: i_pred = {mc.i_pred:.6f} +/- {mc.se_i_pred:.6f} "
        f"(exact {exact.i_pred:.6f}, {pull:.2f} sigma)"
    )
print("\nreplica standard errors shrink like 1/sqrt(N) while the estimate stays on the exact value")
