"""Minimizing the bound over strategies: the beta frontier.

At beta = 1 the objective is the nostalgia itself and its zero minimum is
degenerate: constant maps that record nothing tie with maximally predictive
maps that waste nothing.  Larger beta values trade memory for prediction and
harden onto the deterministic optimum, certified here against exhaustive
enumeration.
"""

from obsthermo import bundled_scenario
from obsthermo.strategy import KernelStrategy, assignment_from_map, harden, strategy_summary
from obsthermo.workflows import optimize

for name in ("case_a", "case_b_labeled"):
    scenario = bundled_scenario(name)
    result = optimize(scenario)
    print(f"== {name} (M={scenario.optimizer.memory_size}) ==")
    print(f"{'beta':>8s} {'i_mem':>8s} {'i_pred':>8s} {'objective':>10s}  iters")
    for p in result.points:
        print(f"{p.beta:8.3f} {p.i_mem:8.4f} {p.i_pred:8.4f} {p.objective:10.4f}  {p.iterations}")
    ref = result.exhaustive_reference
    ref_map = [int(v) for v in harden(ref.strategy.assignment)]
    print(f"exhaustive optimum at beta={ref.beta:g}: objective {ref.objective:.9f}, map {ref_map}")
    best = result.points[-1]
    print(f"soft optimizer at beta={best.beta:g}:   objective {best.objective:.9f}")
    cells = harden(best.strategy.assignment)
    hardened = KernelStrategy(
        assignment_from_map(cells, best.strategy.memory_size),
        k=best.strategy.k,
        labeled=best.strategy.labeled,
    )
    print(f"hardened best strategy: {strategy_summary(hardened, num_questions=len(scenario.labels))}")
    print(f"argmax cells: {[int(v) for v in cells]}")
    zero_cost = result.degeneracy
    observers = sum(d.observer_like for d in zero_cost)
    print(
        f"zero-nostalgia maps: {len(zero_cost)} total, {observers} observer-like "
        f"(i_pred > 0), {len(zero_cost) - observers} blind"
    )
    print()
