"""End-to-end workflows over a Scenario: analyze, optimize, verify.

These are the library-level operations behind the CLI; demos and tests call
them directly.
"""

from dataclasses import dataclass
from functools import cached_property

from . import bound as boundmod
from . import chain as chainmod
from . import info
from . import oracle as oraclemod
from . import process as procmod
from .config import Scenario
from .errors import SizeCapError, ValidationError
from .joint import JointDistribution, max_abs_deviation
from .optimize import (
    BETAS,
    FrontierPoint,
    degeneracy_report,
    exhaustive_best,
    history_future_joint,
    sweep_beta,
)
from .strategy import MEMORY_VAR, apply_strategy, view_encoder

WINDOW_ORACLE_TOL = 1e-10
CONSISTENCY_TOL = 1e-10
MARKOV_PROPERTY_TOL = 1e-10
MC_ROUNDING_TOL = 1e-12  # Monte Carlo rounding per bit of |i_pred|, at least one: see verify
DEFAULT_MC_SAMPLES = 10_000


def scenario_window(scenario: Scenario, k: int | None = None):
    """(chain, window joint over the last k pairs) for a scenario.

    The chain starts at the scenario's initial state.  k defaults to the
    scenario's window w.  The long run is invariant under the kernel, so the
    k-pair window is exactly the marginal of the w-pair one.
    """
    chain = chainmod.Chain(scenario.questions, scenario.process, scenario.initial_state)
    return chain, chainmod.window_joint(chain, scenario.window if k is None else k)


@dataclass(frozen=True, eq=False)
class AnalysisResult:
    """The report of a strategy and the tables it was read from.

    `view` is the window over the strategy's k pairs, the only table analyze
    builds, and `applied` spans it: I(M; w-pair history) = I(M; view).
    `window`, the scenario's full w-pair window, is built on first access
    (it is `view` when k = w), so its entry cap binds only code that reads it.
    Both are read at the `chain`'s one long run.
    """

    report: boundmod.InfoReport
    view: JointDistribution
    applied: JointDistribution
    chain: chainmod.Chain
    w: int

    @cached_property
    def window(self) -> JointDistribution:
        if self.view.names == chainmod.window_names(self.w):
            return self.view
        return chainmod.window_joint(self.chain, self.w)


def analyze(scenario: Scenario) -> AnalysisResult:
    """Exact InfoReport for the scenario's strategy, from its k-pair view window."""
    if scenario.strategy is None:
        raise ValidationError("scenario.strategy: required for analyze")
    k = view_encoder(scenario.strategy, scenario.labels, scenario.window)[0]
    chain, view = scenario_window(scenario, k)
    applied = apply_strategy(scenario.strategy, view)
    report = boundmod.evaluate(applied, temperature_kelvin=scenario.temperature_kelvin)
    return AnalysisResult(report=report, view=view, applied=applied, chain=chain, w=scenario.window)


@dataclass(frozen=True, eq=False)
class OptimizeResult:
    points: tuple
    best: FrontierPoint
    degeneracy: tuple | None
    exhaustive_reference: FrontierPoint | None


def optimize(scenario: Scenario) -> OptimizeResult:
    """Sweep beta over BETAS with the scenario's optimizer settings.

    Each beta's restarts run in SQUAREM cycles, two updates and one
    extrapolated update each (`optimize._run_fixed_points`), and each
    point's `iterations` counts the map evaluations of its restart.

    When the deterministic maps number at most ENUMERATION_CAP, the result also
    holds the degeneracy report and the exhaustive reference at the largest
    beta, from one scan of the maps.  The report scans none: it scores only
    the maps constant on the groups of histories that share a heavy cell of
    p(view, next pair), the only ones whose nostalgia can stay within
    DEGENERACY_TOL, and lists every relabelling of each map it keeps.  The
    scan, for the reference, visits only the blocks whose prefix is a
    restricted growth string, since relabelling the memory states moves
    neither i_mem nor i_pred, and only such maps compete.
    """
    settings = scenario.optimizer
    if settings is None:
        raise ValidationError("scenario.optimizer: required for optimize")
    k = scenario.window if settings.history_k is None else settings.history_k
    if not 1 <= k <= scenario.window:
        raise ValidationError(
            f"optimizer.history.k={k} outside the scenario's history window w={scenario.window}"
        )
    chain = chainmod.Chain(scenario.questions, scenario.process, scenario.initial_state)
    hf = history_future_joint(chain, k, settings.history_labeled)
    points = tuple(sweep_beta(hf, settings))
    best = min(points, key=lambda p: p.objective)
    try:
        degeneracy = tuple(degeneracy_report(hf, settings.memory_size))
    except SizeCapError:  # more maps than the scan enumerates
        degeneracy = reference = None
    else:
        reference = exhaustive_best(hf, settings.memory_size, beta=float(BETAS[-1]))
    return OptimizeResult(
        points=points, best=best, degeneracy=degeneracy, exhaustive_reference=reference
    )


def verify(
    scenario: Scenario, mc_samples: int = DEFAULT_MC_SAMPLES, seed: int = 0
) -> list:
    """Run every oracle check against the chain pipeline; returns verdict dicts.

    The Monte Carlo verdict allows 3 se for sampling plus a rounding term,
    MC_ROUNDING_TOL * max(1, |i_pred|).  The estimate is a float mean of n
    window scores and i_pred a float difference of entropies, so the two
    differ by some ulps of the bit scale even where every window scores the
    same and se is 0: 4.4e-16 bits on a turned case_b_bestcase started at a
    pure state orthogonal to its axes.  A float sum of m terms of magnitude
    at most s is off by at most (m - 1) u s, u = 2^-53, and by about
    sqrt(m) u s when the rounding errors have random signs (Higham, Accuracy
    and Stability of Numerical Algorithms, sections 2.8 and 4.2).  With s the
    bit scale max(1, |i_pred|), 1e-12 = 9,000 u covers the worst case for
    9,000 terms and the typical one for 8e7, more cells than any window under
    WINDOW_ENTRY_CAP.  Beside sampling it is nothing: at 10^4 windows, scores
    that vary by 1e-4 bits already give an se near 1e-6.
    """
    verdicts = []
    chain, window = scenario_window(scenario)
    name = scenario.name

    row_dev = float(abs(chain.matrix.sum(axis=1) - 1.0).max())
    verdicts.append(oraclemod.verdict("kernel_rows_stochastic", name, row_dev, 1e-12))

    mass_dev = float(abs(chain.long_run.distribution.sum() - 1.0))
    verdicts.append(oraclemod.verdict("long_run_mass", name, mass_dev, 1e-10))

    tail, _horizon = oraclemod.converged_tail(
        scenario.questions, scenario.process, scenario.initial_state, scenario.window
    )
    dev = max_abs_deviation(window, tail)
    verdicts.append(oraclemod.verdict("window_vs_oracle", name, dev, WINDOW_ORACLE_TOL))

    if scenario.window >= 2:
        # dropping the oldest pair of a w-window leaves exactly the (w-1)-window names
        smaller = chainmod.window_joint(chain, scenario.window - 1)
        dropped = window.marginal(chainmod.window_names(scenario.window)[2:])
        dev = max_abs_deviation(dropped, smaller)
        verdicts.append(oraclemod.verdict("window_consistency", name, dev, CONSISTENCY_TOL))

    future = window.marginal(chainmod.FUTURE_PAIR)
    future_flat = future.table.reshape(-1)
    dev = float(abs(future_flat - chain.long_run.distribution).max())
    verdicts.append(oraclemod.verdict("future_marginal_is_long_run", name, dev, 1e-10))

    if isinstance(scenario.process, procmod.IIDProcess):
        history = [n for n in window.names if n not in chainmod.FUTURE_PAIR]
        dev = info.mutual_information(window, [chainmod.FUTURE_PAIR[0]], history)
        verdicts.append(oraclemod.verdict("exogeneity", name, dev, 1e-10))

    if scenario.strategy is not None:
        applied = apply_strategy(scenario.strategy, window)
        history = [n for n in window.names if n not in chainmod.FUTURE_PAIR]
        dev = info.conditional_mutual_information(
            applied, [MEMORY_VAR], chainmod.FUTURE_PAIR, history
        )
        verdicts.append(oraclemod.verdict("strategy_markov_property", name, dev, MARKOV_PROPERTY_TOL))

        report = boundmod.evaluate(applied)
        dev = max(0.0, report.i_pred - report.i_mem)
        verdicts.append(oraclemod.verdict("data_processing", name, dev, 1e-10))

        mc = oraclemod.monte_carlo_check(
            chain, scenario.window, scenario.strategy, n=mc_samples, seed=seed
        )
        dev = abs(mc.i_pred - report.i_pred)
        tol = 3.0 * mc.se_i_pred + MC_ROUNDING_TOL * max(1.0, abs(report.i_pred))
        verdicts.append(oraclemod.verdict("monte_carlo_i_pred", name, dev, tol))
    return verdicts
