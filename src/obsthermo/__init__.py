"""obsthermo: a qubit probed by binary questions, the memories observers keep
about it, and the dissipation lower bound those memories imply.

Pipeline: build the exact (question, answer) chain for a scenario, take its
long-run window joint, apply a memory strategy, and read off memory
information, predictive information, nostalgia, and the bound.  An optimizer
minimizes the bound over strategies; a brute-force oracle and Monte Carlo
certify every exact number.
"""

from .bound import BOLTZMANN_J_PER_K, CapCheckResult, InfoReport, evaluate, predictive_cap_check
from .chain import (
    ChainKernel,
    LongRunResult,
    Trajectory,
    build_chain,
    long_run_distribution,
    sample_trajectory,
    window_joint,
    window_names,
)
from .config import (
    BUNDLED_SCENARIOS,
    Scenario,
    bundled_scenario,
    bundled_scenario_path,
    load_scenario,
    parse_scenario,
)
from .errors import OptimizerError, SizeCapError, ValidationError
from .info import (
    conditional_mutual_information,
    entropy,
    mutual_information,
)
from .joint import JointDistribution, max_abs_deviation
from .optimize import (
    FrontierPoint,
    HistoryFutureJoint,
    OptimizerSettings,
    degeneracy_report,
    exhaustive_best,
    history_future_joint,
    optimize_soft,
    sweep_beta,
)
from .oracle import MonteCarloReport, brute_force_joint, converged_tail, monte_carlo_check
from .process import (
    IIDProcess,
    MarkovProcess,
    PeriodicProcess,
    sample_questions,
)
from .qubit import (
    ANSWERS,
    BlochVector,
    MIXED_STATE,
    Question,
    born_probability,
    collapse,
)
from .strategy import (
    KernelStrategy,
    NothingStrategy,
    WindowStrategy,
    apply_strategy,
    memory_capacity_bits,
    strategy_summary,
)
from .workflows import AnalysisResult, OptimizeResult, analyze, optimize, verify

__version__ = "0.1.0"

__all__ = [
    "ANSWERS",
    "AnalysisResult",
    "BOLTZMANN_J_PER_K",
    "BUNDLED_SCENARIOS",
    "BlochVector",
    "CapCheckResult",
    "ChainKernel",
    "FrontierPoint",
    "HistoryFutureJoint",
    "IIDProcess",
    "InfoReport",
    "JointDistribution",
    "KernelStrategy",
    "LongRunResult",
    "MIXED_STATE",
    "MarkovProcess",
    "MonteCarloReport",
    "NothingStrategy",
    "OptimizeResult",
    "OptimizerError",
    "OptimizerSettings",
    "PeriodicProcess",
    "Question",
    "Scenario",
    "SizeCapError",
    "Trajectory",
    "ValidationError",
    "WindowStrategy",
    "analyze",
    "apply_strategy",
    "born_probability",
    "brute_force_joint",
    "build_chain",
    "bundled_scenario",
    "bundled_scenario_path",
    "collapse",
    "conditional_mutual_information",
    "converged_tail",
    "degeneracy_report",
    "entropy",
    "evaluate",
    "exhaustive_best",
    "history_future_joint",
    "load_scenario",
    "long_run_distribution",
    "max_abs_deviation",
    "memory_capacity_bits",
    "monte_carlo_check",
    "mutual_information",
    "optimize",
    "optimize_soft",
    "parse_scenario",
    "predictive_cap_check",
    "sample_questions",
    "sample_trajectory",
    "strategy_summary",
    "sweep_beta",
    "verify",
    "window_joint",
    "window_names",
]
