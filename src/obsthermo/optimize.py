"""Minimizing the dissipation bound over memory strategies.

Two routes: exhaustive search over small deterministic maps (the certified
reference) and soft alternating minimization of I(M;H) - beta * I(M;X') with
deterministic annealing over beta.  beta >= 1 only: below 1 the trivial map
wins for every joint.  At beta = 1 the objective is the nostalgia itself and
its minimum, zero, is degenerate: constant maps (no information) and maximally
predictive maps (no nostalgia) both attain it.
"""

from dataclasses import dataclass

import numpy as np

from . import chain as chainmod
from .errors import SizeCapError, ValidationError
from .info import mutual_information_table, xlogx
from .joint import JointDistribution
from .strategy import (
    ENUMERATION_CAP,
    KernelStrategy,
    assignment_from_map,
    deterministic_count,
    enumerate_deterministic,
    history_window,
    view_alphabet,
    view_variables,
)

_LN2 = np.log(2.0)
_DESCENT_SLACK = 1e-12
_LOG_FLOOR = 1e-300  # decoder entries floored inside logs; rows renormalized each iteration


@dataclass(frozen=True)
class OptimizerSettings:
    """Knobs for the soft optimizer and its beta sweep."""

    memory_size: int
    beta_min: float = 1.0
    beta_max: float = 8.0
    beta_steps: int = 7
    tolerance: float = 1e-9
    max_iterations: int = 10_000
    restarts: int = 8
    seed: int = 0
    history_k: int | None = None
    history_labeled: bool = True

    def __post_init__(self):
        if self.memory_size < 1:
            raise ValidationError(f"memory_size must be >= 1, got {self.memory_size}")
        if self.beta_min < 1.0:
            raise ValidationError(f"beta_min must be >= 1, got {self.beta_min}")
        if self.beta_max < self.beta_min:
            raise ValidationError("beta_max must be >= beta_min")
        if self.beta_steps < 1 or self.max_iterations < 1 or self.restarts < 1:
            raise ValidationError("beta_steps, max_iterations and restarts must be >= 1")
        if self.tolerance <= 0:
            raise ValidationError("tolerance must be > 0")

    def betas(self) -> np.ndarray:
        if self.beta_steps == 1:
            return np.array([self.beta_min])
        return np.geomspace(self.beta_min, self.beta_max, self.beta_steps)


@dataclass(frozen=True, eq=False)
class HistoryFutureJoint:
    """A window joint grouped into (history view, next pair), as a 2-D table."""

    table: np.ndarray
    history_symbols: tuple
    future_symbols: tuple
    k: int
    labeled: bool

    @property
    def num_histories(self) -> int:
        return self.table.shape[0]

    def history_marginal(self) -> np.ndarray:
        return self.table.sum(axis=1)

    def future_conditionals(self) -> np.ndarray:
        """p(x' | h) rows; zero-probability histories get uniform rows."""
        p_h = self.history_marginal()
        safe = np.where(p_h > 0, p_h, 1.0)
        cond = self.table / safe[:, None]
        cond[p_h == 0] = 1.0 / self.table.shape[1]
        return cond


def history_future_joint(
    window: JointDistribution, k: int | None = None, labeled: bool = True
) -> HistoryFutureJoint:
    """Group a window joint into the optimizer's (H, X') form.

    The history view is the last k pairs (default: the full window), labels
    kept or dropped; its symbols come out in the canonical kernel row order.
    """
    w = history_window(window)
    if k is None:
        k = w
    view_vars = view_variables(window, k, labeled)
    marg = window.marginal(tuple(view_vars) + chainmod.FUTURE_PAIR)
    marg = marg.reorder(tuple(view_vars) + chainmod.FUTURE_PAIR)
    labels = window.alphabet(chainmod.FUTURE_PAIR[0])
    n_future = 2 * len(labels)
    table = marg.table.reshape(-1, n_future)
    history_symbols = view_alphabet(labels, k, labeled)
    future_symbols = tuple((lab, a) for lab in labels for a in (+1, -1))
    return HistoryFutureJoint(
        table=table,
        history_symbols=history_symbols,
        future_symbols=future_symbols,
        k=k,
        labeled=labeled,
    )


@dataclass(frozen=True, eq=False)
class FrontierPoint:
    """One optimized strategy on the memory/prediction frontier."""

    beta: float | None
    i_mem: float
    i_pred: float
    nostalgia: float
    objective: float
    converged: bool
    iterations: int
    strategy: KernelStrategy


def _point_from_encoder(
    hf: HistoryFutureJoint, enc: np.ndarray, beta: float | None, converged: bool, iterations: int
) -> FrontierPoint:
    p_h = hf.history_marginal()
    p_hm = p_h[:, None] * enc
    i_mem = mutual_information_table(p_hm)
    p_mx = enc.T @ hf.table
    i_pred = mutual_information_table(p_mx)
    nostalgia = max(0.0, i_mem - i_pred)
    objective = i_mem - (beta if beta is not None else 1.0) * i_pred
    return FrontierPoint(
        beta=beta,
        i_mem=i_mem,
        i_pred=i_pred,
        nostalgia=nostalgia,
        objective=objective,
        converged=converged,
        iterations=iterations,
        strategy=KernelStrategy(assignment=enc, k=hf.k, labeled=hf.labeled),
    )


def _initial_encoders(n_hist: int, m: int, restarts: int, rng: np.random.Generator) -> list:
    """Restart 0 is near-uniform (anchors the beta=1 degeneracy at objective 0);
    the rest are Dirichlet perturbations of random hard assignments, since pure
    random rows frequently fall into the trivial fixed point."""
    encs = []
    jitter = rng.dirichlet(np.full(m, 50.0), size=n_hist)
    encs.append(jitter)
    for _ in range(restarts - 1):
        encs.append(rng.dirichlet(np.full(m, 0.1), size=n_hist))
    return encs


def _run_fixed_point(
    hf: HistoryFutureJoint, enc: np.ndarray, beta: float, settings: OptimizerSettings
) -> tuple:
    """Alternating minimization from one start; returns (enc, objective, converged, iters).

    Updates per iteration: p(m) <- sum_h p(h) p(m|h); p(x'|m) <- induced decoder;
    p(m|h) propto p(m) exp(-beta KL(p(x'|h) || p(x'|m))).  The objective
    I(M;H) - beta I(M;X') is checked to be non-increasing each iteration.
    """
    p_h = hf.history_marginal()
    cond = hf.future_conditionals()
    cond_self = xlogx(cond).sum(axis=1)  # sum_x p(x|h) ln p(x|h), in nats
    enc = np.asarray(enc, dtype=float).copy()
    # the H and X' marginals do not depend on the encoder
    h_sum = xlogx(p_h).sum()
    x_sum = xlogx(hf.table.sum(axis=0)).sum()

    def objective_of(e: np.ndarray) -> float:
        m_sum = xlogx(p_h @ e).sum()
        i_mem = max(0.0, float((xlogx(p_h[:, None] * e).sum() - h_sum - m_sum) / _LN2))
        i_pred = max(0.0, float((xlogx(e.T @ hf.table).sum() - m_sum - x_sum) / _LN2))
        return i_mem - beta * i_pred

    prev = objective_of(enc)
    converged = False
    iterations = 0
    for it in range(1, settings.max_iterations + 1):
        p_m = p_h @ enc
        p_mx = enc.T @ hf.table
        safe_pm = np.where(p_m > 0, p_m, 1.0)
        dec = p_mx / safe_pm[:, None]
        dec[p_m == 0] = 1.0 / hf.table.shape[1]
        # KL(p(x'|h) || p(x'|m)) in nats, decoder floored inside the log
        cross = cond @ np.log(np.maximum(dec, _LOG_FLOOR)).T  # (H, M)
        kl = cond_self[:, None] - cross
        logits = np.log(np.maximum(p_m, _LOG_FLOOR))[None, :] - beta * kl
        logits -= logits.max(axis=1, keepdims=True)
        enc = np.exp(logits)
        enc /= enc.sum(axis=1, keepdims=True)
        obj = objective_of(enc)
        if obj > prev + _DESCENT_SLACK:
            raise RuntimeError(
                f"objective increased from {prev!r} to {obj!r} at iteration {it}; "
                "monotone descent violated"
            )
        iterations = it
        if abs(prev - obj) <= settings.tolerance:
            prev = obj
            converged = True
            break
        prev = obj
    return enc, prev, converged, iterations


def optimize_soft(
    hf: HistoryFutureJoint,
    beta: float,
    settings: OptimizerSettings,
    warm_starts: tuple = (),
) -> FrontierPoint:
    """Best-of-restarts soft minimization of I(M;H) - beta I(M;X') at one beta."""
    if beta < 1.0:
        raise ValidationError(f"beta must be >= 1, got {beta}")
    m = settings.memory_size
    n_hist = hf.num_histories
    rng = np.random.Generator(np.random.Philox(key=settings.seed))
    encs = _initial_encoders(n_hist, m, settings.restarts, rng)
    encs.extend(np.asarray(w, dtype=float) for w in warm_starts)
    best = None
    for enc0 in encs:
        enc, obj, converged, iters = _run_fixed_point(hf, enc0, beta, settings)
        if best is None or obj < best[1] - 1e-15:
            best = (enc, obj, converged, iters)
    enc, obj, converged, iters = best
    point = _point_from_encoder(hf, enc, beta, converged, iters)
    return point


def sweep_beta(hf: HistoryFutureJoint, settings: OptimizerSettings) -> list:
    """Frontier points over the geometric beta schedule, warm-started in order."""
    points = []
    warm = ()
    for beta in settings.betas():
        point = optimize_soft(hf, float(beta), settings, warm_starts=warm)
        points.append(point)
        warm = (point.strategy.assignment,)
    return points


def _evaluate_maps(hf: HistoryFutureJoint, maps: np.ndarray, m: int):
    """Vectorized (i_mem, i_pred) for a (C, H) block of deterministic maps."""
    c, h = maps.shape
    x = hf.table.shape[1]
    p_mx = np.zeros((c, m, x))
    rows = np.repeat(np.arange(c), h)
    np.add.at(p_mx, (rows, maps.ravel()), np.tile(hf.table, (c, 1)))
    p_m = p_mx.sum(axis=2)
    i_mem = np.maximum(0.0, -xlogx(p_m).sum(axis=1) / _LN2)  # H(M): maps are deterministic
    h_x = -xlogx(hf.table.sum(axis=0)).sum() / _LN2
    h_mx = -xlogx(p_mx).sum(axis=(1, 2)) / _LN2
    i_pred = np.maximum(0.0, i_mem + h_x - h_mx)
    return i_mem, i_pred


def _iter_map_blocks(n_hist: int, m: int, cap: int, block: int = 4096):
    gen = enumerate_deterministic(n_hist, m, cap=cap)
    while True:
        chunk = list(zip(range(block), gen))
        if not chunk:
            return
        yield np.array([arr for _, arr in chunk], dtype=int)
        if len(chunk) < block:
            return


def exhaustive_best(
    hf: HistoryFutureJoint,
    memory_size: int,
    objective: str = "beta",
    beta: float | None = None,
    i_pred_target: float | None = None,
    target_tol: float = 1e-9,
    cap: int = ENUMERATION_CAP,
) -> FrontierPoint:
    """Certified optimum over all deterministic maps history -> memory.

    objective: "beta" minimizes i_mem - beta * i_pred (beta required);
    "max_i_pred" maximizes i_pred; "min_nostalgia_at_i_pred" minimizes
    nostalgia among maps with i_pred >= i_pred_target - target_tol.
    Ties go to the earliest map in enumeration order.
    """
    if objective == "beta":
        if beta is None:
            raise ValidationError('objective "beta" needs an explicit beta')
    elif objective == "max_i_pred":
        pass
    elif objective == "min_nostalgia_at_i_pred":
        if i_pred_target is None:
            raise ValidationError('objective "min_nostalgia_at_i_pred" needs i_pred_target')
    else:
        raise ValidationError(f"unknown objective {objective!r}")

    n_hist = hf.num_histories
    best_score = None
    best_map = None
    best_info = None
    offset = 0
    for block in _iter_map_blocks(n_hist, memory_size, cap):
        i_mem, i_pred = _evaluate_maps(hf, block, memory_size)
        if objective == "beta":
            scores = i_mem - beta * i_pred
        elif objective == "max_i_pred":
            scores = -i_pred
        else:
            scores = np.where(
                i_pred >= i_pred_target - target_tol, i_mem - i_pred, np.inf
            )
        j = int(np.argmin(scores))
        if best_score is None or scores[j] < best_score - 1e-15:
            best_score = float(scores[j])
            best_map = block[j].copy()
            best_info = (float(i_mem[j]), float(i_pred[j]))
        offset += block.shape[0]
    if best_map is None or not np.isfinite(best_score):
        raise ValidationError("no deterministic map satisfies the requested objective")
    i_mem, i_pred = best_info
    strat = KernelStrategy(
        assignment=assignment_from_map(best_map, memory_size), k=hf.k, labeled=hf.labeled
    )
    return FrontierPoint(
        beta=beta,
        i_mem=i_mem,
        i_pred=i_pred,
        nostalgia=max(0.0, i_mem - i_pred),
        objective=i_mem - (beta if beta is not None else 1.0) * i_pred,
        converged=True,
        iterations=0,
        strategy=strat,
    )


@dataclass(frozen=True, eq=False)
class DegenerateStrategy:
    """A zero-nostalgia deterministic map, observer-like iff it predicts anything."""

    map_indices: tuple
    i_mem: float
    i_pred: float
    nostalgia: float
    observer_like: bool


def degeneracy_report(
    hf: HistoryFutureJoint, memory_size: int, tol: float = 1e-9, cap: int = ENUMERATION_CAP
) -> list:
    """Every deterministic map with nostalgia <= tol, annotated with its i_pred."""
    count = deterministic_count(hf.num_histories, memory_size)
    if count > cap:
        raise SizeCapError(f"{count} maps exceed the cap {cap}")
    out = []
    for block in _iter_map_blocks(hf.num_histories, memory_size, cap):
        i_mem, i_pred = _evaluate_maps(hf, block, memory_size)
        nostalgia = i_mem - i_pred
        for j in np.flatnonzero(nostalgia <= tol):
            out.append(
                DegenerateStrategy(
                    map_indices=tuple(int(v) for v in block[j]),
                    i_mem=float(i_mem[j]),
                    i_pred=float(i_pred[j]),
                    nostalgia=max(0.0, float(nostalgia[j])),
                    observer_like=bool(i_pred[j] > 1e-9),
                )
            )
    return out


def write_frontier_csv(points, path) -> None:
    """Fixed header: beta,i_mem_bits,i_pred_bits,nostalgia_bits,objective,converged,iterations."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("beta,i_mem_bits,i_pred_bits,nostalgia_bits,objective,converged,iterations\n")
        for p in points:
            fh.write(
                ",".join(
                    [
                        format(p.beta if p.beta is not None else float("nan"), ".9g"),
                        format(p.i_mem, ".9g"),
                        format(p.i_pred, ".9g"),
                        format(p.nostalgia, ".9g"),
                        format(p.objective, ".9g"),
                        "true" if p.converged else "false",
                        str(p.iterations),
                    ]
                )
                + "\n"
            )
