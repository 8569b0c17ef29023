"""Minimizing the dissipation bound over memory strategies.

Two routes: exhaustive search over small deterministic maps (the certified
reference) and soft alternating minimization of I(M;H) - beta * I(M;X') with
deterministic annealing over beta.  beta >= 1 only: below 1 the trivial map
wins for every joint.  At beta = 1 the objective is the nostalgia itself and
its minimum, zero, is degenerate: constant maps (no information) and maximally
predictive maps (no nostalgia) both attain it.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from . import chain as chainmod
from . import process as procmod
from .errors import OptimizerError, SizeCapError, ValidationError
from .info import encoder_information, xlogx
from .joint import JointDistribution
from .strategy import (
    KernelStrategy,
    assignment_from_map,
    deterministic_count,
    history_window,
    view_variables,
)

_LN2 = np.log(2.0)
_DESCENT_SLACK = 1e-12  # per unit of beta: the objective's rounding grows with beta * i_pred
_LOG_FLOOR = 1e-300  # decoder entries floored inside logs; rows renormalized each iteration
_CHUNK_CAP = 256  # most fixed-point steps whose objectives are computed together
_CHUNK_ENTRIES = 2**17  # most entries in a chunk's (steps, R, ...) buffers: 1 MiB of floats
_MAP_BLOCK = 4096  # most maps, and tail subsets, per block: bounds the gathered (maps, M, X') terms
ENUMERATION_CAP = 10**6  # most deterministic maps an exhaustive scan enumerates
TARGET_TOL = 1e-9  # slack under i_pred_target that "min_nostalgia_at_i_pred" still admits
DEGENERACY_TOL = 1e-9  # most nostalgia of a map in the degeneracy report
BETAS = np.geomspace(1.0, 8.0, 7)  # 1 (degenerate) to 8, twice the largest bundled critical beta
RESTARTS = 8  # seeded starts per beta: one near-uniform, the rest near random hard maps
TOLERANCE = 1e-9  # a restart stops once its objective moves by at most this much
MAX_ITERATIONS = 10_000  # a restart still moving after this many updates reports converged=False


@dataclass(frozen=True)
class OptimizerSettings:
    """What a scenario sets for the optimizer: memory size, seed and history view.

    The beta schedule, restarts and stopping rule are the module constants
    BETAS, RESTARTS, TOLERANCE and MAX_ITERATIONS.
    """

    memory_size: int
    seed: int = 0
    history_k: int | None = None
    history_labeled: bool = True

    def __post_init__(self):
        if self.memory_size < 1:
            raise ValidationError(f"memory_size must be >= 1, got {self.memory_size}")
        if not 0 <= self.seed < 2**128:
            raise ValidationError(f"seed must be in [0, 2**128), got {self.seed}")


@dataclass(frozen=True, eq=False)
class HistoryFutureJoint:
    """A window joint grouped into (history view, next pair), as a 2-D table."""

    table: np.ndarray
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
    kept or dropped; its rows come out in the canonical kernel row order.
    """
    w = history_window(window)
    if k is None:
        k = w
    view_vars = view_variables(window, k, labeled)
    marg = window.marginal(tuple(view_vars) + chainmod.FUTURE_PAIR)
    marg = marg.reorder(tuple(view_vars) + chainmod.FUTURE_PAIR)
    n_future = 2 * len(window.alphabet(chainmod.FUTURE_PAIR[0]))
    return HistoryFutureJoint(table=marg.table.reshape(-1, n_future), k=k, labeled=labeled)


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
    i_mem, i_pred = encoder_information(hf.table, enc)
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


def _initial_encoders(n_hist: int, m: int, restarts: int, rng: np.random.Generator) -> np.ndarray:
    """(restarts, H, M) stack of starts.  Restart 0 is near-uniform (anchors the
    beta=1 degeneracy at objective 0); the rest are Dirichlet perturbations of
    random hard assignments, since pure random rows frequently fall into the
    trivial fixed point."""
    encs = [rng.dirichlet(np.full(m, 50.0), size=n_hist)]
    for _ in range(restarts - 1):
        encs.append(rng.dirichlet(np.full(m, 0.1), size=n_hist))
    return np.stack(encs)


def _run_fixed_points(hf: HistoryFutureJoint, encs: np.ndarray, beta: float) -> tuple:
    """Alternating minimization from an (R, H, M) stack of starts, all in one loop.

    Returns per-restart arrays (encoders, objectives, converged, iterations).
    Updates per iteration: p(m) <- sum_h p(h) p(m|h); p(x'|m) <- induced decoder;
    p(m|h) propto p(m) exp(-beta KL(p(x'|h) || p(x'|m))).  A restart stops at
    its first iteration with |delta objective| <= TOLERANCE, keeping that
    iteration's encoder, objective and count, or unconverged after
    MAX_ITERATIONS.  Its objective I(M;H) - beta I(M;X') is checked to be
    non-increasing, within rounding of _DESCENT_SLACK * beta, at every
    iteration up to and including its stop.

    The update never reads the objective, so the loop runs in chunks: the
    running restarts take a chunk's updates one after another, storing each
    step's p(m|h), p(m) and p(m, x') in (steps, R, ...) buffers, and then all
    the chunk's objectives are computed as one (steps * R) stack.  A restart
    that stops inside a chunk still takes the chunk's later updates; their
    results are dropped, and it leaves the stack before the next chunk.
    Chunks hold 1, 2, 4, ... steps up to _CHUNK_CAP, fewer near MAX_ITERATIONS
    and when the buffers would pass _CHUNK_ENTRIES.  So a run that stops
    early wastes few updates, and a long one computes its objectives a few
    hundred at a time, in a bounded amount of memory.

    Every update and every objective is computed as a loop run on that
    restart alone would compute it, one update and one objective per
    iteration: the same operations on the same operands, stacked only along
    the leading axis of C-contiguous arrays.  So the numbers, and the
    iteration a descent error names, do not depend on the chunks or on the
    other restarts in the stack.
    """
    p_h = hf.history_marginal()
    cond = hf.future_conditionals()
    cond_self = xlogx(cond).sum(axis=1)[:, None]  # sum_x p(x|h) ln p(x|h), in nats
    n_hist, n_future = hf.table.shape
    uniform = 1.0 / n_future
    # the H and X' marginals do not depend on the encoder
    h_sum = xlogx(p_h).sum()
    x_sum = xlogx(hf.table.sum(axis=0)).sum()

    def objectives_of(e: np.ndarray, p_m: np.ndarray, p_mx: np.ndarray) -> np.ndarray:
        """The objective of each encoder in the stack, given its p(m) and p(m, x')."""
        m_sum = xlogx(p_m).sum(axis=1)
        i_mem = (xlogx(p_h[:, None] * e).reshape(len(e), -1).sum(axis=1) - h_sum - m_sum) / _LN2
        i_pred = (xlogx(p_mx).reshape(len(e), -1).sum(axis=1) - m_sum - x_sum) / _LN2
        # max(0, .) as `x if x > 0 else 0.0`, so -0.0 and nan clamp to +0.0
        i_mem = np.where(i_mem > 0.0, i_mem, 0.0)
        i_pred = np.where(i_pred > 0.0, i_pred, 0.0)
        return i_mem - beta * i_pred

    def update(p_m: np.ndarray, p_mx: np.ndarray, enc: np.ndarray) -> None:
        """Write the next encoder of each restart into `enc`."""
        safe_pm = np.where(p_m > 0, p_m, 1.0)
        dec = p_mx / safe_pm[:, :, None]
        dec[p_m == 0] = uniform
        # KL(p(x'|h) || p(x'|m)) in nats, decoder floored inside the log
        cross = cond @ np.log(np.maximum(dec, _LOG_FLOOR)).transpose(0, 2, 1)  # (R, H, M)
        logits = np.log(np.maximum(p_m, _LOG_FLOOR))[:, None, :] - beta * (cond_self - cross)
        logits -= logits.max(axis=2, keepdims=True)
        np.exp(logits, out=enc)
        enc /= enc.sum(axis=2, keepdims=True)

    encs = np.array(encs, dtype=float)
    n, _, m = encs.shape
    p_m = p_h @ encs
    p_mx = encs.transpose(0, 2, 1) @ hf.table
    objectives = objectives_of(encs, p_m, p_mx)
    converged = np.zeros(n, dtype=bool)
    iterations = np.zeros(n, dtype=int)
    active = np.arange(n)
    step_entries = n_hist * m + m * n_future + m  # one restart's p(m|h), p(m) and p(m, x')
    done_steps, chunk = 0, 1
    while active.size and done_steps < MAX_ITERATIONS:
        r = active.size
        budget = max(1, _CHUNK_ENTRIES // (r * step_entries))
        steps = min(chunk, MAX_ITERATIONS - done_steps, budget)
        enc_buf = np.empty((steps, r, n_hist, m))
        pm_buf = np.empty((steps, r, m))
        pmx_buf = np.empty((steps, r, m, n_future))
        for s in range(steps):
            update(p_m, p_mx, enc_buf[s])
            p_m = np.matmul(p_h, enc_buf[s], out=pm_buf[s])
            p_mx = np.matmul(enc_buf[s].transpose(0, 2, 1), hf.table, out=pmx_buf[s])
        obj = objectives_of(
            enc_buf.reshape(-1, n_hist, m), pm_buf.reshape(-1, m), pmx_buf.reshape(-1, m, n_future)
        ).reshape(steps, r)
        before = np.concatenate([objectives[active][None], obj[:-1]])  # each step's previous
        done = np.abs(before - obj) <= TOLERANCE
        stopped = done.any(axis=0)
        stop = np.where(stopped, done.argmax(axis=0), steps - 1)  # each restart's last step
        ran = np.arange(steps)[:, None] <= stop
        rising = np.argwhere((obj > before + _DESCENT_SLACK * beta) & ran)
        if rising.size:
            s, j = rising[0]  # the earliest iteration, then the first restart
            raise OptimizerError(
                f"restart {active[j]}: objective increased from {float(before[s, j])!r} "
                f"to {float(obj[s, j])!r} at iteration {done_steps + s + 1}; "
                "monotone descent violated"
            )
        rows = np.arange(r)
        encs[active] = enc_buf[stop, rows]
        objectives[active] = obj[stop, rows]
        iterations[active] = done_steps + stop + 1
        converged[active[stopped]] = True
        done_steps += steps
        chunk = min(2 * chunk, _CHUNK_CAP)
        keep = ~stopped
        active = active[keep]
        p_m, p_mx = p_m[keep], p_mx[keep]
    return encs, objectives, converged, iterations


def optimize_soft(
    hf: HistoryFutureJoint,
    beta: float,
    settings: OptimizerSettings,
    warm_starts: tuple = (),
) -> FrontierPoint:
    """Best-of-restarts soft minimization of I(M;H) - beta I(M;X') at one beta.

    The seeded restarts and the warm starts run as one stack; ties go to the
    earliest restart."""
    if not beta >= 1.0:
        raise ValidationError(f"beta must be >= 1, got {beta}")
    m = settings.memory_size
    n_hist = hf.num_histories
    rng = procmod._rng(settings.seed)
    encs = _initial_encoders(n_hist, m, RESTARTS, rng)
    if warm_starts:
        encs = np.concatenate([encs, np.asarray(warm_starts, dtype=float)])
    encs, objectives, converged, iterations = _run_fixed_points(hf, encs, beta)
    best = 0
    for r in range(1, len(encs)):
        if objectives[r] < objectives[best] - 1e-15:
            best = r
    return _point_from_encoder(hf, encs[best], beta, bool(converged[best]), int(iterations[best]))


def sweep_beta(hf: HistoryFutureJoint, settings: OptimizerSettings) -> list:
    """Frontier points over the beta schedule BETAS, warm-started in order."""
    points = []
    warm = ()
    for beta in BETAS:
        point = optimize_soft(hf, float(beta), settings, warm_starts=warm)
        points.append(point)
        warm = (point.strategy.assignment,)
    return points


def _scan_maps(hf: HistoryFutureJoint, m: int):
    """(first map index, i_mem, i_pred) for blocks of every deterministic map h -> m.

    Maps are numbered mixed-radix with the last history fastest, the order of
    `itertools.product(range(m), repeat=n_hist)`.  A block holds the m**r maps that share
    their leading n_hist - r histories, with m**r and 2**r <= _MAP_BLOCK.  Row d
    of a map's p(m, x') is the prefix's row d plus the tail histories the map
    sends to d, a subset of the last r.  So each block builds rows[d, s] for all
    2**r subsets s by doubling, rows[:, 2**j:2**(j+1)] = rows[:, :2**j] + tail
    history j; takes p ln p of these m * 2**r rows and of their sums once; and
    gathers each map's m terms at the fixed flat index d * 2**r + mask_d(map).

    The numbers equal those of summing every map's table on its own, bit for
    bit: each row adds its histories to +0.0 in history order, and the gathered
    terms are reduced on the same C-ordered (maps, m, x') and (maps, m) shapes.
    So they depend neither on r nor on _MAP_BLOCK.
    """
    n_hist, x = hf.table.shape
    if n_hist < 1 or m < 1:
        raise ValidationError("history and memory sizes must be >= 1")
    total = deterministic_count(n_hist, m)
    if total > ENUMERATION_CAP:
        raise SizeCapError(
            f"{total} deterministic maps exceed ENUMERATION_CAP = {ENUMERATION_CAP}; "
            "use the soft optimizer"
        )
    r = 0
    while r < n_hist and max(m, 2) ** (r + 1) <= _MAP_BLOCK:
        r += 1
    lead, block = n_hist - r, m**r
    index = np.arange(m)[None] << r  # (maps in a block, m) flat rows d * 2**r + mask_d
    for j in range(r):  # tail history j sets bit j of the mask of the row it maps to
        index = (index[:, None] + (np.eye(m, dtype=index.dtype) << j)).reshape(-1, m)
    index = index.ravel()
    rows = np.empty((m, 1 << r, x))
    terms = np.empty((block * m, x))
    sum_terms = np.empty(block * m)
    h_x = -xlogx(hf.table.sum(axis=0)).sum() / _LN2
    for i, prefix in enumerate(itertools.product(range(m), repeat=lead)):
        rows[:, 0] = 0.0
        for h, d in enumerate(prefix):
            rows[d, 0] += hf.table[h]
        for j in range(r):
            np.add(rows[:, : 1 << j], hf.table[lead + j], out=rows[:, 1 << j : 2 << j])
        # every index is in range: "clip" only skips the copy that "raise" makes of `out`
        np.take(xlogx(rows).reshape(-1, x), index, axis=0, out=terms, mode="clip")
        np.take(xlogx(rows.sum(axis=2)), index, out=sum_terms, mode="clip")
        # H(M): maps are deterministic
        i_mem = np.maximum(0.0, -sum_terms.reshape(block, m).sum(axis=1) / _LN2)
        h_mx = -terms.reshape(block, m, x).sum(axis=(1, 2)) / _LN2
        i_pred = np.maximum(0.0, i_mem + h_x - h_mx)
        yield i * block, i_mem, i_pred


def _map_at(index: int, n_hist: int, m: int) -> np.ndarray:
    """The deterministic map numbered `index` in `_scan_maps` order."""
    digits = np.empty(n_hist, dtype=int)
    for h in range(n_hist - 1, -1, -1):
        index, digits[h] = divmod(index, m)
    return digits


def exhaustive_best(
    hf: HistoryFutureJoint,
    memory_size: int,
    objective: str = "beta",
    beta: float | None = None,
    i_pred_target: float | None = None,
) -> FrontierPoint:
    """Certified optimum over all deterministic maps history -> memory.

    objective: "beta" minimizes i_mem - beta * i_pred (beta required);
    "max_i_pred" maximizes i_pred; "min_nostalgia_at_i_pred" minimizes
    nostalgia among maps with i_pred >= i_pred_target - TARGET_TOL.
    Ties go to the earliest map in enumeration order.  Raises SizeCapError
    when the maps number more than ENUMERATION_CAP.
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
    best_index = None
    best_info = None
    for first, i_mem, i_pred in _scan_maps(hf, memory_size):
        if objective == "beta":
            scores = i_mem - beta * i_pred
        elif objective == "max_i_pred":
            scores = -i_pred
        else:
            scores = np.where(
                i_pred >= i_pred_target - TARGET_TOL, i_mem - i_pred, np.inf
            )
        j = int(np.argmin(scores))
        if best_score is None or scores[j] < best_score - 1e-15:
            best_score = float(scores[j])
            best_index = first + j
            best_info = (float(i_mem[j]), float(i_pred[j]))
    if best_index is None or not np.isfinite(best_score):
        raise ValidationError("no deterministic map satisfies the requested objective")
    i_mem, i_pred = best_info
    strat = KernelStrategy(
        assignment=assignment_from_map(_map_at(best_index, n_hist, memory_size), memory_size),
        k=hf.k,
        labeled=hf.labeled,
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


def degeneracy_report(hf: HistoryFutureJoint, memory_size: int) -> list:
    """Every deterministic map with nostalgia <= DEGENERACY_TOL, annotated with
    its i_pred, in enumeration order."""
    n_hist = hf.num_histories
    out = []
    for first, i_mem, i_pred in _scan_maps(hf, memory_size):
        nostalgia = i_mem - i_pred
        for j in np.flatnonzero(nostalgia <= DEGENERACY_TOL):
            out.append(
                DegenerateStrategy(
                    map_indices=tuple(_map_at(first + int(j), n_hist, memory_size).tolist()),
                    i_mem=float(i_mem[j]),
                    i_pred=float(i_pred[j]),
                    nostalgia=max(0.0, float(nostalgia[j])),
                    observer_like=bool(i_pred[j] > 1e-9),
                )
            )
    return out

