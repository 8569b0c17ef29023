"""Minimizing the dissipation bound over memory strategies.

Two routes: exhaustive search over small deterministic maps (the certified
reference) and soft alternating minimization of I(M;H) - beta * I(M;X') with
deterministic annealing over beta.  beta >= 1 only: below 1 the trivial map
wins for every joint.  At beta = 1 the objective is the nostalgia itself and
its minimum, zero, is degenerate: constant maps (no information) and maximally
predictive maps (no nostalgia) both attain it.
"""

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from . import chain as chainmod
from . import process as procmod
from .errors import OptimizerError, SizeCapError, ValidationError
from .info import encoder_information, xlogx
from .strategy import KernelStrategy, assignment_from_map

_LN2 = np.log(2.0)
_DESCENT_SLACK = 1e-12  # per unit of beta: the objective's rounding grows with beta * i_pred
_LOG_FLOOR = 1e-300  # decoder entries floored inside logs; rows renormalized each iteration
_CHUNK_ENTRIES = 2**17  # most entries in one step of a sweep_beta stack: 1 MiB of floats
_MAP_BLOCK = 4096  # most maps, and tail subsets, per block: bounds the gathered (maps, M, X') terms
ENUMERATION_CAP = 10**6  # most deterministic maps an exhaustive scan enumerates
DEGENERACY_TOL = 1e-9  # most nostalgia of a map in the degeneracy report
_JOIN_SLACK = 1e-10  # bits above DEGENERACY_TOL before two cells join histories: see degeneracy_report
BETAS = np.geomspace(1.0, 8.0, 7)  # 1 (degenerate) to 8, twice the largest bundled critical beta
RESTARTS = 8  # seeded starts per beta: one near-uniform, the rest near random hard maps
TOLERANCE = 1e-9  # a restart stops once its objective moves by at most this much
MAX_ITERATIONS = 10_000  # map evaluations after which a restart still moving is unconverged


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
    """The p(history view, next pair) table of a chain, as a 2-D array.

    `fixed_point_terms`, what every `_run_fixed_points` call on the table
    reads and no encoder moves, is computed on first access and kept, so the
    calls of one beta sweep share it.
    """

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

    @functools.cached_property
    def fixed_point_terms(self) -> tuple:
        """(p(h), p(x'|h), (H, 1) column of sum_x p ln p over each p(x'|h) row,
        sum of p ln p over p(h), sum of p ln p over p(x')), the arrays read-only."""
        p_h = self.history_marginal()
        cond = self.future_conditionals()
        cond_self = xlogx(cond).sum(axis=1)[:, None]  # in nats
        for a in (p_h, cond, cond_self):
            a.flags.writeable = False
        return p_h, cond, cond_self, xlogx(p_h).sum(), xlogx(self.table.sum(axis=0)).sum()


def history_future_joint(chain: chainmod.Chain, k: int, labeled: bool) -> HistoryFutureJoint:
    """The optimizer's (H, X') table: the chain's `view_table` of the last k pairs.

    Labels are kept or dropped; rows come out in the canonical kernel row order.
    """
    return HistoryFutureJoint(table=chainmod.view_table(chain, k, labeled), k=k, labeled=labeled)


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


def _run_fixed_points(
    hf: HistoryFutureJoint, encs: np.ndarray, betas: np.ndarray, first_restart: int = 0
) -> tuple:
    """Alternating minimization from an (R, H, M) stack of starts, in SQUAREM cycles.

    `betas` holds each restart's beta.  Returns per-restart arrays (encoders,
    objectives, converged, iterations).  One map evaluation is the update
    p(m) <- sum_h p(h) p(m|h); p(x'|m) <- induced decoder; p(m|h) propto
    p(m) exp(-beta KL(p(x'|h) || p(x'|m))), whose fixed points are the
    stationary encoders.  Near the critical beta it contracts only
    algebraically, so each cycle takes an SqS3 step (Varadhan & Roland,
    Scand. J. Stat. 35, 2008) from the restart's encoder x: two updates,
    x1 and x2; r = x1 - x and v = x2 - 2 x1 + x; alpha = min(-|r| / |v|, -1)
    (-1 where v = 0); the point x - 2 alpha r + alpha**2 v, its rows clipped
    at 0 and renormalized; and one update x3 of that point.  The cycle ends at
    x3 where its objective I(M;H) - beta I(M;X') does not rise above x's,
    else at x2.  `iterations` and MAX_ITERATIONS count map evaluations, three
    a cycle, and a cycle cut by MAX_ITERATIONS ends at its last update.

    A restart stops at its first update, x1 or x2, that moves the objective
    by at most TOLERANCE, keeping that update's encoder, objective and count,
    or unconverged after MAX_ITERATIONS.  x1 against x, x2 against x1 and the
    cycle's end against x are checked not to rise by more than the rounding
    of _DESCENT_SLACK * beta, up to and including the stop.  A rise raises
    OptimizerError naming the map evaluation, the earliest one, then the
    first restart in the stack; the restart is named by its beta and its
    place among the stack's restarts of that beta, counted from
    `first_restart`.  A restart that stops at x1 still takes the cycle's
    later steps, which are dropped.

    Every step of every restart is computed as the cycle run on that restart
    alone would compute it: the same operations on the same operands,
    stacked only along the leading axis of C-contiguous arrays, with each
    restart's beta and alpha entering as the same IEEE multiply a scalar
    would.  So the numbers, and the evaluation a descent error names, depend
    neither on the other restarts in the stack nor on their betas.
    """
    p_h, cond, cond_self, h_sum, x_sum = hf.fixed_point_terms
    n_hist, n_future = hf.table.shape
    uniform = 1.0 / n_future

    def information(e: np.ndarray, p_m: np.ndarray, p_mx: np.ndarray) -> tuple:
        """(i_mem, i_pred) of each encoder in the stack, given its p(m) and p(m, x')."""
        m_sum = xlogx(p_m).sum(axis=1)
        i_mem = (xlogx(p_h[:, None] * e).reshape(len(e), -1).sum(axis=1) - h_sum - m_sum) / _LN2
        i_pred = (xlogx(p_mx).reshape(len(e), -1).sum(axis=1) - m_sum - x_sum) / _LN2
        # max(0, .) as `x if x > 0 else 0.0`, so -0.0 and nan clamp to +0.0
        return np.where(i_mem > 0.0, i_mem, 0.0), np.where(i_pred > 0.0, i_pred, 0.0)

    def update(p_m: np.ndarray, p_mx: np.ndarray, enc: np.ndarray, b3: np.ndarray) -> None:
        """Write the next encoder of each restart into `enc`; `b3` holds its beta as (R, 1, 1)."""
        if p_m.all():  # no empty memory state: the decoder divides by p(m) as it stands
            dec = p_mx / p_m[:, :, None]
        else:
            empty = p_m == 0
            dec = p_mx / np.where(empty, 1.0, p_m)[:, :, None]
            dec[empty] = uniform
        # KL(p(x'|h) || p(x'|m)) in nats, decoder floored inside the log
        np.log(np.maximum(dec, _LOG_FLOOR, out=dec), out=dec)
        logits = cond @ dec.transpose(0, 2, 1)  # (R, H, M) cross terms
        np.subtract(cond_self, logits, out=logits)
        logits *= b3
        np.subtract(np.log(np.maximum(p_m, _LOG_FLOOR))[:, None, :], logits, out=logits)
        logits -= np.maximum.reduce(logits, axis=2, keepdims=True)
        np.exp(logits, out=enc)
        enc /= np.add.reduce(enc, axis=2, keepdims=True)

    def extrapolate(x: np.ndarray, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        """The SqS3 point of each restart, its rows clipped at 0 and renormalized."""
        rv = np.empty((2, *x.shape))  # r and v, whose norms are taken together
        r, v = np.subtract(x1, x, out=rv[0]), np.subtract(x2, x1, out=rv[1])
        v -= r  # x2 - 2 x1 + x
        norm_r, norm_v = np.sqrt(np.add.reduce(np.square(rv).reshape(2, len(x), -1), axis=2))
        ratio = np.divide(norm_r, norm_v, out=np.zeros(len(x)), where=norm_v > 0.0)
        alpha = np.minimum(-ratio, -1.0)[:, None, None]
        # x - 2 alpha r + alpha**2 v, no product larger than alpha |r|: alpha v is at most |r|
        point = x - alpha * (2.0 * r - alpha * v)
        np.maximum(point, 0.0, out=point)
        point /= np.add.reduce(point, axis=2, keepdims=True)
        return point

    encs = np.array(encs, dtype=float)
    betas = np.asarray(betas, dtype=float)
    n, _, m = encs.shape
    p_m, p_mx = p_h @ encs, encs.transpose(0, 2, 1) @ hf.table
    i_mem, i_pred = information(encs, p_m, p_mx)
    objectives = i_mem - betas * i_pred
    converged = np.zeros(n, dtype=bool)
    iterations = np.zeros(n, dtype=int)
    active = np.arange(n)
    x, f, b = encs, objectives, betas  # the running restarts' encoders, objectives and betas
    done_steps = 0
    while active.size and done_steps < MAX_ITERATIONS:
        r, rows = active.size, np.arange(active.size)
        steps = min(3, MAX_ITERATIONS - done_steps)  # x1, x2 and x3, or the updates left
        enc_buf = np.empty((steps, r, n_hist, m))
        pm_buf = np.empty((steps, r, m))
        pmx_buf = np.empty((steps, r, m, n_future))
        for s in range(steps):
            if s == 2:
                point = extrapolate(x, enc_buf[0], enc_buf[1])
                p_m, p_mx = p_h @ point, point.transpose(0, 2, 1) @ hf.table
            update(p_m, p_mx, enc_buf[s], b[:, None, None])
            p_m = np.matmul(p_h, enc_buf[s], out=pm_buf[s])
            p_mx = np.matmul(enc_buf[s].transpose(0, 2, 1), hf.table, out=pmx_buf[s])
        i_mem, i_pred = information(
            enc_buf.reshape(-1, n_hist, m), pm_buf.reshape(-1, m), pmx_buf.reshape(-1, m, n_future)
        )
        obj = i_mem.reshape(steps, r) - b * i_pred.reshape(steps, r)
        # the step each restart's cycle ends at: x3, or x2 where x3 rises above x
        end = np.where(obj[2] > f, 1, 2) if steps == 3 else np.full(r, steps - 1)
        # each step's objective and the one it follows: x1 and the cycle's end follow x
        after = np.array([*obj[:2], obj[end, rows]][:steps])
        before = np.array([f, obj[0], f][:steps])
        done = abs(after[:2] - before[:2]) <= TOLERANCE
        stopped = done.any(axis=0)
        stop = np.where(stopped, done.argmax(axis=0), steps - 1)  # each restart's last step
        rising = after > before + _DESCENT_SLACK * b
        if rising.any():  # a step after the restart's stop does not count
            rising &= np.arange(steps)[:, None] <= stop
        if rising.any():
            s, j = divmod(int(rising.argmax()), r)  # earliest evaluation, then first restart
            at = active[j]
            restart = first_restart + int(np.count_nonzero(betas[:at] == betas[at]))
            raise OptimizerError(
                f"beta {float(betas[at])!r}, restart {restart}: objective increased from "
                f"{float(before[s, j])!r} to {float(after[s, j])!r} at map evaluation "
                f"{done_steps + s + 1}; monotone descent violated"
            )
        end = np.where(stopped, stop, end)
        x, f = enc_buf[end, rows], obj[end, rows]
        p_m, p_mx = pm_buf[end, rows], pmx_buf[end, rows]
        if stopped.any():
            at = active[stopped]
            encs[at], objectives[at], converged[at] = x[stopped], f[stopped], True
            iterations[at] = done_steps + stop[stopped] + 1
            keep = ~stopped
            active, x, f, b, p_m, p_mx = (a[keep] for a in (active, x, f, b, p_m, p_mx))
        done_steps += steps
    encs[active], objectives[active], iterations[active] = x, f, done_steps
    return encs, objectives, converged, iterations


def _step_entries(hf: HistoryFutureJoint, m: int) -> int:
    """Entries of one restart's p(m|h), p(m) and p(m, x') per map evaluation."""
    n_hist, n_future = hf.table.shape
    return n_hist * m + m * n_future + m


def _seeded_starts(hf: HistoryFutureJoint, settings: OptimizerSettings) -> np.ndarray:
    """The RESTARTS starts that every beta draws from the optimizer seed."""
    rng = procmod._rng(settings.seed)
    return _initial_encoders(hf.num_histories, settings.memory_size, RESTARTS, rng)


def _best_restart(objectives: np.ndarray) -> int:
    """The restart with the lowest objective, ties within 1e-15 to the earliest."""
    best = 0
    for r in range(1, len(objectives)):
        if objectives[r] < objectives[best] - 1e-15:
            best = r
    return best


def _best_point(hf: HistoryFutureJoint, beta: float, run) -> FrontierPoint:
    """The point of a run's best restart (see `_best_restart`)."""
    encs, objectives, converged, iterations = run
    best = _best_restart(objectives)
    return _point_from_encoder(hf, encs[best], beta, bool(converged[best]), int(iterations[best]))


def optimize_soft(
    hf: HistoryFutureJoint, beta: float, settings: OptimizerSettings
) -> FrontierPoint:
    """Best-of-restarts soft minimization of I(M;H) - beta I(M;X') at one beta.

    The seeded restarts run as one stack; ties go to the earliest restart."""
    if not beta >= 1.0:
        raise ValidationError(f"beta must be >= 1, got {beta}")
    encs = _seeded_starts(hf, settings)
    return _best_point(hf, beta, _run_fixed_points(hf, encs, np.full(len(encs), beta)))


def sweep_beta(hf: HistoryFutureJoint, settings: OptimizerSettings) -> list:
    """Frontier points over the beta schedule BETAS, warm-started in order.

    Each point is the best of `optimize_soft`'s seeded restarts at its beta
    and, past the first beta, one warm start from the point before it; ties
    go to the earliest restart, the warm start counting as restart RESTARTS.
    Every beta draws the same seeded starts, and only the warm start depends
    on the beta before it.  So the seeded restarts of consecutive betas run
    as one `_run_fixed_points` stack, each at its own beta, and the schedule
    pays for a stack's slowest restart once, not once per beta: at the
    critical beta the SQUAREM cycles of `_run_fixed_points` bring it from
    thousands of map evaluations to a few hundred.  A stack holds as many
    betas as keep one map evaluation of it within _CHUNK_ENTRIES, at least
    one: all len(BETAS) * RESTARTS restarts on small tables.  Restarts do
    not depend on the others in their stack, so the points are the same for
    any grouping.  Each beta keeps only its best seeded restart; the warm
    starts then run one by one, in beta order, and one replaces that restart
    only where the tie rule over all of them would pick it, being the last.
    A point's `iterations` counts its restart's map evaluations.  A descent
    error names its beta and its restart within that beta; the stacks run in
    beta order before any warm start, and the first stack that rises raises
    at its earliest map evaluation, whichever beta that is.
    """
    seeded = _seeded_starts(hf, settings)
    group = max(1, _CHUNK_ENTRIES // (RESTARTS * _step_entries(hf, settings.memory_size)))
    bests = []  # each beta's best seeded restart, as a one-restart run
    for first in range(0, len(BETAS), group):
        betas = BETAS[first : first + group]
        starts = np.tile(seeded, (len(betas), 1, 1))
        stacked = _run_fixed_points(hf, starts, np.repeat(betas, RESTARTS))
        for i in range(0, len(starts), RESTARTS):
            best = i + _best_restart(stacked[1][i : i + RESTARTS])
            bests.append([a[[best]] for a in stacked])
    points = []
    for i, (beta, run) in enumerate(zip(BETAS, bests)):
        if points:
            warm = points[-1].strategy.assignment[None]
            warm = _run_fixed_points(hf, warm, BETAS[i : i + 1], first_restart=RESTARTS)
            run = [np.concatenate(pair) for pair in zip(run, warm)]
        points.append(_best_point(hf, float(beta), run))
    return points


def _restricted_growth(labels) -> list:
    """The labels renamed 0, 1, 2, ... in order of first use: the restricted
    growth string of their relabelling class, and `labels` itself iff it is one."""
    first_use = {}
    return [first_use.setdefault(d, len(first_use)) for d in labels]


def _check_map_count(n_hist: int, m: int) -> None:
    """Raise unless there are histories and memory states, and m**n_hist <= ENUMERATION_CAP."""
    if n_hist < 1 or m < 1:
        raise ValidationError("history and memory sizes must be >= 1")
    total = m**n_hist
    if total > ENUMERATION_CAP:
        raise SizeCapError(
            f"{total} deterministic maps exceed ENUMERATION_CAP = {ENUMERATION_CAP}; "
            "use the soft optimizer"
        )


def _tail_length(n_hist: int, m: int) -> int:
    """r, the histories a `_scan_maps` block varies: the largest with m**r and 2**r <= _MAP_BLOCK."""
    r = 0
    while r < n_hist and max(m, 2) ** (r + 1) <= _MAP_BLOCK:
        r += 1
    return r


def _map_information(sum_terms: np.ndarray, terms: np.ndarray, h_x: float) -> tuple:
    """(i_mem, i_pred) of deterministic maps from the p ln p terms of their p(m),
    shaped (maps, m), and of their p(m, x'), shaped (maps, m, x'); h_x is H(X')."""
    # H(M): maps are deterministic; clamped as `objectives_of` does, so -0.0 reads +0.0
    i_mem = -sum_terms.sum(axis=1) / _LN2
    i_mem = np.where(i_mem > 0.0, i_mem, 0.0)
    h_mx = -terms.sum(axis=(1, 2)) / _LN2
    i_pred = i_mem + h_x - h_mx
    i_pred = np.where(i_pred > 0.0, i_pred, 0.0)
    return i_mem, i_pred


def _future_entropy(hf: HistoryFutureJoint) -> float:
    """H(X') in bits, as every map's i_pred reads it."""
    return -xlogx(hf.table.sum(axis=0)).sum() / _LN2


def _scan_maps(hf: HistoryFutureJoint, m: int, rgs_only: bool = False):
    """(first map index, i_mem, i_pred) for blocks of every deterministic map h -> m.

    Maps are numbered mixed-radix with the last history fastest, the order of
    `itertools.product(range(m), repeat=n_hist)`.  A block holds the m**r maps
    that share their leading n_hist - r histories, r = `_tail_length`.  Row d
    of a map's p(m, x') is the prefix's row d plus the tail histories the map
    sends to d, a subset of the last r.  So each block builds rows[d, s] for all
    2**r subsets s by doubling, rows[:, 2**j:2**(j+1)] = rows[:, :2**j] + tail
    history j; takes p ln p of these m * 2**r rows and of their sums once; and
    gathers each map's m terms at the fixed flat index d * 2**r + mask_d(map).

    The numbers equal those of summing every map's table on its own, bit for
    bit: each row adds its histories to +0.0 in history order, and the gathered
    terms are reduced on the same C-ordered (maps, m, x') and (maps, m) shapes
    (`_map_information`).  So they depend neither on r nor on _MAP_BLOCK.

    With `rgs_only`, only the blocks whose prefix is a restricted growth string
    are yielded: prefix[0] = 0 and each prefix[i] <= max(prefix[:i]) + 1.  The
    others are skipped before their rows are built, and a yielded block's
    numbers are the same bits as without `rgs_only`.  Relabelling the memory
    states permutes the rows of p(m, x') and moves neither i_mem nor i_pred,
    and the map of a class that comes first in this order is its restricted
    growth string (Knuth, TAOCP 4A, section 7.2.1.5), whose prefix is one.
    So every relabelling class keeps a member in the scan, and the blocks
    scanned number the partitions of the prefix's histories into at most m
    parts: 5 of 125 at n_hist = 8, m = 5 and 8 of 16 at n_hist = 16, m = 2.
    """
    n_hist, x = hf.table.shape
    _check_map_count(n_hist, m)
    r = _tail_length(n_hist, m)
    lead, block = n_hist - r, m**r
    index = np.arange(m)[None] << r  # (maps in a block, m) flat rows d * 2**r + mask_d
    for j in range(r):  # tail history j sets bit j of the mask of the row it maps to
        index = (index[:, None] + (np.eye(m, dtype=index.dtype) << j)).reshape(-1, m)
    index = index.ravel()
    rows = np.empty((m, 1 << r, x))
    terms = np.empty((block * m, x))
    sum_terms = np.empty(block * m)
    h_x = _future_entropy(hf)
    for i, prefix in enumerate(itertools.product(range(m), repeat=lead)):
        if rgs_only and _restricted_growth(prefix) != list(prefix):
            continue  # a relabelling of an earlier block's maps: see above
        rows[:, 0] = 0.0
        for h, d in enumerate(prefix):
            rows[d, 0] += hf.table[h]
        for j in range(r):
            np.add(rows[:, : 1 << j], hf.table[lead + j], out=rows[:, 1 << j : 2 << j])
        # every index is in range: "clip" only skips the copy that "raise" makes of `out`
        np.take(xlogx(rows).reshape(-1, x), index, axis=0, out=terms, mode="clip")
        np.take(xlogx(rows.sum(axis=2)), index, out=sum_terms, mode="clip")
        i_mem, i_pred = _map_information(
            sum_terms.reshape(block, m), terms.reshape(block, m, x), h_x
        )
        yield i * block, i_mem, i_pred


def _map_at(index: int, n_hist: int, m: int) -> np.ndarray:
    """The deterministic map numbered `index` in `_scan_maps` order."""
    digits = np.empty(n_hist, dtype=int)
    for h in range(n_hist - 1, -1, -1):
        index, digits[h] = divmod(index, m)
    return digits


@functools.cache
def _growth_need(m: int, r: int) -> np.ndarray:
    """For each of the m**r tails of a `_scan_maps` block, in block order, the
    least largest label of a restricted growth prefix that the tail continues
    as one; -1 where the tail is one on its own.

    Tail digit j is allowed when it is at most max(prefix max, digits before j) + 1,
    so it needs a prefix max of at least digit j - 1 only where it passes the
    digits before it by more than one."""
    tails = np.arange(m**r)
    need = np.full(tails.size, -1)
    top = np.full(tails.size, -1)  # the largest tail digit so far
    for j in range(r):
        digit = tails // m ** (r - 1 - j) % m
        need = np.maximum(need, np.where(digit > top + 1, digit - 1, -1))
        top = np.maximum(top, digit)
    need.flags.writeable = False  # shared by every call with this m and r
    return need


def exhaustive_best(
    hf: HistoryFutureJoint, memory_size: int, beta: float | None = None
) -> FrontierPoint:
    """Certified optimum over all deterministic maps history -> memory.

    With `beta`, the map that minimizes i_mem - beta * i_pred; without it, the
    map with the largest i_pred.  Raises SizeCapError when the maps number
    more than ENUMERATION_CAP.

    The names of the memory states carry nothing: relabelling a map moves
    neither i_mem nor i_pred.  So only restricted growth strings compete, one
    map per relabelling class: the scan visits only the blocks whose prefix is
    one (`_scan_maps` with `rgs_only`), and masks the tails of each block that
    do not continue its prefix as one (`_growth_need`, against the prefix's
    largest label).  The winner is the lowest score over them all, exact ties
    going to the earliest map in `_scan_maps` order.  The maps that compete
    and their numbers depend neither on the block nor on the labels, so
    neither does the winner, which is always a restricted growth string.
    """
    n_hist, m = hf.num_histories, memory_size
    r = _tail_length(n_hist, m)
    need = _growth_need(m, r)
    best_score = best_index = None
    for first, i_mem, i_pred in _scan_maps(hf, m, rgs_only=True):
        scores = -i_pred if beta is None else i_mem - beta * i_pred
        top = max(_map_at(first, n_hist, m)[: n_hist - r], default=-1)
        scores = np.where(need <= top, scores, np.inf)
        j = int(np.argmin(scores))
        if best_score is None or scores[j] < best_score:
            best_score, best_index = scores[j], first + j
    best_map = _map_at(best_index, n_hist, m)
    return _point_from_encoder(hf, assignment_from_map(best_map, m), beta, True, 0)


@dataclass(frozen=True, eq=False)
class DegenerateStrategy:
    """A zero-nostalgia deterministic map, observer-like iff it predicts anything."""

    map_indices: tuple
    i_mem: float
    i_pred: float
    nostalgia: float
    observer_like: bool


def _degenerate_candidates(table: np.ndarray, m: int):
    """Every map constant on each component that heavy cells join (see
    `degeneracy_report`), in `_scan_maps` order, as (maps, H) label arrays of
    at most max(1, _MAP_BLOCK // m) maps: a block's (maps, M) rows stay within
    max(_MAP_BLOCK, M)."""
    n_hist = table.shape[0]
    heavy = table > (DEGENERACY_TOL + _JOIN_SLACK) / 2  # per call: DEGENERACY_TOL may be rebound
    root = np.arange(n_hist)  # the smallest history joined to each, once it settles
    while True:
        column = np.where(heavy, root[:, None], n_hist).min(axis=0)
        joined = np.minimum(root, np.where(heavy, column, n_hist).min(axis=1))
        joined = joined[joined]  # jump to the root's root: a chain of joins settles in few rounds
        if (joined == root).all():
            break
        root = joined
    roots = np.flatnonzero(root == np.arange(n_hist))
    component = np.searchsorted(roots, root)
    radix = m ** np.arange(len(roots) - 1, -1, -1)  # the first root most significant
    count, block = m ** len(roots), max(1, _MAP_BLOCK // m)
    for first in range(0, count, block):
        index = np.arange(first, min(first + block, count))
        yield (index[:, None] // radix % m)[:, component]


def degeneracy_report(hf: HistoryFutureJoint, memory_size: int) -> list:
    """Every deterministic map with nostalgia <= DEGENERACY_TOL, annotated with
    its i_pred, in enumeration order.  Raises SizeCapError as `_scan_maps` does.

    A deterministic map's nostalgia is H(M|X'), zero exactly when the memory
    is a function of the next pair.  So only few maps can qualify.  Suppose
    two histories have masses a and b in one column x', and the map sends
    them to different states d1 and d2.  Then p(x') H(M | X' = x') >=
    p(x') h2(p(d1|x')) >= 2 min(a, b) bits, since h2(q) >= 2 min(q, 1 - q)
    and both p(d1|x') and 1 - p(d1|x') are at least min(a, b) / p(x').  So a
    map whose nostalgia is within the tolerance sends both histories of every
    cell pair above (DEGENERACY_TOL + _JOIN_SLACK) / 2 to one state: it is
    constant on each component that such heavy cells join.  Zero-mass
    histories join nothing, so each is its own component.  The candidates
    are the maps constant on every component, enumerated as a product over
    the components' smallest histories in increasing order, which is
    `_scan_maps` order; each is scored with the scan's arithmetic, its rows
    adding their histories to +0.0 in history order and `_map_information`
    reducing the same shapes.  So the report is the one a scan of every map
    gives, bit for bit, from a few candidates: at most 32 on the bundled and
    benchmark tables, against up to 390,625 maps.

    _JOIN_SLACK = 1e-10 covers the rounding by which a map's computed
    nostalgia may fall short of the exact one, so that a map splitting two
    cells above (DEGENERACY_TOL + _JOIN_SLACK) / 2 computes a nostalgia above
    DEGENERACY_TOL.  Clamping i_pred at 0 only raises the computed value, and
    such a map has H(M) >= h2(5e-11) > 1e-9 bits, far above the rounding, so
    i_mem is not clamped.  The nostalgia is a sum of p ln p over entries
    in [0, 1]: a map has at most H * X' non-zero cells, and under
    ENUMERATION_CAP a map with M >= 2 has H <= 19 histories (M = 1 has only
    the constant map).  Each entry is a sum of at most H table entries, with
    relative error <= H * eps, which moves sum p ln p by at most
    sum (|p ln p| + p) * H * eps <= (ln(H X') + 1) * H * eps; numpy's pairwise
    sums add about log2(H X') * ln(H X') * eps.  Even at X' = 10^6 both are
    below 1e-12 bits, so 1e-10 stays far above them, and no map whose
    computed nostalgia is within the tolerance is left out, also at
    DEGENERACY_TOL = 0.
    """
    x = hf.table.shape[1]
    _check_map_count(hf.num_histories, memory_size)
    h_x = _future_entropy(hf)
    out = []
    for maps in _degenerate_candidates(hf.table, memory_size):
        # each (history, map, x') entry goes to the flat cell (map, memory state, x'),
        # histories outermost: np.bincount adds a cell's weights to +0.0 in input
        # order, so each p(m, x') row adds its histories in history order
        n = len(maps)
        cells = (np.arange(n)[:, None] * memory_size + maps).T[:, :, None] * x + np.arange(x)
        weights = np.broadcast_to(hf.table[:, None], cells.shape).ravel()
        p_mx = np.bincount(cells.ravel(), weights, minlength=n * memory_size * x)
        p_mx = p_mx.reshape(n, memory_size, x)
        i_mem, i_pred = _map_information(xlogx(p_mx.sum(axis=2)), xlogx(p_mx), h_x)
        nostalgia = i_mem - i_pred
        for j in np.flatnonzero(nostalgia <= DEGENERACY_TOL):
            out.append(
                DegenerateStrategy(
                    map_indices=tuple(maps[j].tolist()),
                    i_mem=float(i_mem[j]),
                    i_pred=float(i_pred[j]),
                    nostalgia=max(0.0, float(nostalgia[j])),
                    observer_like=bool(i_pred[j] > 1e-9),
                )
            )
    return out
