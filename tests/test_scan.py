"""The exhaustive map scan pinned byte for byte against the direct scan.

`reference_scan` is the scan that grows every map's p(m, x') one history at a
time by broadcasting, as `optimize._scan_maps` did before it gathered terms
from per-prefix subset tables.  Its prefixes are built one at a time rather
than all at once, with the same additions, so that a block of one map with
thousands of memory rows fits in memory.  It never skips a block for its
nostalgia, so the degeneracy report it feeds is the unpruned one; asked for
restricted growth prefixes only, as `exhaustive_best` asks, it skips the
others by its own test of the prefix.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

import obsthermo.optimize as optmod
from obsthermo import bundled_scenario, degeneracy_report, exhaustive_best, history_future_joint
from obsthermo.info import xlogx
from obsthermo.optimize import HistoryFutureJoint
from obsthermo.strategy import harden

from conftest import scenario_chain

_LN2 = np.log(2.0)
BUNDLED = ("case_a", "case_b_labeled", "case_b_unlabeled", "case_b_bestcase", "angle_sweep")


def is_restricted_growth(labels) -> bool:
    """labels[0] = 0 and every label at most one above the largest before it."""
    return all(d <= max(labels[:i], default=-1) + 1 for i, d in enumerate(labels))


def reference_scan(
    hf: HistoryFutureJoint, m: int, map_block: int = 4096, max_nostalgia=None, rgs_only=False
):
    """(first map index, i_mem, i_pred) per block of m**r <= map_block maps.

    `max_nostalgia` is accepted, as `_scan_maps` accepts it, and ignored.  With
    `rgs_only`, a block is yielded only if its prefix is a restricted growth string.
    """
    n_hist, x = hf.table.shape
    total = m**n_hist
    if total > optmod.ENUMERATION_CAP:
        raise optmod.SizeCapError(f"{total} deterministic maps exceed the cap")

    def term(h, d):  # history row h placed on memory row d
        t = np.zeros((m, x))
        t[d] = hf.table[h]
        return t

    def grow(p, histories):
        for h in histories:
            terms = np.stack([term(h, d) for d in range(m)])
            p = (p[:, None] + terms[None]).reshape(-1, m, x)
        return p

    r = 0
    while r < n_hist and m ** (r + 1) <= map_block:
        r += 1
    h_x = -xlogx(hf.table.sum(axis=0)).sum() / _LN2
    for i, prefix in enumerate(itertools.product(range(m), repeat=n_hist - r)):
        if rgs_only and not is_restricted_growth(prefix):
            continue
        p = np.zeros((1, m, x))
        for h, d in enumerate(prefix):
            p = p + term(h, d)
        p_mx = grow(p, range(n_hist - r, n_hist))
        p_m = p_mx.sum(axis=2)
        i_mem = -xlogx(p_m).sum(axis=1) / _LN2
        i_mem = np.where(i_mem > 0.0, i_mem, 0.0)
        h_mx = -xlogx(p_mx).sum(axis=(1, 2)) / _LN2
        i_pred = i_mem + h_x - h_mx
        i_pred = np.where(i_pred > 0.0, i_pred, 0.0)
        yield i * m**r, i_mem, i_pred


def streams(scan, hf, m):
    """Block starts and the concatenated i_mem and i_pred bytes of a scan."""
    firsts, mems, preds = [], [], []
    for first, i_mem, i_pred in scan(hf, m):
        firsts.append(first)
        mems.append(i_mem)
        preds.append(i_pred)
    return firsts, np.concatenate(mems).tobytes(), np.concatenate(preds).tobytes()


def table_hf(table: np.ndarray) -> HistoryFutureJoint:
    return HistoryFutureJoint(table=table, k=1, labeled=True)


def random_tables():
    """(hf, m) cases over H 1-10, M 1-5 and X' 2-8, some with zero rows and entries."""
    rng = np.random.default_rng(20)
    cases = []
    for _ in range(40):
        n_hist = int(rng.integers(1, 11))
        x = int(rng.integers(2, 9))
        m = int(rng.choice([m for m in range(1, 6) if m**n_hist <= 20_000]))
        table = rng.dirichlet(np.full(n_hist * x, 0.5)).reshape(n_hist, x)
        table[rng.random(table.shape) < 0.2] = 0.0
        if n_hist > 1 and rng.random() < 0.5:
            table[rng.integers(n_hist)] = 0.0
        cases.append((table_hf(table / table.sum()), m))
    return cases


def bundled_cases():
    cases = []
    for name in BUNDLED:
        scenario = bundled_scenario(name)
        settings = scenario.optimizer
        hf = history_future_joint(scenario_chain(scenario), settings.history_k, settings.history_labeled)
        cases.append((hf, settings.memory_size))
    return cases


def test_scan_matches_reference_on_random_tables():
    for hf, m in random_tables():
        assert streams(optmod._scan_maps, hf, m) == streams(reference_scan, hf, m), (
            hf.table.shape,
            m,
        )


def test_scan_matches_reference_on_bundled_tables():
    for hf, m in bundled_cases():
        assert streams(optmod._scan_maps, hf, m) == streams(reference_scan, hf, m)


@pytest.mark.parametrize(
    "n_hist, m, x",
    [
        (20, 1, 4),  # M = 1: the subset table, not m**r, caps r
        (1, 5000, 3),  # M > _MAP_BLOCK: r = 0, one map per block
        (8, 5, 8),  # 390,625 maps, the largest exhaustive benchmark shape
        (16, 2, 4),  # 2**r as large as the block
    ],
)
def test_scan_matches_reference_at_the_edges(n_hist, m, x):
    table = np.random.default_rng(n_hist * m).dirichlet(np.ones(n_hist * x)).reshape(n_hist, x)
    hf = table_hf(table)
    assert streams(optmod._scan_maps, hf, m) == streams(reference_scan, hf, m)


def tail_length(n_hist, m, map_block):
    """r, the histories a block varies: the largest with m**r and 2**r <= map_block."""
    r = 0
    while r < n_hist and max(m, 2) ** (r + 1) <= map_block:
        r += 1
    return r


@pytest.mark.parametrize("map_block", [1, 8, 4096])
def test_scan_numbers_do_not_depend_on_the_block(monkeypatch, map_block):
    monkeypatch.setattr(optmod, "_MAP_BLOCK", map_block)
    for hf, m in random_tables()[:12] + bundled_cases():
        firsts, mems, preds = streams(optmod._scan_maps, hf, m)
        _, ref_mems, ref_preds = streams(reference_scan, hf, m)
        assert (mems, preds) == (ref_mems, ref_preds)
        n_hist = hf.num_histories
        assert firsts == list(range(0, m**n_hist, m ** tail_length(n_hist, m, map_block)))


def results_with(scan, monkeypatch, hf, m, beta):
    monkeypatch.setattr(optmod, "_scan_maps", scan)
    best = [exhaustive_best(hf, m, beta=beta), exhaustive_best(hf, m)]
    summary = [
        (p.strategy.assignment.tobytes(), p.i_mem, p.i_pred, p.nostalgia, p.objective) for p in best
    ]
    summary += [
        (d.map_indices, d.i_mem, d.i_pred, d.nostalgia, d.observer_like)
        for d in degeneracy_report(hf, m)
    ]
    return summary


def test_exhaustive_best_and_degeneracy_report_match_reference(monkeypatch):
    scan = optmod._scan_maps
    for hf, m in bundled_cases() + random_tables()[:10]:
        for beta in (1.0, 2.5, 8.0):
            ours = results_with(scan, monkeypatch, hf, m, beta)
            theirs = results_with(reference_scan, monkeypatch, hf, m, beta)
            assert ours == theirs


def pruning_tables():
    """(hf, m) cases with zero rows, zero cells and cells of about 1e-13."""
    rng = np.random.default_rng(21)
    cases = []
    for _ in range(60):
        n_hist = int(rng.integers(2, 10))
        x = int(rng.integers(2, 7))
        m = int(rng.choice([m for m in range(2, 6) if m**n_hist <= 20_000]))
        table = rng.dirichlet(np.full(n_hist * x, 0.5)).reshape(n_hist, x)
        table[rng.random(table.shape) < 0.2] = 0.0
        table[rng.random(table.shape) < 0.1] = 1e-13
        if rng.random() < 0.5:
            table[rng.integers(n_hist)] = 0.0
        cases.append((table_hf(table / table.sum()), m))
    return cases


def report_bits(hf, m):
    return [
        (d.map_indices, d.i_mem.hex(), d.i_pred.hex(), d.nostalgia.hex(), d.observer_like)
        for d in degeneracy_report(hf, m)
    ]


@pytest.mark.parametrize("map_block", [64, 4096])  # small blocks: long prefixes, more skipped
@pytest.mark.parametrize("tol", [1e-9, 0.0, 0.3])
def test_pruned_degeneracy_report_equals_the_unpruned_one(monkeypatch, tol, map_block):
    monkeypatch.setattr(optmod, "DEGENERACY_TOL", tol)
    monkeypatch.setattr(optmod, "_MAP_BLOCK", map_block)
    cases = pruning_tables() + bundled_cases()
    pruned = [report_bits(hf, m) for hf, m in cases]
    scan = optmod._scan_maps
    monkeypatch.setattr(optmod, "_scan_maps", lambda hf, m, max_nostalgia: scan(hf, m))
    assert pruned == [report_bits(hf, m) for hf, m in cases]


_tables = st.integers(1, 5).flatmap(
    lambda m: st.integers(1, 6).flatmap(
        lambda x: st.lists(
            st.sampled_from([0.0, 1e-13]) | st.floats(0.0, 1.0), min_size=2 * m * x, max_size=2 * m * x
        ).map(lambda v: np.array(v).reshape(2, m, x))
    )
)


@given(_tables)
def test_adding_histories_never_lowers_prefix_nostalgia(pair):
    total = pair.sum()
    a, b = pair / total if total > 0 else pair
    assert optmod._prefix_nostalgia(a + b) >= optmod._prefix_nostalgia(a) - optmod._PRUNE_SLACK


@pytest.mark.parametrize("n_hist, m, x", [(8, 5, 8), (16, 2, 4), (10, 3, 4)])
def test_full_support_scan_keeps_only_the_constant_prefixes(n_hist, m, x):
    table = np.random.default_rng(n_hist * m).dirichlet(np.ones(n_hist * x)).reshape(n_hist, x)
    ceiling = optmod.DEGENERACY_TOL + optmod._PRUNE_SLACK
    firsts = [first for first, _, _ in optmod._scan_maps(table_hf(table), m, max_nostalgia=ceiling)]
    r = tail_length(n_hist, m, optmod._MAP_BLOCK)
    lead = n_hist - r
    assert lead >= 2
    constant = (m**lead - 1) // (m - 1)  # prefix (1, 1, ..., 1) in mixed radix m
    assert firsts == [c * constant * m**r for c in range(m)]


def relabelling_tables():
    """(hf, m) cases with zero rows, zero cells and cells of about 1e-13, M >= 2."""
    rng = np.random.default_rng(22)
    cases = []
    for _ in range(30):
        n_hist = int(rng.integers(2, 9))
        x = int(rng.integers(2, 7))
        m = int(rng.choice([m for m in range(2, 5) if m**n_hist <= 5_000]))
        table = rng.dirichlet(np.full(n_hist * x, 0.5)).reshape(n_hist, x)
        table[rng.random(table.shape) < 0.2] = 0.0
        table[rng.random(table.shape) < 0.1] = 1e-13
        if rng.random() < 0.5:
            table[rng.integers(n_hist)] = 0.0
        cases.append((table_hf(table / table.sum()), m))
    return cases


def score(beta, i_mem, i_pred):
    return -i_pred if beta is None else i_mem - beta * i_pred


@pytest.mark.parametrize("map_block", [8, 4096])  # small blocks: long prefixes, most skipped
def test_exhaustive_best_is_the_canonical_optimum_over_every_map(monkeypatch, map_block):
    scan = optmod._scan_maps
    for hf, m in relabelling_tables():
        _, mems, preds = streams(reference_scan, hf, m)
        every_mem, every_pred = np.frombuffer(mems), np.frombuffer(preds)
        for beta in (None, 1.0, 2.5, 8.0):
            monkeypatch.setattr(optmod, "_MAP_BLOCK", map_block)
            monkeypatch.setattr(optmod, "_scan_maps", scan)
            best = exhaustive_best(hf, m, beta=beta)
            chosen = harden(best.strategy.assignment).tolist()
            case = (hf.table.shape, m, beta, map_block)
            assert is_restricted_growth(chosen), case
            floor = score(beta, every_mem, every_pred).min()
            assert abs(score(beta, best.i_mem, best.i_pred) - floor) <= 1e-12, case
            if map_block != 4096:
                # two classes that tie exactly (an empty history placed in either) can
                # swap here, as rounding among their relabellings decides which is first
                continue
            # the full scan of every map, as exhaustive_best ran before it skipped blocks
            monkeypatch.setattr(optmod, "_scan_maps", lambda hf, m, rgs_only: reference_scan(hf, m))
            full = exhaustive_best(hf, m, beta=beta)
            assert chosen == harden(full.strategy.assignment).tolist(), case


@pytest.mark.parametrize("n_hist, m, x, visited", [(8, 5, 8, 5), (16, 2, 4, 8)])
def test_rgs_scan_visits_only_the_restricted_growth_prefixes(monkeypatch, n_hist, m, x, visited):
    table = np.random.default_rng(n_hist * m).dirichlet(np.ones(n_hist * x)).reshape(n_hist, x)
    hf = table_hf(table)
    full, scanned = (
        {first: (i_mem.tobytes(), i_pred.tobytes()) for first, i_mem, i_pred in scan}
        for scan in (optmod._scan_maps(hf, m), optmod._scan_maps(hf, m, rgs_only=True))
    )
    r = tail_length(n_hist, m, optmod._MAP_BLOCK)
    prefixes = itertools.product(range(m), repeat=n_hist - r)
    expected = [i * m**r for i, p in enumerate(prefixes) if is_restricted_growth(p)]
    assert list(scanned) == expected and len(expected) == visited
    assert all(scanned[first] == full[first] for first in scanned)  # the same bits
    maps = set()
    for map_block in (1, 8, 4096):
        monkeypatch.setattr(optmod, "_MAP_BLOCK", map_block)
        maps.add(tuple(harden(exhaustive_best(hf, m, beta=8.0).strategy.assignment)))
    assert len(maps) == 1
