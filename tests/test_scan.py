"""The exhaustive map scan pinned byte for byte against the direct scan.

`reference_scan` is the scan that grows every map's p(m, x') one history at a
time by broadcasting, as `optimize._scan_maps` did before it gathered terms
from per-prefix subset tables.  Its prefixes are built one at a time rather
than all at once, with the same additions, so that a block of one map with
thousands of memory rows fits in memory.  Asked for restricted growth
prefixes only, as `exhaustive_best` asks, it skips the others by its own
test of the prefix.  `reference_report` is the degeneracy report of a scan of
every map, which `degeneracy_report` gives from its closed-form candidates.
"""

import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings as hsettings, strategies as st

import obsthermo.optimize as optmod
from obsthermo import bundled_scenario, degeneracy_report, exhaustive_best, history_future_joint
from obsthermo.info import xlogx
from obsthermo.optimize import HistoryFutureJoint
from obsthermo.strategy import harden

from conftest import enumerate_deterministic, exhaustive_tables, scenario_chain

_LN2 = np.log(2.0)
BUNDLED = ("case_a", "case_b_labeled", "case_b_unlabeled", "case_b_bestcase", "angle_sweep")


def is_restricted_growth(labels) -> bool:
    """labels[0] = 0 and every label at most one above the largest before it."""
    return all(d <= max(labels[:i], default=-1) + 1 for i, d in enumerate(labels))


def reference_scan(hf: HistoryFutureJoint, m: int, map_block: int = 4096, rgs_only=False):
    """(first map index, i_mem, i_pred) per block of m**r <= map_block maps.

    With `rgs_only`, a block is yielded only if its prefix is a restricted growth string.
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
    return [
        (p.strategy.assignment.tobytes(), p.i_mem, p.i_pred, p.nostalgia, p.objective) for p in best
    ]


def test_exhaustive_best_and_degeneracy_report_match_reference(monkeypatch):
    scan = optmod._scan_maps
    for hf, m in bundled_cases() + random_tables()[:10]:
        for beta in (1.0, 2.5, 8.0):
            ours = results_with(scan, monkeypatch, hf, m, beta)
            theirs = results_with(reference_scan, monkeypatch, hf, m, beta)
            assert ours == theirs
        assert report_bits(hf, m) == reference_report(*reference_numbers(hf, m))


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


def reference_numbers(hf, m):
    """(H, m, i_mem, i_pred) of every map, in scan order, from `reference_scan`."""
    _, mems, preds = streams(reference_scan, hf, m)
    return hf.num_histories, m, np.frombuffer(mems), np.frombuffer(preds)


def reference_report(n_hist, m, i_mem, i_pred):
    """`report_bits` of the maps a scan of every map keeps at the current DEGENERACY_TOL."""
    nostalgia = i_mem - i_pred
    return [
        (
            tuple(int(d) for d in np.unravel_index(j, (m,) * n_hist)),
            float(i_mem[j]).hex(),
            float(i_pred[j]).hex(),
            max(0.0, float(nostalgia[j])).hex(),
            bool(i_pred[j] > 1e-9),
        )
        for j in np.flatnonzero(nostalgia <= optmod.DEGENERACY_TOL)
    ]


@functools.cache
def report_cases(benchmark: bool):
    """(hf, m, reference numbers) of every test table, with zero rows, zero cells
    and 1e-13 cells, and with `benchmark` the five `exhaustive` shapes at run seeds 1-5."""
    cases = pruning_tables() + relabelling_tables() + random_tables() + bundled_cases()
    for seed in range(1, 6) if benchmark else ():
        cases += exhaustive_tables(seed)
    return [(hf, m, reference_numbers(hf, m)) for hf, m in cases]


@pytest.mark.parametrize("map_block", [64, 4096])  # small blocks: candidates split across blocks
@pytest.mark.parametrize("tol", [1e-9, 0.0, 0.3])
def test_pruned_degeneracy_report_equals_the_unpruned_one(monkeypatch, tol, map_block):
    # the report scores only the maps constant on the components heavy cells join;
    # it lists the maps, and the bits, of a scan of every map.  The benchmark shapes
    # run at full blocks only: at tol 0.3 they hold 3.2 million candidates, which a
    # _MAP_BLOCK of 64 scores in seconds, and below it at most 32, one block at either size
    monkeypatch.setattr(optmod, "DEGENERACY_TOL", tol)
    monkeypatch.setattr(optmod, "_MAP_BLOCK", map_block)
    for hf, m, numbers in report_cases(benchmark=map_block == 4096):
        assert report_bits(hf, m) == reference_report(*numbers), (hf.table.shape, m)


def test_degeneracy_candidates_are_few_on_the_bundled_and_benchmark_tables():
    tables = bundled_cases() + [case for seed in range(1, 6) for case in exhaustive_tables(seed)]
    counts = [sum(map(len, optmod._degenerate_candidates(hf.table, m))) for hf, m in tables]
    assert max(counts) <= 32 and len(counts) == 30


_tables = st.integers(2, 5).flatmap(
    lambda n_hist: st.integers(1, 4).flatmap(
        lambda x: st.lists(
            st.sampled_from([0.0, 1e-13]) | st.floats(0.0, 1.0),
            min_size=n_hist * x,
            max_size=n_hist * x,
        ).map(lambda v: np.array(v).reshape(n_hist, x))
    )
)


@hsettings(max_examples=200, deadline=None)
@given(_tables, st.data())
def test_splitting_two_cells_of_a_column_costs_twice_the_smaller(table, data):
    # p(x') H(M | X' = x') >= 2 min(a, b) bits when cells a and b of column x' go to
    # different memory states; the computed nostalgia honours it within _JOIN_SLACK
    total = table.sum()
    if total > 0:
        table = table / total
    n_hist, x = table.shape
    m = data.draw(st.integers(2, 4))
    labels = data.draw(st.lists(st.integers(0, m - 1), min_size=n_hist, max_size=n_hist))
    p_mx = np.zeros((m, x))
    for h, d in enumerate(labels):
        p_mx[d] += table[h]
    h_x = optmod._future_entropy(table_hf(table))
    i_mem, i_pred = optmod._map_information(xlogx(p_mx.sum(axis=1))[None], xlogx(p_mx)[None], h_x)
    nostalgia = float(i_mem[0] - i_pred[0])
    split = [
        min(table[g, c], table[h, c])
        for g, h in itertools.combinations(range(n_hist), 2)
        if labels[g] != labels[h]
        for c in range(x)
    ]
    assert nostalgia >= 2 * max(split, default=0.0) - optmod._JOIN_SLACK


@pytest.mark.parametrize("n_hist, m, x", [(8, 5, 8), (16, 2, 4), (10, 3, 4)])
def test_full_support_report_keeps_only_the_constant_maps(n_hist, m, x):
    # every cell is heavy, so all histories join one component: m candidates, all kept
    table = np.random.default_rng(n_hist * m).dirichlet(np.ones(n_hist * x)).reshape(n_hist, x)
    assert table.min() > optmod.DEGENERACY_TOL
    constant = [(c,) * n_hist for c in range(m)]
    candidates = np.concatenate(list(optmod._degenerate_candidates(table, m)))
    assert [tuple(c) for c in candidates.tolist()] == constant
    assert [d.map_indices for d in degeneracy_report(table_hf(table), m)] == constant


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


def restricted_growth_maps(n_hist, m):
    """Every map in scan order, and which of them are restricted growth strings."""
    maps = np.array(list(enumerate_deterministic(n_hist, m)))
    top = np.maximum.accumulate(maps, axis=1)
    before = np.concatenate([np.full((len(maps), 1), -1), top[:, :-1]], axis=1)
    return maps, (maps <= before + 1).all(axis=1)


@pytest.mark.parametrize("map_block", [8, 64, 4096])  # small blocks: long prefixes, most skipped
def test_exhaustive_best_is_the_canonical_optimum_over_every_map(monkeypatch, map_block):
    # only restricted growth strings compete, one per relabelling class, and the
    # lowest score wins, exact ties to the earliest: so every block gives one map
    monkeypatch.setattr(optmod, "_MAP_BLOCK", map_block)
    for hf, m in relabelling_tables() + random_tables()[:20] + bundled_cases():
        _, mems, preds = streams(reference_scan, hf, m)
        every_mem, every_pred = np.frombuffer(mems), np.frombuffer(preds)
        maps, growth = restricted_growth_maps(hf.num_histories, m)
        for beta in (None, 1.0, 2.5, 8.0):
            best = exhaustive_best(hf, m, beta=beta)
            chosen = harden(best.strategy.assignment).tolist()
            case = (hf.table.shape, m, beta, map_block)
            assert is_restricted_growth(chosen), case
            scores = score(beta, every_mem, every_pred)
            assert abs(score(beta, best.i_mem, best.i_pred) - scores.min()) <= 1e-12, case
            assert chosen == maps[np.argmin(np.where(growth, scores, np.inf))].tolist(), case


def test_growth_need_masks_the_tails_that_break_a_restricted_growth_string():
    for m, r in ((1, 3), (2, 4), (3, 3), (5, 2)):
        need = optmod._growth_need(m, r)
        tails = list(itertools.product(range(m), repeat=r))
        for top in range(-1, m):
            prefix = list(range(top + 1))  # a restricted growth prefix whose largest label is top
            expected = [is_restricted_growth(prefix + list(t)) for t in tails]
            assert (need <= top).tolist() == expected, (m, r, top)


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
