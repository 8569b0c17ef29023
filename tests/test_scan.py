"""The exhaustive map scan pinned byte for byte against the direct scan.

`reference_scan` is the scan that grows every map's p(m, x') one history at a
time by broadcasting, as `optimize._scan_maps` did before it gathered terms
from per-prefix subset tables.  Its prefixes are built one at a time rather
than all at once, with the same additions, so that a block of one map with
thousands of memory rows fits in memory.
"""

import itertools

import numpy as np
import pytest

import obsthermo.optimize as optmod
from obsthermo import bundled_scenario, degeneracy_report, exhaustive_best, history_future_joint
from obsthermo.info import xlogx
from obsthermo.optimize import HistoryFutureJoint
from obsthermo.workflows import scenario_window

_LN2 = np.log(2.0)
BUNDLED = ("case_a", "case_b_labeled", "case_b_unlabeled", "case_b_bestcase", "angle_sweep")


def reference_scan(hf: HistoryFutureJoint, m: int, map_block: int = 4096):
    """(first map index, i_mem, i_pred) per block of m**r <= map_block maps."""
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
        p = np.zeros((1, m, x))
        for h, d in enumerate(prefix):
            p = p + term(h, d)
        p_mx = grow(p, range(n_hist - r, n_hist))
        p_m = p_mx.sum(axis=2)
        i_mem = np.maximum(0.0, -xlogx(p_m).sum(axis=1) / _LN2)
        h_mx = -xlogx(p_mx).sum(axis=(1, 2)) / _LN2
        i_pred = np.maximum(0.0, i_mem + h_x - h_mx)
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
        _, window = scenario_window(scenario)
        hf = history_future_joint(window, k=settings.history_k, labeled=settings.history_labeled)
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


@pytest.mark.parametrize("map_block", [1, 8, 4096])
def test_scan_numbers_do_not_depend_on_the_block(monkeypatch, map_block):
    monkeypatch.setattr(optmod, "_MAP_BLOCK", map_block)
    for hf, m in random_tables()[:12] + bundled_cases():
        firsts, mems, preds = streams(optmod._scan_maps, hf, m)
        _, ref_mems, ref_preds = streams(reference_scan, hf, m)
        assert (mems, preds) == (ref_mems, ref_preds)
        n_hist = hf.num_histories
        r = 0
        while r < n_hist and max(m, 2) ** (r + 1) <= map_block:
            r += 1
        assert firsts == list(range(0, m**n_hist, m**r))


def results_with(scan, monkeypatch, hf, m, beta):
    monkeypatch.setattr(optmod, "_scan_maps", scan)
    best = [
        exhaustive_best(hf, m, objective="beta", beta=beta),
        exhaustive_best(hf, m, objective="max_i_pred"),
    ]
    best.append(
        exhaustive_best(hf, m, objective="min_nostalgia_at_i_pred", i_pred_target=best[1].i_pred)
    )
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
