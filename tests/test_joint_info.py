import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from obsthermo import (
    JointDistribution,
    ValidationError,
    apply_strategy,
    conditional_mutual_information,
    entropy,
    evaluate,
    max_abs_deviation,
    mutual_information,
    window_joint,
)
from obsthermo.chain import FUTURE_PAIR
from obsthermo.info import (
    encoder_information,
    mutual_information_table,
    pointwise_information,
    xlogx,
)

from conftest import scenario_chain

# entropy of {3/8, 3/8, 1/8, 1/8}: 3 - (3/4) log2 3
H_CASE_B_PAIR = 3.0 - 0.75 * math.log2(3.0)


def pair_table(p00, p01, p10, p11, names=("x", "y")):
    return JointDistribution(
        names=names, alphabets=((0, 1), (0, 1)), table=np.array([[p00, p01], [p10, p11]])
    )


def random_tables(num_vars=3, sizes=(2, 2, 2)):
    n = int(np.prod(sizes))
    return (
        st.lists(st.floats(1e-6, 1.0), min_size=n, max_size=n)
        .map(np.array)
        .map(lambda v: (v / v.sum()).reshape(sizes))
        .map(
            lambda t: JointDistribution(
                names=tuple("abc"[:num_vars]),
                alphabets=tuple((0, 1) for _ in range(num_vars)),
                table=t,
            )
        )
    )


def test_mass_must_be_one():
    with pytest.raises(ValidationError):
        pair_table(0.5, 0.5, 0.5, 0.0)


def test_negative_entries_rejected():
    with pytest.raises(ValidationError):
        pair_table(1.2, -0.2, 0.0, 0.0)


def test_duplicate_names_rejected():
    with pytest.raises(ValidationError):
        JointDistribution(names=("x", "x"), alphabets=((0, 1), (0, 1)), table=np.eye(2) / 2)


@given(random_tables())
def test_marginal_preserves_mass(joint):
    for keep in (("a",), ("a", "c"), ("a", "b", "c")):
        assert joint.marginal(keep).table.sum() == pytest.approx(1.0, abs=1e-12)


def test_entropy_uniform_four_symbols():
    j = JointDistribution(names=("s",), alphabets=((0, 1, 2, 3),), table=np.full(4, 0.25))
    assert entropy(j, ["s"]) == pytest.approx(2.0, abs=1e-12)


def test_entropy_point_mass():
    j = JointDistribution(names=("s",), alphabets=((0, 1),), table=np.array([1.0, 0.0]))
    assert entropy(j, ["s"]) == 0.0


def test_entropy_case_b_pair_distribution():
    j = JointDistribution(
        names=("s",), alphabets=((0, 1, 2, 3),), table=np.array([3 / 8, 3 / 8, 1 / 8, 1 / 8])
    )
    assert entropy(j, ["s"]) == pytest.approx(H_CASE_B_PAIR, abs=1e-12)


def test_mi_independent_bits():
    j = pair_table(0.25, 0.25, 0.25, 0.25)
    assert mutual_information(j, ["x"], ["y"]) == 0.0


def test_mi_identical_bits():
    j = pair_table(0.5, 0.0, 0.0, 0.5)
    assert mutual_information(j, ["x"], ["y"]) == pytest.approx(1.0, abs=1e-12)


@given(random_tables())
def test_mi_symmetry(joint):
    assert mutual_information(joint, ["a"], ["b"]) == pytest.approx(
        mutual_information(joint, ["b"], ["a"]), abs=1e-12
    )


@given(random_tables())
def test_mi_monotone_in_targets(joint):
    small = mutual_information(joint, ["a"], ["b"])
    big = mutual_information(joint, ["a"], ["b", "c"])
    assert big >= small - 1e-10


@given(random_tables())
def test_chain_rule(joint):
    lhs = mutual_information(joint, ["a"], ["b", "c"])
    rhs = mutual_information(joint, ["a"], ["c"]) + conditional_mutual_information(
        joint, ["a"], ["b"], ["c"]
    )
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_relabeling_invariance():
    j = pair_table(0.4, 0.1, 0.2, 0.3)
    flipped = JointDistribution(
        names=("x", "y"), alphabets=(("hot", "cold"), (0, 1)), table=j.table[::-1]
    )
    assert mutual_information(j, ["x"], ["y"]) == pytest.approx(
        mutual_information(flipped, ["x"], ["y"]), abs=1e-12
    )


def test_overlapping_subsets_rejected():
    j = pair_table(0.25, 0.25, 0.25, 0.25)
    with pytest.raises(ValidationError):
        mutual_information(j, ["x"], ["x"])
    with pytest.raises(ValidationError, match=r"\['x'\] repeated"):  # within one subset
        mutual_information(j, ["x", "x"], ["y"])
    with pytest.raises(ValidationError):
        entropy(j, ["z"])


def test_cmi_of_markov_triple_is_zero():
    # x -> y deterministic copy, z independent: I(x; z | y) = 0
    table = np.zeros((2, 2, 2))
    for x in (0, 1):
        for z in (0, 1):
            table[x, x, z] = 0.25
    j = JointDistribution(names=("x", "y", "z"), alphabets=((0, 1),) * 3, table=table)
    assert conditional_mutual_information(j, ["x"], ["z"], ["y"]) == 0.0


def test_max_abs_deviation_requires_matching_variables():
    a = pair_table(0.25, 0.25, 0.25, 0.25)
    b = pair_table(0.25, 0.25, 0.25, 0.25, names=("x", "z"))
    with pytest.raises(ValidationError):
        max_abs_deviation(a, b)
    # the same variables in another order are refused, not lined up
    c = pair_table(0.25, 0.25, 0.25, 0.25, names=("y", "x"))
    with pytest.raises(ValidationError, match="variable mismatch"):
        max_abs_deviation(a, c)
    assert max_abs_deviation(a, pair_table(0.25, 0.25, 0.25, 0.25)) == 0.0


def test_xlogx_zero_and_positive():
    p = np.array([0.0, 0.25, 1.0])
    out = xlogx(p)
    assert out[0] == 0.0 and out[2] == 0.0
    assert out[1] == 0.25 * math.log(0.25)


def test_xlogx_is_the_product_form_bit_for_bit_in_its_inputs_layout():
    # the sums of p ln p over a table depend on the memory order of the terms
    rng = np.random.default_rng(0)
    p = rng.dirichlet(np.full(60, 0.3)).reshape(3, 4, 5)
    p[0, 1] = 0.0
    for view in (p, p.transpose(2, 0, 1), p[:, ::2], np.asfortranarray(p), p[1, 2]):
        want = view * np.log(np.maximum(view, np.finfo(float).tiny))
        got = xlogx(view)
        assert got.strides == want.strides
        assert got.tobytes(order="A") == want.tobytes(order="A")


@given(random_tables(num_vars=2, sizes=(2, 2)))
def test_mutual_information_table_matches_named_joint(joint):
    assert mutual_information_table(joint.table) == pytest.approx(
        mutual_information(joint, ["a"], ["b"]), abs=1e-12
    )


def test_a_named_information_is_the_table_information_of_one_marginal(monkeypatch, case_b_labeled):
    window = window_joint(scenario_chain(case_b_labeled), case_b_labeled.window)
    applied = apply_strategy(case_b_labeled.strategy, window)
    history = [n for n in window.names if n not in FUTURE_PAIR]
    calls = []
    marginal = JointDistribution.marginal

    def counted(joint, names):
        calls.append(names)
        return marginal(joint, names)

    monkeypatch.setattr(JointDistribution, "marginal", counted)
    evaluate(applied)
    assert len(calls) == 2
    calls.clear()
    i_pred = mutual_information(applied, ["m"], FUTURE_PAIR)
    assert len(calls) == 1
    calls.clear()
    conditional_mutual_information(applied, ["m"], FUTURE_PAIR, history)
    assert len(calls) == 1
    # the (m, next pair) marginal laid out as (m, q+1 a+1): the same bits as the table formula
    table = marginal(applied, ["m", *FUTURE_PAIR]).table
    assert i_pred == mutual_information_table(table.reshape(len(table), -1))
    # rows and columns in another order than the joint's: the layout follows the named groups
    table = marginal(applied, ["m", "q0", "a+1"]).table.transpose(2, 1, 0)
    assert mutual_information(applied, ["a+1"], ["q0", "m"]) == mutual_information_table(
        table.reshape(2, -1)
    )
    assert marginal(applied, applied.names) is applied  # every variable: the joint itself


def test_pointwise_information_averages_to_i_pred():
    # tables with zero cells and rows; encoders soft, or one-hot with unused memory symbols
    rng = np.random.default_rng(21)
    for case in range(60):
        views, nexts, m = (int(v) for v in rng.integers((1, 2, 1), (17, 9, 6)))
        table = rng.dirichlet(np.full(views * nexts, 0.5)).reshape(views, nexts)
        table[rng.random(table.shape) < 0.2] = 0.0
        table.flat[rng.integers(table.size)] += 0.1
        table /= table.sum()
        if case % 2:
            encoder = np.eye(m)[rng.integers(m, size=views)]
        else:
            encoder = rng.dirichlet(np.ones(m), size=views)
        iota = pointwise_information(table, encoder)
        assert iota.shape == table.shape and np.isfinite(iota).all()
        assert abs((table * iota).sum() - encoder_information(table, encoder)[1]) <= 1e-12
        assert not pointwise_information(table, np.ones((views, 1))).any()  # exactly 0


def test_import_loads_no_scipy():
    # the runtime needs numpy only
    import obsthermo

    code = "import sys, obsthermo; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = str(Path(obsthermo.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
