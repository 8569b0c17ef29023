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
    conditional_mutual_information,
    entropy,
    max_abs_deviation,
    mutual_information,
    plugin_from_samples,
)
from obsthermo.info import mutual_information_table, xlogx
from obsthermo.joint import from_counts

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


def test_plugin_from_samples_counts():
    samples = np.array([[0, 0], [0, 0], [1, 1], [0, 1]])
    j = plugin_from_samples(samples, names=("x", "y"), alphabets=((0, 1), (0, 1)))
    assert j.table.sum() == 1.0
    assert j.table[0, 0] == pytest.approx(0.5)
    assert j.table[1, 0] == 0.0


def test_plugin_single_sample_is_point_mass():
    j = plugin_from_samples(np.array([[1, 0]]), names=("x", "y"), alphabets=((0, 1), (0, 1)))
    assert j.table[1, 0] == 1.0
    assert entropy(j, ["x", "y"]) == 0.0


def test_plugin_rejects_empty_and_out_of_range():
    with pytest.raises(ValidationError):
        plugin_from_samples(np.empty((0, 2), dtype=int), ("x", "y"), ((0, 1), (0, 1)))
    with pytest.raises(ValidationError):
        plugin_from_samples(np.array([[0, 5]]), ("x", "y"), ((0, 1), (0, 1)))


def test_from_counts_exact_mass():
    j = from_counts(("s",), ((0, 1, 2),), np.array([1.0, 1.0, 1.0]))
    assert j.table.sum() == 1.0


def test_max_abs_deviation_requires_matching_variables():
    a = pair_table(0.25, 0.25, 0.25, 0.25)
    b = pair_table(0.25, 0.25, 0.25, 0.25, names=("x", "z"))
    with pytest.raises(ValidationError):
        max_abs_deviation(a, b)
    # same variables permuted line up fine
    c = b.rename({"z": "y"}).reorder(("y", "x"))
    assert max_abs_deviation(a, c) == 0.0


def test_xlogx_zero_and_positive():
    p = np.array([0.0, 0.25, 1.0])
    out = xlogx(p)
    assert out[0] == 0.0 and out[2] == 0.0
    assert out[1] == 0.25 * math.log(0.25)


@given(random_tables(num_vars=2, sizes=(2, 2)))
def test_mutual_information_table_matches_named_joint(joint):
    assert mutual_information_table(joint.table) == pytest.approx(
        mutual_information(joint, ["a"], ["b"]), abs=1e-12
    )


def test_import_loads_no_scipy():
    # the runtime needs numpy only; scipy is a test-time dependency
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
