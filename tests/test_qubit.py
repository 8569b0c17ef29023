import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from obsthermo import (
    ANSWERS,
    BlochVector,
    MIXED_STATE,
    Question,
    ValidationError,
    born_probability,
    collapse,
)
from obsthermo.qubit import collapsed_states, outcome_table

Z = np.array([0.0, 0.0, 1.0])
X = np.array([1.0, 0.0, 0.0])


def unit_vectors():
    return (
        st.tuples(
            st.floats(-1, 1, allow_nan=False),
            st.floats(-1, 1, allow_nan=False),
            st.floats(-1, 1, allow_nan=False),
        )
        .map(np.array)
        .filter(lambda v: np.linalg.norm(v) > 1e-3)
        .map(lambda v: v / np.linalg.norm(v))
    )


def states():
    return st.tuples(unit_vectors(), st.floats(0, 1, allow_nan=False)).map(
        lambda t: BlochVector.from_array(t[0] * t[1])
    )


def test_born_eigenstate():
    assert born_probability(BlochVector(0, 0, 1), Z) == 1.0


def test_born_orthogonal_axis():
    assert born_probability(BlochVector(0, 0, 1), X) == 0.5


def test_born_sixty_degrees():
    # closed form (1 + cos 60deg) / 2
    axis = np.array([math.sin(math.pi / 3), 0.0, math.cos(math.pi / 3)])
    assert born_probability(BlochVector(0, 0, 1), axis) == pytest.approx(0.75, abs=1e-12)


def test_born_maximally_mixed():
    for axis in (Z, X, np.array([0.6, 0.0, 0.8])):
        assert born_probability(MIXED_STATE, axis) == 0.5


def test_born_rejects_unnormalized_axis():
    with pytest.raises(ValidationError):
        born_probability(MIXED_STATE, np.array([0.0, 0.0, 2.0]))


def test_collapse_examples():
    assert collapse(Z, +1) == BlochVector(0, 0, 1)
    assert collapse(Z, -1) == BlochVector(0, 0, -1)
    assert collapse(X, +1) == BlochVector(1, 0, 0)


def test_collapse_is_pure():
    v = np.array([1.0, 2.0, 2.0]) / 3.0
    assert collapse(v, -1).is_pure


def test_repeatability_exact():
    assert born_probability(collapse(Z, +1), Z) == 1.0
    assert born_probability(collapse(X, -1), X) == 0.0


def test_orthogonal_after_collapse():
    state = collapse(Z, +1)
    assert born_probability(state, X) == 0.5


def test_repeat_check_rejects_non_eigenstate():
    # only the axis a state collapsed onto repeats its answer with certainty
    for axis in (X, np.array([0.6, 0.0, 0.8]), np.array([0.0, 0.8, -0.6])):
        assert 0.0 < born_probability(collapse(Z, +1), axis) < 1.0


@given(states(), unit_vectors())
def test_two_outcome_normalization(state, axis):
    assert born_probability(state, axis) + born_probability(state, -axis) == pytest.approx(
        1.0, abs=1e-12
    )


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """A uniformly random rotation: the Q of a Gaussian matrix's QR, with the signs
    that make R's diagonal positive, and one column flipped if det Q = -1."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


@given(states(), unit_vectors(), st.integers(0, 2**32 - 1))
def test_rotation_covariance(state, axis, seed):
    rot = random_rotation(np.random.default_rng(seed))
    assert np.allclose(rot @ rot.T, np.eye(3), atol=1e-12)
    assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-12)
    p = born_probability(state, axis)
    rotated = BlochVector.from_array(rot @ state.as_array())
    n = rot @ axis
    n = n / np.linalg.norm(n)
    assert born_probability(rotated, n) == pytest.approx(p, abs=1e-12)


@given(st.lists(unit_vectors(), min_size=1, max_size=4), st.sampled_from([+1, -1]))
def test_repeatability_property(axes, outcome):
    state = collapse(axes[0], outcome)
    assert outcome_table(state.as_array()[None], axes[:1])[0, 0, ANSWERS.index(outcome)] == 1.0
    # every collapsed state against its own axis, in one call: rows +axis_j, -axis_j
    table = outcome_table(collapsed_states(axes), axes)
    own = table[np.arange(2 * len(axes)), np.arange(2 * len(axes)) // 2]
    assert np.array_equal(own, np.tile(np.eye(2), (len(axes), 1)))


def test_bloch_norm_cap():
    with pytest.raises(ValidationError):
        BlochVector(1.0, 1.0, 0.0)
    BlochVector(1.0, 0.0, 0.0)  # boundary fine


def test_purity_predicate():
    assert BlochVector(0, 0, 1).is_pure
    assert not BlochVector(0, 0, 0.5).is_pure


def test_question_auto_normalizes_within_config_tolerance():
    q = Question(label="Q", axis=np.array([0.0, 0.0, 1.0 + 5e-7]))
    assert np.linalg.norm(q.axis) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValidationError):
        Question(label="Q", axis=np.array([0.0, 0.0, 1.01]))


@pytest.mark.parametrize("char", [",", '"', "\r", "\n", "|", ":"], ids=repr)
def test_a_label_with_a_csv_or_view_separator_is_rejected(char):
    with pytest.raises(ValidationError, match="label"):
        Question(label=f"Q{char}z", axis=Z)
