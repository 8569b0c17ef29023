import numpy as np
import pytest

from obsthermo import (
    IIDProcess,
    MIXED_STATE,
    MarkovProcess,
    PeriodicProcess,
    Question,
    ValidationError,
    Chain,
    sample_questions,
)
from obsthermo.bound import evaluate
from obsthermo.chain import window_joint
from obsthermo.joint import JointDistribution
from obsthermo.optimize import HistoryFutureJoint, OptimizerSettings, optimize_soft
from obsthermo.process import _rng, iterate_maps, question_law
from obsthermo.qubit import born_probability
from obsthermo.strategy import KernelStrategy, NothingStrategy, apply_strategy

LABELS = ("Q1", "Q2")


def iid_half():
    return IIDProcess(labels=LABELS, weights=np.array([0.5, 0.5]))


def test_iid_ignores_history():
    # every row of the law, after either question or at a fresh start, is the weights
    proc = iid_half()
    assert np.allclose(question_law(proc), [[0.5, 0.5]] * 3)
    assert np.allclose(question_law(proc, 17), [[0.5, 0.5]] * 3)


def test_periodic_single_question_one_hot():
    proc = PeriodicProcess(labels=LABELS, sequence=("Q1",))
    for t in range(5):
        assert np.allclose(question_law(proc, t), [[1.0, 0.0]] * 3)


def test_markov_identity_repeats_last_question():
    proc = MarkovProcess(labels=LABELS, transition=np.eye(2), initial=np.array([0.5, 0.5]))
    law = question_law(proc)
    assert np.allclose(law[LABELS.index("Q2")], [0.0, 1.0])
    assert np.allclose(law[-1], [0.5, 0.5])


def test_unknown_label_rejected():
    # a question the schedule does not list cannot be chained with it
    questions = tuple(Question(label, np.array([0.0, 0.0, 1.0])) for label in ("Q1", "Q9"))
    with pytest.raises(ValidationError, match="process labels"):
        Chain(questions, iid_half(), MIXED_STATE)


NAN = float("nan")
HALF = np.array([0.5, 0.5])


def _remembered_nothing():
    chain = Chain((Question("Q1", [0.0, 0.0, 1.0]),), IIDProcess(("Q1",), [1.0]), MIXED_STATE)
    return apply_strategy(NothingStrategy(), window_joint(chain, 1))


NAN_INPUTS = {
    "iid weights": lambda: IIDProcess(labels=LABELS, weights=[NAN, NAN]),
    "markov row": lambda: MarkovProcess(labels=LABELS, transition=[[NAN, NAN], HALF], initial=HALF),
    "markov start": lambda: MarkovProcess(labels=LABELS, transition=np.eye(2), initial=[NAN, 1.0]),
    "kernel strategy": lambda: KernelStrategy([[NAN, NAN]]),
    "joint table": lambda: JointDistribution(names=("x",), alphabets=((0, 1),), table=[NAN, NAN]),
    "question axis": lambda: Question("q", [NAN, 0.0, 0.0]),
    "born axis": lambda: born_probability(MIXED_STATE, [NAN, 0.0, 0.0]),
    "temperature": lambda: evaluate(_remembered_nothing(), temperature_kelvin=NAN),
    "beta": lambda: optimize_soft(
        HistoryFutureJoint(np.full((2, 2), 0.25), 1, False), NAN, OptimizerSettings(2)
    ),
}


@pytest.mark.parametrize("name", NAN_INPUTS)
def test_nan_fails_every_probability_and_axis_check(name):
    # NaN compares false, so each check is written to pass only on a good value
    with pytest.raises(ValidationError):
        NAN_INPUTS[name]()


def test_time_invariance_for_iid_and_markov():
    iid = iid_half()
    markov = MarkovProcess(
        labels=LABELS, transition=np.array([[0.7, 0.3], [0.2, 0.8]]), initial=np.array([1.0, 0.0])
    )
    for t in (0, 1, 100):
        assert np.allclose(question_law(iid, t)[0], [0.5, 0.5])
    for t in (1, 2, 100):
        assert np.allclose(question_law(markov, t)[0], [0.7, 0.3])


def test_periodic_sampling_tiles_the_sequence():
    proc = PeriodicProcess(labels=LABELS, sequence=("Q1", "Q2"))
    assert sample_questions(proc, 4, seed=0) == ["Q1", "Q2", "Q1", "Q2"]


def test_iid_degenerate_weights():
    proc = IIDProcess(labels=LABELS, weights=np.array([1.0, 0.0]))
    assert sample_questions(proc, 3, seed=5) == ["Q1", "Q1", "Q1"]


def test_iid_law_of_large_numbers():
    seq = sample_questions(iid_half(), 10**5, seed=42)
    freq = seq.count("Q1") / len(seq)
    assert abs(freq - 0.5) < 0.01


def test_identical_seeds_reproduce():
    a = sample_questions(iid_half(), 1000, seed=7)
    b = sample_questions(iid_half(), 1000, seed=7)
    assert a == b


def test_distinct_seeds_decorrelate():
    n = 10**5
    a = np.array([1.0 if q == "Q1" else 0.0 for q in sample_questions(iid_half(), n, seed=1)])
    b = np.array([1.0 if q == "Q1" else 0.0 for q in sample_questions(iid_half(), n, seed=2)])
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.05


def test_markov_sampling_follows_transition():
    proc = MarkovProcess(
        labels=LABELS, transition=np.array([[0.9, 0.1], [0.5, 0.5]]), initial=np.array([1.0, 0.0])
    )
    seq = sample_questions(proc, 10**5, seed=3)
    idx = np.array([0 if q == "Q1" else 1 for q in seq])
    from_q1 = idx[1:][idx[:-1] == 0]
    assert abs((from_q1 == 0).mean() - 0.9) < 0.01


def test_validation_errors():
    with pytest.raises(ValidationError):
        IIDProcess(labels=LABELS, weights=np.array([0.6, 0.6]))
    with pytest.raises(ValidationError):
        IIDProcess(labels=LABELS, weights=np.array([1.2, -0.2]))
    with pytest.raises(ValidationError):
        MarkovProcess(labels=LABELS, transition=np.array([[1.0, 0.1], [0.0, 1.0]]), initial=np.array([1.0, 0.0]))
    with pytest.raises(ValidationError):
        PeriodicProcess(labels=LABELS, sequence=())
    with pytest.raises(ValidationError):
        PeriodicProcess(labels=LABELS, sequence=("Q9",))
    with pytest.raises(ValidationError):
        IIDProcess(labels=("Q1", "Q1"), weights=np.array([0.5, 0.5]))


@pytest.mark.parametrize("seed", [-1, -3, 2**128])
def test_seed_outside_the_philox_key_range_rejected(seed):
    with pytest.raises(ValidationError, match=r"seed must be in \[0, 2\*\*128\)"):
        sample_questions(iid_half(), 3, seed=seed)
    assert len(sample_questions(iid_half(), 3, seed=2**128 - 1)) == 3


def test_derived_keys_wrap_at_the_philox_key_range():
    # answers draw from seed + 0x5EED mod 2**128; smaller seeds keep their key
    offset = 0x5EED
    assert np.array_equal(_rng(2**128 - 1, offset=offset).random(4), _rng(offset - 1).random(4))
    plain = np.random.Generator(np.random.Philox(key=7 + offset))
    assert np.array_equal(_rng(7, offset=offset).random(4), plain.random(4))


def scan_orbit(start, maps):
    """The orbit under {0,1} maps by the prefix scan: the maps on three states, 2 -> 2,
    after an identity step, so that even one map is composed by the scan."""
    steps, _, paths = maps.shape
    wide = np.full((steps + 1, 3, paths), 2, dtype=np.intp)
    wide[0, :2] = np.arange(2)[:, None]
    wide[1:, :2] = maps
    return iterate_maps(start, wide)[1:]


#: Stacks of maps on {0, 1}: maps[i, x, r] is path r's image of x at step i + 1.
MAP_STACKS = {
    "random": lambda rng, shape: rng.integers(0, 2, shape),
    "constant": lambda rng, shape: rng.integers(0, 2, (shape[0], 1, shape[2])).repeat(2, axis=1),
    "identity": lambda rng, shape: np.broadcast_to(np.arange(2)[:, None], shape).copy(),
    "swap": lambda rng, shape: np.broadcast_to(np.arange(2)[::-1, None], shape).copy(),
}


@pytest.mark.parametrize("paths", [1, 157, 1563])
@pytest.mark.parametrize("length", [1, 2, 3, 13, 2048])
@pytest.mark.parametrize("stack", sorted(MAP_STACKS))
def test_two_state_orbits_equal_the_scan(stack, length, paths):
    rng = np.random.default_rng([length, paths, sorted(MAP_STACKS).index(stack)])
    maps = MAP_STACKS[stack](rng, (length - 1, 2, paths))
    start = rng.integers(0, 2, paths)
    want = scan_orbit(start, maps)
    assert want.shape == (length, paths) and want.dtype == np.intp
    # as the samplers pass them: bool answer maps and intp question maps, images of 0 and 1 apart
    for dtype in (bool, np.intp):
        apart = maps.transpose(1, 0, 2).astype(dtype).transpose(1, 0, 2)
        for stack_in in (maps.astype(dtype), apart):
            got = iterate_maps(start.astype(dtype), stack_in)
            assert (length == 1 or got.dtype == np.intp) and np.array_equal(got, want)
