import numpy as np
import pytest

from spectr.prob_core import (
    DimensionError,
    ProbVector,
    RngStream,
    ValidationError,
    _pick,
    random_prob_vector,
    sample,
    sample_many,
    tv_distance,
)
from spectr.token_coupling import kseq_params


def test_probvector_validation():
    ProbVector([0.25, 0.75])
    with pytest.raises(ValidationError):
        ProbVector([0.5, 0.6])  # sum off by 0.1
    with pytest.raises(ValidationError):
        ProbVector([1.1, -0.1])  # genuinely negative entry
    with pytest.raises(ValidationError):
        ProbVector([])
    # entries in [-1e-12, 0) are rounding noise and get clamped
    pv = ProbVector([1.0 + 5e-13, -5e-13])
    assert pv[1] == 0.0


def test_probvector_parse_format_roundtrip():
    pv = ProbVector.parse("0.25,0.75")
    assert pv.vocab_size == 2 and pv[1] == 0.75
    again = ProbVector.parse(pv.format())
    assert np.allclose(again.probs, pv.probs)
    with pytest.raises(ValidationError):
        ProbVector.parse("a,b")


def test_probvector_constructors():
    u = ProbVector.uniform(4)
    assert np.allclose(u.probs, 0.25)
    half = ProbVector.uniform(4, support=2)
    assert np.allclose(half.probs, [0.5, 0.5, 0.0, 0.0])
    ber = ProbVector.bernoulli(0.25)
    assert np.allclose(ber.probs, [0.75, 0.25])
    with pytest.raises(ValidationError):
        ProbVector.bernoulli(1.5)
    with pytest.raises(ValidationError):
        ProbVector.uniform(4, support=5)


def test_sample_point_mass():
    dist = ProbVector([1.0, 0.0])
    rng = RngStream(123)
    assert all(sample(dist, rng) == 0 for _ in range(50))


def test_inverse_cdf_left_closed_intervals():
    dist = ProbVector([0.5, 0.5])
    assert _pick(dist, 0.25) == 0
    assert _pick(dist, 0.75) == 1
    # boundary itself belongs to the right interval
    assert _pick(dist, 0.5) == 1
    assert _pick(dist, 0.0) == 0


def test_sample_never_returns_zero_mass_token():
    dist = ProbVector([0.0, 0.3, 0.0, 0.7, 0.0])
    draws = sample_many(dist, RngStream(5), 2000)
    assert set(np.unique(draws)) <= {1, 3}


def test_sample_monte_carlo_frequencies():
    dist = ProbVector([0.2, 0.3, 0.5])
    draws = sample_many(dist, RngStream(42), 10**6)
    freqs = np.bincount(draws, minlength=3) / 10**6
    assert np.abs(freqs - dist.probs).max() <= 0.005


def test_sample_many_matches_sequential_sample():
    dist = ProbVector([0.1, 0.2, 0.3, 0.4])
    seq = [sample(dist, RngStream(9)) for _ in [0]] + []
    r1, r2 = RngStream(9), RngStream(9)
    sequential = [sample(dist, r1) for _ in range(300)]
    vectorized = sample_many(dist, r2, 300)
    assert sequential == list(vectorized)


def test_rng_determinism_and_substreams():
    a, b = RngStream(7), RngStream(7)
    assert [a.uniform() for _ in range(10)] == [b.uniform() for _ in range(10)]
    child = RngStream(7).child(3, 1)
    again = RngStream(7, path=(3, 1))
    assert child.uniform() == again.uniform()
    # distinct paths give distinct streams
    assert RngStream(7).child(0).uniform() != RngStream(7).child(1).uniform()
    with pytest.raises(ValidationError):
        RngStream(-1)


def test_tv_distance_examples():
    p = ProbVector([0.3, 0.7])
    assert tv_distance(p, p) == 0.0
    assert tv_distance(ProbVector([1.0, 0.0]), ProbVector([0.5, 0.5])) == pytest.approx(0.5)
    assert tv_distance(ProbVector([0.25, 0.75]), ProbVector([0.75, 0.25])) == pytest.approx(0.5)
    with pytest.raises(DimensionError):
        tv_distance(p, ProbVector([1.0, 0.0, 0.0]))


def test_tv_equals_one_minus_overlap():
    for case in range(25):
        rng = RngStream(100, path=(case,))
        p = random_prob_vector(5, rng.child(0))
        q = random_prob_vector(5, rng.child(1))
        direct = 0.5 * np.abs(p.probs - q.probs).sum()
        via_min = 1.0 - np.minimum(p.probs, q.probs).sum()
        assert tv_distance(p, q) == pytest.approx(direct, abs=1e-12)
        assert direct == pytest.approx(via_min, abs=1e-12)


def residual_maximal(p, q):
    """The single-draft maximal coupling's residual: the scan's at k = 1, gamma = 1."""
    return kseq_params(p, q, 1, 1.0).residual


def test_residual_maximal_examples():
    res = residual_maximal(ProbVector([1.0, 0.0]), ProbVector([0.5, 0.5]))
    assert np.allclose(res.probs, [0.0, 1.0])
    res = residual_maximal(ProbVector([0.25, 0.75]), ProbVector([0.1, 0.9]))
    assert np.allclose(res.probs, [0.0, 1.0])
    # p == q: every draft is accepted, and the unreachable residual is q
    params = kseq_params(ProbVector([0.5, 0.5]), ProbVector([0.5, 0.5]), 1, 1.0)
    assert params.p_acc == 1.0
    assert np.array_equal(params.residual.probs, [0.5, 0.5])
    # 0 < tv(p, q) <= 1e-9: the residual is still defined, (q - min(p, q)) / tv
    res = residual_maximal(ProbVector([0.5 + 1e-10, 0.5 - 1e-10]), ProbVector([0.5, 0.5]))
    assert np.allclose(res.probs, [0.0, 1.0])


def test_residual_maximal_is_valid_distribution():
    for case in range(25):
        rng = RngStream(200, path=(case,))
        p = random_prob_vector(6, rng.child(0))
        q = random_prob_vector(6, rng.child(1))
        res = residual_maximal(p, q)
        assert res.probs.min() >= 0.0
        assert res.probs.sum() == pytest.approx(1.0, abs=1e-9)
        m = np.minimum(p.probs, q.probs)
        assert np.allclose(res.probs, (q.probs - m) / (1.0 - m.sum()), atol=1e-12)
