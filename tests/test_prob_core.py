import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spectr.prob_core import (
    NEG_TOL,
    SUM_TOL,
    DimensionError,
    ProbVector,
    RngStream,
    ValidationError,
    _pick,
    random_prob_vector,
    sample,
    tv_distance,
)
from spectr.token_coupling import kseq_params


def sample_many(dist: ProbVector, rng: RngStream, n: int) -> np.ndarray:
    """n tokens from n sequential uniforms of `rng`, the tokens `sample` draws
    one at a time, as one searchsorted over the cdf."""
    idx = np.searchsorted(dist.cdf, rng.uniforms(n), side="right")
    idx[idx >= dist.vocab_size] = dist.support()[-1]
    return idx


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


def reference_probs(probs):
    """The validator ProbVector kept before it checked rows in two reductions:
    every check on its own pass, the clamp by np.where."""
    arr = np.asarray(list(probs) if not isinstance(probs, np.ndarray) else probs,
                     dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError(f"probability vector must be non-empty 1-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("probability vector contains non-finite entries")
    low = arr.min()
    if low < -NEG_TOL:
        raise ValidationError(f"negative probability {low!r} below clamp tolerance {-NEG_TOL}")
    arr = np.where(arr < 0.0, 0.0, arr)
    total = float(arr.sum())
    if abs(total - 1.0) > SUM_TOL:
        raise ValidationError(f"probabilities sum to {total!r}, off by more than {SUM_TOL}")
    return arr


# Entries a row may carry: a probability, an exact (signed) zero, rounding
# noise in [-NEG_TOL, 0), a genuine negative, a non-finite value, or a finite
# value whose sum overflows.
SPECIAL_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 1e308, -NEG_TOL]),
    st.floats(-NEG_TOL, 0.0, exclude_max=True),
    st.floats(-1.0, -NEG_TOL, exclude_max=True),
)


@st.composite
def candidate_rows(draw):
    """Inputs near the contract's edges, as an ndarray or a list."""
    kind = draw(st.sampled_from(["row", "row", "row", "2d", "empty"]))
    if kind == "empty":
        values = np.zeros(0)
    elif kind == "2d":
        values = np.full((draw(st.integers(1, 3)), 2), 0.5)
    else:
        n = draw(st.integers(1, 40))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        values = rng.dirichlet(np.ones(n))
        # off by 0, by well under, about, or well over SUM_TOL
        values = values * (1.0 + draw(st.sampled_from([0.0, 3e-10, -3e-10, 2e-9, -2e-9, 0.1])))
        for i in draw(st.lists(st.integers(0, n - 1), max_size=3)):
            values[i] = draw(SPECIAL_ENTRIES)
    return values if draw(st.booleans()) else values.tolist()


@settings(max_examples=400, deadline=None)
@given(values=candidate_rows())
@example(values=[np.inf, -np.inf, 0.5])
@example(values=[1e308, 1e308])
@example(values=[1e308, 1e308, -0.5])
@example(values=[0.5, 0.5 + 5e-13, -5e-13])
@example(values=[-0.0, 1.0])
@example(values=[-0.0, 1.0 + 5e-13, -5e-13])
def test_probvector_matches_the_reference_validator(values):
    before = np.array(values, dtype=np.float64)
    # Rows of 1e308s overflow their sum, and +inf with -inf sums to NaN.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            want = reference_probs(values)
        except ValidationError as exc:
            with pytest.raises(ValidationError) as got:
                ProbVector(values)
            assert str(got.value) == str(exc)
            return
        pv = ProbVector(values)
    assert pv.probs.dtype == np.float64
    assert pv.probs.tobytes() == want.tobytes()
    assert not pv.probs.flags.writeable
    if isinstance(values, np.ndarray):
        assert not np.shares_memory(values, pv.probs)
        assert values.flags.writeable
        assert values.tobytes() == before.tobytes()


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


@pytest.mark.parametrize("make", [
    lambda: RngStream(1.5),
    lambda: RngStream("3"),
    lambda: RngStream(1, (-1,)),
    lambda: RngStream(1, (2.0,)),
    lambda: RngStream(1).child(-2),
    lambda: RngStream(1).child(0, 0.5),
    lambda: RngStream(1).child(np.int64(-1)),
])
def test_rng_rejects_seeds_and_path_entries_that_are_not_nonnegative_integers(make):
    with pytest.raises(ValidationError):
        make()


def test_rng_accepts_numpy_integers():
    a = RngStream(np.int64(3), (np.uint32(2),)).child(np.int8(1))
    b = RngStream(3, (2, 1))
    assert (a.seed, a.path) == (b.seed, b.path) == (3, (2, 1))
    assert type(a.seed) is int and all(type(i) is int for i in a.path)
    assert a.uniforms(6).tolist() == b.uniforms(6).tolist()


def test_traced_draw_count_equals_consumed_positions(monkeypatch):
    """perfbench's tracer counts 1 per `uniform` and n per `uniforms(n)` by
    wrapping the class attributes. Values a single draw takes ahead come from
    the generator itself, so the count stays the stream's position."""
    counted = {"draws": 0}

    def counting(fn, amount):
        def wrapper(*args, **kwargs):
            counted["draws"] += amount(args, kwargs)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(RngStream, "uniform", counting(RngStream.uniform, lambda a, k: 1))
    monkeypatch.setattr(RngStream, "uniforms", counting(
        RngStream.uniforms, lambda a, k: int(a[1] if len(a) > 1 else k["n"])))
    dist = ProbVector([0.1, 0.2, 0.3, 0.4])
    parent = RngStream(11, (2,))
    streams = [parent, parent.child(0), parent.child(1)]
    consumed = 0
    for step in range(90):
        stream = streams[step % len(streams)]
        if step % 4 == 3:
            sample_many(dist, stream, step % 7)
            consumed += step % 7
        elif step % 4 == 2:
            stream.uniforms(n=step % 5)
            consumed += step % 5
        else:
            sample(dist, stream)
            consumed += 1
        assert counted["draws"] == sum(s.draws for s in streams) == consumed


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
