import hashlib

import numpy as np
import pytest

from spectr.lm_sim import CostModel, ToyLm, make_model_pair
from spectr.prob_core import ValidationError, tv_distance

# Pinned at first build: mean probe tv for vocab=8, order=1, seed=7, eps=0.3.
PROBE_TV_GOLDEN = 0.10223916912991213
# The 16 seeded probe contexts the golden was first taken over (vocab 8, order 1).
PROBE_CONTEXTS = [(2,), (3,), (4,), (4,), (5,), (0,), (7,), (5,),
                  (7,), (5,), (3,), (0,), (4,), (0,), (0,), (3,)]


# sha256 of the next_dist rows' bytes over ROW_KEYS of
# make_model_pair(256, 2, 0, 0.3, allow_zeros=True), taken when each row drew
# its values and its zero mask in two uniforms(V) calls.
ROW_KEYS = [(i * 13 % 256, i * 101 % 256) for i in range(20)]
ROW_GOLDEN = {
    "big": "936ebbe7a9289ce3aa3d085e63ddead8eeb17b2bfa3f1e06e6cf8b400a3bc0d4",
    "small": "23d16e5761cc02e2d613e52f019a0e75558563b7d45566b8b4a91fedaa408341",
}


def mean_probe_tv(pair):
    return float(np.mean([tv_distance(pair.big.next_dist(c), pair.small.next_dist(c))
                          for c in PROBE_CONTEXTS]))


def test_rows_are_valid_and_memoized():
    lm = ToyLm(vocab_size=6, order=2, seed=3)
    row = lm.next_dist([1, 2, 3])
    assert row.probs.sum() == pytest.approx(1.0, abs=1e-9)
    assert row.probs.min() > 0.0
    assert lm.next_dist([0, 2, 3]) is row  # same last-2 key hits the memo


def test_rows_are_stable_across_instances():
    a = ToyLm(5, 1, seed=11)
    b = ToyLm(5, 1, seed=11)
    for ctx in ([0], [4], [2, 3]):
        assert np.array_equal(a.next_dist(ctx).probs, b.next_dist(ctx).probs)
    c = ToyLm(5, 1, seed=12)
    assert not np.array_equal(a.next_dist([0]).probs, c.next_dist([0]).probs)


def test_order_zero_ignores_context():
    lm = ToyLm(4, 0, seed=9)
    assert np.array_equal(lm.next_dist([]).probs, lm.next_dist([1, 2, 3]).probs)


def test_token_out_of_range():
    lm = ToyLm(4, 1, seed=0)
    with pytest.raises(ValidationError):
        lm.next_dist([7])


def test_token_out_of_range_on_a_warm_model():
    # the memo is looked up by the raw suffix, so a bad token must still miss
    # it and reach the range check once every valid row is built
    lm = ToyLm(4, 1, seed=0)
    for t in range(4):
        lm.next_dist([t])
    assert lm.next_dist(np.array([0, 3])) is lm.next_dist((3,))
    for bad in ([7], [-1], [1, 4]):
        with pytest.raises(ValidationError):
            lm.next_dist(bad)


def test_allow_zeros_produces_zero_entries():
    lm = ToyLm(12, 1, seed=5, allow_zeros=True)
    rows = [lm.next_dist([t]) for t in range(12)]
    assert any(r.probs.min() == 0.0 for r in rows)
    assert all(r.probs.sum() == pytest.approx(1.0, abs=1e-9) for r in rows)


@pytest.mark.parametrize("name", sorted(ROW_GOLDEN))
def test_rows_are_pinned(name):
    lm = getattr(make_model_pair(256, 2, 0, 0.3, allow_zeros=True), name)
    digest = hashlib.sha256()
    for key in ROW_KEYS:
        digest.update(lm.next_dist(key).probs.tobytes())
    assert digest.hexdigest() == ROW_GOLDEN[name]


def rebuilt_in_reverse(models, contexts):
    """Each model's rows over `contexts`, then the same rows after every row
    memo is cleared and they are rebuilt in reverse order."""
    first = [[lm.next_dist(c).probs.tobytes() for c in contexts] for lm in models]
    for lm in models:
        lm._rows.clear()
    again = [[lm.next_dist(c).probs.tobytes() for c in reversed(contexts)][::-1]
             for lm in reversed(models)][::-1]
    return first, again


@pytest.mark.parametrize("allow_zeros", [False, True])
@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_rows_rebuilt_in_another_order_are_the_same_rows(order, allow_zeros):
    # The prefix streams outlive the cleared rows: were one ever drawn from,
    # a rebuilt row would read other uniforms.
    contexts = [(a, b, c) for a in range(3) for b in (0, 4) for c in (1, 5, 2)]
    lm = ToyLm(6, order, seed=21, allow_zeros=allow_zeros)
    first, again = rebuilt_in_reverse([lm], contexts)
    assert first == again
    fresh = ToyLm(6, order, seed=21, allow_zeros=allow_zeros)
    assert first[0] == [fresh.next_dist(c).probs.tobytes() for c in contexts]


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_blended_rows_rebuilt_in_another_order_are_the_same_rows(order):
    pair = make_model_pair(7, order, seed=4, eps=0.4, allow_zeros=True)
    contexts = [(a, b, c) for a in (6, 0) for b in range(3) for c in (3, 1)]
    first, again = rebuilt_in_reverse([pair.big, pair.small, pair.small._perturbation],
                                      contexts)
    assert first == again


def test_model_pair_eps_endpoints():
    same = make_model_pair(6, 1, seed=2, eps=0.0)
    for ctx in ([0], [3], [5]):
        assert np.allclose(same.big.next_dist(ctx).probs, same.small.next_dist(ctx).probs)
    indep = make_model_pair(6, 1, seed=2, eps=1.0)
    # the eps=1 mixture is the pure perturbation model, independent of big
    for ctx in ([0], [3]):
        assert np.allclose(indep.small.next_dist(ctx).probs,
                           indep.small._perturbation.next_dist(ctx).probs)
    with pytest.raises(ValidationError):
        make_model_pair(6, 1, seed=2, eps=1.5)


@pytest.mark.parametrize("seed", [1.5, -1, "1", None])
def test_seeds_that_are_not_nonnegative_integers_are_rejected(seed):
    # 1.5 must not silently build seed 1's rows
    with pytest.raises(ValidationError):
        ToyLm(4, 1, seed=seed)
    with pytest.raises(ValidationError):
        make_model_pair(4, 1, seed=seed, eps=0.3)


def test_integer_like_seeds_build_the_int_seed_rows():
    rows = ToyLm(4, 1, seed=1).next_dist([0]).probs
    assert ToyLm(4, 1, seed=np.uint64(1)).seed == 1
    assert np.array_equal(ToyLm(4, 1, seed=np.uint64(1)).next_dist([0]).probs, rows)
    pair = make_model_pair(4, 1, seed=2, eps=0.3)
    same = make_model_pair(4, 1, seed=np.int64(2), eps=0.3)
    assert np.array_equal(same.small.next_dist([1]).probs, pair.small.next_dist([1]).probs)


def test_probe_tv_monotone_in_eps():
    values = [mean_probe_tv(make_model_pair(8, 1, seed=7, eps=e))
              for e in (0.0, 0.2, 0.5, 1.0)]
    assert values[0] == 0.0
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


def test_probe_tv_golden_value():
    pair = make_model_pair(8, 1, seed=7, eps=0.3)
    assert mean_probe_tv(pair) == pytest.approx(PROBE_TV_GOLDEN, abs=1e-12)


def test_cost_model_validation():
    CostModel(1.0, 0.2, 0.05)
    with pytest.raises(ValidationError):
        CostModel(big_call_cost=-1.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            CostModel(small_call_cost=bad)
