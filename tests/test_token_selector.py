"""The token selector shared by the decoder and the exact oracle, and its memo.

Every spectr_decode and draft_selection on one model pair shares one selector
per method; these tests check that sharing it changes no sampled stream, saves
the repeated solves, holds neither model alive and dies with either, that the
oracle's law reads the entries the draws stored, that a memo hit reads no row
(so a warm decode fetches one only for each bonus token), and that the window
key gives the laws of freshly fetched rows when the orders differ.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from spectr import token_coupling as tc
from spectr.draft_gen import sample_iid_drafts
from spectr.exact import method_output_distribution
from spectr.lm_sim import ToyLm, make_model_pair
from spectr.prob_core import RngStream
from spectr.spectr_decode import (
    PROB_FLOOR,
    SelectionMethod,
    TokenSelector,
    _SHARED,
    _shared_selector,
    draft_selection,
    spectr_decode,
)


def _decode_iid(pair):
    spectr_decode(pair.big, pair.small, (0, 1), 24, K=4, L=3,
                  method=SelectionMethod.kseq(), rng=RngStream(1))


def _decode_tree(pair):
    spectr_decode(pair.big, pair.small, (0, 1), 24, K=0, L=0, method=SelectionMethod.kseq(),
                  rng=RngStream(1), drafting="tree", factors=(2, 2))


def _oracle(kind):
    method = SelectionMethod.kseq() if kind == "kseq" else SelectionMethod.otm_lp()
    return lambda pair: method_output_distribution(pair.big, pair.small, (0,), [2, 1], method)


@pytest.mark.parametrize("run", [_decode_iid, _decode_tree, _oracle("kseq"), _oracle("otm_lp")],
                         ids=["decode_iid", "decode_tree", "oracle_kseq", "oracle_otm_lp"])
def test_model_pair_is_freed_by_reference_counting(run):
    gc.disable()
    try:
        pair = make_model_pair(3, 1, seed=0, eps=0.5, allow_zeros=True)
        refs = (weakref.ref(pair.big), weakref.ref(pair.small))
        run(pair)
        del pair
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


@pytest.mark.parametrize("dies", ["big", "small"])
def test_the_selector_dies_with_either_model(dies):
    # Two independent models, so either can die while the other lives.
    gc.disable()
    try:
        models = {"big": ToyLm(3, 1, seed=1), "small": ToyLm(3, 1, seed=2)}
        spectr_decode(models["big"], models["small"], (0,), 12, K=2, L=2,
                      method=SelectionMethod.kseq(), rng=RngStream(0))
        selector = _shared_selector(models["big"], models["small"], SelectionMethod.kseq())
        assert selector.rules
        held = (weakref.ref(selector), weakref.ref(models[dies]))
        key = (id(models["big"]), id(models["small"]), "kseq")
        del selector, models[dies]
        assert [ref() for ref in held] == [None, None]
        assert key not in _SHARED
    finally:
        gc.enable()


@pytest.mark.parametrize("drafting", ["iid", "tree"])
def test_a_warm_decode_reads_a_row_only_for_each_bonus_token(drafting):
    # Each depth with live drafts takes p, q and the rule from one memo lookup and
    # picks the drafts' tokens from that p; only the bonus token fetches a row.
    pair = make_model_pair(16, 1, seed=0, eps=0.3)
    run = dict(K=8, L=4) if drafting == "iid" else dict(K=0, L=0, drafting="tree",
                                                         factors=(2, 2, 2))
    decode = lambda: spectr_decode(pair.big, pair.small, (3, 5), 64,
                                   method=SelectionMethod.kseq(), rng=RngStream(4), **run)
    cold = decode()
    calls = {"big": 0, "small": 0}
    for name in calls:
        model = getattr(pair, name)

        def counted(context, name=name, fetch=model.next_dist):
            calls[name] += 1
            return fetch(context)
        model.next_dist = counted
    warm = decode()
    assert warm == cold
    bonus = sum(record.extra_token_emitted for record in warm.per_iteration)
    assert bonus > 0
    assert calls == {"big": bonus, "small": 0}


def test_decode_after_other_prompts_equals_decode_on_a_fresh_pair():
    model = dict(vocab_size=16, order=1, seed=0, eps=0.3)
    for method in (SelectionMethod.kseq(), SelectionMethod.otm_lp()):
        K = 2 if method.kind == "otm_lp" else 8
        warm = make_model_pair(**model)
        for i in range(6):
            spectr_decode(warm.big, warm.small, (i, 2 * i), 32, K=K, L=3, method=method,
                          rng=RngStream(50 + i))
        fresh = make_model_pair(**model)
        want = spectr_decode(fresh.big, fresh.small, (7, 1), 48, K=K, L=3, method=method,
                             rng=RngStream(9))
        got = spectr_decode(warm.big, warm.small, (7, 1), 48, K=K, L=3, method=method,
                            rng=RngStream(9))
        assert got == want, method
        # a direct draft_selection reads the same shared memo, now warm at (7, 1)
        fresh = make_model_pair(**model)
        drafts = sample_iid_drafts(fresh.small, (7, 1), K, 3, RngStream(10))
        want, got = ([draft_selection((7, 1), drafts, pair.big, pair.small, method, RngStream(s))
                      for s in range(12)] for pair in (fresh, warm))
        assert got == want, method


def test_second_decode_of_a_prompt_solves_no_gamma(monkeypatch):
    # gamma* is solved lazily: a draw bisects only as far as it needs (one
    # beta_damped per step) and an all-reject finishes it (kseq_gamma_star), so
    # both count as solving
    calls = []

    def counted(solve):
        def wrapper(*args, **kwargs):
            calls.append(args[2])
            return solve(*args, **kwargs)
        return wrapper

    for name in ("kseq_gamma_star", "beta_damped"):
        monkeypatch.setattr(tc, name, counted(getattr(tc, name)))
    pair = make_model_pair(16, 1, seed=0, eps=0.3)
    runs = []
    for _ in range(2):
        calls.clear()
        runs.append(spectr_decode(pair.big, pair.small, (3, 4), 64, K=8, L=4,
                                  method=SelectionMethod.kseq(), rng=RngStream(11)))
        runs.append(len(calls))
    first, first_calls, second, second_calls = runs
    assert second == first
    assert first_calls > 0 and second_calls == 0


def test_one_selector_per_pair_and_method():
    pair = make_model_pair(4, 1, seed=0, eps=0.3)
    kseq = _shared_selector(pair.big, pair.small, SelectionMethod.kseq())
    assert _shared_selector(pair.big, pair.small, SelectionMethod.kseq()) is kseq
    assert _shared_selector(pair.big, pair.small, SelectionMethod.otm_lp()) is not kseq
    other = make_model_pair(4, 1, seed=0, eps=0.3)
    assert _shared_selector(other.big, other.small, SelectionMethod.kseq()) is not kseq


@pytest.mark.parametrize("method", [SelectionMethod.kseq(), SelectionMethod.maximal(),
                                    SelectionMethod.otm_lp()])
def test_one_scan_entry_per_context_and_live_count(method):
    pair = make_model_pair(4, 1, seed=2, eps=0.4)
    selector = TokenSelector(pair.big, pair.small, method)
    tokens = [1] if method.kind == "maximal" else [0, 1, 1]
    for seed in range(3):
        selector.rule((2,), len(tokens)).draw(tokens, RngStream(seed))
    rule = selector.rules[((2,), len(tokens))]
    support = selector.support((2,), tuple(tokens))
    assert list(selector.rules) == [((2,), len(tokens))]
    assert list(selector.laws) == [((2,), tuple(tokens))]
    # the oracle's support read the rule the draws stored, not a new one
    assert selector.rules[((2,), len(tokens))] is rule
    p, q = pair.small.next_dist((2,)), pair.big.next_dist((2,))
    assert rule.p is p and rule.k == len(tokens)
    if method.kind == "otm_lp":
        assert isinstance(rule, tc.TransportPlan)
    else:
        assert isinstance(rule, tc.KseqScan) and rule.q is q
        # the law read the rule's parameters, so they are solved and the bracket closed
        assert rule.lo == rule.hi
        params = rule.params
        assert isinstance(params, tc.KseqParams)
        expected = tc.kseq_params(p, q, len(tokens), tc.kseq_gamma_star(p, q, len(tokens)))
        assert (params.gamma, params.p_acc) == (expected.gamma, expected.p_acc)
        assert (params.residual.probs == expected.residual.probs).all()
        assert rule.lo == rule.hi == params.gamma
        # at one draft the scan runs at gamma* = 1
        if method.kind == "maximal":
            assert params.gamma == 1.0
    assert support == [(y, w) for y, w in enumerate(rule.law(tuple(tokens)).tolist())
                       if w > PROB_FLOOR]


def test_oracle_conditional_reads_the_decoder_entries():
    pair = make_model_pair(4, 1, seed=2, eps=0.4)
    selector = TokenSelector(pair.big, pair.small, SelectionMethod.kseq())
    selector.rule((2,), 3).draw([0, 1, 1], RngStream(0))
    solved = dict(selector.rules)
    law = selector.conditional((2,), (0, 1, 1))
    assert not law.flags.writeable
    assert abs(law.sum() - 1.0) <= 1e-12
    # the law reused gamma and the scan parameters the draw stored
    assert set(selector.rules) == set(solved)
    assert all(selector.rules[key] is solved[key] for key in solved)
    assert selector.support((2,), (0, 1, 1)) == [
        (y, float(law[y])) for y in range(4) if law[y] > PROB_FLOOR]


class _CountingLm:
    """Stub model that counts the rows it is asked for and reads them from a ToyLm."""

    def __init__(self, model: ToyLm):
        self.model = model
        self.order = model.order
        self.calls = 0

    def next_dist(self, context):
        self.calls += 1
        return self.model.next_dist(context)


@pytest.mark.parametrize("kind", ["kseq", "maximal", "otm_lp"])
def test_a_memo_hit_reads_no_row(kind):
    pair = make_model_pair(4, 2, seed=3, eps=0.4)
    big, small = _CountingLm(pair.big), _CountingLm(pair.small)
    selector = TokenSelector(big, small, SelectionMethod(kind))
    tokens = [1] if kind == "maximal" else [0, 1, 1]
    selector.rule((3, 0, 2), len(tokens)).draw(tokens, RngStream(0))
    assert (big.calls, small.calls) == (1, 1)
    # other contexts with the same window: draws, laws and draft orders at a solved
    # (window, k) read every row from the memo
    for seed in range(4):
        for context in ((3, 0, 2), (1, 0, 2), (0, 2)):
            selector.rule(context, len(tokens)).draw(tokens, RngStream(seed))
            selector.rule(context, len(tokens)).draw(tokens[::-1], RngStream(seed))
            selector.support(context, tuple(tokens))
            selector.support(context, tuple(tokens[::-1]))
    assert (big.calls, small.calls) == (1, 1)
    assert list(selector.rules) == [((0, 2), len(tokens))]


@settings(max_examples=60, deadline=None)
@given(orders=st.lists(st.integers(0, 2), min_size=2, max_size=2, unique=True),
       seeds=st.tuples(st.integers(0, 2**32), st.integers(0, 2**32)),
       zeros=st.booleans(), kind=st.sampled_from(["kseq", "otm_lp"]),
       contexts=st.lists(st.lists(st.integers(0, 2), max_size=4), min_size=1, max_size=4),
       tokens=st.lists(st.integers(0, 2), min_size=1, max_size=3))
def test_laws_match_fresh_rows_when_the_orders_differ(orders, seeds, zeros, kind, contexts,
                                                       tokens):
    def models():
        return [ToyLm(3, order, seed, allow_zeros=zeros) for order, seed in zip(orders, seeds)]

    big, small = models()
    selector = TokenSelector(big, small, SelectionMethod(kind))
    k = len(tokens)
    for context in map(tuple, contexts):
        fresh_big, fresh_small = models()
        q, p = fresh_big.next_dist(context), fresh_small.next_dist(context)
        assume(all(p[t] > 0.0 for t in tokens))
        if kind == "otm_lp":
            want = tc.otm_lp_solve(p, q, k)[0].conditional(tuple(tokens)).probs
        else:
            want = tc.KseqScan(p, q, k, tc.kseq_params(
                p, q, k, tc._gamma_star_or_k(p, q, k))).law(tokens)
        assert np.array_equal(selector.conditional(context, tuple(tokens)), want)
        assert selector.support(context, tuple(tokens)) == [
            (y, w) for y, w in enumerate(want.tolist()) if w > PROB_FLOOR]
