"""The token selector shared by the decoder and the exact oracle, and its memo.

Every spectr_decode and draft_selection on one model pair shares one selector
per method; these tests check that sharing it changes no sampled stream, saves
the repeated solves and holds neither model alive, and that the oracle's law
reads the entries the draws stored.
"""

import gc
import weakref

import pytest

from spectr import token_coupling as tc
from spectr.draft_gen import sample_iid_drafts
from spectr.exact import method_output_distribution
from spectr.lm_sim import make_model_pair
from spectr.prob_core import RngStream
from spectr.spectr_decode import (
    PROB_FLOOR,
    SelectionMethod,
    TokenSelector,
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


def test_decode_after_other_prompts_equals_decode_on_a_fresh_pair():
    model = dict(vocab_size=16, order=1, seed=0, eps=0.3)
    for method in (SelectionMethod.kseq(), SelectionMethod.kseq("k_initial"),
                   SelectionMethod.otm_lp()):
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
    calls = []
    solve = tc.kseq_gamma_star

    def counted(*args, **kwargs):
        calls.append(args[2])
        return solve(*args, **kwargs)

    monkeypatch.setattr(tc, "kseq_gamma_star", counted)
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


@pytest.mark.parametrize("method,gamma", [
    (SelectionMethod.kseq(), None),
    (SelectionMethod.kseq("k_initial"), 3.0),
    (SelectionMethod.maximal(), None),
    (SelectionMethod("maximal", "k_initial"), 1.0),
])
def test_one_scan_entry_per_context_and_live_count(method, gamma):
    pair = make_model_pair(4, 1, seed=2, eps=0.4)
    selector = TokenSelector(pair.big, pair.small, method)
    tokens = [1] if method.kind == "maximal" else [0, 1, 1]
    k_initial = len(tokens)
    for seed in range(3):
        selector.select((2,), tokens, k_initial, RngStream(seed))
    selector.conditional((2,), tuple(tokens), k_initial)
    ckey = (pair.big.memo_key((2,)), pair.small.memo_key((2,)))
    assert [key for key in selector.memo if key[0] != "law"] == [
        ("kseq", ckey, len(tokens), gamma)]
    params = selector.memo[("kseq", ckey, len(tokens), gamma)]
    p, q = pair.small.next_dist((2,)), pair.big.next_dist((2,))
    want = tc.kseq_gamma_star(p, q, len(tokens)) if gamma is None else gamma
    expected = tc.kseq_params(p, q, len(tokens), want)
    assert (params.gamma, params.p_acc) == (expected.gamma, expected.p_acc)
    assert (params.residual.probs == expected.residual.probs).all()
    # at one draft both policies scan at gamma = 1
    if method.kind == "maximal":
        assert params.gamma == 1.0


def test_oracle_conditional_reads_the_decoder_entries():
    pair = make_model_pair(4, 1, seed=2, eps=0.4)
    selector = TokenSelector(pair.big, pair.small, SelectionMethod.kseq())
    selector.select((2,), [0, 1, 1], 3, RngStream(0))
    solved = dict(selector.memo)
    law = selector.conditional((2,), (0, 1, 1), 3)
    assert not law.flags.writeable
    assert abs(law.sum() - 1.0) <= 1e-12
    # the law reused gamma and the scan parameters the draw stored
    assert {key for key in selector.memo if key[0] != "law"} == set(solved)
    assert selector.support((2,), (0, 1, 1), 3) == [
        (y, float(law[y])) for y in range(4) if law[y] > PROB_FLOOR]
