import hashlib
import json

import numpy as np
import pytest

from spectr.draft_gen import DraftNode, DraftSet, sample_iid_drafts
from spectr.lm_sim import CostModel, make_model_pair
from spectr.prob_core import RngStream, ValidationError, sample
from spectr.spectr_decode import (
    DecodeTrace,
    SelectionMethod,
    UndefinedMetricError,
    baseline_decode,
    block_efficiency,
    draft_selection,
    selection_step,
    simulated_speedup,
    spectr_decode,
    trace_time,
)
from spectr.token_coupling import SizeLimitError, maximal_coupling_select

# Pinned at first build: simulated speedup for vocab=16/order=1/seed=0/eps=0.3,
# K=8, L=4, kseq, run seed 11, with small-call cost 0.18 per draft step
# (the relative draft-model latency used in the cost model).
SPEEDUP_GOLDEN = 2.6993355481727574


def kseq():
    return SelectionMethod.kseq()


def test_identical_models_accept_everything():
    pair = make_model_pair(8, 1, seed=3, eps=0.0)
    trace = spectr_decode(pair.big, pair.small, (0,), 30, 2, 4, kseq(), RngStream(1))
    assert all(rec.accepted_count == 4 and rec.extra_token_emitted
               for rec in trace.per_iteration)
    assert block_efficiency(trace) == 5.0


def test_single_draft_single_token_reduces_to_maximal_coupling():
    pair = make_model_pair(6, 1, seed=9, eps=0.4)
    context = (2,)
    drafts = sample_iid_drafts(pair.small, context, K=1, L=1, rng=RngStream(4).child(0))
    got = draft_selection(context, drafts, pair.big, pair.small,
                          SelectionMethod.maximal(), RngStream(4).child(1))
    # replay: accept/reject the draft, then the bonus only on membership
    p = pair.small.next_dist(context)
    q = pair.big.next_dist(context)
    replay = RngStream(4).child(1)
    token, accepted = maximal_coupling_select(p, q, drafts.sequences[0][0], replay)
    want = [token]
    if accepted:
        want.append(sample(pair.big.next_dist(context + (token,)), replay))
    assert got == want


def test_tokens_per_iteration_in_range():
    pair = make_model_pair(8, 1, seed=5, eps=0.9)
    L = 3
    trace = spectr_decode(pair.big, pair.small, (0,), 50, 4, L, kseq(), RngStream(8))
    for rec in trace.per_iteration:
        assert 0 <= rec.accepted_count <= L
        assert rec.extra_token_emitted == (rec.accepted_count == L)
    emitted = sum(rec.accepted_count + 1 for rec in trace.per_iteration)
    assert emitted == len(trace.emitted_tokens)
    assert trace.serial_big_calls == len(trace.per_iteration)


def test_single_draft_single_token_iterations_emit_one_or_two():
    pair = make_model_pair(8, 1, seed=5, eps=0.5)
    trace = spectr_decode(pair.big, pair.small, (0,), 40, 1, 1, kseq(), RngStream(7))
    assert all(rec.accepted_count in (0, 1) for rec in trace.per_iteration)
    # both outcomes occur at this divergence
    assert {rec.accepted_count for rec in trace.per_iteration} == {0, 1}


def test_overshoot_bounded_by_draft_length():
    pair = make_model_pair(8, 1, seed=5, eps=0.1)
    for L in (1, 4, 8):
        trace = spectr_decode(pair.big, pair.small, (0,), 20, 2, L, kseq(), RngStream(2))
        assert 20 <= len(trace.emitted_tokens) <= 20 + L


def test_baseline_trace():
    pair = make_model_pair(8, 1, seed=3, eps=0.3)
    a = baseline_decode(pair.big, (1,), 10, RngStream(5))
    b = baseline_decode(pair.big, (1,), 10, RngStream(5))
    assert a.serial_big_calls == 10
    assert block_efficiency(a) == 1.0
    assert a.emitted_tokens == b.emitted_tokens


def test_baseline_frequencies_match_model():
    pair = make_model_pair(4, 0, seed=6, eps=0.0)
    target = pair.big.next_dist([]).probs
    counts = np.zeros(4)
    trace = baseline_decode(pair.big, (), 20000, RngStream(3))
    for tok in trace.emitted_tokens:
        counts[tok] += 1
    assert np.abs(counts / 20000 - target).max() <= 0.02


def test_decode_determinism_and_json():
    pair = make_model_pair(8, 1, seed=2, eps=0.4)
    a = spectr_decode(pair.big, pair.small, (0,), 25, 2, 3, kseq(), RngStream(13))
    b = spectr_decode(pair.big, pair.small, (0,), 25, 2, 3, kseq(), RngStream(13))
    assert a == b
    assert a.to_json() == b.to_json()
    parsed = json.loads(a.to_json())
    assert set(parsed) == {"method", "tokens", "serial_big_calls", "per_iteration",
                           "simulated_time"}


def test_tree_drafting_decode():
    pair = make_model_pair(6, 1, seed=7, eps=0.3)
    trace = spectr_decode(pair.big, pair.small, (0,), 20, 0, 0, kseq(), RngStream(6),
                          drafting="tree", factors=(2, 2))
    for rec in trace.per_iteration:
        assert rec.drafts_used == 4 and rec.draft_length == 2
        assert 0 <= rec.accepted_count <= 2


def test_iid_drafting_rejects_factors():
    pair = make_model_pair(6, 1, seed=7, eps=0.3)
    with pytest.raises(ValidationError):
        spectr_decode(pair.big, pair.small, (0,), 8, 4, 4, kseq(), RngStream(6),
                      factors=(2, 2))


def test_otm_method_respects_cap():
    pair = make_model_pair(70, 1, seed=1, eps=0.2)
    with pytest.raises(SizeLimitError):
        spectr_decode(pair.big, pair.small, (0,), 5, 2, 2,
                      SelectionMethod.otm_lp(), RngStream(0))


def test_otm_method_decodes_small_instances():
    pair = make_model_pair(5, 1, seed=4, eps=0.4)
    trace = spectr_decode(pair.big, pair.small, (0,), 20, 2, 2,
                          SelectionMethod.otm_lp(), RngStream(3))
    assert len(trace.emitted_tokens) >= 20


def test_selection_step_keeps_the_children_of_the_nodes_carrying_the_token():
    a, b, c = DraftNode(3), DraftNode(4), DraftNode(3)
    forest = (DraftNode(1, (a, b)), DraftNode(2), DraftNode(1, (c,)))
    assert selection_step(forest, 1) == (a, b, c)
    assert selection_step(forest, 0) is None
    # survivors that are leaves leave no drafts: the bonus token comes next
    assert selection_step(forest, 2) == ()
    assert selection_step((), 5) is None


def test_maximal_requires_single_draft():
    pair = make_model_pair(5, 1, seed=4, eps=0.4)
    with pytest.raises(ValidationError):
        spectr_decode(pair.big, pair.small, (0,), 5, 2, 2,
                      SelectionMethod.maximal(), RngStream(0))


def test_structural_error_on_mixed_drafts():
    pair = make_model_pair(5, 1, seed=4, eps=0.4)
    from spectr.draft_gen import DraftNode, StructuralError
    bad = DraftSet(roots=(DraftNode(0, (DraftNode(1),)), DraftNode(2)), length=2)
    with pytest.raises(StructuralError):
        draft_selection((0,), bad, pair.big, pair.small, kseq(), RngStream(0))


def test_block_efficiency_examples():
    trace = DecodeTrace(method="spectr-kseq", emitted_tokens=tuple(range(5)),
                        serial_big_calls=1, per_iteration=(), simulated_time=1.0)
    assert block_efficiency(trace) == 5.0
    empty = DecodeTrace(method="spectr-kseq", emitted_tokens=(), serial_big_calls=0,
                        per_iteration=(), simulated_time=0.0)
    with pytest.raises(UndefinedMetricError):
        block_efficiency(empty)


def test_simulated_speedup_ideal_case():
    # free drafting, identical models, L=4: every iteration yields 5 tokens
    pair = make_model_pair(8, 1, seed=3, eps=0.0)
    cost = CostModel(big_call_cost=1.0, small_call_cost=0.0, overhead_per_iter=0.0)
    trace = spectr_decode(pair.big, pair.small, (0,), 30, 2, 4, kseq(), RngStream(1),
                          cost=cost)
    assert simulated_speedup(trace, cost) == pytest.approx(5.0)
    baseline = baseline_decode(pair.big, (0,), 30, RngStream(1), cost=cost)
    assert simulated_speedup(baseline, cost) == pytest.approx(1.0)


def test_simulated_speedup_overhead_limit():
    pair = make_model_pair(8, 1, seed=3, eps=0.0)
    trace = spectr_decode(pair.big, pair.small, (0,), 30, 2, 4, kseq(), RngStream(1))
    heavy = CostModel(big_call_cost=1.0, small_call_cost=0.0, overhead_per_iter=1e9)
    assert simulated_speedup(trace, heavy) < 1e-6
    with pytest.raises(UndefinedMetricError):
        simulated_speedup(trace, CostModel(0.0, 0.0, 0.0))


def test_simulated_speedup_golden():
    pair = make_model_pair(16, 1, seed=0, eps=0.3)
    cost = CostModel(big_call_cost=1.0, small_call_cost=0.18, overhead_per_iter=0.0)
    trace = spectr_decode(pair.big, pair.small, (0,), 64, 8, 4, kseq(), RngStream(11),
                          cost=cost)
    assert trace.simulated_time == pytest.approx(trace_time(trace, cost))
    assert simulated_speedup(trace, cost) == pytest.approx(SPEEDUP_GOLDEN, abs=1e-12)


def test_block_efficiency_decreases_with_divergence():
    means = []
    for eps in (0.0, 0.3, 0.8):
        pair = make_model_pair(16, 1, seed=0, eps=eps)
        vals = [block_efficiency(spectr_decode(pair.big, pair.small, (0,), 48, 4, 4,
                                               kseq(), RngStream(50 + i)))
                for i in range(12)]
        means.append(float(np.mean(vals)))
    assert means[0] >= means[1] >= means[2]
    assert means[2] >= 1.0


# Pinned stream: (model pair, decode arguments, sha256 prefix of the emitted
# tokens and serial-call counts of four seeded decodes). A change made only
# for speed must keep every sampled uniform, gamma and token, so these must
# not move.
STREAM_PINS = {
    "iid_kseq_gamma_star": (dict(vocab_size=16, order=1, seed=0, eps=0.3),
                            dict(K=8, L=4, method=SelectionMethod.kseq()),
                            "2c5e366200f24dbb"),
    "iid_kseq_k_initial": (dict(vocab_size=16, order=1, seed=0, eps=0.3),
                           dict(K=8, L=4, method=SelectionMethod.kseq("k_initial")),
                           "349c025c33d0cf33"),
    "tree_kseq_zeros": (dict(vocab_size=64, order=2, seed=1, eps=0.3, allow_zeros=True),
                        dict(K=0, L=0, method=SelectionMethod.kseq(), drafting="tree",
                             factors=(2, 2, 2)),
                        "abf4b1b35d078999"),
    "iid_kseq_zeros": (dict(vocab_size=32, order=2, seed=2, eps=0.5, allow_zeros=True),
                       dict(K=4, L=3, method=SelectionMethod.kseq()),
                       "7fed39a4a7cfc4cd"),
    "iid_maximal": (dict(vocab_size=16, order=1, seed=3, eps=0.4),
                    dict(K=1, L=4, method=SelectionMethod.maximal()),
                    "4ede3c7e82e54d00"),
    # Pins the max-flow plan's conditionals: another optimal plan with the
    # same acceptance gives another stream.
    "iid_otm_lp": (dict(vocab_size=4, order=1, seed=4, eps=0.4),
                   dict(K=2, L=2, method=SelectionMethod.otm_lp()),
                   "b9092906962d99e5"),
}


@pytest.mark.parametrize("name", sorted(STREAM_PINS))
def test_sampled_stream_is_pinned(name):
    model, run, digest = STREAM_PINS[name]
    pair = make_model_pair(**model)
    h = hashlib.sha256()
    for i in range(4):
        trace = spectr_decode(pair.big, pair.small, (i % model["vocab_size"], 1), 40,
                              rng=RngStream(100 + i), **run)
        h.update(json.dumps([list(trace.emitted_tokens), trace.serial_big_calls]).encode())
    assert h.hexdigest()[:16] == digest
