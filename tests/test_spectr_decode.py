import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spectr.draft_gen import (
    DraftNode,
    StructuralError,
    build_prefix_tree_drafts,
    sample_iid_drafts,
)
from spectr.lm_sim import CostModel, ToyLm, make_model_pair, window
from spectr.prob_core import RngStream, ValidationError, sample
from spectr.spectr_decode import (
    DecodeTrace,
    SelectionMethod,
    TokenSelector,
    UndefinedMetricError,
    baseline_decode,
    block_efficiency,
    draft_selection,
    selection_step,
    simulated_speedup,
    spectr_decode,
    trace_time,
)
from spectr.token_coupling import KseqScan, SizeLimitError, kseq_select
from test_draft_gen import leaf_paths

# Re-pinned when each draft set moved to one leaf-major draw: simulated speedup for vocab=16/order=1/seed=0/eps=0.3,
# K=8, L=4, kseq, run seed 11, with small-call cost 0.18 per draft step
# (the relative draft-model latency used in the cost model).
SPEEDUP_GOLDEN = 2.558139534883721


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
    token, index = kseq_select(KseqScan(p, q, 1), [leaf_paths(drafts)[0][0]], replay)
    want = [token]
    if index is not None:
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
    tokens = [node.token for node in forest]
    kept = selection_step(tokens, 1)
    assert kept == [0, 2]
    assert tuple(child for i in kept for child in forest[i].children) == (a, b, c)
    assert selection_step(tokens, 0) is None
    # survivors that are leaves leave no drafts: the bonus token comes next
    assert selection_step(tokens, 2) == [1]
    assert forest[1].children == ()
    assert selection_step([], 5) is None


def test_maximal_requires_single_draft():
    pair = make_model_pair(5, 1, seed=4, eps=0.4)
    with pytest.raises(ValidationError):
        spectr_decode(pair.big, pair.small, (0,), 5, 2, 2,
                      SelectionMethod.maximal(), RngStream(0))


def test_structural_error_on_misshapen_drafts():
    pair = make_model_pair(5, 1, seed=4, eps=0.4)
    drawn = sample_iid_drafts(pair.small, (0,), K=2, L=2, rng=RngStream(0))
    for bad in (replace(drawn, factors=(2, 0)),            # a zero factor
                replace(drawn, factors=(3, 1)),            # leaves the draw lacks
                replace(drawn, uniforms=drawn.uniforms[:-1])):  # a uniform short
        with pytest.raises(StructuralError):
            draft_selection((0,), bad, pair.big, pair.small, kseq(), RngStream(0))


def test_a_draft_set_from_another_model_is_refused():
    pair = make_model_pair(4, 1, seed=4, eps=0.4)
    for drafter in (make_model_pair(4, 1, seed=5, eps=0.4).small,  # another seed
                    make_model_pair(4, 1, seed=4, eps=0.5).small,  # another blend
                    pair.big):
        drafts = sample_iid_drafts(drafter, (0,), K=2, L=2, rng=RngStream(0))
        with pytest.raises(ValidationError, match="not drawn from the draft model"):
            draft_selection((0,), drafts, pair.big, pair.small, kseq(), RngStream(0))
    # an equal-seeded twin of the draft model draws the same rows
    twin = make_model_pair(4, 1, seed=4, eps=0.4).small
    drafts = sample_iid_drafts(twin, (0,), K=2, L=2, rng=RngStream(0))
    assert (draft_selection((0,), drafts, pair.big, pair.small, kseq(), RngStream(0))
            == draft_selection((0,), replace(drafts, model=pair.small), pair.big, pair.small,
                               kseq(), RngStream(0)))


def test_a_draft_set_drawn_at_another_context_is_refused():
    # The target reads two tokens, the draft model one: only the last token of
    # the context is the draft set's.
    big, small = ToyLm(4, 2, seed=1), ToyLm(4, 1, seed=2)
    drafts = sample_iid_drafts(small, (0, 1), K=2, L=2, rng=RngStream(0))
    assert drafts.context == (1,)
    for context in ((1, 2), (2,), ()):
        with pytest.raises(ValidationError, match="drawn at context"):
            draft_selection(context, drafts, big, small, kseq(), RngStream(0))
    assert len(draft_selection((3, 1), drafts, big, small, kseq(), RngStream(0))) >= 1


def eager_selection(context, drafts, big, small, method, rng):
    """The reference walk: the whole forest built first, and the children of
    the live nodes followed depth by depth."""
    selector = TokenSelector(big, small, method)
    base = tuple(context)
    nodes = drafts.roots
    emitted = []
    while nodes:
        tokens = [node.token for node in nodes]
        chosen = selector.rule(base + tuple(emitted), len(tokens)).draw(tokens, rng)
        emitted.append(chosen)
        kept = selection_step(tokens, chosen)
        if kept is None:
            return emitted
        nodes = [child for i in kept for child in nodes[i].children]
    emitted.append(sample(big.next_dist(base + tuple(emitted)), rng))
    return emitted


@st.composite
def selection_cases(draw):
    """(method, factors): depth <= 4 and <= 64 leaves; a single chain for the
    single-draft rule, and few enough drafts for the OTM plan's tuple cap at V <= 8."""
    kind = draw(st.sampled_from(["kseq", "maximal", "otm_lp"]))
    length = draw(st.integers(1, 4))
    if kind == "maximal":
        return SelectionMethod(kind), (1,) * length
    most = 64 if kind == "kseq" else 4
    factors = draw(st.lists(st.integers(1, most), min_size=length, max_size=length)
                   .filter(lambda f: math.prod(f) <= most))
    return SelectionMethod(kind), tuple(factors)


@settings(max_examples=150, deadline=None)
@given(case=selection_cases(), vocab=st.integers(2, 8), order=st.integers(0, 2),
       allow_zeros=st.booleans(), eps=st.sampled_from([0.0, 0.3, 1.0]),
       model_seed=st.integers(0, 1000), twin=st.booleans(),
       context=st.lists(st.integers(0, 7), max_size=3), seeds=st.tuples(
           st.integers(0, 2**32), st.integers(0, 2**32)))
def test_lazy_selection_equals_the_eager_forest_walk(case, vocab, order, allow_zeros, eps,
                                                     model_seed, twin, context, seeds):
    method, factors = case
    model = dict(vocab_size=vocab, order=order, seed=model_seed, eps=eps,
                 allow_zeros=allow_zeros)
    pair = make_model_pair(**model)
    # drafts from an equal-seeded twin of the draft model are draws from it too
    drafter = make_model_pair(**model).small if twin else pair.small
    context = tuple(t % vocab for t in context)
    drafts = build_prefix_tree_drafts(drafter, context, factors, RngStream(seeds[0]))
    lazy_rng, eager_rng = RngStream(seeds[1]), RngStream(seeds[1])
    lazy = draft_selection(context, drafts, pair.big, pair.small, method, lazy_rng)
    eager = eager_selection(context, drafts, pair.big, pair.small, method, eager_rng)
    assert lazy == eager
    assert lazy_rng.uniform() == eager_rng.uniform()  # the same draws consumed


@pytest.mark.parametrize("factors", [(8, 1, 1, 1), (2, 2, 2), (3, 1, 2)])
def test_selection_builds_rows_only_along_the_emitted_path(factors):
    depths = set()
    for seed in range(8):
        pair = make_model_pair(64, 2, seed=3, eps=0.3, allow_zeros=True)
        context = (5, 9, seed)
        drafts = build_prefix_tree_drafts(pair.small, context, factors, RngStream(seed))
        emitted = draft_selection(context, drafts, pair.big, pair.small, kseq(),
                                  RngStream(100 + seed))
        path = [pair.big.context_key(context + tuple(emitted[:d])) for d in range(len(emitted))]
        # the bonus token, past the leaves, reads the target row alone
        assert set(pair.small._rows) == set(path[:len(factors)])
        assert set(pair.big._rows) == set(path)
        depths.add(len(emitted))
    assert max(depths) > 1


def test_context_window_drops_all_but_the_last_order_tokens():
    assert window((1, 2, 3), 0) == ()
    assert window((1, 2, 3), 2) == (2, 3)
    assert window((1,), 3) == (1,)
    assert window(np.array([4, 5]), 1) == (5,) and type(window(np.array([4]), 1)[0]) is int


@pytest.mark.parametrize("order", [0, 2])
def test_a_long_prompt_decodes_as_its_last_order_tokens(order):
    pair = make_model_pair(16, order, seed=8, eps=0.3)
    prompt = tuple(int(u * 16) for u in RngStream(3).uniforms(16384))
    suffix = prompt[len(prompt) - order:]
    runs = [dict(K=4, L=3, method=kseq()),
            dict(K=0, L=0, method=kseq(), drafting="tree", factors=(2, 2)),
            dict(K=1, L=2, method=SelectionMethod.maximal())]
    for run in runs:
        want = spectr_decode(pair.big, pair.small, suffix, 40, rng=RngStream(6), **run)
        assert spectr_decode(pair.big, pair.small, prompt, 40, rng=RngStream(6), **run) == want
    want = baseline_decode(pair.big, suffix, 40, RngStream(6))
    assert baseline_decode(pair.big, prompt, 40, RngStream(6)) == want
    drafts = build_prefix_tree_drafts(pair.small, prompt, (2, 2), RngStream(1))
    assert drafts.context == suffix
    assert (draft_selection(prompt, drafts, pair.big, pair.small, kseq(), RngStream(2))
            == draft_selection(suffix, drafts, pair.big, pair.small, kseq(), RngStream(2)))


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
                            "2e7fa2a5d51a6412"),
    "tree_kseq_zeros": (dict(vocab_size=64, order=2, seed=1, eps=0.3, allow_zeros=True),
                        dict(K=0, L=0, method=SelectionMethod.kseq(), drafting="tree",
                             factors=(2, 2, 2)),
                        "70f35a76ba5c15ff"),
    "iid_kseq_zeros": (dict(vocab_size=32, order=2, seed=2, eps=0.5, allow_zeros=True),
                       dict(K=4, L=3, method=SelectionMethod.kseq()),
                       "8fd6e67580b1a1d5"),
    "iid_maximal": (dict(vocab_size=16, order=1, seed=3, eps=0.4),
                    dict(K=1, L=4, method=SelectionMethod.maximal()),
                    "d3116439ebbdb0f1"),
    # Pins the max-flow plan's conditionals: another optimal plan with the
    # same acceptance gives another stream.
    "iid_otm_lp": (dict(vocab_size=4, order=1, seed=4, eps=0.4),
                   dict(K=2, L=2, method=SelectionMethod.otm_lp()),
                   "4279c07616000fce"),
    "iid_kseq_two_drafts": (dict(vocab_size=8, order=1, seed=5, eps=0.5),
                            dict(K=2, L=6, method=SelectionMethod.kseq()),
                            "3b8b67c719642a13"),
    "tree_kseq_uneven": (dict(vocab_size=16, order=1, seed=6, eps=0.3),
                         dict(K=0, L=0, method=SelectionMethod.kseq(), drafting="tree",
                              factors=(3, 1, 2)),
                         "9189931fe1fad377"),
    # 16 live drafts over V = 256 rows with zeros: the lazy gamma* bracket takes
    # midpoint steps and some selections reject every draft.
    "tree_kseq_v256_sixteen_drafts": (dict(vocab_size=256, order=2, seed=7, eps=0.3,
                                           allow_zeros=True),
                                      dict(K=0, L=0, method=SelectionMethod.kseq(),
                                           drafting="tree", factors=(4, 4)),
                                      "e59957f17be51ee9"),
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
