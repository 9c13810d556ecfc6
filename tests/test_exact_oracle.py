import hashlib
import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from spectr.draft_gen import StructuralError, build_prefix_tree_drafts, sample_iid_drafts
from spectr.exact import (
    COUNT_ENTRY_CAP,
    PROB_FLOOR,
    _check_count_walk,
    enumerate_draft_forests,
    max_chain_rule_gap,
    method_output_distribution,
)
from spectr.lm_sim import make_model_pair
from spectr.prob_core import ProbVector, RngStream, ValidationError
from spectr.spectr_decode import SelectionMethod, TokenSelector, draft_selection, selection_step
from spectr.token_coupling import (
    DEFAULT_TUPLE_CAP,
    KseqParams,
    KseqScan,
    SizeLimitError,
    TransportPlan,
    kseq_gamma_star,
)

PAIR = make_model_pair(3, 1, seed=0, eps=0.5)
CONTEXT = (0,)


def test_forest_enumeration_mass_is_one():
    total = sum(prob for _, prob in
                enumerate_draft_forests(PAIR.small, CONTEXT, [2, 1]))
    assert total == pytest.approx(1.0, abs=1e-12)
    total = sum(prob for _, prob in
                enumerate_draft_forests(PAIR.small, CONTEXT, [2, 2]))
    assert total == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("method,branching", [
    (SelectionMethod.maximal(), [1, 1]),
    (SelectionMethod.kseq(), [2, 1]),
    (SelectionMethod.otm_lp(), [2, 1]),
    (SelectionMethod.kseq(), [2, 2]),   # prefix tree
    (SelectionMethod.kseq(), [4, 1]),   # gamma* rescanned as drafts die
    (SelectionMethod.kseq(), [3, 2]),
    (SelectionMethod.otm_lp(), [2, 2]),
])
def test_stepwise_chain_rule_holds(method, branching):
    dist = method_output_distribution(PAIR.big, PAIR.small, CONTEXT, branching, method)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)
    gap, cell = max_chain_rule_gap(dist, PAIR.big, CONTEXT, len(branching))
    assert gap <= 1e-6, (method.kind, branching, cell)


# sha256 prefixes of repr(sorted(table.items())) for make_model_pair(V, 1, seed=0,
# eps=0.5) at context (0,), each re-taken when its states moved to the count
# step: K-SEQ from 9849a81b8dcc2a2a (the same 115 sequences, each within
# 2.3e-15), OTM from 8ea5b00da774b8f4 (76 sequences, each within 1.3e-16, less
# 7 of at most 3.3e-17 that the tuple step kept from tuple laws above the floor)
TABLE_PINS = [
    (3, (2, 2, 2), SelectionMethod.kseq(), "df74ff2090631354"),
    (4, (2, 2), SelectionMethod.otm_lp(), "4ee37e661d4f1f1f"),
]


@pytest.mark.parametrize("vocab,branching,method,digest", TABLE_PINS)
def test_oracle_table_is_pinned(vocab, branching, method, digest):
    pair = make_model_pair(vocab, 1, seed=0, eps=0.5)
    dist = method_output_distribution(pair.big, pair.small, CONTEXT, branching, method)
    assert hashlib.sha256(repr(sorted(dist.items())).encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize("branching", [[], [2, 0], [-1]])
def test_both_entry_points_reject_bad_branching(branching):
    with pytest.raises(StructuralError, match="positive integers"):
        method_output_distribution(PAIR.big, PAIR.small, CONTEXT, branching,
                                   SelectionMethod.kseq())
    with pytest.raises(StructuralError, match="positive integers"):
        list(enumerate_draft_forests(PAIR.small, CONTEXT, branching))


def test_first_token_marginal_is_big_model():
    # depth-1 specialization of the stepwise identity
    dist = method_output_distribution(PAIR.big, PAIR.small, CONTEXT, [2, 1],
                                      SelectionMethod.kseq())
    q = PAIR.big.next_dist(CONTEXT)
    for y in range(3):
        got = sum(w for seq, w in dist.items() if seq[0] == y)
        assert got == pytest.approx(q[y], abs=1e-9)


def _empirical_distribution(method, n, seed, tree=False):
    counts = {}
    for i in range(n):
        rng = RngStream(seed, path=(i,))
        if tree:
            drafts = build_prefix_tree_drafts(PAIR.small, CONTEXT, (2, 2), rng.child(0))
        else:
            drafts = sample_iid_drafts(PAIR.small, CONTEXT, K=2, L=2, rng=rng.child(0))
        out = tuple(draft_selection(CONTEXT, drafts, PAIR.big, PAIR.small, method,
                                    rng.child(1)))
        counts[out] = counts.get(out, 0) + 1
    return {seq: c / n for seq, c in counts.items()}


@pytest.mark.parametrize("method,tree", [
    (SelectionMethod.kseq(), False),
    (SelectionMethod.otm_lp(), False),
    (SelectionMethod.kseq(), True),
])
def test_monte_carlo_bridge(method, tree):
    # draft_selection sampled end-to-end agrees with the enumerated law,
    # tying the implementation to the analytic oracle
    n = 40000
    emp = _empirical_distribution(method, n, seed=1234, tree=tree)
    branching = [2, 2] if tree else [2, 1]
    exact_dist = method_output_distribution(PAIR.big, PAIR.small, CONTEXT, branching,
                                            method)
    keys = set(emp) | set(exact_dist)
    worst = max(abs(emp.get(k, 0.0) - exact_dist.get(k, 0.0)) for k in keys)
    assert worst <= 0.012


def _first_draft_law():
    # a selector that always keeps the first draft: biased towards the draft model
    dist = {}
    for roots, prob in enumerate_draft_forests(PAIR.small, CONTEXT, [2, 1]):
        node = roots[0]
        seq = (node.token, node.children[0].token)
        dist[seq] = dist.get(seq, 0.0) + prob
    return dist


def test_chain_rule_gap_detects_an_invalid_selector():
    # negative control
    gap, _ = max_chain_rule_gap(_first_draft_law(), PAIR.big, CONTEXT, 2)
    assert gap > 1e-3


def _brute_force_worst_cell(dist, big, length):
    """Every (depth, prefix, token) cell listed, prefixes by first appearance,
    then the first largest gap."""
    cells = []
    for i in range(1, length + 2):
        alive, extended = {}, {}
        for seq, w in dist.items():
            if len(seq) >= i:
                alive[seq[:i - 1]] = alive.get(seq[:i - 1], 0.0) + w
                extended[seq[:i]] = extended.get(seq[:i], 0.0) + w
        for prefix, mass in alive.items():
            row = big.next_dist(CONTEXT + prefix)
            for y in range(big.vocab_size):
                gap = abs(extended.get(prefix + (y,), 0.0) - mass * row[y])
                cells.append((gap, (i, prefix, y)))
    return max(cells, key=lambda c: c[0])


IDENTICAL = make_model_pair(3, 1, seed=0, eps=0.0)


@pytest.mark.parametrize("case", ["negative_control", "identical_models"])
def test_max_chain_rule_gap_matches_a_brute_force_sweep(case):
    if case == "negative_control":
        big, dist = PAIR.big, _first_draft_law()
    else:
        # p = q: every gap is at rounding level, and two cells share the
        # largest, so the sweep must keep the first of them
        big = IDENTICAL.big
        dist = method_output_distribution(big, IDENTICAL.small, CONTEXT, [2, 1],
                                          SelectionMethod.kseq())
    assert max_chain_rule_gap(dist, big, CONTEXT, 2) == _brute_force_worst_cell(dist, big, 2)


def test_max_chain_rule_gap_rejects_an_empty_law():
    with pytest.raises(ValidationError):
        max_chain_rule_gap({}, PAIR.big, CONTEXT, 2)


# ---------------------------------------------------------------------------
# the state walk against the forest-by-forest walk
# ---------------------------------------------------------------------------

def _walk(selector, big, base, emitted, state, weight, out):
    """Add `weight` times the selection's law from `state` on to `out`, by emitted sequence."""
    # With no live drafts left, the big model's row is the bonus token's law.
    tokens = tuple(node.token for node in state)
    ctx = base + emitted
    law = (selector.rule(ctx, len(tokens)).law(tokens) if tokens
           else big.next_dist(ctx).probs)
    for y, w in enumerate(law.tolist()):
        if w <= PROB_FLOOR:
            continue
        kept = selection_step(tokens, y)
        if kept is None:
            out[emitted + (y,)] = out.get(emitted + (y,), 0.0) + weight * w
        else:
            children = [child for i in kept for child in state[i].children]
            _walk(selector, big, base, emitted + (y,), children, weight * w, out)


def forest_law(pair, context, branching, method):
    """The output law walked through every enumerated draft forest: the
    independent reference for the state walk, at sizes where
    (|supp|^L)^K forests can still be listed."""
    selector = TokenSelector(pair.big, pair.small, method)
    out = {}
    for roots, prob in enumerate_draft_forests(pair.small, context, branching):
        _walk(selector, pair.big, tuple(context), (), roots, prob, out)
    return out


def forest_count(vocab, branching):
    """Draft forests of the given branching when every token has mass."""
    groups = 1
    for b in reversed(branching):
        groups = (vocab * groups) ** b
    return groups


METHODS = {
    "maximal": SelectionMethod.maximal(),
    "kseq": SelectionMethod.kseq(),
    "otm_lp": SelectionMethod.otm_lp(),
}


# Every branching of 1-3 depths with at most 4 drafts.
BRANCHINGS = [list(b) for depth in (1, 2, 3) for b in itertools.product(range(1, 5), repeat=depth)
              if math.prod(b) <= 4]


@st.composite
def oracle_instances(draw):
    """(pair, context, branching, method) over 2-4 tokens and at most 4 drafts,
    small enough for the forest walk."""
    vocab = draw(st.integers(2, 4))
    name = draw(st.sampled_from(sorted(METHODS)))
    branching = draw(st.sampled_from(BRANCHINGS))
    if name == "maximal":
        branching = [1] * len(branching)
    assume(forest_count(vocab, branching) <= 8192)
    pair = make_model_pair(vocab, 1, draw(st.integers(0, 2**16)),
                           draw(st.sampled_from([0.1, 0.5, 0.9])),
                           allow_zeros=draw(st.booleans()))
    return pair, (draw(st.integers(0, vocab - 1)),), branching, METHODS[name]


@settings(max_examples=60, deadline=None)
@given(instance=oracle_instances())
@example(instance=(make_model_pair(4, 1, 3, 0.5), (0,), [2, 2], METHODS["otm_lp"]))
# the forest walk keeps (1, 0) at 8.4e-17, from tuple laws above the floor, and
# the count step leaves it out, its (token, count) mass being below it
@example(instance=(make_model_pair(3, 1, 1, 0.1), (1,), [1, 4], METHODS["kseq"]))
def test_state_walk_equals_the_forest_walk(instance):
    pair, context, branching, method = instance
    dist = method_output_distribution(pair.big, pair.small, context, branching, method)
    reference = forest_law(pair, context, branching, method)
    # The count step floors each state's joint (token, count) masses and the
    # forest walk each tuple's law, so a sequence may sit in one table alone
    # only at a mass below PROB_FLOOR.
    assert all(dist.get(seq, reference.get(seq)) <= PROB_FLOOR
               for seq in set(dist) ^ set(reference))
    assert max(abs(dist.get(seq, 0.0) - reference.get(seq, 0.0))
               for seq in set(dist) | set(reference)) <= 1e-12


# At V=4 with (4, 1, 1) the forest walk would list (4^3)^4 ≈ 16.7M forests,
# at V=3 with (2, 2, 2) (3 * (3 * 3^2)^2)^2 ≈ 4.8M, and at V=16 with (3, 1, 1)
# (16^3)^3 ≈ 6.9e10. The state walk took at most 1.3 s on any of these cases
# on a 2-core container.
SECONDS_BOUND = 10.0


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("vocab,branching,method", [
    (4, (4, 1, 1), SelectionMethod.kseq()),
    # all 8 leaves can survive to the last depth: 3^8 = 6561 live tuples
    (3, (2, 2, 2), SelectionMethod.kseq()),
    (4, (4, 1, 1), SelectionMethod.otm_lp()),
    # 16^3 = 4096 draft tuples at the root, the plan's own cap
    (16, (3, 1, 1), SelectionMethod.otm_lp()),
])
def test_state_walk_verifies_sizes_the_forest_walk_cannot(seed, vocab, branching, method):
    pair = make_model_pair(vocab, 1, seed=seed, eps=0.5)
    start = time.perf_counter()
    dist = method_output_distribution(pair.big, pair.small, CONTEXT, branching, method)
    gap, cell = max_chain_rule_gap(dist, pair.big, CONTEXT, len(branching))
    elapsed = time.perf_counter() - start
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)
    assert gap <= 1e-6, cell
    assert elapsed <= SECONDS_BOUND


@pytest.mark.parametrize("method,rule", [
    # every state reads its rule's count_law: a scan's or a plan's
    (SelectionMethod.kseq(), KseqScan),
    (SelectionMethod.maximal(), KseqScan),
    (SelectionMethod.otm_lp(), TransportPlan),
])
def test_an_output_law_that_loses_mass_is_rejected(monkeypatch, method, rule):
    # a rule whose stated law sums to 0.9 leaves the output law short of mass 1
    law = rule.count_law
    monkeypatch.setattr(rule, "count_law", lambda self: 0.9 * law(self))
    branching = [1, 1] if method.kind == "maximal" else [2, 1]
    with pytest.raises(ValidationError, match="output law mass"):
        method_output_distribution(PAIR.big, PAIR.small, CONTEXT, branching, method)


def _params_below_gamma_star(self):
    """The scan's parameters at 0.99 gamma*, its residual clamped at zero: a scan
    that accepts too often and corrects too little."""
    p, q = self.p.probs, self.q.probs
    gamma = 0.99 * kseq_gamma_star(self.p, self.q, self.k)
    accepted = np.minimum(p, q / gamma)
    beta = float(accepted.sum())
    p_acc = 1.0 - (1.0 - beta) ** self.k
    raw = np.maximum(q - accepted * (p_acc / beta), 0.0)
    return KseqParams(gamma=gamma, beta=beta, p_acc=p_acc, residual=ProbVector(raw / raw.sum()))


def test_a_scan_below_gamma_star_fails_the_chain_rule(monkeypatch):
    # the count step reads the rule's own params, so a scan run at 0.99 gamma*
    # shows in the oracle; its law keeps mass 1, so only the chain rule sees it
    dist = method_output_distribution(PAIR.big, PAIR.small, CONTEXT, [2, 2],
                                      SelectionMethod.kseq())
    assert max_chain_rule_gap(dist, PAIR.big, CONTEXT, 2)[0] <= 1e-6
    monkeypatch.setattr(KseqScan, "params", property(_params_below_gamma_star))
    dist = method_output_distribution(PAIR.big, PAIR.small, CONTEXT, [2, 2],
                                      SelectionMethod.kseq())
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)
    assert max_chain_rule_gap(dist, PAIR.big, CONTEXT, 2)[0] > 1e-6


def _row_without_the_last_draft(row):
    """A plan's `_row` that reads a tuple's set as that of its first k - 1 tokens."""
    return lambda self, tokens: row(self, tuple(tokens[:-1]) + tuple(tokens[:1]))


def test_a_plan_that_reads_another_row_fails_the_chain_rule(monkeypatch):
    # a plan's count_law reads each tuple's row through `_row`, the row `draw`
    # samples, so a plan keying a tuple by the wrong set shows in the oracle; each
    # row is still a law, so only the chain rule sees it
    dist = method_output_distribution(PAIR.big, PAIR.small, CONTEXT, [2, 2],
                                      SelectionMethod.otm_lp())
    assert max_chain_rule_gap(dist, PAIR.big, CONTEXT, 2)[0] <= 1e-6
    monkeypatch.setattr(TransportPlan, "_row", _row_without_the_last_draft(TransportPlan._row))
    dist = method_output_distribution(PAIR.big, PAIR.small, CONTEXT, [2, 2],
                                      SelectionMethod.otm_lp())
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)
    assert max_chain_rule_gap(dist, PAIR.big, CONTEXT, 2)[0] > 1e-6


@pytest.mark.parametrize("vocab,branching", [(16, [4]), (4, [2, 2, 2]), (3, [2, 2, 2])])
def test_a_state_above_the_tuple_cap_is_rejected(vocab, branching):
    # 16^4 tuples at the root, and 4^8 or 3^8 once all 8 leaves survive, exceed
    # the cap of the plan each OTM state builds
    assert 4**6 == DEFAULT_TUPLE_CAP < 3**8 < 4**8 == 16**4
    pair = make_model_pair(vocab, 1, seed=1, eps=0.5)
    with pytest.raises(SizeLimitError, match=f"tuple cap {DEFAULT_TUPLE_CAP}"):
        method_output_distribution(pair.big, pair.small, CONTEXT, branching,
                                   SelectionMethod.otm_lp())


@pytest.mark.parametrize("method", [SelectionMethod.kseq(), SelectionMethod.maximal()])
def test_a_count_walk_above_its_cap_is_rejected_before_any_row(method):
    # V = 16 four deep could store 5.2 M entries with 8 drafts, 3.1 M with 4, and
    # with one draft 16^5 output sequences already at nine deep
    branching = [8, 1, 1, 1] if method.kind == "kseq" else [1] * 9
    pair = make_model_pair(16, 1, seed=1, eps=0.5)
    with pytest.raises(SizeLimitError, match=f"count entry cap {COUNT_ENTRY_CAP}"):
        method_output_distribution(pair.big, pair.small, CONTEXT, branching, method)
    assert not pair.big._rows and not pair.small._rows
    _check_count_walk(16, [4, 1, 1, 1])


# ---------------------------------------------------------------------------
# the count step against a listing of the same state through the decoder's rule
# ---------------------------------------------------------------------------

@st.composite
def count_states(draw):
    """(pair, context, live count, method) over 2-6 tokens, up to 5 live drafts and
    order 2, with zero-mass entries and p = q (eps 0) among them; an OTM state
    within the plan's tuple cap."""
    vocab, order = draw(st.integers(2, 6)), draw(st.integers(1, 2))
    live = draw(st.integers(1, 5))
    pair = make_model_pair(vocab, order, draw(st.integers(0, 2**16)),
                           draw(st.sampled_from([0.0, 0.1, 0.5, 0.9])),
                           allow_zeros=draw(st.booleans()))
    context = tuple(draw(st.lists(st.integers(0, vocab - 1), min_size=order, max_size=order)))
    name = draw(st.sampled_from(["maximal", "kseq", "otm_lp"] if live == 1 else ["kseq", "otm_lp"]))
    if name == "otm_lp":
        assume(pair.small.next_dist(context).support().size ** live <= DEFAULT_TUPLE_CAP)
    return pair, context, live, METHODS[name]


@settings(max_examples=40, deadline=None)
@given(state=count_states())
@example(state=(make_model_pair(6, 2, 5, 0.0, allow_zeros=True), (1, 4), 5, METHODS["kseq"]))
@example(state=(make_model_pair(6, 2, 5, 0.0, allow_zeros=True), (1, 4), 4, METHODS["otm_lp"]))
def test_the_count_table_equals_a_listing_through_the_rule(state):
    pair, context, live, method = state
    rule = TokenSelector(pair.big, pair.small, method).rule(context, live)
    table = rule.count_law()
    probs = rule.p.probs.tolist()
    listing = np.zeros((pair.big.vocab_size, live + 1))
    for tokens in itertools.product(np.flatnonzero(rule.p.probs).tolist(), repeat=live):
        w = math.prod(probs[t] for t in tokens)
        for y, wy in enumerate(rule.law(tokens).tolist()):
            kept = selection_step(tokens, y)
            listing[y, 0 if kept is None else len(kept)] += w * wy
    assert np.abs(table - listing).max() <= 1e-12
