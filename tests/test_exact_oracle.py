import hashlib
import itertools
import math
import time

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from spectr.draft_gen import StructuralError, build_prefix_tree_drafts, sample_iid_drafts
from spectr.exact import (
    PROB_FLOOR,
    STATE_TUPLE_CAP,
    enumerate_draft_forests,
    max_chain_rule_gap,
    method_output_distribution,
)
from spectr.lm_sim import make_model_pair
from spectr.prob_core import RngStream, ValidationError
from spectr.spectr_decode import SelectionMethod, TokenSelector, draft_selection, selection_step
from spectr.token_coupling import KseqScan, SizeLimitError

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
# eps=0.5) at context (0,), taken when the walk still ran on stand-in nodes
TABLE_PINS = [
    (3, (2, 2, 2), SelectionMethod.kseq(), "9849a81b8dcc2a2a"),
    (4, (2, 2), SelectionMethod.otm_lp(), "8ea5b00da774b8f4"),
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
def test_state_walk_equals_the_forest_walk(instance):
    pair, context, branching, method = instance
    dist = method_output_distribution(pair.big, pair.small, context, branching, method)
    reference = forest_law(pair, context, branching, method)
    assert set(dist) == set(reference)
    assert max(abs(dist[seq] - reference[seq]) for seq in dist) <= 1e-12


# At V=4 with (4, 1, 1) the forest walk would list (4^3)^4 ≈ 16.7M forests,
# and at V=3 with (2, 2, 2) (3 * (3 * 3^2)^2)^2 ≈ 4.8M. The state walk took
# at most 1.3 s on any of these cases on a 2-core container.
SECONDS_BOUND = 10.0


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("vocab,branching,method", [
    (4, (4, 1, 1), SelectionMethod.kseq()),
    # all 8 leaves can survive to the last depth: 3^8 = 6561 live tuples
    (3, (2, 2, 2), SelectionMethod.kseq()),
    (4, (4, 1, 1), SelectionMethod.otm_lp()),
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


def test_an_output_law_that_loses_mass_is_rejected(monkeypatch):
    # a rule whose stated law sums to 0.9 leaves the output law short of mass 1
    law = KseqScan.law
    monkeypatch.setattr(KseqScan, "law", lambda self, tokens: 0.9 * law(self, tokens))
    with pytest.raises(ValidationError, match="output law mass"):
        method_output_distribution(PAIR.big, PAIR.small, CONTEXT, [2, 1],
                                   SelectionMethod.kseq())


@pytest.mark.parametrize("vocab,branching", [(16, [4]), (4, [2, 2, 2])])
def test_a_state_above_the_tuple_cap_is_rejected(vocab, branching):
    # 16^4 tuples at the root, and 4^8 once all 8 leaves survive, exceed the cap
    assert 3**8 < 5**6 <= STATE_TUPLE_CAP < 4**8 == 16**4
    pair = make_model_pair(vocab, 1, seed=1, eps=0.5)
    with pytest.raises(SizeLimitError, match=f"cap {STATE_TUPLE_CAP}"):
        method_output_distribution(pair.big, pair.small, CONTEXT, branching,
                                   SelectionMethod.kseq())
