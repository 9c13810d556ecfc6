import pytest

from spectr.draft_gen import build_prefix_tree_drafts, sample_iid_drafts
from spectr.exact import (
    enumerate_draft_forests,
    max_chain_rule_gap,
    method_output_distribution,
)
from spectr.lm_sim import make_model_pair
from spectr.prob_core import RngStream
from spectr.spectr_decode import SelectionMethod, draft_selection

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
    (SelectionMethod.kseq("k_initial"), [2, 1]),
    (SelectionMethod.otm_lp(), [2, 1]),
    (SelectionMethod.kseq(), [2, 2]),   # prefix tree
    (SelectionMethod.otm_lp(), [2, 2]),
])
def test_stepwise_chain_rule_holds(method, branching):
    dist = method_output_distribution(PAIR.big, PAIR.small, CONTEXT, branching, method)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)
    gap, cell = max_chain_rule_gap(dist, PAIR.big, CONTEXT, len(branching))
    assert gap <= 1e-6, (method.kind, branching, cell)


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


def test_chain_rule_gap_detects_an_invalid_selector():
    # negative control: a selector that always keeps the first draft is biased
    dist = {}
    for roots, prob in enumerate_draft_forests(PAIR.small, CONTEXT, [2, 1]):
        seq = tuple()
        node = roots[0]
        seq = (node.token, node.children[0].token)
        dist[seq] = dist.get(seq, 0.0) + prob
    gap, _ = max_chain_rule_gap(dist, PAIR.big, CONTEXT, 2)
    assert gap > 1e-3
