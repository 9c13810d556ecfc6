import pytest

from spectr.draft_gen import build_prefix_tree_drafts, sample_iid_drafts
from spectr.exact import (
    enumerate_draft_forests,
    max_chain_rule_gap,
    method_output_distribution,
)
from spectr.lm_sim import make_model_pair
from spectr.prob_core import RngStream, ValidationError
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
