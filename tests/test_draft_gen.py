import numpy as np
import pytest

from spectr.draft_gen import (
    DraftSet,
    StructuralError,
    build_prefix_tree_drafts,
    sample_iid_drafts,
)
from spectr.lm_sim import ToyLm
from spectr.prob_core import ProbVector, RngStream, sample


class PointMassLm:
    """Stub model whose every row is a point mass on (last token + 1) mod vocab."""

    def __init__(self, vocab_size):
        self.vocab_size = vocab_size
        self.order = 1

    def next_dist(self, context):
        row = np.zeros(self.vocab_size)
        row[(int(context[-1]) + 1) % self.vocab_size] = 1.0
        return ProbVector(row)

    def context_key(self, context):
        return tuple(context[-1:])


def test_point_mass_model_gives_identical_deterministic_drafts():
    lm = PointMassLm(5)
    drafts = sample_iid_drafts(lm, [2], K=4, L=3, rng=RngStream(0))
    assert drafts.sequences == ((3, 4, 0),) * 4


def test_k1_reduction_equals_plain_rollout():
    lm = ToyLm(6, 1, seed=4)
    rng = RngStream(21)
    drafts = sample_iid_drafts(lm, [1], K=1, L=5, rng=rng)
    # a plain autoregressive rollout consuming the same substream
    stream = RngStream(21).child(0)
    ctx = [1]
    rollout = []
    for _ in range(5):
        tok = sample(lm.next_dist(ctx), stream)
        rollout.append(tok)
        ctx.append(tok)
    assert list(drafts.sequences[0]) == rollout


def test_iid_draft_contents_do_not_depend_on_k():
    lm = ToyLm(6, 1, seed=4)
    two = sample_iid_drafts(lm, [0], K=2, L=4, rng=RngStream(9))
    five = sample_iid_drafts(lm, [0], K=5, L=4, rng=RngStream(9))
    assert five.sequences[:2] == two.sequences


def test_iid_first_token_frequencies():
    lm = ToyLm(4, 0, seed=13)
    target = lm.next_dist([]).probs
    counts = np.zeros(4)
    trials = 10**5
    rng = RngStream(31)
    for i in range(trials):
        drafts = sample_iid_drafts(lm, [0], K=1, L=1, rng=rng.child(i))
        counts[drafts.sequences[0][0]] += 1
    assert np.abs(counts / trials - target).max() <= 0.01


def test_iid_construction_audit():
    # every token must have been drawn from the conditional of its own prefix,
    # via the substream of its draft index
    lm = ToyLm(5, 1, seed=8)
    context = [3]
    rng = RngStream(77)
    drafts = sample_iid_drafts(lm, context, K=3, L=4, rng=rng)
    for j, seq in enumerate(drafts.sequences):
        replay = RngStream(77).child(j)
        prefix = tuple(context)
        for tok in seq:
            expected = sample(lm.next_dist(prefix), replay)
            assert tok == expected
            prefix = prefix + (tok,)


def test_tree_structure_counts():
    lm = ToyLm(6, 1, seed=10)
    drafts = build_prefix_tree_drafts(lm, [0], factors=(2, 3), rng=RngStream(0))
    assert len(drafts.sequences) == 6
    assert drafts.validate() == 6
    firsts = [seq[0] for seq in drafts.sequences]
    # seed 0 gives two distinct roots; each root token heads 3 consecutive leaves
    assert len(set(firsts)) == 2
    assert firsts[0] == firsts[1] == firsts[2]
    assert firsts[3] == firsts[4] == firsts[5]


def test_tree_single_chain():
    lm = ToyLm(6, 1, seed=10)
    drafts = build_prefix_tree_drafts(lm, [0], factors=(1, 1), rng=RngStream(5))
    assert len(drafts.sequences) == 1
    assert len(drafts.sequences[0]) == 2


def test_tree_leaf_count_three_levels():
    lm = ToyLm(4, 1, seed=1)
    drafts = build_prefix_tree_drafts(lm, [0], factors=(2, 2, 2), rng=RngStream(3))
    assert len(drafts.sequences) == 8
    assert all(len(s) == 3 for s in drafts.sequences)


def test_tree_depth_one_matches_iid_first_tokens():
    # with factors (K, 1, ..., 1) the root tokens are the same K i.i.d. draws
    # as the i.i.d. construction's first tokens (identical substreams)
    lm = ToyLm(6, 1, seed=4)
    iid = sample_iid_drafts(lm, [2], K=3, L=3, rng=RngStream(12))
    tree = build_prefix_tree_drafts(lm, [2], factors=(3, 1, 1), rng=RngStream(12))
    assert [s[0] for s in iid.sequences] == [s[0] for s in tree.sequences]


def test_tree_construction_audit():
    lm = ToyLm(5, 1, seed=6)
    context = [1]
    drafts = build_prefix_tree_drafts(lm, context, factors=(2, 2), rng=RngStream(19))

    def walk(node, prefix, path):
        expected = sample(lm.next_dist(tuple(context) + prefix), RngStream(19).child(*path))
        assert node.token == expected
        for c, child in enumerate(node.children):
            walk(child, prefix + (node.token,), path + (c,))

    for c, root in enumerate(drafts.roots):
        walk(root, (), (c,))


def test_from_sequences_and_validation():
    ds = DraftSet.from_sequences([(1, 2), (1, 3)])
    assert ds.sequences == ((1, 2), (1, 3))
    ds.validate()
    with pytest.raises(StructuralError):
        DraftSet.from_sequences([])
    with pytest.raises(StructuralError):
        DraftSet.from_sequences([(1, 2), (1,)])
    with pytest.raises(StructuralError):
        DraftSet.from_sequences([()])
    with pytest.raises(StructuralError):
        sample_iid_drafts(ToyLm(4, 1, seed=0), [0], K=0, L=2, rng=RngStream(0))
    with pytest.raises(StructuralError):
        build_prefix_tree_drafts(ToyLm(4, 1, seed=0), [0], factors=(), rng=RngStream(0))
