import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spectr.draft_gen import (
    DRAFT_DEPTH_CAP,
    DRAFT_NODE_CAP,
    DraftSet,
    StructuralError,
    build_prefix_tree_drafts,
    sample_iid_drafts,
)
from spectr.lm_sim import ToyLm
from spectr.prob_core import ProbVector, RngStream, sample
from spectr.token_coupling import SizeLimitError


def leaf_paths(drafts):
    """The root-to-leaf token paths of a draft set, in construction order."""
    out = []

    def walk(node, prefix):
        path = prefix + (node.token,)
        if not node.children:
            out.append(path)
        for child in node.children:
            walk(child, path)

    for root in drafts.roots:
        walk(root, ())
    return tuple(out)


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
    assert leaf_paths(drafts) == ((3, 4, 0),) * 4


def test_k1_reduction_equals_plain_rollout():
    lm = ToyLm(6, 1, seed=4)
    rng = RngStream(21)
    drafts = sample_iid_drafts(lm, [1], K=1, L=5, rng=rng)
    # a plain autoregressive rollout consuming the builder's own stream from position 0
    stream = RngStream(21)
    ctx = [1]
    rollout = []
    for _ in range(5):
        tok = sample(lm.next_dist(ctx), stream)
        rollout.append(tok)
        ctx.append(tok)
    assert list(leaf_paths(drafts)[0]) == rollout


def test_iid_draft_contents_do_not_depend_on_k():
    lm = ToyLm(6, 1, seed=4)
    two = sample_iid_drafts(lm, [0], K=2, L=4, rng=RngStream(9))
    five = sample_iid_drafts(lm, [0], K=5, L=4, rng=RngStream(9))
    assert leaf_paths(five)[:2] == leaf_paths(two)


def test_iid_first_token_frequencies():
    lm = ToyLm(4, 0, seed=13)
    target = lm.next_dist([]).probs
    counts = np.zeros(4)
    trials = 10**5
    rng = RngStream(31)
    for i in range(trials):
        drafts = sample_iid_drafts(lm, [0], K=1, L=1, rng=rng.child(i))
        counts[leaf_paths(drafts)[0][0]] += 1
    assert np.abs(counts / trials - target).max() <= 0.01


def test_iid_construction_audit():
    # every token must have been drawn from the conditional of its own prefix,
    # via positions [jL, (j+1)L) of the builder's stream for draft j
    lm = ToyLm(5, 1, seed=8)
    context = [3]
    rng = RngStream(77)
    drafts = sample_iid_drafts(lm, context, K=3, L=4, rng=rng)
    for j, seq in enumerate(leaf_paths(drafts)):
        replay = RngStream(77)
        replay.uniforms(j * 4)
        prefix = tuple(context)
        for tok in seq:
            expected = sample(lm.next_dist(prefix), replay)
            assert tok == expected
            prefix = prefix + (tok,)


def test_tree_structure_counts():
    lm = ToyLm(6, 1, seed=10)
    drafts = build_prefix_tree_drafts(lm, [0], factors=(2, 3), rng=RngStream(0))
    assert drafts.validate() == 6
    assert len(drafts.roots) == 2
    assert all(len(root.children) == 3 for root in drafts.roots)
    assert all(not leaf.children for root in drafts.roots for leaf in root.children)
    # each root heads its 3 leaves, in construction order
    assert leaf_paths(drafts) == tuple((root.token, leaf.token)
                                       for root in drafts.roots for leaf in root.children)


def test_tree_single_chain():
    lm = ToyLm(6, 1, seed=10)
    drafts = build_prefix_tree_drafts(lm, [0], factors=(1, 1), rng=RngStream(5))
    assert len(leaf_paths(drafts)) == 1
    assert len(leaf_paths(drafts)[0]) == 2


def test_tree_leaf_count_three_levels():
    lm = ToyLm(4, 1, seed=1)
    drafts = build_prefix_tree_drafts(lm, [0], factors=(2, 2, 2), rng=RngStream(3))
    assert len(leaf_paths(drafts)) == 8
    assert all(len(s) == 3 for s in leaf_paths(drafts))


def test_tree_depth_one_matches_iid_first_tokens():
    # i.i.d. drafts are the prefix tree with factors (K, 1, ..., 1): the same
    # forest from the same substreams
    lm = ToyLm(6, 1, seed=4)
    iid = sample_iid_drafts(lm, [2], K=3, L=3, rng=RngStream(12))
    tree = build_prefix_tree_drafts(lm, [2], factors=(3, 1, 1), rng=RngStream(12))
    assert [s[0] for s in leaf_paths(iid)] == [s[0] for s in leaf_paths(tree)]
    assert tree == iid


def assert_nodes_replay(lm, context, factors, seed, drafts):
    """Every node at depth d is the draft model's draw at its prefix from
    uniform d of its first leaf's row: position leaf * L + d of RngStream(seed)."""
    spans = [math.prod(factors[d + 1:]) for d in range(len(factors))]

    def walk(nodes, prefix, first_leaf):
        d = len(prefix)
        assert len(nodes) == factors[d]
        for c, node in enumerate(nodes):
            leaf = first_leaf + c * spans[d]
            replay = RngStream(seed)
            replay.uniforms(leaf * len(factors) + d)
            assert node.token == sample(lm.next_dist(tuple(context) + prefix), replay)
            if d + 1 < len(factors):
                walk(node.children, prefix + (node.token,), leaf)
            else:
                assert node.children == ()

    walk(drafts.roots, (), 0)


def test_tree_construction_audit():
    lm = ToyLm(5, 1, seed=6)
    context = [1]
    drafts = build_prefix_tree_drafts(lm, context, factors=(2, 2), rng=RngStream(19))
    assert_nodes_replay(lm, context, (2, 2), 19, drafts)


@settings(max_examples=60, deadline=None)
@given(factors=st.lists(st.integers(1, 8), min_size=1, max_size=3).filter(
           lambda f: math.prod(f) <= 8),
       seed=st.integers(0, 2**32), model_seed=st.integers(0, 1000),
       allow_zeros=st.booleans())
def test_every_tree_node_replays_its_first_leaf_substream(factors, seed, model_seed,
                                                          allow_zeros):
    lm = ToyLm(6, 2, seed=model_seed, allow_zeros=allow_zeros)
    context = [model_seed % 6, 1]
    drafts = build_prefix_tree_drafts(lm, context, factors, RngStream(seed))
    assert drafts.validate() == math.prod(factors)
    assert_nodes_replay(lm, context, factors, seed, drafts)


def test_builders_reject_no_drafts_and_no_factors():
    with pytest.raises(StructuralError):
        sample_iid_drafts(ToyLm(4, 1, seed=0), [0], K=0, L=2, rng=RngStream(0))
    with pytest.raises(StructuralError):
        build_prefix_tree_drafts(ToyLm(4, 1, seed=0), [0], factors=(), rng=RngStream(0))


class _NoDraws:
    """Stub stream that fails on any use: a refused set draws nothing."""

    def _fail(self, *args):
        raise AssertionError("drew from the stream")

    child = uniform = uniforms = _fail


class _CountingStream:
    """A real stream that records every call made on it."""

    def __init__(self, seed):
        self.stream = RngStream(seed)
        self.calls = []

    def uniform(self):
        self.calls.append(("uniform",))
        return self.stream.uniform()

    def uniforms(self, n):
        self.calls.append(("uniforms", n))
        return self.stream.uniforms(n)

    def child(self, *ext):
        self.calls.append(("child",) + ext)
        return self.stream.child(*ext)


@pytest.mark.parametrize("factors", [(1,), (8, 1, 1, 1), (2, 2, 2), (3, 1, 2), (4, 3)])
def test_a_draft_set_makes_one_draw_call(factors):
    lm = ToyLm(6, 1, seed=2)
    counting = _CountingStream(5)
    drafts = build_prefix_tree_drafts(lm, [0], factors, counting)
    assert counting.calls == [("uniforms", math.prod(factors) * len(factors))]
    assert drafts == build_prefix_tree_drafts(lm, [0], factors, RngStream(5))


def test_draft_sets_above_the_caps_are_refused_before_any_draw():
    lm = ToyLm(4, 1, seed=0)
    with pytest.raises(SizeLimitError, match=f"node cap {DRAFT_NODE_CAP}"):
        sample_iid_drafts(lm, [0], K=DRAFT_NODE_CAP // 4 + 1, L=4, rng=_NoDraws())
    with pytest.raises(SizeLimitError, match=f"node cap {DRAFT_NODE_CAP}"):
        build_prefix_tree_drafts(lm, [0], factors=(DRAFT_NODE_CAP // 2, 2), rng=_NoDraws())
    with pytest.raises(SizeLimitError, match=f"depth cap {DRAFT_DEPTH_CAP}"):
        sample_iid_drafts(lm, [0], K=1, L=DRAFT_DEPTH_CAP + 1, rng=_NoDraws())
    with pytest.raises(SizeLimitError, match=f"depth cap {DRAFT_DEPTH_CAP}"):
        build_prefix_tree_drafts(lm, [0], factors=(1,) * (DRAFT_DEPTH_CAP + 1), rng=_NoDraws())
    # sets at the caps are built
    deep = sample_iid_drafts(lm, [0], K=1, L=DRAFT_DEPTH_CAP, rng=RngStream(0))
    assert deep.validate() == 1
    assert len(deep.roots) == 1  # the forest at the depth cap recurses within the limit
    tree = build_prefix_tree_drafts(lm, [0], factors=(DRAFT_NODE_CAP // 2, 1), rng=RngStream(0))
    assert tree.validate() == DRAFT_NODE_CAP // 2


def _hand_built(lm, factors, shape):
    """A DraftSet made directly, with a flat draw of `leaves` times `length` uniforms."""
    leaves, length = shape
    return DraftSet(model=lm, context=(0,), factors=tuple(factors),
                    uniforms=(0.5,) * (leaves * length))


def test_validate_rejects_bad_factors_and_misshapen_draws():
    lm = ToyLm(4, 1, seed=0)
    for factors, shape in [((), (1, 0)),           # no factors
                           ((2, 0), (0, 2)),       # a zero factor
                           ((2, -1), (2, 2)),      # a negative factor
                           ((2, 2), (3, 2)),       # a leaf too many
                           ((2, 2), (4, 1)),       # a uniform too few per leaf
                           ((3,), (3, 2))]:        # a uniform too many per leaf
        drafts = _hand_built(lm, factors, shape)
        with pytest.raises(StructuralError):
            drafts.validate()
        with pytest.raises(StructuralError):
            drafts.roots
    assert lm._rows == {}  # a refused set picks no token
    assert _hand_built(lm, (2, 3), (6, 2)).validate() == 6


@settings(max_examples=200, deadline=None)
@example(factors=[1, 1], leaf_error=1, length_error=-1, seed=0)
@example(factors=[1, 1], leaf_error=-1, length_error=1, seed=0)
@given(factors=st.lists(st.integers(1, 3), min_size=1, max_size=4),
       leaf_error=st.sampled_from([0, 0, -1, 1]), length_error=st.sampled_from([0, 0, -1, 1]),
       seed=st.integers(0, 2**32))
def test_validate_counts_the_leaves_of_well_shaped_draws(factors, leaf_error, length_error,
                                                         seed):
    lm = ToyLm(5, 1, seed=3)
    leaves = math.prod(factors)
    shape = (leaves + leaf_error, len(factors) + length_error)
    drafts = _hand_built(lm, factors, shape)
    if math.prod(shape) != leaves * len(factors):
        with pytest.raises(StructuralError):
            drafts.validate()
        return
    # A flat draw is its length: a shape with as many uniforms as the set
    # needs, such as (2, 1) for factors (1, 1), is the well-shaped draw.
    assert drafts.validate() == leaves
    drawn = build_prefix_tree_drafts(lm, [0], factors, RngStream(seed))
    assert drawn.validate() == leaves
    assert [len(path) for path in leaf_paths(drawn)] == [len(factors)] * leaves


def test_a_draft_set_picks_no_token_until_read():
    lm = ToyLm(6, 2, seed=5)
    drafts = build_prefix_tree_drafts(lm, [1, 2, 3], (2, 2), RngStream(0))
    assert drafts.context == (2, 3)  # the last `order` tokens
    assert lm._rows == {}
    roots = drafts.roots
    assert drafts.roots is roots  # built once
    assert set(lm._rows) == {(2, 3)} | {(3, node.token) for node in roots}
