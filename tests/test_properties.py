"""Property tests: the fast paths equal their plain forms.

gamma* from sorted breakpoints against a bisection on `beta_damped`,
bisect sampling against `searchsorted`, one `uniforms(n)` call against n
`uniform()` calls, `child` against a fresh stream, every stream against
numpy's `Generator(Philox(SeedSequence(seed, spawn_key=path)))`, and the
blended draft model against blending memoized rows. The OTM plan against the closed form
and a brute-force min-cut, the upper bound's tuple grid and chunks against its
per-tuple subset loop, `KseqScan.law` against its numpy scan and the
selector's support list against its `flatnonzero` form, each bit for bit.
The token solvers' claims hold up to V = 4096 and k = 16: K-SEQ within
1 - 1/e of alpha*, alpha* non-decreasing in k, and K-SEQ's output marginal
equal to q.
"""

import itertools
import sys
import threading

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

from spectr import token_coupling as tc
from spectr.exact import PROB_FLOOR, _support
from spectr.lm_sim import ToyLm, make_model_pair
from spectr.prob_core import ProbVector, RngStream, _pick
from spectr.spectr_decode import SelectionMethod, TokenSelector, spectr_decode


def reference_gamma_star(p, q, k):
    """The bisection on beta_damped that kseq_gamma_star must reproduce exactly."""
    if tc.beta_damped(p, q, 1.0) <= tc.NEG_TOL:
        raise tc.DegenerateSupportError("disjoint supports")

    def f(gamma):
        b = tc.beta_damped(p, q, gamma)
        return 1.0 - (1.0 - b) ** k - gamma * b

    if f(1.0) <= 0.0:
        return 1.0
    lo, hi = 1.0, float(k)
    if f(hi) > 0.0:
        return hi
    while hi - lo > tc.GAMMA_BRACKET:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return hi


SHAPES = ("dense", "zeros_p", "zeros_q", "equal", "point_p", "point_q", "disjoint")


@st.composite
def distribution_pairs(draw, max_vocab=512):
    """(p, q) over up to `max_vocab` tokens, with zeros, p = q, point masses,
    disjoint supports."""
    vocab = draw(st.integers(2, max_vocab))
    shape = draw(st.sampled_from(SHAPES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    alpha = draw(st.sampled_from([0.05, 1.0, 20.0]))
    p = rng.dirichlet(np.full(vocab, alpha))
    q = rng.dirichlet(np.full(vocab, alpha))
    if shape == "zeros_p":
        p[rng.random(vocab) < 0.4] = 0.0
    elif shape == "zeros_q":
        q[rng.random(vocab) < 0.4] = 0.0
    elif shape == "equal":
        q = p.copy()
    elif shape == "point_p":
        p = np.zeros(vocab)
        p[rng.integers(vocab)] = 1.0
    elif shape == "point_q":
        q = np.zeros(vocab)
        q[rng.integers(vocab)] = 1.0
    elif shape == "disjoint":
        cut = int(rng.integers(1, vocab))
        p[cut:] = 0.0
        q[:cut] = 0.0
    if p.sum() == 0.0:
        p[0] = 1.0
    if q.sum() == 0.0:
        q[-1] = 1.0
    return ProbVector(p / p.sum()), ProbVector(q / q.sum())


@st.composite
def small_pairs(draw):
    """(p, q) from raw weights over a few tokens, exact zeros and ties included."""
    weights = st.one_of(st.just(0.0), st.floats(1e-6, 1.0), st.sampled_from([0.25, 0.5, 1.0]))
    vocab = draw(st.integers(2, 8))
    p = np.array(draw(st.lists(weights, min_size=vocab, max_size=vocab)))
    q = np.array(draw(st.lists(weights, min_size=vocab, max_size=vocab)))
    p[0] += 1.0 if p.sum() == 0.0 else 0.0
    q[0] += 1.0 if q.sum() == 0.0 else 0.0
    return ProbVector(p / p.sum()), ProbVector(q / q.sum())


def _gamma_or_error(fn, p, q, k):
    try:
        return fn(p, q, k)
    except tc.DegenerateSupportError:
        return "disjoint"


def assert_gamma_star_is_the_bisection(p, q, k):
    got = _gamma_or_error(tc.kseq_gamma_star, p, q, k)
    want = _gamma_or_error(reference_gamma_star, p, q, k)
    assert got == want
    if got != "disjoint":
        assert tc.kseq_params(p, q, k, got).p_acc <= got * tc.beta_damped(p, q, got) + 1e-12


# Ratios q/p of exactly 1 and exactly k sit on the edges of the sorted middle
# [1, k): the first is its lowest breakpoint, the second is summed once with
# the ratios above k.
@settings(max_examples=300, deadline=None)
@given(pair=st.one_of(distribution_pairs(), small_pairs()), k=st.integers(1, 16))
@example(pair=(ProbVector([0.5, 0.25, 0.25]), ProbVector([0.5, 0.5, 0.0])), k=2)
@example(pair=(ProbVector([0.25, 0.25, 0.5]), ProbVector([0.25, 0.75, 0.0])), k=3)
@example(pair=(ProbVector([0.25, 0.125, 0.625]), ProbVector([0.25, 0.5, 0.25])), k=4)
@example(pair=(ProbVector([0.5, 0.5]), ProbVector([0.5, 0.5])), k=1)
@example(pair=(ProbVector([0.5, 0.25, 0.25]), ProbVector([0.5, 0.5, 0.0])), k=1)
def test_gamma_star_equals_bisection_on_beta_damped(pair, k):
    assert_gamma_star_is_the_bisection(*pair, k)


@settings(max_examples=60, deadline=None)
@given(pair=distribution_pairs(max_vocab=4096), k=st.integers(1, 16))
def test_gamma_star_equals_bisection_on_beta_damped_at_large_vocabularies(pair, k):
    assert_gamma_star_is_the_bisection(*pair, k)


CLAIM_KS = (1, 2, 3, 4, 8, 16)
# Hand-picked edges: a point mass on each side (and both on one token, p = q),
# p = q, and disjoint supports, where alpha* rounds to about 1e-16, not 0.
CLAIM_EDGES = [
    (ProbVector([0.0, 1.0, 0.0]), ProbVector([0.2, 0.3, 0.5])),
    (ProbVector([0.2, 0.3, 0.5]), ProbVector([0.0, 0.0, 1.0])),
    (ProbVector([0.0, 1.0]), ProbVector([0.0, 1.0])),
    (ProbVector([0.5, 0.25, 0.25]), ProbVector([0.5, 0.25, 0.25])),
    (ProbVector([0.5, 0.5, 0.0, 0.0]), ProbVector([0.0, 0.0, 0.7, 0.3])),
]


def _with_edges(test):
    for pair in CLAIM_EDGES:
        test = example(pair=pair, k=3)(test)
    return test


@settings(max_examples=400, deadline=None)
@given(pair=st.one_of(distribution_pairs(max_vocab=4096), small_pairs()),
       k=st.sampled_from(CLAIM_KS))
@_with_edges
def test_kseq_at_gamma_star_is_within_one_minus_one_over_e_of_alpha_star(pair, k):
    p, q = pair
    kseq = tc.kseq_acceptance(p, q, k, tc._gamma_star_or_k(p, q, k))
    assert kseq >= (1.0 - 1.0 / np.e) * tc.alpha_star(p, q, k) - 1e-12


@settings(max_examples=400, deadline=None)
@given(pair=st.one_of(distribution_pairs(max_vocab=4096), small_pairs()),
       k=st.sampled_from(CLAIM_KS))
@_with_edges
def test_alpha_star_does_not_fall_as_k_grows(pair, k):
    p, q = pair
    alphas = [tc.alpha_star(p, q, j) for j in CLAIM_KS]
    assert all(b >= a - 1e-12 for a, b in zip(alphas, alphas[1:]))
    # and between consecutive counts around k
    assert tc.alpha_star(p, q, k + 1) >= tc.alpha_star(p, q, k) - 1e-12


@settings(max_examples=400, deadline=None)
@given(pair=st.one_of(distribution_pairs(max_vocab=4096), small_pairs()),
       k=st.sampled_from(CLAIM_KS))
@_with_edges
def test_kseq_output_marginal_at_gamma_star_is_q(pair, k):
    p, q = pair
    marginal = tc.kseq_output_marginal(p, q, k, tc._gamma_star_or_k(p, q, k))
    assert np.abs(marginal.probs - q.probs).max() <= 1e-9


class _ListedUniforms:
    """Stub stream that hands out the listed uniforms in order and counts them."""

    def __init__(self, values):
        self.values, self.used = values, 0

    def uniform(self):
        self.used += 1
        return self.values[self.used - 1]


class _WatchedScan(tc.KseqScan):
    """A KseqScan that records its bracket before its first step and after each."""

    __slots__ = ("brackets",)

    def __init__(self, p, q, k):
        super().__init__(p, q, k)
        self.brackets = [(self.lo, self.hi)]

    def _step(self):
        super()._step()
        self.brackets.append((self.lo, self.hi))


# How each draft's uniform relates to its acceptance a(gamma*): drawn anywhere,
# 0.0, exactly a(gamma*) (a rejection the bracket decides only at gamma*), or
# drawn in [a(gamma*), 1) (a rejection).
UNIFORM_KINDS = ("anywhere", "zero", "edge", "reject")


def _scan_uniforms(p, q, drafts, kinds, gamma):
    """One uniform per draft from (kind, u in [0, 1)), then the residual's u."""
    out = []
    for x, (kind, u) in zip(drafts, kinds):
        a = min(1.0, q[x] / (gamma * p[x]))
        if kind == "zero":
            u = 0.0
        elif kind == "edge" and a < 1.0:
            u = a
        elif kind == "reject":
            u = min(a + u * (1.0 - a), float(np.nextafter(1.0, 0.0)))
        out.append(u)
    return out + [kinds[-1][1]]


@st.composite
def lazy_scan_cases(draw):
    """(p, q, k drafts from supp(p), k + 1 (uniform kind, u)), V up to 64."""
    p, q = draw(st.one_of(distribution_pairs(max_vocab=64), small_pairs()))
    k = draw(st.integers(1, 16))
    drafts = draw(st.lists(st.sampled_from(p.support().tolist()), min_size=k, max_size=k))
    kinds = draw(st.lists(st.tuples(st.sampled_from(UNIFORM_KINDS),
                                    st.floats(0.0, 1.0, exclude_max=True)),
                          min_size=k + 1, max_size=k + 1))
    return p, q, drafts, kinds


def _large_scan_case():
    """V = 4,096, q half p, 8 drafts of p's likeliest tokens, every uniform kind."""
    rng = np.random.default_rng(4096)
    p = rng.dirichlet(np.full(4096, 0.3))
    q = 0.5 * p + 0.5 * rng.dirichlet(np.full(4096, 0.3))
    drafts = np.argsort(p)[-8:].tolist()
    kinds = [(kind, 0.5) for kind in ("edge", "reject", "anywhere", "edge", "reject",
                                      "edge", "reject", "zero", "anywhere")]
    return ProbVector(p), ProbVector(q / q.sum()), drafts, kinds


@settings(max_examples=300, deadline=None)
@given(case=lazy_scan_cases())
@example(case=_large_scan_case())
# p = q: gamma* = 1 and every draft is accepted at once
@example(case=(ProbVector([0.5, 0.25, 0.25]), ProbVector([0.5, 0.25, 0.25]), [1, 2, 0],
               [("edge", 0.0), ("reject", 0.9), ("zero", 0.0), ("anywhere", 0.3)]))
# disjoint supports: every gamma is valid, nothing is accepted and the scan runs at k
@example(case=(ProbVector([0.5, 0.5, 0.0]), ProbVector([0.0, 0.0, 1.0]), [0, 1],
               [("zero", 0.0), ("edge", 0.0), ("anywhere", 0.7)]))
def test_lazy_scan_decides_every_draft_as_the_scan_at_gamma_star(case):
    p, q, drafts, kinds = case
    k = len(drafts)
    gamma = tc._gamma_star_or_k(p, q, k)
    uniforms = _scan_uniforms(p, q, drafts, kinds, gamma)
    eager, lazy = _ListedUniforms(uniforms), _ListedUniforms(uniforms)
    want = tc.KseqScan(p, q, k, tc.kseq_params(p, q, k, gamma)).draw(drafts, eager)
    scan = _WatchedScan(p, q, k)
    assert scan.draw(drafts, lazy) == want
    # as many uniforms, so the same draft was accepted, or none
    assert lazy.used == eager.used
    assert all(lo <= gamma <= hi for lo, hi in scan.brackets)
    # finishing closes the bracket on gamma*, bit for bit
    assert scan.params.gamma == gamma
    assert scan.lo == scan.hi == gamma


@st.composite
def cdf_points(draw):
    """A distribution and a uniform: anywhere, exactly at a cdf entry, or at/after its end."""
    p, _ = draw(small_pairs())
    cdf = p.cdf
    kind = draw(st.sampled_from(["anywhere", "entry", "end", "past_end"]))
    if kind == "anywhere":
        u = draw(st.floats(0.0, 1.0, exclude_max=True))
    elif kind == "entry":
        u = float(cdf[draw(st.integers(0, cdf.size - 1))])
    elif kind == "end":
        u = float(cdf[-1])
    else:
        u = float(np.nextafter(cdf[-1], 2.0))
    return p, u


@settings(max_examples=300, deadline=None)
@given(point=cdf_points())
def test_pick_equals_searchsorted(point):
    p, u = point
    want = int(np.searchsorted(p.cdf, u, side="right"))
    if want >= p.vocab_size:
        want = int(p.support()[-1])
    assert _pick(p, u) == want


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**63), path=st.lists(st.integers(0, 2**31), max_size=3),
       n=st.integers(0, 40))
def test_uniforms_equal_single_draws(seed, path, n):
    a, b = RngStream(seed, tuple(path)), RngStream(seed, tuple(path))
    batch = a.uniforms(n)
    singles = [b.uniform() for _ in range(n)]
    assert batch.tolist() == singles
    assert a.draws == b.draws == n
    assert a.uniform() == b.uniform()


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**63), path=st.lists(st.integers(0, 2**31), max_size=3),
       extension=st.lists(st.integers(0, 2**31), max_size=3), used=st.integers(0, 3))
def test_child_equals_fresh_stream(seed, path, extension, used):
    parent = RngStream(seed, tuple(path))
    parent.uniforms(used)
    child = parent.child(*extension)
    fresh = RngStream(seed, tuple(path) + tuple(extension))
    assert (child.seed, child.path, child.draws) == (fresh.seed, fresh.path, 0)
    assert child.uniforms(5).tolist() == fresh.uniforms(5).tolist()
    assert repr(child) == repr(fresh)


def numpy_stream(seed, path):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=path)))


seeds = st.one_of(st.just(0), st.integers(1, 2**32 - 1), st.integers(2**32, 2**64),
                  st.integers(2**128, 2**200))
paths = st.lists(st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**96)), max_size=12)


@settings(max_examples=150, deadline=None)
@example(seeds=[0], paths=[[]], splits=[0], calls=[(0, 1)], child=(0, 0, []))
@example(seeds=[2**130 + 7], paths=[[2**40, 3]], splits=[1], calls=[(0, 3), (0, None), (0, 5)],
         child=(2, 0, [2**33]))
@example(seeds=[5, 6], paths=[[1], [], []], splits=[0, 0, 0], calls=[(0, None)] * 7,
         child=(7, 0, [3]))
# One-word children: the single-int fast path at its edges, and the path
# entries it leaves to the general path (two words, bools, numpy ints).
@example(seeds=[3, 4, 5], paths=[[0], [2**32 - 1], [2**32]], splits=[0, 0, 0],
         calls=[(0, None), (1, 2), (2, None), (0, 3)], child=(2, 1, [2**64]))
@example(seeds=[3, 4, 5], paths=[[np.int64(7)], [np.uint32(2**32 - 1)], [True]],
         splits=[0, 0, 0], calls=[(0, None), (1, None), (2, 3)], child=(1, 0, [np.int64(2)]))
@example(seeds=[9, 2**40], paths=[[2**64], [5, True], []], splits=[0, 1, 0],
         calls=[(1, 1), (0, None)], child=(0, 1, [True]))
@given(seeds=st.lists(seeds, min_size=2, max_size=3),
       paths=st.lists(paths, min_size=3, max_size=3),
       splits=st.lists(st.integers(0, 12), min_size=3, max_size=3),
       calls=st.lists(st.tuples(st.integers(0, 2), st.one_of(st.none(), st.integers(0, 9))),
                      max_size=30),
       child=st.tuples(st.integers(0, 30), st.integers(0, 2),
                       st.lists(st.integers(0, 2**40), max_size=3)))
def test_streams_equal_numpy_philox_under_interleaved_draws(seeds, paths, splits, calls, child):
    """2-3 streams, each built as RngStream(seed, head).child(*tail), draw by
    uniform() (n is None) and uniforms(n) in an interleaved order, so reloads
    land at positions that are not multiples of 4 and single draws leave
    values drawn ahead. `draws` is the reference's position after every call.
    Once, before call `child[0]`, stream `child[1]` takes single draws until
    it holds values drawn ahead, then a child at its path + `child[2]`."""
    streams, refs = [], []
    for seed, path, split in zip(seeds, paths, splits):
        streams.append(RngStream(seed, tuple(path[:split])).child(*path[split:]))
        refs.append(numpy_stream(seed, path))
    at = [0] * len(streams)

    def take_child(i, ext):
        # The first single draw empties a look-ahead holding one value.
        while True:
            assert streams[i].uniform() == refs[i].random()
            at[i] += 1
            if streams[i]._ahead:
                break
        sub = streams[i].child(*ext)
        fresh = numpy_stream(seeds[i], paths[i] + ext)
        assert sub.uniform() == fresh.random()
        assert sub.uniforms(6).tolist() == fresh.random(6).tolist()
        assert sub.draws == 7

    when, which, ext = child
    for step, (i, n) in enumerate(calls):
        if step == when:
            take_child(which % len(streams), ext)
        i %= len(streams)
        if n is None:
            assert streams[i].uniform() == refs[i].random()
            at[i] += 1
        else:
            assert streams[i].uniforms(n).tolist() == refs[i].random(n).tolist()
            at[i] += n
        assert [s.draws for s in streams] == at
    if when >= len(calls):
        take_child(which % len(streams), ext)
    for stream, ref in zip(streams, refs):
        assert stream.uniforms(7).tolist() == ref.random(7).tolist()


def test_streams_equal_numpy_philox_in_threads_drawing_at_once():
    """More threads than cores, switching often, each on its own stream."""
    seeds_paths = [(2**70 + 1, (3, 2**33)), (11, ()), (0, (5,)), (2**40, (1, 2, 3))]
    barrier = threading.Barrier(len(seeds_paths))
    got = {}

    def draw(index, seed, path):
        stream, out = RngStream(seed, path), []
        barrier.wait()
        for step in range(2000):
            out.extend(stream.uniforms(step % 3) if step % 2 else [stream.uniform()])
        got[index] = out

    threads = [threading.Thread(target=draw, args=(i, *sp)) for i, sp in enumerate(seeds_paths)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    for index, (seed, path) in enumerate(seeds_paths):
        assert got[index] == numpy_stream(seed, path).random(len(got[index])).tolist()


def test_threads_reloading_between_their_own_streams_equal_numpy_philox():
    """More threads than cores at once, each alternating among three fresh
    streams of its own, so each thread's scratch generator is reloaded through
    its state dict at nearly every draw, at positions that are not multiples of 4."""
    workers = 3
    barrier = threading.Barrier(workers)
    got = {}

    def draw(index):
        streams = [RngStream(17 + index, (index, j)) for j in range(3)]
        outs = [[] for _ in streams]
        barrier.wait()
        for step in range(1500):
            j = step % 3
            outs[j].extend(streams[j].uniforms(step % 4) if step % 2 else
                           [streams[j].uniform()])
        got[index] = outs

    threads = [threading.Thread(target=draw, args=(i,)) for i in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for index in range(workers):
        for j, out in enumerate(got[index]):
            assert out == numpy_stream(17 + index, (index, j)).random(len(out)).tolist()


def test_a_stream_handed_between_threads_continues_where_it_stopped():
    stream, ref = RngStream(5, (1,)), numpy_stream(5, (1,))
    assert stream.uniform() == ref.random()
    worker = threading.Thread(target=stream.uniforms, args=(3,))
    worker.start()
    worker.join()
    ref.random(3)
    assert stream.uniform() == ref.random()


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 1000), eps=st.sampled_from([0.1, 0.3, 0.9]),
       allow_zeros=st.booleans(), tree=st.booleans())
def test_blend_does_not_memoize_perturbation_rows(seed, eps, allow_zeros, tree):
    pair = make_model_pair(12, 2, seed, eps, allow_zeros=allow_zeros)
    run = dict(K=0, L=0, drafting="tree", factors=(2, 2)) if tree else dict(K=3, L=3)
    spectr_decode(pair.big, pair.small, (1, 2), 24, method=SelectionMethod.kseq(),
                  rng=RngStream(seed), **run)
    perturbation = pair.small._perturbation
    assert perturbation._rows == {}
    assert pair.small._rows
    # The same rows through a memoizing, validating perturbation model.
    memoized = ToyLm(perturbation.vocab_size, perturbation.order, perturbation.seed,
                     allow_zeros=perturbation.allow_zeros)
    for key, row in pair.small._rows.items():
        blend = ((1.0 - eps) * pair.big.next_dist(key).probs
                 + eps * memoized.next_dist(key).probs)
        assert row.probs.tobytes() == (blend / blend.sum()).tobytes()



def brute_force_min_cut(p, q, k):
    """1 - max(0, max_A p(A)^k - q(A)) over every subset A of the vocabulary."""
    worst = 0.0
    for size in range(1, p.vocab_size + 1):
        for subset in itertools.combinations(range(p.vocab_size), size):
            idx = list(subset)
            worst = max(worst, p.probs[idx].sum() ** k - q.probs[idx].sum())
    return 1.0 - worst


def reference_upper_bound(p, q, k):
    """The subset loop that the chunked alpha_upper_bound must reproduce."""
    v = p.vocab_size
    tuples = tc._tuple_space(p, k, tc.DEFAULT_TUPLE_CAP)
    tuple_mass = np.array([float(np.prod([p[i] for i in t])) for t in tuples])
    tuple_sets = np.array([sum(1 << y for y in set(t)) for t in tuples], dtype=np.int64)
    first_term = np.minimum(q.probs, 1.0 - (1.0 - p.probs) ** k)
    qsum = np.zeros(1 << v)
    for y in range(v):
        bit = 1 << y
        qsum[bit:bit << 1] = qsum[:bit] + q[y]
    best_value, best_key = np.inf, None
    full = (1 << v) - 1
    for subset in range(1 << v):
        members = [y for y in range(v) if subset >> y & 1]
        term1 = float(sum(first_term[y] for y in members))
        outside = qsum[tuple_sets & (full ^ subset)]
        value = term1 + float(np.minimum(tuple_mass, outside).sum())
        key = (len(members), tuple(members))
        if value < best_value or (value == best_value and key < best_key):
            best_value, best_key = value, key
    return best_value, best_key[1]


@st.composite
def otm_instances(draw):
    """(p, q, k) over 2-8 tokens and 1-5 drafts, at most 1024 draft tuples."""
    p, q = draw(st.one_of(distribution_pairs(max_vocab=8), small_pairs()))
    k = draw(st.integers(1, 5))
    assume(p.vocab_size ** k <= 1024)
    return p, q, k


@settings(max_examples=150, deadline=None)
@given(instance=otm_instances())
# Tuple (0, 0) has mass 1.5e-25 and no token of its set in supp(q), and the
# unfilled mass left by the flow rounds to 0.
@example(instance=(ProbVector([3.91180854e-13, 1.0 - 3.91180854e-13]),
                   ProbVector([0.0, 1.0]), 2))
def test_otm_plan_is_optimal_and_set_proportional(instance):
    p, q, k = instance
    plan, alpha = tc.otm_lp_solve(p, q, k)
    plan.validate(p, q)
    # the returned value is the plan's own, not the closed form
    assert alpha == min(max(plan.acceptance(), 0.0), 1.0)
    want = tc.alpha_star(p, q, k)
    assert abs(alpha - want) <= 1e-12
    assert abs(brute_force_min_cut(p, q, k) - want) <= 1e-12
    # the conditional given a draft tuple depends on its distinct set alone
    by_set = {}
    laws = {}
    for t in itertools.product([int(i) for i in p.support()], repeat=k):
        if float(np.prod([p[i] for i in t])) == 0.0:
            continue
        cond = plan.conditional(t).probs
        first = by_set.setdefault(frozenset(t), cond)
        assert np.abs(cond - first).max() <= 1e-12
        # tuples with one distinct set get one law
        assert laws.setdefault(frozenset(t), plan.conditional(t)) is plan.conditional(t)
    entries = plan.entries
    assert abs(plan.acceptance() - sum(m for (t, y), m in entries.items() if y in t)) <= 1e-12
    cols = np.zeros(p.vocab_size)
    for (_, y), m in entries.items():
        cols[y] += m
    assert np.abs(cols - q.probs).max() <= tc.MARGINAL_TOL


@settings(max_examples=150, deadline=None)
@given(instance=otm_instances())
# a zero in p, so supp(p) is smaller than the vocabulary
@example(instance=(ProbVector([0.5, 0.0, 0.3, 0.2]), ProbVector([0.1, 0.4, 0.2, 0.3]), 3))
@example(instance=(ProbVector([0.3, 0.7]), ProbVector([0.6, 0.4]), 1))
# |supp p|^k = 16^3, the tuple cap itself
@example(instance=(ProbVector(np.arange(1.0, 17.0) / 136.0),
                   ProbVector(np.arange(16.0, 0.0, -1.0) / 136.0), 3))
def test_upper_bound_equals_its_subset_loop_and_alpha_star(instance):
    p, q, k = instance
    value, witness = tc.alpha_upper_bound(p, q, k)
    want_value, want_witness = reference_upper_bound(p, q, k)
    assert witness == want_witness
    assert value == want_value
    # the bound is never loose: at S = the min-cut set it is at most alpha*
    assert abs(value - tc.alpha_star(p, q, k)) <= 1e-12


def reference_kseq_conditional(p, q, drafts, params):
    """The numpy scan that KseqScan.law must reproduce bit for bit."""
    out = np.zeros(p.vocab_size)
    survive = 1.0
    for x in drafts:
        accept = min(1.0, q[x] / (params.gamma * p[x]))
        out[x] += survive * accept
        survive *= 1.0 - accept
    return out + survive * params.residual.probs


@st.composite
def scan_instances(draw):
    """(p, q, drafts from supp(p) with repeats, params at gamma* or above)."""
    p, q = draw(st.one_of(distribution_pairs(max_vocab=12), small_pairs()))
    drafts = draw(st.lists(st.sampled_from(p.support().tolist()), min_size=1, max_size=8))
    gamma = tc._gamma_star_or_k(p, q, len(drafts)) * draw(st.sampled_from([1.0, 1.5]))
    return p, q, drafts, tc.kseq_params(p, q, len(drafts), gamma)


@settings(max_examples=300, deadline=None)
@given(instance=scan_instances())
# p = q: beta = 1, so p_acc rounds to 1 and the residual is q itself
@example(instance=(ProbVector([0.5, 0.25, 0.25]), ProbVector([0.5, 0.25, 0.25]), [1, 1, 0, 1],
                   tc.kseq_params(ProbVector([0.5, 0.25, 0.25]),
                                  ProbVector([0.5, 0.25, 0.25]), 4, 1.0)))
# beta = 1 - 1e-13: p_acc rounds to 1 with a nonzero residual
@example(instance=(ProbVector([0.5, 0.5]), ProbVector([0.5 + 1e-13, 0.5 - 1e-13]), [0, 0, 1],
                   tc.kseq_params(ProbVector([0.5, 0.5]),
                                  ProbVector([0.5 + 1e-13, 0.5 - 1e-13]), 3, 1.0)))
def test_kseq_conditional_equals_the_numpy_scan(instance):
    p, q, drafts, params = instance
    law = tc.KseqScan(p, q, len(drafts), params).law(drafts)
    assert np.array_equal(law, reference_kseq_conditional(p, q, drafts, params))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 1000), vocab=st.integers(2, 6), allow_zeros=st.booleans(),
       kind=st.sampled_from(["kseq", "otm_lp"]), live=st.integers(0, 4),
       picks=st.lists(st.integers(0, 2**16), min_size=5, max_size=5))
def test_selector_support_equals_its_flatnonzero_form(seed, vocab, allow_zeros, kind, live,
                                                      picks):
    pair = make_model_pair(vocab, 1, seed, 0.5, allow_zeros=allow_zeros)
    selector = TokenSelector(pair.big, pair.small, SelectionMethod(kind))
    context = (picks[0] % vocab,)
    supp = pair.small.next_dist(context).support().tolist()
    tokens = tuple(supp[i % len(supp)] for i in picks[1:1 + live])
    law = (selector.rule(context, live).law(tokens) if live
           else pair.big.next_dist(context).probs)
    assert _support(law) == [(y, float(law[y])) for y in np.flatnonzero(law > PROB_FLOOR).tolist()]
