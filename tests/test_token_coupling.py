import math
import signal
import time
import tracemalloc

import numpy as np
import pytest

from spectr import token_coupling as tc
from spectr.spectr_decode import SelectionMethod, TokenSelector
from spectr.prob_core import ProbVector, RngStream, random_prob_vector, tv_distance
from spectr.token_coupling import (
    DEFAULT_TUPLE_CAP,
    AcceptanceReport,
    DegenerateSupportError,
    InvalidDraftError,
    InvalidGammaError,
    KseqScan,
    SizeLimitError,
    ValidationError,
    alpha_bernoulli_closed_form,
    alpha_star,
    alpha_uniform_closed_form,
    alpha_upper_bound,
    beta_damped,
    kseq_acceptance,
    kseq_gamma_star,
    kseq_output_marginal,
    kseq_params,
    kseq_select,
    otm_lp_solve,
    power_exceeds,
)

U4 = ProbVector.uniform(4)
U2_OF_4 = ProbVector.uniform(4, support=2)


def random_pair(seed, vocab, case):
    rng = RngStream(seed, path=(case,))
    return (random_prob_vector(vocab, rng.child(0)),
            random_prob_vector(vocab, rng.child(1)))


# ---------------------------------------------------------------------------
# maximal coupling
# ---------------------------------------------------------------------------

def maximal(p, q, draft, rng):
    """The single-draft rule: (token, whether the draft was accepted)."""
    token, index = kseq_select(KseqScan(p, q, 1), [draft], rng)
    return token, index is not None


def test_maximal_accepts_everything_when_p_equals_q():
    p = ProbVector([0.3, 0.2, 0.5])
    rng = RngStream(1)
    for draft in (0, 1, 2):
        token, accepted = maximal(p, p, draft, rng)
        assert accepted and token == draft


def test_maximal_zero_probability_draft_rejected():
    p, q = ProbVector([1.0, 0.0]), ProbVector([0.5, 0.5])
    with pytest.raises(InvalidDraftError):
        KseqScan(p, q, 1).draw([1], RngStream(0))
    # the scan's exact law rejects the same draft, by the same per-draft check
    with pytest.raises(InvalidDraftError):
        KseqScan(p, q, 2, kseq_params(p, q, 2, 2.0)).law([0, 1])


def test_maximal_bernoulli_one_vs_half_accepts_half_the_time():
    # drafts are always token 1; acceptance ratio is q(1)/p(1) = 1/2
    p = ProbVector([0.0, 1.0])
    q = ProbVector([0.5, 0.5])
    rng = RngStream(77)
    accepts = sum(maximal(p, q, 1, rng)[1] for _ in range(10**5))
    assert accepts / 10**5 == pytest.approx(0.5, abs=0.01)


def test_maximal_acceptance_rate_is_one_minus_tv():
    p = ProbVector([0.6, 0.3, 0.1])
    q = ProbVector([0.2, 0.3, 0.5])
    rng = RngStream(5)
    n = 10**5
    from spectr.prob_core import sample_many
    drafts = sample_many(p, rng.child(0), n)
    sel = rng.child(1)
    accepts = sum(maximal(p, q, int(d), sel)[1] for d in drafts)
    assert accepts / n == pytest.approx(1.0 - tv_distance(p, q), abs=0.01)


def test_maximal_output_is_q_distributed():
    p = ProbVector([0.6, 0.3, 0.1])
    q = ProbVector([0.2, 0.3, 0.5])
    rng = RngStream(15)
    n = 10**5
    from spectr.prob_core import sample_many
    drafts = sample_many(p, rng.child(0), n)
    sel = rng.child(1)
    counts = np.zeros(3)
    rule = KseqScan(p, q, 1)
    for d in drafts:
        counts[rule.draw([int(d)], sel)] += 1
    assert np.abs(counts / n - q.probs).max() <= 0.01


class _LastUniformRng:
    """Stub stream whose every uniform is 1 - 1e-12."""

    def uniform(self):
        return 1.0 - 1e-12


class _FixedRowLm:
    """Stub model with one next-token row for every context."""

    order = 0

    def __init__(self, row: ProbVector):
        self.row = row

    def next_dist(self, context):
        return self.row


# 0 < tv(p, q) = 1e-10 < SUM_TOL: a draft of token 0 is rejected with probability 2e-10
NEAR_P = ProbVector([0.5 + 1e-10, 0.5 - 1e-10])
NEAR_Q = ProbVector([0.5, 0.5])


def test_maximal_rejects_a_draft_when_tv_is_tiny():
    # token 0 is accepted with probability 1 - 2e-10, so u = 1 - 1e-12 rejects
    # it, and the residual (q - min(p, q)) / tv puts all its mass on token 1
    assert maximal(NEAR_P, NEAR_Q, 0, _LastUniformRng()) == (1, False)


def test_maximal_oracle_law_when_tv_is_tiny():
    big, small = _FixedRowLm(NEAR_Q), _FixedRowLm(NEAR_P)
    selector = TokenSelector(big, small, SelectionMethod.maximal())
    for draft in (0, 1):
        law = selector.rule((0,), 1).law((draft,))
        assert law.sum() == pytest.approx(1.0, abs=1e-15)
        assert law.min() >= 0.0
    # averaged over the draft's law, the output is q
    mixed = sum(NEAR_P[d] * selector.rule((0,), 1).law((d,)) for d in (0, 1))
    assert np.allclose(mixed, NEAR_Q.probs, atol=1e-15)


# ---------------------------------------------------------------------------
# gamma*
# ---------------------------------------------------------------------------

def test_gamma_star_is_one_for_single_draft():
    p, q = random_pair(31, 5, 0)
    assert kseq_gamma_star(p, q, 1) == 1.0


def test_gamma_star_uniform_closed_form():
    # U(d) vs U(d/r) has gamma* = r * (1 - (1 - 1/r)^k)
    assert kseq_gamma_star(U4, U2_OF_4, 2) == pytest.approx(1.5, abs=1e-6)
    u120 = ProbVector.uniform(120)
    u60 = ProbVector.uniform(120, support=60)
    assert kseq_gamma_star(u120, u60, 8) == pytest.approx(2 * (1 - 0.5**8), abs=1e-6)


def test_gamma_star_ends_where_floats_are_wider_apart_than_the_bracket():
    # gamma* is near k = 1e8, where adjacent floats lie about 1.5e-8 apart: the
    # bisection's midpoint rounds to an end of the bracket before the bracket
    # is 1e-9 wide. Stated bound 10 s; it ends in well under one.
    p = ProbVector([0.999999999999, 0.000000000001])
    q = ProbVector([0.000000000001, 0.999999999999])
    k = 100_000_000

    def hung(signum, frame):
        raise TimeoutError("kseq_gamma_star did not end within 10 s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(10)
    try:
        g = kseq_gamma_star(p, q, k)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert 1.0 <= g <= k
    # never below gamma*: the scan accepts with probability at most gamma * beta
    params = kseq_params(p, q, k, g)
    assert params.p_acc <= g * params.beta


def test_gamma_star_degenerate_cases():
    p = ProbVector([0.4, 0.6])
    assert kseq_gamma_star(p, p, 4) == 1.0
    with pytest.raises(DegenerateSupportError):
        kseq_gamma_star(ProbVector([1.0, 0.0]), ProbVector([0.0, 1.0]), 2)


def test_gamma_star_bracket_and_f_monotonicity():
    for case in range(10):
        p, q = random_pair(37, 4, case)
        for k in (2, 3, 5, 8):
            g = kseq_gamma_star(p, q, k)
            ratio_cap = float(np.max(q.probs / np.maximum(p.probs, 1e-300)))
            assert 1.0 - 1e-9 <= g <= min(k, ratio_cap) + 1e-6

            def f(gamma):
                b = beta_damped(p, q, gamma)
                return 1 - (1 - b) ** k - gamma * b

            grid = np.linspace(1.0, k, 25)
            values = [f(g_) for g_ in grid]
            assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_gamma_star_validity_side():
    # the returned gamma never sits below gamma*: the residual must be valid
    for case in range(10):
        p, q = random_pair(41, 5, case)
        for k in (2, 4, 7):
            g = kseq_gamma_star(p, q, k)
            kseq_params(p, q, k, g)  # must not raise


# ---------------------------------------------------------------------------
# kseq params / select / marginal / acceptance
# ---------------------------------------------------------------------------

def test_kseq_params_p_equals_q():
    p = ProbVector([0.4, 0.6])
    params = kseq_params(p, p, 3, 1.0)
    assert params.beta == pytest.approx(1.0)
    assert params.p_acc == 1.0
    # every draft is accepted; the unreachable residual is the stand-in q
    assert np.array_equal(params.residual.probs, p.probs)


def test_kseq_params_uniform_example():
    # beta = sum min(1/4, (1/2)/1.5 over the support of q) = 2 * 1/4 = 0.5
    params = kseq_params(U4, U2_OF_4, 2, 1.5)
    assert params.beta == pytest.approx(0.5, abs=1e-12)
    assert params.p_acc == pytest.approx(1 - (1 - 0.5) ** 2, abs=1e-12)
    assert np.allclose(params.residual.probs, [0.5, 0.5, 0.0, 0.0])


def test_kseq_params_acceptance_identity():
    for case in range(8):
        p, q = random_pair(43, 4, case)
        for k in (1, 3, 6):
            g = kseq_gamma_star(p, q, k)
            params = kseq_params(p, q, k, g)
            assert params.p_acc == pytest.approx(1 - (1 - params.beta) ** k, abs=1e-12)


def test_kseq_params_invalid_gamma():
    p = ProbVector([0.25, 0.75])
    q = ProbVector([0.75, 0.25])
    with pytest.raises(InvalidGammaError):
        kseq_params(p, q, 4, 1.0)
    with pytest.raises(ValidationError):
        kseq_params(p, q, 4, 0.5)


def test_kseq_params_rejects_a_nan_gamma_as_below_one():
    p, q = ProbVector([0.5, 0.5]), ProbVector([0.3, 0.7])
    for k in (1, 2):
        with pytest.raises(ValidationError, match="gamma nan must be >= 1"):
            kseq_params(p, q, k, float("nan"))


def test_kseq_select_first_draft_when_p_equals_q():
    p = ProbVector([0.4, 0.6])
    token, idx = kseq_select(KseqScan(p, p, 3, kseq_params(p, p, 3, 1.0)), [1, 0, 0],
                             RngStream(3))
    assert token == 1 and idx == 0


def test_kseq_select_accept_index_is_geometric():
    p, q = random_pair(47, 4, 0)
    k = 4
    g = kseq_gamma_star(p, q, k)
    params = kseq_params(p, q, k, g)
    beta = params.beta
    rule = KseqScan(p, q, k, params)
    n = 10**5
    rng = RngStream(8)
    from spectr.prob_core import sample_many
    drafts = sample_many(p, rng.child(0), n * k).reshape(n, k)
    sel = rng.child(1)
    counts = np.zeros(k + 1)
    for row in drafts:
        _, idx = kseq_select(rule, row, sel)
        counts[k if idx is None else idx] += 1
    expected = [(1 - beta) ** i * beta for i in range(k)] + [(1 - beta) ** k]
    assert np.abs(counts / n - expected).max() <= 0.01


def test_kseq_select_marginal_monte_carlo():
    # 1e6 seeded trials: the output law matches q to +-0.005 per symbol
    p = ProbVector([0.45, 0.3, 0.15, 0.1])
    q = ProbVector([0.1, 0.2, 0.3, 0.4])
    k = 3
    rule = KseqScan(p, q, k, kseq_params(p, q, k, kseq_gamma_star(p, q, k)))
    n = 10**6
    rng = RngStream(7)
    from spectr.prob_core import sample_many
    drafts = sample_many(p, rng.child(0), n * k).reshape(n, k)
    sel = rng.child(1)
    counts = np.zeros(4)
    for row in drafts:
        counts[rule.draw(row, sel)] += 1
    assert np.abs(counts / n - q.probs).max() <= 0.005


def test_kseq_output_marginal_equals_q():
    p = ProbVector([0.25, 0.75])
    q = ProbVector([0.75, 0.25])
    g = kseq_gamma_star(p, q, 4)
    marg = kseq_output_marginal(p, q, 4, g)
    assert np.abs(marg.probs - q.probs).max() <= 1e-9
    # trivial case
    assert np.allclose(kseq_output_marginal(p, p, 1, 1.0).probs, p.probs)


def test_kseq_output_marginal_across_gamma_choices():
    # validity must hold for gamma*, a slightly larger gamma, and gamma = k
    for case in range(10):
        p, q = random_pair(83, 5, case)
        for k in (2, 4, 8):
            g = kseq_gamma_star(p, q, k)
            for gamma in (g, g + 0.1, float(k)):
                marg = kseq_output_marginal(p, q, k, gamma)
                assert np.abs(marg.probs - q.probs).max() <= 1e-9


def test_kseq_output_marginal_with_point_mass_drafts():
    # q/p is unbounded where p has no mass; the residual must cover it
    p = ProbVector([1.0, 0.0])
    q = ProbVector([0.5, 0.5])
    g = kseq_gamma_star(p, q, 2)
    # solving 1 - (1 - 0.5/g)^2 = 0.5 gives g = 0.5/(1 - sqrt(0.5)) = 1 + sqrt(0.5)
    assert g == pytest.approx(1.0 + math.sqrt(0.5), abs=1e-6)
    marg = kseq_output_marginal(p, q, 2, g)
    assert np.abs(marg.probs - q.probs).max() <= 1e-9


def test_kseq_acceptance_values():
    p = ProbVector([0.4, 0.6])
    assert kseq_acceptance(p, p, 5, 1.0) == 1.0
    for k in (1, 2, 4):
        g = kseq_gamma_star(U4, U2_OF_4, k)
        assert kseq_acceptance(U4, U2_OF_4, k, g) == pytest.approx(1 - 0.5**k, abs=1e-9)
    # bernoulli cross-check against the closed form
    p = ProbVector.bernoulli(0.25)
    q = ProbVector.bernoulli(0.75)
    g = kseq_gamma_star(p, q, 2)
    assert kseq_acceptance(p, q, 2, g) >= (1 - 1 / math.e) * alpha_bernoulli_closed_form(0.25, 0.75, 2)


def test_kseq_select_disjoint_support_falls_back_to_q():
    p = ProbVector([1.0, 0.0])
    q = ProbVector([0.0, 1.0])
    params = kseq_params(p, q, 2, 2.0)
    assert params.p_acc == 0.0
    assert np.allclose(params.residual.probs, q.probs)
    token, idx = kseq_select(KseqScan(p, q, 2, params), [0, 0], RngStream(2))
    assert token == 1 and idx is None


class _RejectingRng:
    """Stub stream whose every uniform is 1 - 1e-9: rejects any draft whose
    acceptance probability is below that."""

    def uniform(self):
        return 1.0 - 1e-9


def test_kseq_select_rejects_all_when_p_acc_rounds_to_one():
    # at gamma*, p_acc = 1 - 8e-15 rounds to 1, yet each draft of token 0
    # is accepted with probability 0.99996 only
    p = ProbVector([0.5 + 1e-5, 0.5 - 1e-5])
    q = ProbVector([0.5, 0.5])
    gamma = kseq_gamma_star(p, q, 3)
    params = kseq_params(p, q, 3, gamma)
    assert params.p_acc == 1.0
    assert np.allclose(params.residual.probs, q.probs, atol=1e-12)
    # the exact oracle gives the all-reject mass, about 6e-14, to that residual
    cond = KseqScan(p, q, 3, params).law((0, 0, 0))
    assert abs(cond.sum() - 1.0) <= 1e-15
    # at the given gamma*, and solving gamma* on this all-reject
    for rule in (KseqScan(p, q, 3, params), KseqScan(p, q, 3)):
        token, idx = kseq_select(rule, [0, 0, 0], _RejectingRng())
        # the unrounded residual is q itself, and u = 1 - 1e-9 picks its last token
        assert (token, idx) == (1, None)


class _FixedUniformRng:
    """Stub stream whose every uniform is u."""

    def __init__(self, u: float):
        self.u = u

    def uniform(self):
        return self.u


def test_a_draft_the_target_gives_no_mass_is_rejected_at_u_zero():
    # a = q(1)/p(1) = 0, and a draft is accepted iff u < a, the left-closed
    # convention `sample` uses, so even u = 0 rejects it; the residual is
    # (q - min(p, q/gamma)) normalised, all on token 0
    p, q = ProbVector([0.5, 0.5]), ProbVector([1.0, 0.0])
    assert maximal(p, q, 1, _FixedUniformRng(0.0)) == (0, False)
    gamma = kseq_gamma_star(p, q, 2)
    for rule in (KseqScan(p, q, 2, kseq_params(p, q, 2, gamma)), KseqScan(p, q, 2)):
        assert kseq_select(rule, [1, 1], _FixedUniformRng(0.0)) == (0, None)


def test_a_scan_refuses_a_draft_count_other_than_its_k():
    # gamma*(2) = 1.659 < gamma*(3) = 2.242, so a k = 2 scan run over 3 drafts
    # would give the law [0.126, 0.379, 0.495], 0.105 in total variation from q
    p, q = ProbVector([0.6, 0.3, 0.1]), ProbVector([0.1, 0.3, 0.6])
    assert kseq_gamma_star(p, q, 2) < kseq_gamma_star(p, q, 3)
    for scan in (KseqScan(p, q, 2), KseqScan(p, q, 2, kseq_params(p, q, 2, 2.0))):
        for drafts in ([0, 1, 2], [0]):
            with pytest.raises(ValidationError, match="for 2 drafts was given"):
                kseq_select(scan, drafts, RngStream(0))
            with pytest.raises(ValidationError, match="for 2 drafts was given"):
                scan.draw(drafts, RngStream(0))
            with pytest.raises(ValidationError, match="for 2 drafts was given"):
                scan.law(drafts)
        assert kseq_select(scan, [0, 1], RngStream(0))[0] in (0, 1, 2)


def test_a_plan_refuses_a_draft_count_other_than_its_k():
    # the plan's sets are keyed by distinct tokens, so (0, 1, 1) would find the
    # set {0, 1}; the count is checked first, with the error a scan raises
    p, q = ProbVector([0.6, 0.3, 0.1]), ProbVector([0.1, 0.3, 0.6])
    plan = otm_lp_solve(p, q, 2)[0]
    for drafts in ((0, 1, 1), (0,)):
        for read in (plan.conditional, plan.law, lambda t: plan.draw(t, RngStream(0))):
            with pytest.raises(ValidationError, match="a rule for 2 drafts was given"):
                read(drafts)
    assert plan.draw([0, 1], RngStream(0)) in (0, 1, 2)
    # a tuple of the right length that the plan gives no mass is an invalid draft
    zero = otm_lp_solve(ProbVector([0.5, 0.5, 0.0]), q, 2)[0]
    with pytest.raises(InvalidDraftError, match="zero probability under the plan"):
        zero.draw([0, 2], RngStream(0))


def test_a_scan_on_near_disjoint_supports_runs_at_k():
    # beta(1) = 1e-13 is below NEG_TOL, so the bisection's first step finds the
    # supports disjoint and the bracket closes at k, as _gamma_star_or_k does
    p, q = ProbVector([1.0, 0.0]), ProbVector([1e-13, 1.0 - 1e-13])
    with pytest.raises(DegenerateSupportError):
        kseq_gamma_star(p, q, 2)
    scan = KseqScan(p, q, 2)
    # a(2) = 5e-14 <= u < a(1) = 1e-13: undecided in [1, 2], rejected at k
    assert scan.accepts(0, 7e-14) is False
    assert (scan.lo, scan.hi) == (2.0, 2.0)
    assert scan.params.gamma == 2.0


def test_a_scan_solves_gamma_star_and_its_parameters_only_on_an_all_reject(monkeypatch):
    p, q = random_pair(19, 8, 0)
    k = 4
    gamma = kseq_gamma_star(p, q, k)
    want = kseq_params(p, q, k, gamma)
    # q/p < 1 at x, so a(g) = q(x)/(g*p(x)) < 1 falls strictly on [1, k]
    x = int(np.argmin(q.probs / p.probs))
    a = q[x] / (gamma * p[x])
    calls = []

    def counted(name):
        solve = getattr(tc, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return solve(*args, **kwargs)
        return wrapper

    for name in ("kseq_gamma_star", "kseq_params"):
        monkeypatch.setattr(tc, name, counted(name))
    scan = KseqScan(p, q, k)
    # accepted at once, and accepted after bisection steps just below a(gamma*)
    for u in (0.0, a * (1.0 - 1e-3)):
        assert kseq_select(scan, [x] * k, _FixedUniformRng(u)) == (x, 0)
    assert calls == []
    assert scan.lo <= gamma <= scan.hi < k and scan.lo < scan.hi
    # u = 1 - 1e-12 rejects every draft, so the residual is read, and solved once
    for _ in range(2):
        _, idx = kseq_select(scan, [x] * k, _LastUniformRng())
        assert idx is None
        assert calls == ["kseq_gamma_star", "kseq_params"]
    assert scan.lo == scan.hi == scan.params.gamma == gamma
    assert scan.params.p_acc == want.p_acc
    assert np.array_equal(scan.params.residual.probs, want.residual.probs)


# ---------------------------------------------------------------------------
# exact OTM: closed form and max-flow plan
# ---------------------------------------------------------------------------

def test_otm_k1_equals_overlap():
    for case in range(12):
        p, q = random_pair(53, 5, case)
        _, alpha = otm_lp_solve(p, q, 1)
        assert alpha == pytest.approx(float(np.minimum(p.probs, q.probs).sum()), abs=1e-7)


def test_otm_matches_bernoulli_closed_form():
    p = ProbVector.bernoulli(0.25)
    for b in (0.1, 0.75):
        q = ProbVector.bernoulli(b)
        for k in (2, 4):
            _, alpha = otm_lp_solve(p, q, k)
            assert alpha == pytest.approx(alpha_bernoulli_closed_form(0.25, b, k), abs=1e-7)


def test_otm_matches_uniform_closed_form():
    _, alpha = otm_lp_solve(U4, U2_OF_4, 3)
    assert alpha == pytest.approx(0.875, abs=1e-7)


def test_otm_plan_marginals_and_acceptance():
    p, q = random_pair(59, 4, 1)
    plan, alpha = otm_lp_solve(p, q, 2)
    plan.validate(p, q)  # marginal tolerances
    assert plan.acceptance() == pytest.approx(alpha, abs=1e-9)
    cond = plan.conditional((0, 1))
    assert cond.probs.sum() == pytest.approx(1.0, abs=1e-9)


def test_otm_plan_csv_rows_sorted():
    plan, _ = otm_lp_solve(ProbVector.bernoulli(0.25), ProbVector.bernoulli(0.75), 2)
    rows = plan.csv_rows()
    keys = [(r[0], r[1]) for r in rows]
    assert keys == sorted(keys)
    assert all(len(r) == 3 for r in rows)


def test_otm_cap_enforced():
    p = ProbVector.uniform(70)
    with pytest.raises(SizeLimitError):
        otm_lp_solve(p, p, 2)  # 70^2 > 4096


def test_otm_cap_counts_the_support():
    # |vocab|^k = 70^2 is over the cap, but the plan lists only |supp p|^k = 4 tuples
    p = ProbVector.uniform(70, support=2)
    q = ProbVector.uniform(70, support=3)
    plan, alpha = otm_lp_solve(p, q, 2)
    assert alpha == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert alpha_star(p, q, 2) == pytest.approx(2.0 / 3.0, abs=1e-12)
    plan.validate(p, q)
    assert {t for t, _ in plan.entries} == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_otm_at_the_tuple_cap_is_quick_and_small():
    # 16^3 = 4096 tuples, exactly the default cap; a dense simplex tableau
    # for this instance would be 4113 x 69649 float64, about 2.3 GB
    p, q = random_pair(83, 16, 0)
    tracemalloc.start()
    start = time.perf_counter()
    try:
        plan, alpha = otm_lp_solve(p, q, 3)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elapsed < 10.0
    assert peak < 64 * 2**20
    assert plan.acceptance() == pytest.approx(alpha_star(p, q, 3), abs=1e-12)


def test_alpha_star_has_no_cap():
    # U(d) drafts against U(d/r): 1 - (1 - 1/r)^k, far beyond any tuple cap
    for d, r, k in ((120, 2.0, 8), (4096, 4.0, 50), (12, 3.0, 1)):
        got = alpha_star(ProbVector.uniform(d), ProbVector.uniform(d, support=int(d / r)), k)
        assert got == pytest.approx(alpha_uniform_closed_form(d, r, k), abs=1e-12)
    assert alpha_star(ProbVector([1.0, 0.0]), ProbVector([0.0, 1.0]), 3) == 0.0


def test_optimality_sandwich_chain():
    # (1-(1-1/k)^k) * upper <= kseq(gamma*) <= otm alpha <= upper
    for case in range(8):
        p, q = random_pair(89, 4, case)
        for k in (1, 2, 3):
            g = kseq_gamma_star(p, q, k)
            ks = kseq_acceptance(p, q, k, g)
            _, alpha = otm_lp_solve(p, q, k)
            ub, _ = alpha_upper_bound(p, q, k)
            factor = 1 - (1 - 1 / k) ** k
            assert factor * ub <= ks + 1e-7
            assert ks <= alpha + 1e-7
            assert alpha <= ub + 1e-7


def test_k1_reduction_three_ways():
    # at a single draft: otm alpha = 1 - tv = kseq acceptance at gamma 1
    for case in range(10):
        p, q = random_pair(97, 5, case)
        want = 1.0 - tv_distance(p, q)
        _, alpha = otm_lp_solve(p, q, 1)
        assert alpha == pytest.approx(want, abs=1e-7)
        assert kseq_acceptance(p, q, 1, 1.0) == pytest.approx(want, abs=1e-12)


def test_otm_monotone_in_k():
    for case in range(6):
        p, q = random_pair(61, 4, case)
        alphas = [otm_lp_solve(p, q, k)[1] for k in (1, 2, 3)]
        assert alphas[0] <= alphas[1] + 1e-7
        assert alphas[1] <= alphas[2] + 1e-7


def test_otm_consistency_trend():
    # bounded q/p: acceptance rises toward 1 with k; for U(4)/U(2) the
    # LP matches the closed form while caps allow, and the closed form
    # (exact for uniform pairs) passes 0.99 by k = 7
    for k in (1, 2, 3, 4):
        _, alpha = otm_lp_solve(U4, U2_OF_4, k)
        assert alpha == pytest.approx(alpha_uniform_closed_form(4, 2, k), abs=1e-7)
    assert alpha_uniform_closed_form(4, 2, 7) >= 0.99


# ---------------------------------------------------------------------------
# upper bound and closed forms
# ---------------------------------------------------------------------------

def test_alpha_upper_bound_k1_is_overlap():
    for case in range(8):
        p, q = random_pair(67, 5, case)
        ub, _ = alpha_upper_bound(p, q, 1)
        assert ub == pytest.approx(float(np.minimum(p.probs, q.probs).sum()), abs=1e-9)


def test_alpha_upper_bound_uniform_value():
    for k in (1, 2, 3):
        ub, subset = alpha_upper_bound(U4, U2_OF_4, k)
        assert ub == pytest.approx(1 - 0.5**k, abs=1e-9)
    # deterministic witness across calls
    assert alpha_upper_bound(U4, U2_OF_4, 2)[1] == alpha_upper_bound(U4, U2_OF_4, 2)[1]


def test_alpha_upper_bound_dominates_lp():
    for case in range(8):
        p, q = random_pair(71, 4, case)
        for k in (1, 2, 3):
            ub, _ = alpha_upper_bound(p, q, k)
            _, alpha = otm_lp_solve(p, q, k)
            assert alpha <= ub + 1e-7


def test_alpha_upper_bound_caps():
    with pytest.raises(SizeLimitError):
        alpha_upper_bound(ProbVector.uniform(17), ProbVector.uniform(17), 1)
    with pytest.raises(SizeLimitError):
        alpha_upper_bound(ProbVector.uniform(16), ProbVector.uniform(16), 4)  # 16^4 > 4096


def test_a_point_mass_lists_one_tuple_of_at_most_the_cap_in_tokens():
    point, half = ProbVector([0.0, 1.0]), ProbVector([0.5, 0.5])
    assert alpha_upper_bound(point, half, DEFAULT_TUPLE_CAP) == (0.5, ())
    plan, alpha = otm_lp_solve(point, half, DEFAULT_TUPLE_CAP)
    assert alpha == 0.5 and list(plan.sets) == [(1,)]
    for solve in (alpha_upper_bound, otm_lp_solve):
        with pytest.raises(SizeLimitError, match="tuple cap"):
            solve(point, half, DEFAULT_TUPLE_CAP + 1)


def test_power_exceeds_agrees_with_the_power():
    for cap in (1, 2, 4095, 4096, 4097, 1 << 14):
        for base in range(0, 18):
            for exp in range(0, 16):
                assert power_exceeds(base, exp, cap) == (base ** exp > cap), (base, exp, cap)
    # a support of one token never exceeds a cap, whatever the exponent
    assert not power_exceeds(1, 10**12, 1)
    assert power_exceeds(3, 10**12, 4096)


def test_bernoulli_closed_form_values():
    assert alpha_bernoulli_closed_form(0.25, 0.25, 5) == 1.0
    assert alpha_bernoulli_closed_form(0.25, 0.75, 2) == pytest.approx(0.6875)
    for p_head in (0.1, 0.4, 0.9):
        for q_head in (0.0, 0.3, 1.0):
            want = 1 - abs(p_head - q_head)
            assert alpha_bernoulli_closed_form(p_head, q_head, 1) == pytest.approx(want, abs=1e-12)
    with pytest.raises(ValidationError):
        alpha_bernoulli_closed_form(1.2, 0.5, 1)


def test_uniform_closed_form_values():
    assert alpha_uniform_closed_form(8, 1.0, 3) == 1.0
    assert alpha_uniform_closed_form(120, 2.0, 4) == pytest.approx(1 - 0.5**4)
    with pytest.raises(ValidationError):
        alpha_uniform_closed_form(10, 3.0, 2)  # 10/3 is not an integer


def test_acceptance_report_bounds():
    AcceptanceReport("kseq", 0.5, 2, {})
    with pytest.raises(ValidationError):
        AcceptanceReport("kseq", 1.5, 2, {})
