"""Token-level draft selection and its acceptance-probability analysis.

Given a draft distribution p and a target distribution q over a shared
vocabulary, the routines here pick one output token from k i.i.d. draft
tokens so that the output is exactly q-distributed, while maximizing the
chance that it comes from the draft set:

* ``kseq_select``: sequential scan over k drafts, damped by a division
  factor gamma; valid for any gamma >= gamma*, near-linear to compute. At
  one draft and gamma = 1 it is ``maximal_coupling_select``, the classic
  single-draft accept/resample rule.
* ``alpha_star``: the exact optimal acceptance, by min-cut in closed form,
  1 - max(0, max_A p(A)^k - q(A)) over prefixes A of the tokens sorted by
  q/p; O(|vocab| log |vocab|) at any k.
* ``otm_lp_solve``: an optimal transport plan itself, pi(draft-tuple, output)
  with membership cost, as a max-flow from distinct-token sets to tokens;
  it lists every draft tuple, so it is capped.
* ``alpha_upper_bound`` and the closed forms: analytic anchors used to
  cross-check both algorithms.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Optional, Sequence

import numpy as np

from .prob_core import (
    NEG_TOL,
    ProbVector,
    RngStream,
    SpectrError,
    TokenId,
    ValidationError,
    _check_same_vocab,
    sample,
)

# Largest |supp(p)|^k the plan and the exhaustive bound will enumerate.
DEFAULT_TUPLE_CAP = 4096
# Subset enumeration in alpha_upper_bound is 2^|vocab|.
UPPER_BOUND_MAX_VOCAB = 16
# Elements of the (subsets x tuples) block alpha_upper_bound evaluates at once.
_UPPER_BOUND_CHUNK = 1 << 12

MARGINAL_TOL = 1e-7
DEFAULT_GAMMA_DELTA = 1e-9
_EPS = float(np.finfo(np.float64).eps)


class InvalidDraftError(SpectrError):
    """A draft token has zero probability under p, so it cannot be a p-sample."""


class InvalidGammaError(SpectrError):
    """gamma is below gamma*; the residual distribution would go negative."""


class DegenerateSupportError(SpectrError):
    """p and q have disjoint support (total variation 1); gamma* is undefined."""


class SizeLimitError(SpectrError):
    """Instance exceeds an enumeration cap."""


@dataclass(frozen=True)
class TransportPlan:
    """Explicit joint distribution over (draft tuple, output token) pairs.

    Row marginals reproduce the i.i.d. draft law p^k, column marginals
    reproduce q. Only strictly positive masses are stored; draft tuples are
    ordered lexicographically in serialized form.
    """

    k: int
    vocab_size: int
    entries: Mapping[tuple[tuple[int, ...], int], float]

    def acceptance(self) -> float:
        """Probability mass on pairs whose output token appears in the tuple."""
        return sum(m for (t, y), m in self.entries.items() if y in t)

    def conditional(self, draft_tuple: tuple[int, ...]) -> ProbVector:
        """Output distribution given an observed draft tuple."""
        row = self._rows.get(tuple(draft_tuple))
        total = 0.0 if row is None else row.sum()
        if total <= 0.0:
            raise InvalidDraftError(f"draft tuple {draft_tuple} has zero probability under the plan")
        return ProbVector(row / total)

    @cached_property
    def _rows(self) -> dict[tuple[int, ...], np.ndarray]:
        """Joint masses indexed by draft tuple, built on the first lookup."""
        rows: dict[tuple[int, ...], np.ndarray] = {}
        for (t, y), m in self.entries.items():
            row = rows.get(t)
            if row is None:
                row = rows[t] = np.zeros(self.vocab_size)
            row[y] += m
        return rows

    def csv_rows(self) -> list[tuple[str, int, float]]:
        """(hyphen-joined draft tuple, output token, mass), lexicographic."""
        keys = sorted(self.entries)
        return [("-".join(str(i) for i in t), y, self.entries[(t, y)]) for t, y in keys]

    def validate(self, p: ProbVector, q: ProbVector, tol: float = MARGINAL_TOL) -> None:
        rows: dict[tuple[int, ...], float] = {}
        cols = np.zeros(self.vocab_size)
        for (t, y), m in self.entries.items():
            if m < -NEG_TOL:
                raise ValidationError(f"negative plan mass {m!r} at {(t, y)}")
            rows[t] = rows.get(t, 0.0) + m
            cols[y] += m
        if np.abs(cols - q.probs).max() > tol:
            raise ValidationError("plan column marginals do not match q")
        supp = [int(i) for i in p.support()]
        probs = p.probs.tolist()
        for t in itertools.product(supp, repeat=self.k):
            expected = math.prod(probs[i] for i in t)
            if abs(rows.get(t, 0.0) - expected) > tol:
                raise ValidationError(f"plan row marginal at {t} is {rows.get(t, 0.0)}, want {expected}")


@dataclass(frozen=True)
class KseqParams:
    """Derived quantities of the sequential scan at a given gamma.

    beta = sum_x min(p(x), q(x)/gamma) is the per-draft acceptance mass,
    p_acc = 1 - (1 - beta)^k the chance the scan accepts anything, and
    residual the correction law used when it does not.
    """

    gamma: float
    beta: float
    p_acc: float
    residual: ProbVector


@dataclass(frozen=True)
class AcceptanceReport:
    """One acceptance-probability figure plus how it was obtained."""

    method: str  # maximal | kseq | otm_lp | upper_bound | closed_form
    alpha: float
    k: int
    metadata: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if not -1e-12 <= self.alpha <= 1.0 + 1e-12:
            raise ValidationError(f"alpha {self.alpha!r} outside [0, 1]")
        object.__setattr__(self, "alpha", min(max(self.alpha, 0.0), 1.0))


def maximal_coupling_select(p: ProbVector, q: ProbVector, draft: TokenId,
                            rng: RngStream) -> tuple[TokenId, bool]:
    """Accept the draft with probability min(1, q/p), else sample the residual:
    `kseq_select` at one draft with gamma = 1. When the draft is p-distributed
    the returned token is exactly q-distributed, and acceptance happens with
    probability 1 - tv(p, q).
    """
    token, index = kseq_select(p, q, [draft], 1.0, rng)
    return token, index is not None


def beta_damped(p: ProbVector, q: ProbVector, gamma: float) -> float:
    """sum_x min(p(x), q(x)/gamma)."""
    return float(np.minimum(p.probs, q.probs / gamma).sum())


def kseq_gamma_star(p: ProbVector, q: ProbVector, k: int,
                    delta: float = DEFAULT_GAMMA_DELTA) -> float:
    """Smallest valid division factor, solving 1 - (1-beta(g))^k = g*beta(g).

    Binary search on the monotone f(g) = 1 - (1-beta(g))^k - g*beta(g) over
    [1, k]; returns the upper end of the final bracket so the result is never
    below gamma*. Each step reads beta off the sorted breakpoints q/p in
    O(log |vocab|), after one O(|vocab| log |vocab|) sort. Where that value
    lies within rounding of deciding the other way, `beta_damped` decides,
    so the result is exactly that of bisecting on `beta_damped`.
    """
    _check_same_vocab(p, q)
    if k < 1:
        raise ValidationError("k must be >= 1")
    if not 0.0 < delta < math.inf:
        raise ValidationError("delta must be positive and finite")
    beta, error = _sorted_beta(p, q)
    b = beta(1.0)
    if abs(b - NEG_TOL) <= error:
        b = beta_damped(p, q, 1.0)
    if b <= NEG_TOL:
        raise DegenerateSupportError("p and q have disjoint support; gamma* undefined")

    def f(b: float, gamma: float) -> float:
        return 1.0 - (1.0 - b) ** k - gamma * b

    # |df/db| <= 2k on [0, 1]; the rest covers rounding in evaluating f twice.
    margin = 2.0 * k * error + 16.0 * k * _EPS

    def positive(gamma: float) -> bool:
        value = f(beta(gamma), gamma)
        if abs(value) <= margin:
            value = f(beta_damped(p, q, gamma), gamma)
        return value > 0.0

    if not positive(1.0):
        return 1.0
    lo, hi = 1.0, float(k)
    if positive(hi):
        return hi
    while hi - lo > delta:
        mid = 0.5 * (lo + hi)
        if positive(mid):
            lo = mid
        else:
            hi = mid
    return hi


def _gamma_star_or_k(p: ProbVector, q: ProbVector, k: int,
                     delta: float = DEFAULT_GAMMA_DELTA) -> float:
    """gamma*, or k on disjoint supports, where every gamma is valid and the
    scan rejects every draft (acceptance 0)."""
    try:
        return kseq_gamma_star(p, q, k, delta)
    except DegenerateSupportError:
        return float(k)


def _sorted_beta(p: ProbVector, q: ProbVector):
    """beta(g) = sum_{q/p >= g} p + (sum_{q/p < g} q) / g over supp(p), and
    a bound on its distance from `beta_damped`.

    Each of the two sums takes at most n = |supp(p)| roundings of partial
    sums of mass at most about 1 (zero terms add exactly), and a breakpoint
    that rounds to the other side of g moves a term by one rounding, so the
    two values differ by well under (n + 2) * eps; the bound is four times
    that.
    """
    supp = np.flatnonzero(p.probs)
    ps, qs = p.probs[supp], q.probs[supp]
    ratios = qs / ps
    order = ratios.argsort(kind="stable")
    ratios = ratios[order].tolist()
    # p_above[j] sums p over sorted entries j.., q_below[j] sums q over ..j-1.
    p_above = ps[order][::-1].cumsum()[::-1].tolist()
    p_above.append(0.0)
    q_below = [0.0]
    q_below.extend(qs[order].cumsum().tolist())

    def beta(gamma: float) -> float:
        j = bisect.bisect_left(ratios, gamma)
        return p_above[j] + q_below[j] / gamma

    return beta, 4.0 * (supp.size + 8) * _EPS


def kseq_params(p: ProbVector, q: ProbVector, k: int, gamma: float) -> KseqParams:
    """Compute beta, p_acc and the residual for the scan at this gamma.

    Raises InvalidGammaError when gamma sits below gamma* by more than
    rounding: the residual would then carry genuinely negative mass. Entries
    in [-1e-12, 0) are treated as rounding, clamped and renormalized.
    """
    _check_same_vocab(p, q)
    if k < 1:
        raise ValidationError("k must be >= 1")
    if gamma < 1.0 - NEG_TOL:
        raise ValidationError(f"gamma {gamma!r} must be >= 1")
    b = beta_damped(p, q, gamma)
    p_acc = 1.0 - (1.0 - b) ** k
    if b <= 0.0:
        # Disjoint supports: nothing can be accepted and the correction is q itself.
        return KseqParams(gamma=gamma, beta=b, p_acc=0.0, residual=ProbVector(q.probs.copy()))
    accepted_share = np.minimum(p.probs, q.probs / gamma) * (p_acc / b)
    if p_acc >= 1.0 - NEG_TOL:
        # p_acc rounds to 1, yet the scan may still reject every draft (with
        # probability below NEG_TOL): keep the residual as it was before that
        # rounding, or q where every entry of it rounds to zero.
        raw = np.maximum(q.probs - accepted_share, 0.0)
        total = raw.sum()
        residual = ProbVector(raw / total) if total > 0.0 else q
        return KseqParams(gamma=gamma, beta=b, p_acc=1.0, residual=residual)
    raw = (q.probs - accepted_share) / (1.0 - p_acc)
    if raw.min() < -NEG_TOL:
        raise InvalidGammaError(
            f"gamma {gamma!r} below gamma*: residual entry {raw.min():.3e} is negative")
    raw = np.where(raw < 0.0, 0.0, raw)
    return KseqParams(gamma=gamma, beta=b, p_acc=p_acc, residual=ProbVector(raw / raw.sum()))


def kseq_select(p: ProbVector, q: ProbVector, drafts: Sequence[TokenId], gamma: float,
                rng: RngStream, params: KseqParams | None = None,
                ) -> tuple[TokenId, Optional[int]]:
    """Scan drafts in order, accepting draft i with probability min(1, q/(gamma*p)).

    Returns (token, index of the accepted draft) or (residual sample, None).
    For i.i.d. p-drafts and gamma >= gamma*, the returned token is exactly
    q-distributed. `params` may carry a precomputed kseq_params(p, q, k, gamma)
    to amortize repeated calls.
    """
    if params is None:
        params = kseq_params(p, q, len(drafts), gamma)
    for i, x in enumerate(drafts):
        if p[x] <= 0.0:
            raise InvalidDraftError(f"draft token {x} has zero probability under p")
        accept = min(1.0, q[x] / (gamma * p[x]))
        if rng.uniform() <= accept:
            return x, i
    return sample(params.residual, rng), None


def kseq_output_marginal(p: ProbVector, q: ProbVector, k: int, gamma: float) -> ProbVector:
    """Exact analytic law of the scan's output token.

    min(p, q/gamma) * (1-(1-beta)^k)/beta + (1-p_acc) * residual. A validity
    oracle: for gamma >= gamma* this must equal q entrywise to 1e-9.
    """
    params = kseq_params(p, q, k, gamma)
    if params.beta > 0.0:
        accepted = np.minimum(p.probs, q.probs / gamma) * (params.p_acc / params.beta)
    else:
        accepted = np.zeros(p.vocab_size)
    return ProbVector(accepted + (1.0 - params.p_acc) * params.residual.probs)


def kseq_acceptance(p: ProbVector, q: ProbVector, k: int, gamma: float) -> float:
    """Probability the scan accepts one of the k drafts, 1 - (1 - beta)^k."""
    return kseq_params(p, q, k, gamma).p_acc


def _tuple_space(p: ProbVector, k: int, cap: int) -> list[tuple[int, ...]]:
    supp = [int(i) for i in p.support()]
    if len(supp) ** k > cap:
        raise SizeLimitError(
            f"|supp p|^k = {len(supp)}^{k} exceeds the tuple cap {cap}")
    return list(itertools.product(supp, repeat=k))


def alpha_star(p: ProbVector, q: ProbVector, k: int) -> float:
    """Optimal acceptance probability of k i.i.d. p-drafts against target q.

    By max-flow/min-cut on the membership-cost transport,
        alpha* = 1 - max(0, max_A p(A)^k - q(A)),
    and a maximizing A is a prefix of supp(p) sorted by q/p ascending (where
    p(A)^k - q(A) is largest, every x in A has q/p <= k p(A)^(k-1) and every
    other token q/p >= k p(A)^(k-1)). One sort, so O(|vocab| log |vocab|)
    at any k, with no cap.
    """
    _check_same_vocab(p, q)
    if k < 1:
        raise ValidationError("k must be >= 1")
    supp = np.flatnonzero(p.probs)
    ps, qs = p.probs[supp], q.probs[supp]
    order = (qs / ps).argsort(kind="stable")
    excess = float((ps[order].cumsum() ** k - qs[order].cumsum()).max())
    return min(max(1.0 - max(excess, 0.0), 0.0), 1.0)


def otm_lp_solve(p: ProbVector, q: ProbVector, k: int,
                 cap: int = DEFAULT_TUPLE_CAP) -> tuple[TransportPlan, float]:
    """An optimal transport plan with membership cost, and its acceptance.

    The plan pi(x^k, y) charges 1 whenever y is not among the tuple's
    distinct tokens, so a tuple's cost depends on its distinct set S alone.
    A max-flow sends P(S), the mass of the tuples whose distinct set is S,
    to the tokens y in S, each taking at most q(y). The mass it leaves
    unsent is coupled with the mass it leaves unfilled in proportion; after
    a max-flow no y in an unsent S is unfilled, so this accepts nothing.
    Every tuple takes its set's conditional (proportional disaggregation),
    which keeps the plan optimal. The plan lists every tuple of supp(p)^k,
    hence the cap. Returns (plan, the plan's own acceptance), which equals
    alpha_star(p, q, k) up to rounding; the two are computed apart, so each
    checks the other.
    """
    _check_same_vocab(p, q)
    if k < 1:
        raise ValidationError("k must be >= 1")
    tuples = _tuple_space(p, k, cap)
    probs = p.probs.tolist()
    tuple_mass = [math.prod(probs[i] for i in t) for t in tuples]
    tuple_set = [tuple(sorted(set(t))) for t in tuples]
    set_mass: dict[tuple[int, ...], float] = {}
    for s, m in zip(tuple_set, tuple_mass):
        set_mass[s] = set_mass.get(s, 0.0) + m

    # Residual capacities; sets are tuples, tokens ints.
    ys = [int(y) for y in q.support()]
    res: dict = {"source": dict(set_mass), "sink": {}}
    res.update((s, {y: math.inf for y in s if q[y] > 0.0}) for s in set_mass)
    res.update((y, {"sink": q[y]}) for y in ys)
    _max_flow(res, "source", "sink")

    left = math.fsum(res[y]["sink"] for y in ys)
    # Where rounding leaves unsent mass but no unfilled mass, q takes it.
    share = {y: res[y]["sink"] / left if left > 0.0 else q[y] for y in ys}
    conditional = {}
    for s in set_mass:
        row = {y: res[y][s] for y in s if y in res and res[y][s] > 0.0}
        unsent = res["source"][s]
        for y, w in share.items():
            if unsent * w > 0.0:
                row[y] = row.get(y, 0.0) + unsent * w
        total = math.fsum(row.values())
        conditional[s] = {y: w / total for y, w in row.items()}
    entries = {(t, y): m * w for t, s, m in zip(tuples, tuple_set, tuple_mass)
               for y, w in conditional[s].items() if m * w > 0.0}
    plan = TransportPlan(k=k, vocab_size=p.vocab_size, entries=entries)
    plan.validate(p, q)
    return plan, min(max(plan.acceptance(), 0.0), 1.0)


def _max_flow(res: dict, source, sink) -> None:
    """Dinic's maximum flow, in place on residual capacities res[u][v].

    Each augmentation subtracts the path's bottleneck, which never exceeds
    a residual and equals one, so in floating point too residuals stay
    nonnegative, one edge empties exactly, and the search ends as it does
    in exact arithmetic.
    """
    for u in list(res):
        for v in res[u]:
            res[v].setdefault(u, 0.0)
    while True:
        level = {source: 0}
        frontier = [source]
        while frontier and sink not in level:
            reached = []
            for u in frontier:
                for v, c in res[u].items():
                    if c > 0.0 and v not in level:
                        level[v] = level[u] + 1
                        reached.append(v)
            frontier = reached
        if sink not in level:
            return
        dead: set = set()
        while _push(res, level, dead, source, sink, math.inf) > 0.0:
            pass


def _push(res: dict, level: dict, dead: set, u, sink, limit: float) -> float:
    """One augmenting path from u along the level graph; its bottleneck, or 0."""
    if u == sink:
        return limit
    for v, c in res[u].items():
        if c > 0.0 and level.get(v) == level[u] + 1 and v not in dead:
            sent = _push(res, level, dead, v, sink, min(limit, c))
            if sent > 0.0:
                res[u][v] -= sent
                res[v][u] += sent
                return sent
    dead.add(u)
    return 0.0


def alpha_upper_bound(p: ProbVector, q: ProbVector, k: int,
                      cap: int = DEFAULT_TUPLE_CAP,
                      ) -> tuple[float, tuple[int, ...]]:
    """Information-theoretic ceiling on the optimal acceptance probability.

    Minimizes, over subsets S of the vocabulary,
        sum_{y in S} min(q(y), 1-(1-p(y))^k)
      + sum_{x^k} min(prod p(x_i), q(distinct(x^k) \\ S)),
    and returns (value, minimizing subset). The subset witness is the
    smallest minimizer by (size, lexicographic order). Exponential in both
    |vocab| and k, hence the caps. The minimum equals alpha_star(p, q, k):
    at S = the min-cut set A the two sums are at most q(A) and 1 - p(A)^k.
    It stays as an independent check on the closed form and the plan.
    """
    _check_same_vocab(p, q)
    if k < 1:
        raise ValidationError("k must be >= 1")
    v = p.vocab_size
    if v > UPPER_BOUND_MAX_VOCAB:
        raise SizeLimitError(f"|vocab| = {v} exceeds subset-enumeration cap {UPPER_BOUND_MAX_VOCAB}")
    tuples = _tuple_space(p, k, cap)
    tuple_mass = np.array([float(np.prod([p[i] for i in t])) for t in tuples])
    tuple_sets = np.array([_mask(t) for t in tuples], dtype=np.int64)

    first_term = np.minimum(q.probs, 1.0 - (1.0 - p.probs) ** k)
    # Sums over every bitmask, adding members in ascending order.
    inside = _subset_sums(first_term)
    qsum = _subset_sums(q.probs)

    full = (1 << v) - 1
    values = np.empty(1 << v)
    step = max(1, _UPPER_BOUND_CHUNK // len(tuples))
    for lo in range(0, 1 << v, step):
        subsets = np.arange(lo, min(lo + step, 1 << v))
        outside = qsum[tuple_sets & (full ^ subsets)[:, None]]
        values[subsets] = inside[subsets] + np.minimum(tuple_mass, outside).sum(axis=1)
    best = values.min()
    # Of the tied bitmasks keep the fewest members, then, token by token from
    # the lowest, those holding it if any does: the least member tuple.
    ties = np.flatnonzero(values == best)
    sizes = sum((ties >> y) & 1 for y in range(v))
    ties = ties[sizes == sizes.min()]
    for y in range(v):
        held = (ties >> y) & 1 == 1
        if held.any():
            ties = ties[held]
    witness = tuple(y for y in range(v) if int(ties[0]) >> y & 1)
    return float(best), witness


def _subset_sums(values: np.ndarray) -> np.ndarray:
    """sums[mask] = sum of values[y] over the bits y of mask, by subset-sum DP."""
    sums = np.zeros(1 << values.size)
    for y, value in enumerate(values):
        bit = 1 << y
        sums[bit:bit << 1] = sums[:bit] + value
    return sums


def _mask(tokens: tuple[int, ...]) -> int:
    m = 0
    for t in tokens:
        m |= 1 << t
    return m


def alpha_bernoulli_closed_form(p_head: float, q_head: float, k: int) -> float:
    """Optimal acceptance for Ber(p_head) drafts against a Ber(q_head) target:
    min(q, 1-(1-p)^k) + min(1-q, 1-p^k)."""
    if not 0.0 <= p_head <= 1.0 or not 0.0 <= q_head <= 1.0:
        raise ValidationError("bernoulli parameters must lie in [0, 1]")
    if k < 1:
        raise ValidationError("k must be >= 1")
    return (min(q_head, 1.0 - (1.0 - p_head) ** k)
            + min(1.0 - q_head, 1.0 - p_head ** k))


def alpha_uniform_closed_form(d: int, r: float, k: int) -> float:
    """Optimal acceptance for U(d) drafts against U(d/r): 1 - (1 - 1/r)^k."""
    if d < 1:
        raise ValidationError("d must be a positive integer")
    if r < 1.0:
        raise ValidationError("r must be >= 1")
    if k < 1:
        raise ValidationError("k must be >= 1")
    target = d / r
    if abs(target - round(target)) > 1e-9 or round(target) < 1:
        raise ValidationError(f"d/r = {target!r} must be a positive integer")
    return 1.0 - (1.0 - 1.0 / r) ** k
