"""Token-level draft selection and its acceptance-probability analysis.

Given a draft distribution p and a target distribution q over a shared
vocabulary, the routines here pick one output token from k i.i.d. draft
tokens so that the output is exactly q-distributed, while maximizing the
chance that it comes from the draft set:

* ``KseqScan``: the sequential scan over k drafts, damped by a division
  factor gamma; valid for any gamma >= gamma*, near-linear to compute. It
  runs at gamma* while bisecting gamma* only as far as each draw needs, and
  builds the residual on the first all-reject; given ``kseq_params`` it runs
  at that fixed gamma. At one draft gamma* = 1 and it is the classic
  single-draft accept/resample rule (the maximal coupling).
* ``alpha_star``: the exact optimal acceptance, by min-cut in closed form,
  1 - max(0, max_A p(A)^k - q(A)) over prefixes A of the tokens sorted by
  q/p; O(|vocab| log |vocab|) at any k.
* ``otm_lp_solve``: an optimal transport plan itself, pi(draft-tuple, output)
  with membership cost, as a max-flow from distinct-token sets to tokens,
  stored as one output law per set; it lists every draft tuple, so it is capped.
* ``alpha_upper_bound`` and the closed forms: analytic anchors used to
  cross-check both algorithms.

Both rules, the scan and the plan (``TransportPlan``), have one interface:
``draw(tokens, rng)`` picks the output token for the k draft tokens in
order, and ``law(tokens)`` is that token's exact law, so the decoder and
the exact oracle read the same object. ``kseq_select`` is the scan's draw
that also returns the accepted draft's index.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field
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
# Width at which the gamma* bisection stops.
GAMMA_BRACKET = 1e-9
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
    """Joint distribution over (draft tuple, output token) pairs.

    `sets` maps each sorted distinct-token set S of supp(p)^k to its mass
    P(S) and the one output law of every tuple whose distinct set is S, so a
    tuple t's row is p^k(t) times that law; column marginals reproduce q.
    """

    k: int
    p: ProbVector
    sets: Mapping[tuple[int, ...], tuple[float, ProbVector]]

    def acceptance(self) -> float:
        """Probability mass on pairs whose output token appears in the tuple."""
        return sum(mass * float(law.probs[list(s)].sum()) for s, (mass, law) in self.sets.items())

    def conditional(self, draft_tuple: tuple[int, ...]) -> ProbVector:
        """Output distribution given an observed draft tuple: its set's law. A
        tuple of other than k tokens raises ValidationError, as a scan does."""
        if len(draft_tuple) != self.k:
            raise ValidationError(f"a rule for {self.k} drafts was given {len(draft_tuple)}")
        entry = self.sets.get(tuple(sorted(set(draft_tuple))))
        if entry is None:
            raise InvalidDraftError(f"draft tuple {draft_tuple} has zero probability under the plan")
        return entry[1]

    def draw(self, tokens: Sequence[TokenId], rng: RngStream) -> TokenId:
        """The output token for these k draft tokens, a sample of their law."""
        return sample(self.conditional(tuple(tokens)), rng)

    def law(self, tokens: Sequence[TokenId]) -> np.ndarray:
        """Exact law of `draw`'s token for these draft tokens."""
        return self.conditional(tokens).probs

    @property
    def entries(self) -> dict[tuple[tuple[int, ...], int], float]:
        """Every (draft tuple, output token) pair with positive mass, for export."""
        probs = self.p.probs.tolist()
        laws = {s: [(y, w) for y, w in enumerate(law.probs.tolist()) if w > 0.0]
                for s, (_, law) in self.sets.items()}
        out = {}
        for t in itertools.product(self.p.support().tolist(), repeat=self.k):
            m = math.prod(probs[i] for i in t)
            for y, w in laws.get(tuple(sorted(set(t))), ()):
                if m * w > 0.0:
                    out[(t, y)] = m * w
        return out

    def csv_rows(self) -> list[tuple[str, int, float]]:
        """(hyphen-joined draft tuple, output token, mass), lexicographic."""
        entries = self.entries
        return [("-".join(str(i) for i in t), y, entries[(t, y)]) for t, y in sorted(entries)]

    def validate(self, p: ProbVector, q: ProbVector, tol: float = MARGINAL_TOL) -> None:
        """Set masses sum to 1 and columns match q; every law is a ProbVector,
        so each tuple's row is p^k(t) by construction."""
        if not np.array_equal(p.probs, self.p.probs):
            raise ValidationError("plan was built for another draft law")
        if abs(math.fsum(mass for mass, _ in self.sets.values()) - 1.0) > tol:
            raise ValidationError("plan set masses do not sum to 1")
        cols = sum(mass * law.probs for mass, law in self.sets.values())
        if np.abs(cols - q.probs).max() > tol:
            raise ValidationError("plan column marginals do not match q")


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


def beta_damped(p: ProbVector, q: ProbVector, gamma: float) -> float:
    """sum_x min(p(x), q(x)/gamma)."""
    return float(np.minimum(p.probs, q.probs / gamma).sum())


def kseq_gamma_star(p: ProbVector, q: ProbVector, k: int) -> float:
    """Smallest valid division factor, solving 1 - (1-beta(g))^k = g*beta(g).

    Binary search on the monotone f(g) = 1 - (1-beta(g))^k - g*beta(g) over
    [1, k] until the bracket is GAMMA_BRACKET wide, or until its midpoint
    rounds to one of its ends (at large k, where floats near gamma are spaced
    wider than the bracket); returns the upper end of the final bracket so
    the result is never below gamma*. Each step (`_bisect`, shared with
    `KseqScan`) reads beta off the sorted breakpoints q/p in [1, k) in
    O(log m), after `_sorted_beta`'s O(|vocab|) pass and O(m log m) sort of
    those m breakpoints. Where that value lies within rounding of deciding
    the other way, `beta_damped` decides, so the result is exactly that of
    bisecting on `beta_damped`.
    """
    _check_same_vocab(p, q)
    if k < 1:
        raise ValidationError("k must be >= 1")
    ratios, p_above, q_below, error = _sorted_beta(p, q, k)
    # |df/db| <= 2k on [0, 1]; the rest covers rounding in evaluating f twice.
    margin = 2.0 * k * error + 16.0 * k * _EPS
    bisect_left = bisect.bisect_left
    lo, hi, gamma = 1.0, float(k), 1.0
    while gamma is not None:
        j = bisect_left(ratios, gamma)
        b = p_above[j] + q_below[j] / gamma
        value = 1.0 - (1.0 - b) ** k - gamma * b
        # Every tabled ratio is >= 1, so at gamma = 1 b is the two sums' ends,
        # and beta_damped decides whether it is above NEG_TOL too.
        if abs(value) <= margin or (gamma == 1.0 and abs(b - NEG_TOL) <= error):
            b, value = _damped(p, q, k, gamma)
        lo, hi, gamma = _bisect(lo, hi, gamma, b, value)
    return hi


def _damped(p: ProbVector, q: ProbVector, k: int, gamma: float) -> tuple[float, float]:
    """beta_damped at gamma, and f(gamma) = 1 - (1 - beta)^k - gamma*beta from it."""
    b = beta_damped(p, q, gamma)
    return b, 1.0 - (1.0 - b) ** k - gamma * b


def _bisect(lo: float, hi: float, gamma: float, b: float, value: float):
    """One step of the gamma* bisection, given beta and f at the probe gamma
    of the bracket [lo, hi] around gamma*.

    Probes go 1, then k, then midpoints; f falls as gamma grows, so
    f(gamma) > 0 puts gamma* above gamma. Returns the narrowed (lo, hi) and
    the next probe, or (hi, hi, None) once hi is gamma*: f(k) > 0, f(1) <= 0,
    a bracket GAMMA_BRACKET wide, or a midpoint that rounds to an end.
    Raises DegenerateSupportError when beta(1) <= NEG_TOL (disjoint supports).
    """
    if gamma == 1.0 and b <= NEG_TOL:
        raise DegenerateSupportError("p and q have disjoint support; gamma* undefined")
    if value > 0.0:
        if gamma == hi:
            return hi, hi, None
        lo = gamma
    elif gamma == 1.0:
        return 1.0, 1.0, None
    else:
        hi = gamma
    if gamma == 1.0:
        return lo, hi, hi
    mid = 0.5 * (lo + hi)
    if hi - lo <= GAMMA_BRACKET or mid in (lo, hi):
        return hi, hi, None
    return lo, hi, mid


def _gamma_star_or_k(p: ProbVector, q: ProbVector, k: int) -> float:
    """gamma*, or k on disjoint supports, where every gamma is valid and the
    scan rejects every draft (acceptance 0)."""
    try:
        return kseq_gamma_star(p, q, k)
    except DegenerateSupportError:
        return float(k)


def _sorted_beta(p: ProbVector, q: ProbVector, k: int):
    """Tables from which beta(g) = sum_{q/p >= g} p + (sum_{q/p < g} q) / g
    over supp(p) is read at any g in [1, k], and a bound on its distance from
    `beta_damped`: with j = bisect_left(ratios, g), beta(g) is
    p_above[j] + q_below[j] / g.

    A ratio q/p below 1 lies below every such g and a ratio >= k at or above
    it, so those tokens enter only as the sum of q that starts q_below and
    the sum of p that ends p_above. Only the m ratios in [1, k) are sorted
    (numpy's default sort; the order within a tie moves only roundings), so
    the tables cost O(|vocab|) plus O(m log m).

    Each of the two sums takes at most n = |supp(p)| roundings of partial
    sums of mass at most about 1 (zero terms add exactly), and a breakpoint
    that rounds to the other side of g moves a term by one rounding, so the
    two values differ by well under (n + 2) * eps; the bound is four times
    that.
    """
    supp = p.probs.nonzero()[0]
    ps, qs = p.probs[supp], q.probs[supp]
    ratios = qs / ps
    below, above = ratios < 1.0, ratios >= k
    middle = ~(below | above)
    breakpoints = ratios[middle]
    order = breakpoints.argsort()
    # Row 0 cumulates p from every ratio >= k down the middle, row 1 q from
    # every ratio < 1 up it: p_above[j] sums p over the middle's sorted
    # entries j.. and the ratios >= k, q_below[j] q over the ratios < 1 and
    # the middle's ..j-1.
    sums = np.empty((2, order.size + 1))
    sums[0, 0] = np.add.reduce(ps[above])
    sums[0, 1:] = ps[middle][order][::-1]
    sums[1, 0] = np.add.reduce(qs[below])
    sums[1, 1:] = qs[middle][order]
    p_above, q_below = sums.cumsum(axis=1).tolist()
    p_above.reverse()
    return (breakpoints[order].tolist(), p_above, q_below,
            4.0 * (supp.size + 8) * _EPS)


def kseq_params(p: ProbVector, q: ProbVector, k: int, gamma: float) -> KseqParams:
    """Compute beta, p_acc and the residual for the scan at this gamma.

    Raises InvalidGammaError when gamma sits below gamma* by more than
    rounding: the residual would then carry genuinely negative mass. Entries
    in [-1e-12, 0) are treated as rounding, clamped and renormalized.
    """
    _check_same_vocab(p, q)
    if k < 1:
        raise ValidationError("k must be >= 1")
    if not gamma >= 1.0 - NEG_TOL:  # so that NaN is refused too
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


def _acceptance(p: ProbVector, q: ProbVector, x: TokenId, gamma: float) -> float:
    """The scan's chance of accepting a draft of token x, min(1, q/(gamma*p))."""
    px = p.probs.item(x)
    if px <= 0.0:
        raise InvalidDraftError(f"draft token {x} has zero probability under p")
    return min(1.0, q.probs.item(x) / (gamma * px))


class KseqScan:
    """The scan's rule for k drafts of p against q, solved only as far as its draws need.

    The scan accepts a draft x with uniform u iff u < a(gamma*), where
    a(g) = min(1, q(x)/(g*p(x))). a never rises with g, in floating point too
    (fl(g*p) does not fall and q over it does not rise), so within a bracket
    [lo, hi] around gamma*, u < a(hi) accepts and u >= a(lo) rejects exactly
    as the test at gamma* would. Only a u between the two takes a step of
    gamma*'s bisection (`_bisect`, on `beta_damped`, so every bracket end is
    the full bisection's own), until lo == hi == gamma*. The bracket starts at
    [1, k]; at k = 1 it is [1, 1] and never steps. `params` (gamma*, beta,
    p_acc and the residual) is solved on first read: when every draft is
    rejected, or for the exact law. Until then the rule holds its two rows
    and a few floats. Given `params`, the rule runs at their fixed gamma:
    KseqScan(p, q, k, kseq_params(p, q, k, gamma)).

    `draw` (through `kseq_select`) and `law` take exactly k draft tokens;
    another count raises ValidationError, since gamma* is k's own.
    """

    __slots__ = ("p", "q", "k", "lo", "hi", "_probe", "_params")

    def __init__(self, p: ProbVector, q: ProbVector, k: int,
                 params: KseqParams | None = None):
        """The rule for (p, q, k) at gamma*, or, given `params`, at params.gamma."""
        _check_same_vocab(p, q)
        if k < 1:
            raise ValidationError("k must be >= 1")
        self.p, self.q, self.k = p, q, k
        self.lo, self.hi = (1.0, float(k)) if params is None else (params.gamma, params.gamma)
        self._probe = 1.0
        self._params = params

    def accepts(self, x: TokenId, u: float) -> bool:
        """Whether a draft of token x with uniform u is accepted, u < a(gamma*)."""
        px = self.p.probs.item(x)
        if px <= 0.0:
            raise InvalidDraftError(f"draft token {x} has zero probability under p")
        qx = self.q.probs.item(x)
        while u >= min(1.0, qx / (self.hi * px)):
            if u >= min(1.0, qx / (self.lo * px)):
                return False
            self._step()
        return True

    def _step(self) -> None:
        gamma = self._probe
        try:
            self.lo, self.hi, self._probe = _bisect(self.lo, self.hi, gamma,
                                                    *_damped(self.p, self.q, self.k, gamma))
        except DegenerateSupportError:
            # As `_gamma_star_or_k`: every gamma is valid and the scan runs at k.
            self.lo = self.hi = float(self.k)

    @property
    def params(self) -> KseqParams:
        """kseq_params at gamma*, solved on first read; the bracket closes on gamma*."""
        if self._params is None:
            gamma = self.hi if self.lo == self.hi else _gamma_star_or_k(self.p, self.q, self.k)
            self._params = kseq_params(self.p, self.q, self.k, gamma)
            self.lo = self.hi = gamma
        return self._params

    def draw(self, tokens: Sequence[TokenId], rng: RngStream) -> TokenId:
        """The output token for these k draft tokens, scanned in order."""
        return kseq_select(self, tokens, rng)[0]

    def law(self, tokens: Sequence[TokenId]) -> np.ndarray:
        """Exact law of `draw`'s token for these draft tokens, scanned in order at
        `params.gamma`: survive * residual plus each token's accepted mass,
        summed in scan order."""
        if len(tokens) != self.k:
            raise ValidationError(f"a rule for {self.k} drafts was given {len(tokens)}")
        params = self.params
        accepted: dict[TokenId, float] = {}
        survive = 1.0
        for x in tokens:
            accept = _acceptance(self.p, self.q, x, params.gamma)
            accepted[x] = accepted.get(x, 0.0) + survive * accept
            survive *= 1.0 - accept
        law = survive * params.residual.probs
        for x, mass in accepted.items():
            law[x] += mass
        return law


def kseq_select(scan: KseqScan, drafts: Sequence[TokenId], rng: RngStream,
                ) -> tuple[TokenId, Optional[int]]:
    """Scan k drafts in order under `scan`, accepting draft i iff its uniform
    u < min(1, q/(gamma*p)).

    Returns (token, index of the accepted draft) or (residual sample, None).
    The test is left-closed, the convention `sample` uses, so a draft q gives
    no mass is never accepted. For i.i.d. p-drafts and gamma >= gamma*, the
    returned token is exactly q-distributed. `KseqScan.draw` calls this
    module-level name, so a wrapper set here sees every draw.
    """
    if len(drafts) != scan.k:
        raise ValidationError(f"a rule for {scan.k} drafts was given {len(drafts)}")
    for i, x in enumerate(drafts):
        if scan.accepts(x, rng.uniform()):
            return x, i
    return sample(scan.params.residual, rng), None


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


def power_exceeds(base: int, exp: int, cap: int) -> bool:
    """Whether base**exp > cap >= 1, found without computing base**exp: exp is
    compared with the largest exponent the cap allows."""
    return base > 1 and exp > max(e for e in range(cap.bit_length()) if base ** e <= cap)


def _check_tuple_space(size: int, k: int, cap: int) -> None:
    """Refuse to list size^k draft tuples of k tokens each above the cap: the
    cap bounds the tuples' count and their length, since a one-token support
    has one tuple, yet k tokens long."""
    if k > cap or power_exceeds(size, k, cap):
        raise SizeLimitError(
            f"|supp p|^k = {size}^{k} tuples of {k} tokens exceed the tuple cap {cap}")


def _tuple_space(p: ProbVector, k: int, cap: int) -> list[tuple[int, ...]]:
    supp = p.support().tolist()
    _check_tuple_space(len(supp), k, cap)
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


def otm_lp_solve(p: ProbVector, q: ProbVector, k: int) -> tuple[TransportPlan, float]:
    """An optimal transport plan with membership cost, and its acceptance.

    The plan pi(x^k, y) charges 1 whenever y is not among the tuple's
    distinct tokens, so a tuple's cost depends on its distinct set S alone.
    A max-flow sends P(S), the mass of the tuples whose distinct set is S,
    to the tokens y in S, each taking at most q(y). The mass it leaves
    unsent is coupled with the mass it leaves unfilled in proportion; after
    a max-flow no y in an unsent S is unfilled, so this accepts nothing.
    Every tuple takes its set's conditional (proportional disaggregation),
    which keeps the plan optimal, so the plan stores one law per set.
    Planning lists every tuple of supp(p)^k, hence the cap. Returns (plan,
    the plan's own acceptance), which equals alpha_star(p, q, k) up to
    rounding; the two are computed apart, so each checks the other.
    """
    _check_same_vocab(p, q)
    if k < 1:
        raise ValidationError("k must be >= 1")
    probs = p.probs.tolist()
    set_mass: dict[tuple[int, ...], float] = {}
    for t in _tuple_space(p, k, DEFAULT_TUPLE_CAP):
        s = tuple(sorted(set(t)))
        set_mass[s] = set_mass.get(s, 0.0) + math.prod(probs[i] for i in t)

    # Residual capacities; sets are tuples, tokens ints.
    ys = [int(y) for y in q.support()]
    res: dict = {"source": dict(set_mass), "sink": {}}
    res.update((s, {y: math.inf for y in s if q[y] > 0.0}) for s in set_mass)
    res.update((y, {"sink": q[y]}) for y in ys)
    _max_flow(res, "source", "sink")

    left = math.fsum(res[y]["sink"] for y in ys)
    # Where rounding leaves unsent mass but no unfilled mass, q takes it.
    share = {y: res[y]["sink"] / left if left > 0.0 else q[y] for y in ys}
    sets = {}
    for s, mass in set_mass.items():
        # S's unsent mass spread by `share`, plus what the flow sent from S.
        row = [res["source"][s] * share.get(y, 0.0) for y in range(p.vocab_size)]
        for y in s:
            if y in res:
                row[y] += res[y][s]
        total = math.fsum(row)
        if total > 0.0:
            sets[s] = (mass, ProbVector(np.array(row) / total))
    plan = TransportPlan(k=k, p=p, sets=sets)
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


def alpha_upper_bound(p: ProbVector, q: ProbVector, k: int) -> tuple[float, tuple[int, ...]]:
    """Information-theoretic ceiling on the optimal acceptance probability.

    Minimizes, over subsets S of the vocabulary,
        sum_{y in S} min(q(y), 1-(1-p(y))^k)
      + sum_{x^k} min(prod p(x_i), q(distinct(x^k) \\ S)),
    and returns (value, minimizing subset). The subset witness is the
    smallest minimizer by (size, lexicographic order). The tuples of
    supp(p)^k are one outer-product grid, built in k - 1 numpy calls, of
    masses and distinct-token bitmasks; the subsets are summed over it in
    chunks. That costs O(2^|vocab| * |supp p|^k), exponential in both
    |vocab| and k, hence the caps: about 1 s at |vocab| = 16, k = 3, and
    under 1 ms at up to 4096 tuples over a few tokens. A one-token support
    lists one tuple, of k tokens, so k is capped too. The minimum equals
    alpha_star(p, q, k): at S = the min-cut set A the two sums are at most
    q(A) and 1 - p(A)^k.
    It stays as an independent check on the closed form and the plan.
    """
    _check_same_vocab(p, q)
    if k < 1:
        raise ValidationError("k must be >= 1")
    v = p.vocab_size
    if v > UPPER_BOUND_MAX_VOCAB:
        raise SizeLimitError(f"|vocab| = {v} exceeds subset-enumeration cap {UPPER_BOUND_MAX_VOCAB}")
    supp = p.support()
    _check_tuple_space(supp.size, k, DEFAULT_TUPLE_CAP)
    # Every tuple of supp(p)^k in itertools.product order, as an outer-product
    # grid: its mass multiplied left to right and its distinct-token bitmask.
    masses, bits = p.probs[supp], np.left_shift(1, supp)
    tuple_mass, tuple_sets = masses, bits
    for _ in range(k - 1):
        tuple_mass = np.multiply.outer(tuple_mass, masses).ravel()
        tuple_sets = np.bitwise_or.outer(tuple_sets, bits).ravel()

    first_term = np.minimum(q.probs, 1.0 - (1.0 - p.probs) ** k)
    # Sums over every bitmask, adding members in ascending order.
    inside = _subset_sums(first_term)
    qsum = _subset_sums(q.probs)

    full = (1 << v) - 1
    values = np.empty(1 << v)
    step = max(1, _UPPER_BOUND_CHUNK // tuple_mass.size)
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
