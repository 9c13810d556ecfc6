"""Sequence-level draft selection and the end-to-end decoders.

`draft_selection` converts a draft forest into 1..L+1 tokens whose law is the
big model's chain rule; `spectr_decode` iterates it, `baseline_decode` is the
serial reference, and block efficiency / simulated speedup summarize traces.
"""

from __future__ import annotations

import json
import math
import weakref
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .prob_core import ProbVector, RngStream, SpectrError, ValidationError, sample
from .lm_sim import CostModel, ToyLm
from .draft_gen import DraftNode, DraftSet, sample_iid_drafts, build_prefix_tree_drafts
from . import token_coupling as tc


# Conditional entries at or below this are left out of `TokenSelector.support`.
PROB_FLOOR = 1e-15


class UndefinedMetricError(SpectrError):
    """Metric has no value (zero serial calls, or an all-zero cost model)."""


@dataclass(frozen=True)
class SelectionMethod:
    """How the token-level transport plan is chosen at every depth.

    kind "kseq" is the sequential scan, "maximal" the single-draft rule (the
    scan at its one draft, with gamma = 1 under either policy), "otm_lp" an
    exact optimal plan, `otm_lp_solve`'s max-flow over distinct-token sets
    (subject to its default tuple cap). gamma_policy "gamma_star" re-solves
    gamma* for the live draft count at every depth; "k_initial" reuses the
    initial draft count as a fixed division factor (raised to the live count
    if that ever exceeds it, which keeps prefix-tree selection valid).
    """

    kind: str
    gamma_policy: str = "gamma_star"

    def __post_init__(self):
        if self.kind not in ("maximal", "kseq", "otm_lp"):
            raise ValidationError(f"unknown selection method {self.kind!r}")
        if self.gamma_policy not in ("gamma_star", "k_initial"):
            raise ValidationError(f"unknown gamma policy {self.gamma_policy!r}")

    @classmethod
    def maximal(cls) -> "SelectionMethod":
        return cls(kind="maximal")

    @classmethod
    def kseq(cls, gamma_policy: str = "gamma_star") -> "SelectionMethod":
        return cls(kind="kseq", gamma_policy=gamma_policy)

    @classmethod
    def otm_lp(cls) -> "SelectionMethod":
        return cls(kind="otm_lp")


@dataclass(frozen=True)
class IterationRecord:
    drafts_used: int
    draft_length: int
    accepted_count: int
    extra_token_emitted: bool


@dataclass(frozen=True)
class DecodeTrace:
    """Record of one decoding run."""

    method: str
    emitted_tokens: tuple[int, ...]
    serial_big_calls: int
    per_iteration: tuple[IterationRecord, ...]
    simulated_time: float

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "tokens": list(self.emitted_tokens),
            "serial_big_calls": self.serial_big_calls,
            "per_iteration": [
                {
                    "drafts_used": rec.drafts_used,
                    "draft_length": rec.draft_length,
                    "accepted_count": rec.accepted_count,
                    "extra_token_emitted": rec.extra_token_emitted,
                }
                for rec in self.per_iteration
            ],
            "simulated_time": self.simulated_time,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"


class TokenSelector:
    """Token-level selection for one (big, small, method), memoised per context.

    `select` draws the token and `conditional` gives its exact law, both from
    one memo of scan parameters (which carry gamma) and plans keyed by the
    two models' memo keys of the context and the live-draft count, so the
    exact oracle checks the decoder's own values. The live drafts are draws
    from the draft model, so their law is small.next_dist(context). With no
    live drafts the token is a fresh big-model sample.
    Models are held by weak reference: a shared memo keeps neither alive.
    """

    def __init__(self, big: ToyLm, small: ToyLm, method: SelectionMethod):
        self._big = weakref.ref(big)
        self._small = weakref.ref(small)
        self.method = method
        self.memo: dict = {}

    def select(self, context: tuple[int, ...], tokens: list[int], k_initial: int,
               rng: RngStream) -> int:
        """Draw the token given the live draft tokens in order."""
        big = self._big()
        q = big.next_dist(context)
        if not tokens:
            return sample(q, rng)
        k = len(tokens)
        p = self._draft_law(context, k)
        ckey = (big.memo_key(context), self._small().memo_key(context))
        if self.method.kind == "otm_lp":
            return sample(self._plan(p, q, ckey, k).conditional(tuple(tokens)), rng)
        params = self._kseq(p, q, ckey, k, k_initial)
        return tc.kseq_select(p, q, tokens, params.gamma, rng, params=params)[0]

    def conditional(self, context: tuple[int, ...], tokens: tuple[int, ...],
                    k_initial: int) -> np.ndarray:
        """Law of `select`'s token; read-only."""
        return self._law(context, tokens, k_initial)[0]

    def support(self, context: tuple[int, ...], tokens: tuple[int, ...],
                k_initial: int) -> list[tuple[int, float]]:
        """(token, probability) over the entries of `conditional` above PROB_FLOOR."""
        return self._law(context, tokens, k_initial)[1]

    def _law(self, context, tokens, k_initial):
        ckey = (self._big().memo_key(context), self._small().memo_key(context))
        out = self.memo.get(("law", ckey, tokens, k_initial))
        if out is None:
            law = self._solve_law(context, ckey, tokens, k_initial)
            law.setflags(write=False)
            out = self.memo[("law", ckey, tokens, k_initial)] = (
                law, [(int(y), float(law[y])) for y in np.flatnonzero(law > PROB_FLOOR)])
        return out

    def _solve_law(self, context, ckey, tokens, k_initial) -> np.ndarray:
        q = self._big().next_dist(context)
        k = len(tokens)
        if not k:
            return q.probs
        p = self._draft_law(context, k)
        if self.method.kind == "otm_lp":
            return self._plan(p, q, ckey, k).conditional(tokens).probs
        return self._kseq_conditional(p, q, tokens, self._kseq(p, q, ckey, k, k_initial))

    def _draft_law(self, context, k) -> ProbVector:
        if self.method.kind == "maximal" and k != 1:
            raise ValidationError("maximal selection is only valid with a single draft")
        return self._small().next_dist(context)

    def _memo(self, key, solve):
        """solve(), kept under `key`."""
        out = self.memo.get(key)
        if out is None:
            out = self.memo[key] = solve()
        return out

    def _kseq(self, p, q, ckey, k, k_initial) -> tc.KseqParams:
        """The scan's parameters, kept under the fixed gamma, or None for gamma*."""
        fixed = float(max(k_initial, k)) if self.method.gamma_policy == "k_initial" else None
        return self._memo(("kseq", ckey, k, fixed), lambda: tc.kseq_params(
            p, q, k, tc._gamma_star_or_k(p, q, k) if fixed is None else fixed))

    def _plan(self, p, q, ckey, k) -> tc.TransportPlan:
        return self._memo(("plan", ckey, k), lambda: tc.otm_lp_solve(p, q, k)[0])

    @staticmethod
    def _kseq_conditional(p: ProbVector, q: ProbVector, tokens: Sequence[int],
                          params: tc.KseqParams) -> np.ndarray:
        out = np.zeros(p.vocab_size)
        survive = 1.0
        for x in tokens:
            accept = min(1.0, q[x] / (params.gamma * p[x]))
            out[x] += survive * accept
            survive *= (1.0 - accept)
        out += survive * params.residual.probs
        return out


# model -> model -> method -> the selector every spectr_decode on that pair shares.
_SHARED: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _shared_selector(big: ToyLm, small: ToyLm, method: SelectionMethod) -> TokenSelector:
    """The pair's selector; it and its memo die with either model."""
    by_method = _SHARED.setdefault(big, weakref.WeakKeyDictionary()).setdefault(small, {})
    if method not in by_method:
        by_method[method] = TokenSelector(big, small, method)
    return by_method[method]


def draft_selection(context: Sequence[int], drafts: DraftSet, big: ToyLm, small: ToyLm,
                    method: SelectionMethod, rng: RngStream) -> list[int]:
    """Recursively select a valid continuation from a draft forest.

    At each depth a token-level transport plan from the draft conditional
    (tensorized over the live node count) to the big-model conditional picks
    the next token; nodes whose token disagrees are dropped, and the children
    of the survivors become the next depth's drafts. If the selected token
    survives to the final depth, one bonus token is sampled from the big
    model. Returns between 1 and L+1 tokens distributed by the big model's
    chain rule. The drafts must be draws from `small`. Gamma*, scan
    parameters and plans come from the pair's shared `TokenSelector`.
    """
    k_initial = drafts.validate()
    selector = _shared_selector(big, small, method)
    base = tuple(int(t) for t in context)
    state = drafts.roots
    emitted: list[int] = []
    while state is not None:
        chosen = selector.select(base + tuple(emitted), [node.token for node in state],
                                 k_initial, rng)
        emitted.append(chosen)
        state = selection_step(state, chosen)
    return emitted


def selection_step(state: Sequence[DraftNode], chosen: int) -> tuple[DraftNode, ...] | None:
    """The children of the nodes carrying `chosen`, or None when none does and
    the selection stops; after leaves, the empty tuple asks for the bonus token.
    `draft_selection` and the exact oracle both walk by this step."""
    survivors = [node for node in state if node.token == chosen]
    return tuple(child for node in survivors for child in node.children) if survivors else None


def _iteration_time(draft_length: int, cost: CostModel) -> float:
    # One batched big-model call per iteration; drafting is serial in depth only.
    return (cost.big_call_cost + draft_length * cost.small_call_cost
            + cost.overhead_per_iter)


def spectr_decode(big: ToyLm, small: ToyLm, prompt: Sequence[int], total_tokens: int,
                  K: int, L: int, method: SelectionMethod, rng: RngStream,
                  drafting: str = "iid", factors: Sequence[int] | None = None,
                  cost: CostModel = CostModel()) -> DecodeTrace:
    """Iterated draft-and-select decoding until at least total_tokens are emitted.

    Each iteration builds a fresh draft set at the current context, charges
    one serial big-model call, and may overshoot the target by up to L
    tokens. With drafting="tree", `factors` replaces (K, L): the draft count
    is prod(factors) and the draft length len(factors); i.i.d. drafting is
    the tree (K, 1, ..., 1) and takes no factors. Either way the drafts read
    one substream of rng.child(iteration, 0) per leaf. Every decode on one
    (big, small) pair shares one `TokenSelector` per method, so gamma*, scan
    parameters and plans are solved once per context for the pair's life;
    the sampled stream is the one a fresh memo gives.
    """
    if total_tokens < 1:
        raise ValidationError("total_tokens must be >= 1")
    if drafting not in ("iid", "tree"):
        raise ValidationError(f"unknown drafting scheme {drafting!r}")
    if drafting == "tree":
        if not factors:
            raise ValidationError("tree drafting requires expansion factors")
        factors = [int(f) for f in factors]
        K, L = math.prod(factors), len(factors)
    elif factors is not None:
        raise ValidationError("expansion factors need tree drafting")
    elif K < 1 or L < 1:
        raise ValidationError("K and L must be >= 1")
    if method.kind == "maximal" and K != 1:
        raise ValidationError("maximal selection requires K = 1")

    base = tuple(int(t) for t in prompt)
    emitted: list[int] = []
    records: list[IterationRecord] = []
    time_units = 0.0
    iteration = 0
    while len(emitted) < total_tokens:
        ctx = base + tuple(emitted)
        if drafting == "tree":
            drafts = build_prefix_tree_drafts(small, ctx, factors, rng.child(iteration, 0))
        else:
            drafts = sample_iid_drafts(small, ctx, K, L, rng.child(iteration, 0))
        new = draft_selection(ctx, drafts, big, small, method, rng.child(iteration, 1))
        emitted.extend(new)
        records.append(IterationRecord(
            drafts_used=K, draft_length=L,
            accepted_count=len(new) - 1,
            extra_token_emitted=len(new) == L + 1))
        time_units += _iteration_time(L, cost)
        iteration += 1
    return DecodeTrace(method=f"spectr-{method.kind}", emitted_tokens=tuple(emitted),
                       serial_big_calls=iteration, per_iteration=tuple(records),
                       simulated_time=time_units)


def baseline_decode(big: ToyLm, prompt: Sequence[int], total_tokens: int,
                    rng: RngStream, cost: CostModel = CostModel()) -> DecodeTrace:
    """Plain autoregressive decoding: one serial big-model call per token."""
    if total_tokens < 1:
        raise ValidationError("total_tokens must be >= 1")
    base = tuple(int(t) for t in prompt)
    emitted: list[int] = []
    for _ in range(total_tokens):
        emitted.append(sample(big.next_dist(base + tuple(emitted)), rng))
    return DecodeTrace(method="baseline", emitted_tokens=tuple(emitted),
                       serial_big_calls=total_tokens, per_iteration=(),
                       simulated_time=total_tokens * cost.big_call_cost)


def block_efficiency(trace: DecodeTrace) -> float:
    """Decoded tokens per serial big-model call."""
    if trace.serial_big_calls <= 0:
        raise UndefinedMetricError("trace has no serial big-model calls")
    return len(trace.emitted_tokens) / trace.serial_big_calls


def trace_time(trace: DecodeTrace, cost: CostModel) -> float:
    """Simulated wall time of a trace under a cost model."""
    if not trace.per_iteration:
        return trace.serial_big_calls * cost.big_call_cost
    return sum(_iteration_time(rec.draft_length, cost) for rec in trace.per_iteration)


def simulated_speedup(trace: DecodeTrace, cost: CostModel) -> float:
    """Baseline time for the same token count divided by the trace's time."""
    t = trace_time(trace, cost)
    if t <= 0.0:
        raise UndefinedMetricError("cost model assigns zero time to the trace")
    return len(trace.emitted_tokens) * cost.big_call_cost / t
