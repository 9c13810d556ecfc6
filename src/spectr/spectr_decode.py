"""Sequence-level draft selection and the end-to-end decoders.

`draft_selection` converts a draft forest into 1..L+1 tokens whose law is the
big model's chain rule; `spectr_decode` iterates it, `baseline_decode` is the
serial reference, and block efficiency / simulated speedup summarize traces.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .prob_core import ProbVector, RngStream, SpectrError, ValidationError, sample
from .lm_sim import CostModel, ToyLm
from .draft_gen import DraftSet, draft_count, sample_iid_drafts, build_prefix_tree_drafts
from . import token_coupling as tc


class UndefinedMetricError(SpectrError):
    """Metric has no value (zero serial calls, or an all-zero cost model)."""


@dataclass(frozen=True)
class SelectionMethod:
    """How the token-level transport plan is chosen at every depth.

    kind "maximal" is the single-draft rule (requires one draft), "kseq" the
    sequential scan, "otm_lp" an exact optimal plan, `otm_lp_solve`'s
    max-flow over distinct-token sets (subject to the tuple cap).
    For kseq, gamma_policy "gamma_star" re-solves gamma* for the live draft
    count at every depth; "k_initial" reuses the initial draft count as a
    fixed division factor (raised to the live count if that ever exceeds it,
    which keeps prefix-tree selection valid).
    """

    kind: str
    gamma_policy: str = "gamma_star"
    lp_cap: int = tc.DEFAULT_TUPLE_CAP

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
    def otm_lp(cls, lp_cap: int = tc.DEFAULT_TUPLE_CAP) -> "SelectionMethod":
        return cls(kind="otm_lp", lp_cap=lp_cap)


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


class _PlanCache:
    """Per-session memo of gamma*, scan parameters and LP plans by context key."""

    def __init__(self):
        self.store: dict = {}

    def key(self, big: ToyLm, small: ToyLm, context: tuple[int, ...]) -> tuple:
        return (id(big), id(small), big.memo_key(context), small.memo_key(context))


def _select_token(p: ProbVector, q: ProbVector, tokens: list[int], k_initial: int,
                  method: SelectionMethod, rng: RngStream, cache: _PlanCache,
                  ckey: tuple) -> int:
    k = len(tokens)
    if method.kind == "maximal":
        if k != 1:
            raise ValidationError("maximal selection is only valid with a single draft")
        token, _ = tc.maximal_coupling_select(p, q, tokens[0], rng)
        return token
    if method.kind == "kseq":
        if method.gamma_policy == "k_initial":
            gamma = float(max(k_initial, k))
        else:
            gamma = cache.store.get(("gamma", ckey, k))
            if gamma is None:
                gamma = tc._gamma_star_or_k(p, q, k)
                cache.store[("gamma", ckey, k)] = gamma
        params = cache.store.get(("params", ckey, k, gamma))
        if params is None:
            params = tc.kseq_params(p, q, k, gamma)
            cache.store[("params", ckey, k, gamma)] = params
        token, _ = tc.kseq_select(p, q, tokens, gamma, rng, params=params)
        return token
    plan = cache.store.get(("plan", ckey, k))
    if plan is None:
        plan, _ = tc.otm_lp_solve(p, q, k, cap=method.lp_cap)
        cache.store[("plan", ckey, k)] = plan
    return sample(plan.conditional(tuple(tokens)), rng)


def draft_selection(context: Sequence[int], drafts: DraftSet, big: ToyLm, small: ToyLm,
                    method: SelectionMethod, rng: RngStream,
                    cache: Optional[_PlanCache] = None) -> list[int]:
    """Recursively select a valid continuation from a draft forest.

    At each depth a token-level transport plan from the draft conditional
    (tensorized over the live node count) to the big-model conditional picks
    the next token; nodes whose token disagrees are dropped, and the children
    of the survivors become the next depth's drafts. If the selected token
    survives to the final depth, one bonus token is sampled from the big
    model. Returns between 1 and L+1 tokens distributed by the big model's
    chain rule.
    """
    drafts.validate()
    cache = cache or _PlanCache()
    base = tuple(int(t) for t in context)
    k_initial = draft_count(drafts)
    state = list(drafts.roots)
    emitted: list[int] = []
    while True:
        ctx = base + tuple(emitted)
        p = drafts.conditionals.get(tuple(emitted))
        if p is None:
            p = small.next_dist(ctx)
        q = big.next_dist(ctx)
        tokens = [node.token for node in state]
        ckey = cache.key(big, small, ctx)
        chosen = _select_token(p, q, tokens, k_initial, method, rng, cache, ckey)
        emitted.append(chosen)
        survivors = [node for node in state if node.token == chosen]
        if not survivors:
            return emitted
        children = [child for node in survivors for child in node.children]
        if not children:
            emitted.append(sample(big.next_dist(base + tuple(emitted)), rng))
            return emitted
        state = children


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
    is prod(factors) and the draft length len(factors).
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
    elif K < 1 or L < 1:
        raise ValidationError("K and L must be >= 1")
    if method.kind == "maximal" and K != 1:
        raise ValidationError("maximal selection requires K = 1")

    cache = _PlanCache()
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
        new = draft_selection(ctx, drafts, big, small, method, rng.child(iteration, 1),
                              cache=cache)
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
