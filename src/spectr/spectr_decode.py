"""Sequence-level draft selection and the end-to-end decoders.

`draft_selection` converts a draft set into 1..L+1 tokens whose law is the
big model's chain rule, picking only the draft tokens it reads along the
emitted path; `spectr_decode` iterates it, `baseline_decode` is the serial
reference, and block efficiency / simulated speedup summarize traces. The
decoders carry only the last `order` tokens of a context, all a model reads.
"""

from __future__ import annotations

import json
import math
import weakref
from dataclasses import asdict, dataclass
from typing import Sequence

from .prob_core import RngStream, SpectrError, ValidationError, sample
from .lm_sim import CostModel, ToyLm, remember, window
# spectr_decode calls both builders through these module-level names: perfbench's
# tracer patches them here by name to count and time drafting.
from .draft_gen import DraftSet, sample_iid_drafts, build_prefix_tree_drafts
from . import token_coupling as tc


class UndefinedMetricError(SpectrError):
    """Metric has no value (zero serial calls, or an all-zero cost model)."""


@dataclass(frozen=True)
class SelectionMethod:
    """How the token-level transport plan is chosen at every depth.

    kind "kseq" is the sequential scan at gamma* for the live draft count,
    re-solved at every depth; "maximal" the single-draft rule (the scan at its
    one draft, where gamma* = 1); "otm_lp" an exact optimal plan from
    `otm_lp_solve` (subject to its fixed tuple cap): at one live draft the
    maximal coupling in closed form, and only at k >= 2 a max-flow over
    distinct-token sets.
    """

    kind: str

    def __post_init__(self):
        if self.kind not in ("maximal", "kseq", "otm_lp"):
            raise ValidationError(f"unknown selection method {self.kind!r}")

    @classmethod
    def maximal(cls) -> "SelectionMethod":
        return cls(kind="maximal")

    @classmethod
    def kseq(cls) -> "SelectionMethod":
        return cls(kind="kseq")

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
        out = asdict(self)
        out["tokens"] = out.pop("emitted_tokens")
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"


class TokenSelector:
    """Token-level selection for one (big, small, method), one rule per context.

    Both models read only a context's last `order` = max(big.order,
    small.order) tokens, its window, so the memo is keyed by it: `rules`
    holds one rule per (window, live-draft count k), built on the draft and
    target rows there (a `KseqScan`, which solves gamma* only as far as its
    draws need and its residual on the first all-reject, or a
    `TransportPlan`). Every rule carries its draft row as `.p`, draws the
    token with `draw(tokens, rng)`, states its exact law with `law(tokens)`
    and, over k i.i.d. drafts of `p`, the joint law of its token and the
    number of drafts carrying it with `count_law()`. A memo hit fetches no
    row: `draft_selection` takes the rule with one `rule` lookup per depth,
    picks the live drafts' tokens from its `p`, the draft row itself, and
    calls `draw`; the exact oracle reads the same rule's `count_law`, so it
    checks the decoder's own rule.
    Drafts are draws from the draft model, whose row is their law; with none
    the token is a big-model sample. Models are held by weak reference and
    the memo holds only rows: a shared memo keeps neither model alive. The
    memo keeps at most `lm_sim.MEMO_CAP` rules, oldest evicted first, as the
    models' row memos do. Eviction moves no stream: a rebuilt `KseqScan`
    decides every draft as the scan at gamma* does, and a rebuilt plan is
    solved from the same rows.
    """

    def __init__(self, big: ToyLm, small: ToyLm, method: SelectionMethod):
        self._big = weakref.ref(big)
        self._small = weakref.ref(small)
        self.method = method
        self.order = max(big.order, small.order)
        self.rules: dict = {}

    def rule(self, context: tuple[int, ...], k: int) -> tc.KseqScan | tc.TransportPlan:
        """The memoised rule for k live drafts at the context's window."""
        key = (tuple(context[-self.order:]) if self.order else (), k)
        rule = self.rules.get(key)
        if rule is None:
            if self.method.kind == "maximal" and k != 1:
                raise ValidationError("maximal selection is only valid with a single draft")
            q, p = self._big().next_dist(context), self._small().next_dist(context)
            rule = remember(self.rules, key, tc.otm_lp_solve(p, q, k)[0]
                            if self.method.kind == "otm_lp" else tc.KseqScan(p, q, k))
        return rule


# (id(big), id(small), method kind) -> (the selector every spectr_decode on that
# pair shares, a weak reference to each model). Either reference's callback drops
# the entry when its model dies, so an id is never read after its model's death.
_SHARED: dict = {}


def _shared_selector(big: ToyLm, small: ToyLm, method: SelectionMethod) -> TokenSelector:
    """The pair's selector; it and its memo die with either model."""
    key = (id(big), id(small), method.kind)
    entry = _SHARED.get(key)
    if entry is None:
        def drop(_, key=key, shared=_SHARED):
            shared.pop(key, None)
        entry = _SHARED[key] = (TokenSelector(big, small, method),
                                weakref.ref(big, drop), weakref.ref(small, drop))
    return entry[0]


def draft_selection(context: Sequence[int], drafts: DraftSet, big: ToyLm, small: ToyLm,
                    method: SelectionMethod, rng: RngStream) -> list[int]:
    """Select a valid continuation from a draft set, depth by depth.

    At each depth every live draft carries the prefix emitted so far, so the
    live drafts are i.i.d. draws from the draft model's one row there. The
    pair's shared `TokenSelector` gives the rule for that window and live
    count in one lookup, and the set picks the live drafts' tokens from the
    rule's `p`, that very row (`DraftSet.picks`); no draft off the emitted
    path is picked or has its row built. The rule's `draw`, a token-level
    transport plan from the draft conditional (tensorized over the live
    count) to the big-model conditional, picks the next token; drafts whose
    token disagrees are dropped, and the children of the survivors become
    the next depth's drafts. If the selected token survives to the final
    depth, one bonus token is sampled from the big model. Returns between 1
    and L+1 tokens distributed by the big model's chain rule. The drafts
    must be a draw from `small`, or from a model of equal signature, at this
    context's window, or ValidationError is raised: picks read the rule's
    draft row, so a foreign set would be read as draws it is not. Only the
    last max(big.order, small.order) tokens of the context are read. K-SEQ
    scans at gamma* for each depth's live draft count.
    """
    drafts.validate()
    order = max(big.order, small.order)
    ctx = window(context, order)
    if drafts.model is not small and drafts.model.signature() != small.signature():
        raise ValidationError("the draft set was not drawn from the draft model")
    if drafts.context != (ctx[-small.order:] if small.order else ()):
        raise ValidationError(f"the draft set was drawn at context {drafts.context}, "
                              f"not at this context's window {window(ctx, small.order)}")
    selector = _shared_selector(big, small, method)
    live = drafts.children([0], 0)
    emitted: list[int] = []
    while live:
        rule = selector.rule(ctx, len(live))
        tokens = drafts.picks(rule.p, len(emitted), live)
        chosen = rule.draw(tokens, rng)
        emitted.append(chosen)
        kept = selection_step(tokens, chosen)
        if kept is None:
            return emitted
        ctx = (ctx + (chosen,))[-order:] if order else ()
        live = drafts.children([live[i] for i in kept], len(emitted))
    emitted.append(sample(big.next_dist(ctx), rng))
    return emitted


def selection_step(tokens: Sequence[int], chosen: int) -> list[int] | None:
    """The positions of the live drafts carrying `chosen`, or None when none does and the
    selection stops. `draft_selection` follows the kept drafts' children (none after the
    leaves: the bonus token comes next); their number is the c of a rule's `count_law`."""
    return [i for i, token in enumerate(tokens) if token == chosen] or None


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
    the tree (K, 1, ..., 1) and takes no factors. Either way the drafts take
    one uniforms(K * L) draw from rng.child(iteration, 0), L per leaf, and
    selection draws from rng.child(iteration, 1); both are taken as children
    of rng.child(iteration), which is built once per iteration. Every
    decode on one (big, small) pair shares one `TokenSelector` per method, so
    a scan's gamma* bracket and parameters, and a plan, are solved once per
    context while its rule stays among the memo's last MEMO_CAP; the sampled
    stream is the one a fresh memo gives. The context carried between
    iterations is the last max(big.order, small.order) tokens, so a long
    prompt costs nothing per iteration.
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

    order = max(big.order, small.order)
    ctx = window(prompt, order)
    emitted: list[int] = []
    records: list[IterationRecord] = []
    time_units = 0.0
    iteration = 0
    while len(emitted) < total_tokens:
        step = rng.child(iteration)
        if drafting == "tree":
            drafts = build_prefix_tree_drafts(small, ctx, factors, step.child(0))
        else:
            drafts = sample_iid_drafts(small, ctx, K, L, step.child(0))
        new = draft_selection(ctx, drafts, big, small, method, step.child(1))
        emitted.extend(new)
        ctx = window(ctx + tuple(new), order)
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
    ctx = window(prompt, big.order)
    emitted: list[int] = []
    for _ in range(total_tokens):
        emitted.append(sample(big.next_dist(ctx), rng))
        ctx = window(ctx + (emitted[-1],), big.order)
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
