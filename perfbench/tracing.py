"""Per-layer tracing from outside the program.

`Tracer.install` replaces spectr's public functions with timing wrappers at
the places their callers look them up: module attributes for functions
called through a module or imported by name, class attributes for methods.
Spans live in memory; `snapshot` folds them into the per-layer metrics and
`uninstall` puts every original back. The wrappers only observe: they pass
arguments and results through unchanged and consume no RNG draws.
"""

from __future__ import annotations

import time

# (name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS = (
    ("setup.import_s", "s", "lower"),
    ("setup.inputs_s", "s", "lower"),
    ("prob_core.RngStream.child.calls", "count", "lower"),
    ("prob_core.RngStream.child.self_s", "s", "lower"),
    ("prob_core.sample.calls", "count", "lower"),
    ("prob_core.sample.self_s", "s", "lower"),
    ("prob_core.draws", "count", "lower"),
    ("prob_core.ProbVector.calls", "count", "lower"),
    ("prob_core.ProbVector.self_s", "s", "lower"),
    ("lm_sim.next_dist.calls", "count", "lower"),
    ("lm_sim.next_dist.self_s", "s", "lower"),
    ("lm_sim.next_dist.hit_ratio", "hit/call", "higher"),
    ("draft_gen.sample_iid_drafts.calls", "count", "lower"),
    ("draft_gen.sample_iid_drafts.self_s", "s", "lower"),
    ("draft_gen.build_prefix_tree_drafts.calls", "count", "lower"),
    ("draft_gen.build_prefix_tree_drafts.self_s", "s", "lower"),
    ("draft_gen.drafted_tokens", "count", "lower"),
    ("spectr_decode.spectr_decode.self_s", "s", "lower"),
    ("spectr_decode.draft_selection.calls", "count", "lower"),
    ("spectr_decode.draft_selection.self_s", "s", "lower"),
    ("spectr_decode.serial_calls", "count", "lower"),
    ("spectr_decode.accepted_per_drafted", "tok/tok", "higher"),
    ("token_coupling.kseq_select.calls", "count", "lower"),
    ("token_coupling.kseq_select.self_s", "s", "lower"),
    ("token_coupling.kseq_select.accept_ratio", "accept/call", "higher"),
    ("token_coupling.kseq_gamma_star.calls", "count", "lower"),
    ("token_coupling.kseq_gamma_star.self_s", "s", "lower"),
    ("token_coupling.kseq_params.calls", "count", "lower"),
    ("token_coupling.kseq_params.self_s", "s", "lower"),
    ("token_coupling.gamma_memo_hit_ratio", "saved/scan", "higher"),
    ("token_coupling.otm_lp_solve.calls", "count", "lower"),
    ("token_coupling.otm_lp_solve.self_s", "s", "lower"),
    ("token_coupling.otm_lp_solve.tuples", "count", "lower"),
    ("token_coupling.TransportPlan.conditional.calls", "count", "lower"),
    ("token_coupling.TransportPlan.conditional.self_s", "s", "lower"),
    ("token_coupling.alpha_upper_bound.calls", "count", "lower"),
    ("token_coupling.alpha_upper_bound.self_s", "s", "lower"),
    ("exact.method_output_distribution.calls", "count", "lower"),
    ("exact.method_output_distribution.self_s", "s", "lower"),
    ("exact.forests", "count", "lower"),
    ("exact.max_chain_rule_gap.self_s", "s", "lower"),
)

COUNTERS = ("prob_core.draws", "draft_gen.drafted_tokens", "spectr_decode.serial_calls",
            "spectr_decode.accepted", "token_coupling.kseq_select.accepted",
            "token_coupling.otm_lp_solve.tuples", "lm_sim.next_dist.built", "exact.forests")


class _Frame:
    __slots__ = ("name", "child_s", "built")

    def __init__(self, name: str):
        self.name = name
        self.child_s = 0.0
        self.built = False


class Tracer:
    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []
        self._stack: list[_Frame] = []
        self.spans: dict[str, list] = {}  # name -> [calls, self_s]
        self.counters = dict.fromkeys(COUNTERS, 0)

    def reset(self) -> None:
        """Start a new tally; the installed wrappers keep writing to the same tables."""
        self.spans.clear()
        self.counters.update(dict.fromkeys(COUNTERS, 0))

    # -- wrapping ---------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _span(self, name: str, fn, on_exit=None):
        """`fn` wrapped in a span; `on_exit(args, kwargs, result, frame)` runs after it."""
        stack, spans = self._stack, self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = _Frame(name)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                entry = spans.setdefault(name, [0, 0.0])
                entry[0] += 1
                entry[1] += elapsed - frame.child_s
                if stack:
                    stack[-1].child_s += elapsed
            if on_exit is not None:
                on_exit(args, kwargs, result, frame)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap(self, owner, attr: str, name: str, on_exit=None) -> None:
        self._patch(owner, attr, self._span(name, owner.__dict__[attr], on_exit))

    def install(self, mods: dict) -> None:
        """Wrap every traced layer of the spectr modules in `mods`."""
        pc, lm, dg = mods["prob_core"], mods["lm_sim"], mods["draft_gen"]
        tc, sd, ex = mods["token_coupling"], mods["spectr_decode"], mods["exact"]
        count = self.counters
        stack = self._stack

        self._patch(pc.RngStream, "uniform", self._counting(
            pc.RngStream.uniform, lambda args, kwargs: 1))
        self._patch(pc.RngStream, "uniforms", self._counting(
            pc.RngStream.uniforms,
            lambda args, kwargs: int(args[1] if len(args) > 1 else kwargs["n"])))
        self.wrap(pc.RngStream, "child", "prob_core.RngStream.child")

        def row_built(args, kwargs, result, frame):
            # A row constructed directly inside next_dist is a memo miss.
            if stack and stack[-1].name == "lm_sim.next_dist":
                stack[-1].built = True
        self.wrap(pc.ProbVector, "__init__", "prob_core.ProbVector", row_built)

        sample = self._span("prob_core.sample", pc.sample)
        for module in (dg, sd, tc):
            self._patch(module, "sample", sample)

        def next_dist_exit(args, kwargs, result, frame):
            count["lm_sim.next_dist.built"] += frame.built
        self.wrap(lm.ToyLm, "next_dist", "lm_sim.next_dist", next_dist_exit)

        def drafted(args, kwargs, result, frame):
            count["draft_gen.drafted_tokens"] += _node_count(result.roots)
        for attr in ("sample_iid_drafts", "build_prefix_tree_drafts"):
            self.wrap(sd, attr, f"draft_gen.{attr}", drafted)

        def decoded(args, kwargs, result, frame):
            count["spectr_decode.serial_calls"] += result.serial_big_calls
            count["spectr_decode.accepted"] += sum(r.accepted_count for r in result.per_iteration)
        self.wrap(sd, "spectr_decode", "spectr_decode.spectr_decode", decoded)
        self.wrap(sd, "draft_selection", "spectr_decode.draft_selection")

        def selected(args, kwargs, result, frame):
            count["token_coupling.kseq_select.accepted"] += result[1] is not None
        self.wrap(tc, "kseq_select", "token_coupling.kseq_select", selected)
        self.wrap(tc, "kseq_gamma_star", "token_coupling.kseq_gamma_star")
        self.wrap(tc, "kseq_params", "token_coupling.kseq_params")

        def solved(args, kwargs, result, frame):
            k = args[2] if len(args) > 2 else kwargs["k"]
            count["token_coupling.otm_lp_solve.tuples"] += args[0].support().size ** k
        self.wrap(tc, "otm_lp_solve", "token_coupling.otm_lp_solve", solved)
        self.wrap(tc.TransportPlan, "conditional", "token_coupling.TransportPlan.conditional")
        self.wrap(tc, "alpha_upper_bound", "token_coupling.alpha_upper_bound")

        self.wrap(ex, "method_output_distribution", "exact.method_output_distribution")
        self.wrap(ex, "max_chain_rule_gap", "exact.max_chain_rule_gap")
        forests = ex.enumerate_draft_forests

        def counted_forests(*args, **kwargs):
            for item in forests(*args, **kwargs):
                count["exact.forests"] += 1
                yield item
        self._patch(ex, "enumerate_draft_forests", counted_forests)

    def _counting(self, fn, amount):
        count = self.counters

        def wrapper(*args, **kwargs):
            count["prob_core.draws"] += amount(args, kwargs)
            return fn(*args, **kwargs)
        return wrapper

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def snapshot(self) -> dict:
        """Per-layer metrics of everything traced since the last reset."""
        spans, count = self.spans, self.counters

        def calls(name):
            return spans.get(name, [0, 0.0])[0]

        def self_s(name):
            return spans.get(name, [0, 0.0])[1]

        out = {}
        for name, _, _ in LAYER_METRICS:
            layer, _, kind = name.rpartition(".")
            if kind == "calls":
                out[name] = calls(layer)
            elif kind == "self_s":
                out[name] = self_s(layer)
            elif name in count:
                out[name] = count[name]
        out["lm_sim.next_dist.hit_ratio"] = _ratio(
            calls("lm_sim.next_dist") - count["lm_sim.next_dist.built"], calls("lm_sim.next_dist"))
        out["spectr_decode.accepted_per_drafted"] = _ratio(
            count["spectr_decode.accepted"], count["draft_gen.drafted_tokens"])
        out["token_coupling.kseq_select.accept_ratio"] = _ratio(
            count["token_coupling.kseq_select.accepted"], calls("token_coupling.kseq_select"))
        scans = calls("token_coupling.kseq_select")
        out["token_coupling.gamma_memo_hit_ratio"] = _ratio(
            scans - calls("token_coupling.kseq_gamma_star"), scans)
        return out


def _ratio(num, base) -> float:
    """num / base, or 0 when the base is 0 (the layer did no work)."""
    return num / base if base else 0.0


def _node_count(nodes) -> int:
    return sum(1 + _node_count(node.children) for node in nodes)
