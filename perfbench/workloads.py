"""Workload definitions: fixed configurations, inputs made from a seed, and one round each.

A round is the unit of timed work: every operation of the workload once.
Every round of a run repeats the same operations on the same inputs, so
per-round times are samples of one quantity and a run reports their median.
A round calls `after_op()` after each operation; the worker uses it to time
operations and to interleave reference slices.

The worker times ``import spectr`` before it loads this file, so the numpy
import here is already paid for.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field, replace

import numpy as np

WORKLOADS = ("decode_hot", "decode_cold", "exact_verify")

# The model pair is part of each workload's configuration, like the ROADMAP
# baseline; --seed draws the prompts, the decode streams and the oracle inputs.
PAIR_SEED = 0


@dataclass(frozen=True)
class DecodeConfig:
    vocab: int
    order: int
    eps: float
    allow_zeros: bool
    drafting: str  # "iid" | "tree"
    K: int
    L: int
    factors: tuple[int, ...] | None
    prompts: int
    prompt_len: int
    tokens: int


DECODE_CONFIGS = {
    # ROADMAP item 1 baseline: K-SEQ with gamma*, i.i.d. drafts, 16 rows per model.
    "decode_hot": DecodeConfig(vocab=16, order=1, eps=0.3, allow_zeros=False,
                               drafting="iid", K=8, L=4, factors=None,
                               prompts=60, prompt_len=4, tokens=64),
    # Prefix-tree drafts over 256^2 order-2 contexts with zero-mass entries:
    # nearly every row is built on first use.
    "decode_cold": DecodeConfig(vocab=256, order=2, eps=0.3, allow_zeros=True,
                                drafting="tree", K=8, L=3, factors=(2, 2, 2),
                                prompts=32, prompt_len=4, tokens=64),
}

# Sequence scope: (vocab, per-depth branching); i.i.d. K drafts of length L
# are (K, 1, ..., 1). Each forest is enumerated once per method.
SEQ_FORESTS = ((3, (2, 1)), (3, (3, 1)), (3, (2, 1, 1)), (3, (2, 2)), (4, (2, 1)))
SEQ_METHODS = ("kseq", "otm_lp")
SEQ_EPS = 0.5
# Token scope: (vocab, k), all within the default tuple cap of 4096, with
# TOKEN_DRAWS random (p, q) per cell: the simplex's pivot count varies with
# the instance, and several instances keep a round's work steady across seeds.
TOKEN_GRID = ((2, 6), (3, 4), (4, 3), (5, 2), (6, 2), (12, 1))
TOKEN_DRAWS = 5

SHORT_DECODE = {"prompts": 3, "tokens": 16}
SHORT_SEQ_FORESTS = ((3, (2, 1)),)
SHORT_TOKEN_GRID = ((3, 2), (4, 1))


def spectr_modules() -> dict:
    """The spectr submodules, looked up at call time so tracing wrappers apply."""
    names = ("prob_core", "lm_sim", "draft_gen", "token_coupling", "spectr_decode", "exact")
    return {name: importlib.import_module(f"spectr.{name}") for name in names}


@dataclass
class DecodeWorkload:
    name: str
    cfg: DecodeConfig
    prompts: list[tuple[int, ...]]
    stream_seeds: list[int]
    pair: object  # the set-up pair; rounds build their own, checks read this one
    ops_per_round: int = field(init=False)

    def __post_init__(self):
        self.ops_per_round = len(self.prompts)


@dataclass
class SeqCase:
    vocab: int
    branching: tuple[int, ...]
    method: str
    pair: object
    context: tuple[int, ...]


@dataclass
class TokenCase:
    k: int
    p: object  # ProbVector
    q: object


@dataclass
class ExactWorkload:
    name: str
    seq_cases: list[SeqCase]
    token_cases: list[TokenCase]
    ops_per_round: int = field(init=False)

    def __post_init__(self):
        self.ops_per_round = len(self.seq_cases) + len(self.token_cases)


def input_rng(name: str, seed: int) -> np.random.Generator:
    """The benchmark's own generator for a workload's inputs, apart from spectr's streams."""
    return np.random.default_rng([int(seed), WORKLOADS.index(name)])


def prepare(name: str, seed: int, short: bool = False):
    """Build the model pair(s) and every input a workload's rounds consume."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    mods = spectr_modules()
    rng = input_rng(name, seed)
    if name in DECODE_CONFIGS:
        cfg = DECODE_CONFIGS[name]
        if short:
            cfg = replace(cfg, **SHORT_DECODE)
        prompts = [tuple(int(t) for t in row)
                   for row in rng.integers(0, cfg.vocab, size=(cfg.prompts, cfg.prompt_len))]
        seeds = [int(s) for s in rng.integers(0, 2**31 - 1, size=cfg.prompts)]
        return DecodeWorkload(name, cfg, prompts, seeds, make_pair(mods, cfg))
    ProbVector = mods["prob_core"].ProbVector
    seq_cases = []
    for vocab, branching in (SHORT_SEQ_FORESTS if short else SEQ_FORESTS):
        pair = mods["lm_sim"].make_model_pair(vocab, 1, int(rng.integers(0, 2**31 - 1)), SEQ_EPS)
        context = (int(rng.integers(0, vocab)),)
        seq_cases.extend(SeqCase(vocab, branching, method, pair, context)
                         for method in SEQ_METHODS)
    token_cases = []
    cells = SHORT_TOKEN_GRID if short else TOKEN_GRID * TOKEN_DRAWS
    for i, (vocab, k) in enumerate(cells):
        p = _softmax(3.0 * rng.random(vocab))
        q = _softmax(3.0 * rng.random(vocab))
        if i % 2 == 1:
            # A zero-mass target entry, never the draft's whole support.
            q[int(rng.integers(0, vocab))] = 0.0
            q /= q.sum()
        token_cases.append(TokenCase(k, ProbVector(p), ProbVector(q)))
    return ExactWorkload(name, seq_cases, token_cases)


def _softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max())
    return e / e.sum()


def make_pair(mods: dict, cfg: DecodeConfig):
    return mods["lm_sim"].make_model_pair(cfg.vocab, cfg.order, PAIR_SEED, cfg.eps,
                                          allow_zeros=cfg.allow_zeros)


# ---------------------------------------------------------------------------
# rounds: each returns (outputs, failures) where failures lists error texts
# ---------------------------------------------------------------------------

def no_op() -> None:
    pass


@dataclass
class DecodeOutput:
    traces: list  # DecodeTrace per prompt, None where the decode raised


def decode_round(wl: DecodeWorkload, after_op=no_op) -> tuple[DecodeOutput, list[str]]:
    """One decode job: a fresh model pair (empty row memo), every prompt decoded."""
    mods = spectr_modules()
    sd, prob_core = mods["spectr_decode"], mods["prob_core"]
    cfg = wl.cfg
    pair = make_pair(mods, cfg)
    method = sd.SelectionMethod.kseq()
    traces, failures = [], []
    for prompt, stream_seed in zip(wl.prompts, wl.stream_seeds):
        try:
            traces.append(sd.spectr_decode(
                pair.big, pair.small, prompt, cfg.tokens, cfg.K, cfg.L, method,
                prob_core.RngStream(stream_seed), drafting=cfg.drafting, factors=cfg.factors))
        except Exception as exc:  # one failed operation; the round goes on
            traces.append(None)
            failures.append(f"prompt {prompt}: {type(exc).__name__}: {exc}")
        after_op()
    return DecodeOutput(traces), failures


@dataclass
class SeqResult:
    dist: dict  # output sequence -> probability
    program_gap: float


@dataclass
class TokenResult:
    gamma: float
    alpha_kseq: float
    alpha_otm: float
    alpha_upper: float


@dataclass
class ExactOutput:
    seq: list  # SeqResult per case, None where it raised
    token: list  # TokenResult per case, None where it raised


def exact_round(wl: ExactWorkload, after_op=no_op) -> tuple[ExactOutput, list[str]]:
    """Every sequence-scope enumeration, then every token-scope instance through all solvers."""
    mods = spectr_modules()
    exact, tc, sd = mods["exact"], mods["token_coupling"], mods["spectr_decode"]
    methods = {"kseq": sd.SelectionMethod.kseq(), "otm_lp": sd.SelectionMethod.otm_lp()}
    out = ExactOutput([], [])
    failures = []
    for case in wl.seq_cases:
        try:
            dist = exact.method_output_distribution(case.pair.big, case.pair.small, case.context,
                                                    case.branching, methods[case.method])
            gap, _ = exact.max_chain_rule_gap(dist, case.pair.big, case.context,
                                              len(case.branching))
            out.seq.append(SeqResult(dist, gap))
        except Exception as exc:  # one failed operation; the round goes on
            out.seq.append(None)
            failures.append(f"sequence V={case.vocab} {case.branching} {case.method}: "
                            f"{type(exc).__name__}: {exc}")
        after_op()
    for case in wl.token_cases:
        try:
            gamma = tc.kseq_gamma_star(case.p, case.q, case.k)
            alpha_kseq = tc.kseq_acceptance(case.p, case.q, case.k, gamma)
            _, alpha_otm = tc.otm_lp_solve(case.p, case.q, case.k)
            alpha_upper, _ = tc.alpha_upper_bound(case.p, case.q, case.k)
            out.token.append(TokenResult(gamma, alpha_kseq, alpha_otm, alpha_upper))
        except Exception as exc:  # one failed operation; the round goes on
            out.token.append(None)
            failures.append(f"token V={case.p.vocab_size} k={case.k}: {type(exc).__name__}: {exc}")
        after_op()
    return out, failures


def run_round(wl, after_op=no_op):
    return (exact_round if isinstance(wl, ExactWorkload) else decode_round)(wl, after_op)


def fingerprint(output) -> tuple:
    """What must not change between rounds, or with tracing on."""
    if isinstance(output, DecodeOutput):
        return tuple(None if t is None else (t.emitted_tokens, t.serial_big_calls)
                     for t in output.traces)
    return (tuple(None if r is None else tuple(sorted(r.dist.items())) for r in output.seq),
            tuple(None if r is None else (r.gamma, r.alpha_kseq, r.alpha_otm, r.alpha_upper)
                  for r in output.token))


def round_figures(output) -> dict:
    """Tokens, cases and block efficiency of one round, counted by the benchmark."""
    if isinstance(output, DecodeOutput):
        done = [t for t in output.traces if t is not None]
        tokens = sum(len(t.emitted_tokens) for t in done)
        calls = sum(t.serial_big_calls for t in done)
        return {"tokens": tokens, "cases": len(done),
                "block_efficiency": tokens / calls if calls else float("nan")}
    done = [r for r in output.seq if r is not None]
    # Tokens of every sequence in the enumerated laws' supports.
    tokens = sum(len(seq) for r in done for seq in r.dist)
    expected = [sum(w * len(seq) for seq, w in r.dist.items()) for r in done]
    cases = len(done) + sum(r is not None for r in output.token)
    return {"tokens": tokens, "cases": cases,
            "block_efficiency": sum(expected) / len(expected) if expected else float("nan")}
