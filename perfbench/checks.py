"""Correctness checks computed apart from the program.

Each check takes the program's outputs and recomputes what they must satisfy
with the benchmark's own arithmetic: a martingale test of the emitted tokens
against the target rows, the OTM optimum from scipy's HiGHS and from the
min-cut closed form, the K-SEQ acceptance from its formula, and the stepwise
chain rule of every enumerated output law. A check returns a list of failure
texts; an empty list means it passed.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# |z| above this fails the decode test. Under the null the statistic is a sum
# of bounded martingale differences over thousands of tokens, so by the
# martingale CLT P(|z| > 5) = 5.7e-7; Freedman's inequality bounds it by 5e-5
# whenever the summed conditional variance is at least 100.
Z_LIMIT = 5.0
# Tokens in the draft-model stream every run uses to show the test's power.
POWER_TOKENS = 2000
OTM_TOL = 1e-9
KSEQ_TOL = 1e-12
CHAIN_TOL = 1e-6
MASS_TOL = 1e-9
GAMMA_STEP = 1e-6


# ---------------------------------------------------------------------------
# decode: structure and a martingale test against the target rows
# ---------------------------------------------------------------------------

def check_decode_structure(traces, cfg, block_efficiency) -> list[str]:
    """Vocabulary, per-iteration emission counts, token totals and block efficiency."""
    failures = []
    for i, trace in enumerate(traces):
        toks = trace.emitted_tokens
        recs = trace.per_iteration
        where = f"prompt {i}"
        if any(not 0 <= t < cfg.vocab for t in toks):
            failures.append(f"{where}: token outside the vocabulary")
        if not cfg.tokens <= len(toks) <= cfg.tokens + cfg.L:
            failures.append(f"{where}: {len(toks)} tokens for a request of {cfg.tokens}")
        if trace.serial_big_calls != len(recs):
            failures.append(f"{where}: {trace.serial_big_calls} serial calls for {len(recs)} iterations")
        if any(not 0 <= r.accepted_count <= cfg.L for r in recs):
            failures.append(f"{where}: an iteration emitted outside 1..L+1 tokens")
        if any(r.extra_token_emitted != (r.accepted_count == cfg.L) for r in recs):
            failures.append(f"{where}: bonus-token flag disagrees with the accepted count")
        if sum(r.accepted_count + 1 for r in recs) != len(toks):
            failures.append(f"{where}: iteration counts do not add up to the emitted tokens")
        if trace.serial_big_calls and block_efficiency(trace) != len(toks) / trace.serial_big_calls:
            failures.append(f"{where}: block_efficiency is not tokens / serial calls")
    return failures


def martingale_z(rows_q, rows_p, tokens) -> float:
    """z-score of sum_t 1[y_t in A_t] - q_t(A_t), A_t = {x : q_t(x) > p_t(x)}.

    Each term has mean zero given the past when y_t is drawn from q_t, so the
    sum over its conditional standard deviation is approximately N(0, 1).
    When y_t is drawn from p_t the mean of each term is -tv(p_t, q_t) instead.
    """
    total = 0.0
    var = 0.0
    for q, p, y in zip(rows_q, rows_p, tokens):
        above = q > p
        qa = float(q[above].sum())
        total += float(above[y]) - qa
        var += qa * (1.0 - qa)
    return total / math.sqrt(var) if var > 0.0 else 0.0


def stream_rows(big, small, prompt, tokens):
    """Target and draft rows along an emitted stream, from ToyLm.next_dist."""
    ctx = tuple(prompt)
    rows_q, rows_p = [], []
    for y in tokens:
        rows_q.append(big.next_dist(ctx).probs)
        rows_p.append(small.next_dist(ctx).probs)
        ctx = ctx + (int(y),)
    return rows_q, rows_p


def decode_z(traces, prompts, big, small) -> float:
    rows_q, rows_p, toks = [], [], []
    for prompt, trace in zip(prompts, traces):
        q, p = stream_rows(big, small, prompt, trace.emitted_tokens)
        rows_q += q
        rows_p += p
        toks += trace.emitted_tokens
    return martingale_z(rows_q, rows_p, toks)


def draft_model_stream(small, prompt, n, rng: np.random.Generator) -> list[int]:
    """n tokens drawn from the draft model by the benchmark's own inverse CDF."""
    ctx = tuple(prompt)
    out = []
    for u in rng.random(n):
        cdf = np.cumsum(small.next_dist(ctx).probs)
        y = min(int(np.searchsorted(cdf, u * cdf[-1], side="right")), cdf.size - 1)
        out.append(y)
        ctx = ctx + (y,)
    return out


def check_decode_statistics(traces, prompts, big, small, rng) -> tuple[list[str], dict]:
    """The emitted tokens must pass the test; draft-model tokens must fail it."""
    z = decode_z(traces, prompts, big, small)
    power_prompt = prompts[0]
    fake = draft_model_stream(small, power_prompt, POWER_TOKENS, rng)
    q, p = stream_rows(big, small, power_prompt, fake)
    z_draft = martingale_z(q, p, fake)
    failures = []
    if abs(z) > Z_LIMIT:
        failures.append(f"emitted tokens fail the target-law test: z = {z:.2f}")
    if z_draft > -Z_LIMIT:
        failures.append(f"test has no power: draft-model tokens gave z = {z_draft:.2f}")
    return failures, {"z": z, "z_draft": z_draft}


# ---------------------------------------------------------------------------
# token scope: OTM optimum, K-SEQ acceptance and the ordering
# ---------------------------------------------------------------------------

def otm_alpha_linprog(p: np.ndarray, q: np.ndarray, k: int) -> float:
    """Optimal membership-cost transport from p^k to q, solved by scipy's HiGHS."""
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    v = p.size
    tuples = list(itertools.product(range(v), repeat=k))
    nt = len(tuples)
    cost = np.ones(nt * v)
    for ti, t in enumerate(tuples):
        for y in set(t):
            cost[ti * v + y] = 0.0
    cols = np.arange(nt * v)
    rows = np.concatenate([cols // v, nt + cols % v])
    a_eq = coo_matrix((np.ones(2 * nt * v), (rows, np.concatenate([cols, cols]))),
                      shape=(nt + v, nt * v)).tocsr()
    tuple_mass = np.array([math.prod(p[i] for i in t) for t in tuples])
    res = linprog(cost, A_eq=a_eq, b_eq=np.concatenate([tuple_mass, q]),
                  bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return 1.0 - float(res.fun)


def otm_alpha_mincut(p: np.ndarray, q: np.ndarray, k: int) -> float:
    """1 - max(0, max_A p(A)^k - q(A)) by brute force over every subset A."""
    v = p.size
    masks = (np.arange(1 << v)[:, None] >> np.arange(v)) & 1
    excess = (masks @ p) ** k - masks @ q
    return 1.0 - max(0.0, float(excess.max()))


def kseq_alpha(p: np.ndarray, q: np.ndarray, k: int, gamma: float) -> tuple[float, float]:
    """(1 - (1 - beta)^k, beta) with beta = sum_x min(p(x), q(x)/gamma)."""
    beta = float(np.minimum(p, q / gamma).sum())
    return 1.0 - (1.0 - beta) ** k, beta


def check_token_case(p, q, k, gamma, alpha_kseq, alpha_otm, alpha_upper) -> list[str]:
    """Check one instance's solver outputs against the benchmark's own values."""
    where = f"token V={p.size} k={k}"
    reference = {"linprog": otm_alpha_linprog(p, q, k), "mincut": otm_alpha_mincut(p, q, k)}
    failures = []
    for name, value in reference.items():
        if not abs(alpha_otm - value) <= OTM_TOL:
            failures.append(f"{where}: otm_lp_solve alpha {alpha_otm!r} vs {name} {value!r}")
    own, beta = kseq_alpha(p, q, k, gamma)
    if not abs(alpha_kseq - own) <= KSEQ_TOL:
        failures.append(f"{where}: kseq_acceptance {alpha_kseq!r} vs formula {own!r}")
    # gamma is valid when the residual is nonnegative, i.e. p_acc <= gamma * beta,
    # and it is gamma* (to bisection precision) when a slightly smaller gamma is not.
    if own > gamma * beta + KSEQ_TOL:
        failures.append(f"{where}: gamma {gamma!r} is below gamma*")
    if gamma - GAMMA_STEP >= 1.0:
        smaller, beta_s = kseq_alpha(p, q, k, gamma - GAMMA_STEP)
        if smaller <= (gamma - GAMMA_STEP) * beta_s:
            failures.append(f"{where}: gamma {gamma!r} is not the smallest valid gamma")
    if not alpha_kseq <= alpha_otm + KSEQ_TOL:
        failures.append(f"{where}: K-SEQ alpha {alpha_kseq!r} above the optimum {alpha_otm!r}")
    if not alpha_otm <= alpha_upper + OTM_TOL:
        failures.append(f"{where}: optimum {alpha_otm!r} above the upper bound {alpha_upper!r}")
    return failures


# ---------------------------------------------------------------------------
# sequence scope: the stepwise chain rule of an enumerated output law
# ---------------------------------------------------------------------------

def chain_rule_gap(dist: dict, target_row, length: int) -> float:
    """max |Pr(len >= i, prefix + y) - q(y | prefix) Pr(len >= i, prefix)| over all cells.

    `target_row(prefix)` returns the target model's next-token row after the
    context followed by `prefix`.
    """
    worst = 0.0
    for i in range(1, length + 2):
        alive: dict[tuple, float] = {}
        extended: dict[tuple, float] = {}
        for seq, w in dist.items():
            if len(seq) >= i:
                alive[seq[:i - 1]] = alive.get(seq[:i - 1], 0.0) + w
                extended[seq[:i]] = extended.get(seq[:i], 0.0) + w
        for prefix, mass in alive.items():
            row = target_row(prefix)
            for y in range(row.size):
                worst = max(worst, abs(extended.get(prefix + (y,), 0.0) - mass * row[y]))
    return worst


def check_sequence_law(dist: dict, big, context, branching, program_gap) -> list[str]:
    """Mass, lengths, vocabulary and the chain rule of one enumerated law."""
    length = len(branching)
    where = f"sequence V={big.vocab_size} {tuple(branching)}"
    failures = []
    mass = sum(dist.values())
    if not abs(mass - 1.0) <= MASS_TOL:
        failures.append(f"{where}: law has total mass {mass!r}")
    if any(w < 0.0 for w in dist.values()):
        failures.append(f"{where}: negative probability")
    if any(not 1 <= len(s) <= length + 1 for s in dist):
        failures.append(f"{where}: output length outside 1..L+1")
    if any(not 0 <= y < big.vocab_size for s in dist for y in s):
        failures.append(f"{where}: token outside the vocabulary")
    base = tuple(context)
    gap = chain_rule_gap(dist, lambda prefix: big.next_dist(base + prefix).probs, length)
    if not gap <= CHAIN_TOL:
        failures.append(f"{where}: chain-rule gap {gap:.3e}")
    if not program_gap <= CHAIN_TOL:
        failures.append(f"{where}: max_chain_rule_gap reports {program_gap:.3e}")
    return failures


# ---------------------------------------------------------------------------
# per-workload entry points
# ---------------------------------------------------------------------------

def check_decode(wl, output, block_efficiency, seed: int) -> tuple[list[str], dict]:
    done = [(prompt, t) for prompt, t in zip(wl.prompts, output.traces) if t is not None]
    prompts = [prompt for prompt, _ in done]
    traces = [t for _, t in done]
    failures = check_decode_structure(traces, wl.cfg, block_efficiency)
    if not traces:
        return failures + ["no decode completed"], {}
    stat_failures, stats = check_decode_statistics(
        traces, prompts, wl.pair.big, wl.pair.small, np.random.default_rng([seed, 99]))
    return failures + stat_failures, stats


def check_exact(wl, output) -> tuple[list[str], dict]:
    failures = []
    for case, res in zip(wl.seq_cases, output.seq):
        if res is not None:
            failures += check_sequence_law(res.dist, case.pair.big, case.context,
                                           case.branching, res.program_gap)
    for case, res in zip(wl.token_cases, output.token):
        if res is not None:
            failures += check_token_case(case.p.probs, case.q.probs, case.k, res.gamma,
                                         res.alpha_kseq, res.alpha_otm, res.alpha_upper)
    return failures, {}
