"""Exact distribution computations for validity verification.

At desk scale the sequence-level selection can be verified without sampling.
Given the emitted prefix, the live drafts at a depth are i.i.d. draws from
the draft model's row for that prefix, and only their number carries
forward, so the oracle walks states (emitted prefix, live count m) depth by
depth instead of draft forests, reading the very rule the decoder draws from
(`TokenSelector.rule`) and keeping law entries above PROB_FLOOR in a table
the call owns. A state takes one of two steps:

* the count step, for K-SEQ and maximal states: the scan's `count_law`, the
  joint law of the emitted token y and the count c of live drafts carrying
  it, in O(m) numpy calls with no draft tuple listed;
* the tuple step, for OTM states: every ordered m-tuple of the row's
  support goes, with its draft probability, through the rule's `law` and the
  decoder's index filter `selection_step`, so c is the number of kept drafts.

Either way a token carried by c > 0 live drafts moves the weight to
(prefix + token, c * next branching factor), a token carried by none ends the
sequence, and after the last depth the bonus row applies. A count walk whose
states and output sequences could hold more than COUNT_ENTRY_CAP entries
raises SizeLimitError before any depth is walked. A tuple-walked state whose
|supp|^m exceeds STATE_TUPLE_CAP, or that would take the walk's running
totals past WALK_TUPLE_CAP listed tuples or WALK_ENTRY_CAP stored entries,
raises it before any state of its depth is walked.
The chain-rule check then sweeps the one output table once, keeping only
the worst cell.

The checked identity is stepwise: for every depth i and emitted prefix,

    Pr(Y_i = y, length >= i, prefix) = M_b(y | context, prefix) * Pr(length >= i, prefix)

i.e. each emitted token is a fresh big-model sample given everything emitted
before it, regardless of how long the run survives afterwards. This is the
form the recursive-selection induction actually guarantees, and it is what
makes the iterated decoder exact.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Sequence

import numpy as np

from .lm_sim import ToyLm, window
from .draft_gen import DraftNode, checked_factors
from .spectr_decode import SelectionMethod, TokenSelector, selection_step
from . import token_coupling as tc

SeqDist = dict[tuple[int, ...], float]

# Law entries at or below this are left out of the oracle's law table.
PROB_FLOOR = 1e-15
# Most entries a count walk (K-SEQ and maximal) may store, bounded from |vocab|
# and the branching factors alone before any depth is walked: |vocab| * (m + 1)
# law cells for every state (prefix, m) a depth can reach, and |vocab| output
# sequences for every prefix. The output table and the chain-rule check's sweep
# of it set the peak (`spectr verify`, ru_maxrss, one core of a 2-core x86
# container): V = 16 with factors (4, 1, 1, 1) bounds 3.1 M entries and peaked
# at 316 MB, V = 1,024 with 8 drafts one deep 2.1 M and 379 MB, and V = 4 with
# one draft nine deep 3.1 M and 414 MB in 11 s, the largest measured; V = 3
# with one draft twelve deep bounds 5.6 M and would peak at 794 MB.
COUNT_ENTRY_CAP = 1 << 22
# The tuple step's caps, which bound only tuple-walked (OTM) states.
# Most live tuples the walk lists at one state. A tuple's law costs about 15 us
# and at most 0.8 KB of law table (V = 3, 5 and 8, one core of a 2-core x86
# container), so a state at the cap takes about 0.25 s and 13 MB; 3^8 and 5^6
# fit, 16^4 not.
STATE_TUPLE_CAP = 1 << 14
# Most live tuples one walk lists in all: V = 3 with factors (2, 2, 2), the largest
# walk tested, lists 66,726; V = 3 with one draft passes the cap from L = 11.
WALK_TUPLE_CAP = 1 << 18
# Most entries one walk stores, counted for every state of a depth before the
# depth is walked: up to |vocab| law cells the law table keeps per listed tuple,
# and at most |vocab| output sequences and |vocab| next states per state. Just
# under it, V = 720 with one draft one deep, `spectr verify` peaked at 245 MB
# ru_maxrss for one method and 303 MB for kseq and otm; V = 3 with factors
# (2, 2, 2), the largest walk tested, stores 200,598.
WALK_ENTRY_CAP = 1 << 21


def method_output_distribution(big: ToyLm, small: ToyLm, context: Sequence[int],
                               branching: Sequence[int], method: SelectionMethod) -> SeqDist:
    """Exact output-sequence law of draft_selection over all draft randomness,
    walked over (emitted prefix, live count) states, K-SEQ and maximal states by
    the count step and OTM states by the tuple step; a count walk above
    COUNT_ENTRY_CAP entries, a tuple-walked state above STATE_TUPLE_CAP live
    tuples, or a tuple walk above WALK_TUPLE_CAP tuples or WALK_ENTRY_CAP
    stored entries in all, raises SizeLimitError."""
    branching = checked_factors(branching)
    counted = method.kind != "otm_lp"
    if counted:
        _check_count_walk(big.vocab_size, branching)
    selector = TokenSelector(big, small, method)  # recomputed on every call
    # Entries above PROB_FLOOR of each law, with no live drafts the big model's
    # row: (window, live count) -> (token, count, probability) for the count
    # step, (window, live tokens) -> (token, probability) for the tuple step.
    laws: dict = {}
    base = tuple(int(t) for t in context)
    out: SeqDist = {}
    states = {((), branching[0]): 1.0}
    fanouts = iter(branching[1:])
    listed = stored = 0
    while states:
        # After the leaves, survivors hand on no drafts and the bonus row applies.
        fanout = next(fanouts, 0)
        reached: dict[tuple[tuple[int, ...], int], float] = {}
        if counted:
            for (prefix, live), weight in states.items():
                ctx = base + prefix
                key = (window(ctx, selector.order), live)
                law = laws.get(key)
                if law is None:
                    law = laws[key] = _count_support(
                        selector.rule(ctx, live).count_law() if live
                        else big.next_dist(ctx).probs[:, None])
                for y, c, wy in law:
                    if c:
                        _bump(reached, (prefix + (y,), c * fanout), weight * wy)
                    else:
                        _bump(out, prefix + (y,), weight * wy)
        else:
            # Every state of a depth is sized against the caps before any is walked.
            sized = []
            for prefix, live in states:
                row = small.next_dist(base + prefix)
                supp = np.flatnonzero(row.probs > PROB_FLOOR).tolist()
                listed, stored = _sized_state(listed, stored, len(supp), live, row.vocab_size)
                sized.append((row, supp))
            for ((prefix, live), weight), (row, supp) in zip(states.items(), sized):
                ctx = base + prefix
                win = window(ctx, selector.order)
                probs = row.probs.tolist()
                for tokens in itertools.product(supp, repeat=live):
                    w = weight * math.prod(map(probs.__getitem__, tokens))
                    law = laws.get((win, tokens))
                    if law is None:
                        law = laws[win, tokens] = _support(
                            selector.rule(ctx, live).law(tokens) if live
                            else big.next_dist(ctx).probs)
                    for y, wy in law:
                        kept = selection_step(tokens, y)
                        if kept is None:
                            _bump(out, prefix + (y,), w * wy)
                        else:
                            _bump(reached, (prefix + (y,), len(kept) * fanout), w * wy)
        states = reached
    mass = sum(out.values())
    if abs(mass - 1.0) > 1e-9:
        raise tc.ValidationError(f"output law mass {mass!r} != 1")
    return out


def _check_count_walk(vocab: int, branching: list[int]) -> None:
    """Refuse a count walk that could store more than COUNT_ENTRY_CAP entries.

    At depth d there are at most vocab^d prefixes, and the live count is
    branching[0] at the root, then c * branching[d] for a survivor count c
    up to the product of the factors before d. Every such state may hold
    vocab * (live + 1) law cells, every prefix hands on at most vocab output
    sequences, and a survivor of the last depth holds the bonus row's vocab
    cells.
    """
    prefixes, entries, most = 1, 0, 0
    for factor in [*branching, 0]:
        if not most:  # the root's one live count
            cells = vocab * (factor + 1)
        elif not factor:  # the bonus row after the leaves
            cells = vocab
        else:  # the sum over c = 1 .. most of vocab * (c * factor + 1)
            cells = vocab * (factor * most * (most + 1) // 2 + most)
        entries += prefixes * (cells + vocab)
        if entries > COUNT_ENTRY_CAP:
            raise tc.SizeLimitError(f"the count walk could store {entries} entries, above "
                                    f"the count entry cap {COUNT_ENTRY_CAP}")
        prefixes *= vocab
        most = most * factor if most else factor


def check_walk_caps(vocab: int, branching: Sequence[int], method: SelectionMethod) -> None:
    """Refuse, before any row is built, a walk that method_output_distribution
    would refuse on models whose every row entry is above PROB_FLOOR, as
    `spectr verify`'s are, so that a list of methods is refused before any is
    walked. It refuses nothing such a walk accepts.

    A count walk is bounded from |vocab| and the factors alone. For a tuple
    walk every state's support is the whole vocabulary, so a state of live
    count m lists |vocab|^m tuples, and one state per depth is surely reached:
    the plan sends its first set, {0}, min(P({0}), q(0)) to token 0, so the
    all-zero tuple emits token 0 with probability at least q(0) and keeps all
    m drafts. At one draft the plan is the maximal coupling in closed form,
    which sends just that; only at m >= 2 does a max-flow run, and it sends
    that on its first path, which no later path can undo. The caps are checked on
    that chain of states, as the walk counts them; the walk's own totals at
    each depth are at least the chain's.
    """
    branching = checked_factors(branching)
    if method.kind != "otm_lp":
        _check_count_walk(vocab, branching)
        return
    listed = stored = 0
    # The chain's live counts: the factors' running products, then the bonus row's 0.
    for live in itertools.chain(itertools.accumulate(branching, operator.mul), [0]):
        listed, stored = _sized_state(listed, stored, vocab, live, vocab)


def _sized_state(listed: int, stored: int, size: int, live: int, vocab: int) -> tuple[int, int]:
    """The tuple walk's totals (listed tuples, stored entries) with one more
    state of `live` drafts over a support of `size` tokens: size^live tuples,
    up to `vocab` law cells each and 2 * `vocab` sequences and next states.
    Raises SizeLimitError above STATE_TUPLE_CAP, WALK_TUPLE_CAP or
    WALK_ENTRY_CAP."""
    if tc.power_exceeds(size, live, STATE_TUPLE_CAP):
        raise tc.SizeLimitError(f"|supp p|^live = {size}^{live} exceeds "
                                f"the state tuple cap {STATE_TUPLE_CAP}")
    tuples = size ** live
    listed += tuples
    if listed > WALK_TUPLE_CAP:
        raise tc.SizeLimitError(f"the walk would list {listed} live tuples, above "
                                f"the walk tuple cap {WALK_TUPLE_CAP}")
    stored += (tuples + 2) * vocab
    if stored > WALK_ENTRY_CAP:
        raise tc.SizeLimitError(f"the walk would store {stored} entries, above "
                                f"the walk entry cap {WALK_ENTRY_CAP}")
    return listed, stored


def _count_support(table: np.ndarray) -> list[tuple[int, int, float]]:
    """(token, count, probability) over the entries of a count table above PROB_FLOOR."""
    ys, cs = np.nonzero(table > PROB_FLOOR)
    return list(zip(ys.tolist(), cs.tolist(), table[ys, cs].tolist()))


def _support(law: np.ndarray) -> list[tuple[int, float]]:
    """(token, probability) over the entries of `law` above PROB_FLOOR."""
    return [(y, w) for y, w in enumerate(law.tolist()) if w > PROB_FLOOR]


def enumerate_draft_forests(small: ToyLm, context: Sequence[int],
                            branching: Sequence[int]):
    """Yield every possible draft forest with its construction probability.

    `branching` lists the per-depth expansion factors; i.i.d. drafts of count
    K and length L correspond to (K, 1, ..., 1). Probabilities multiply the
    draft-model conditionals of every node given its own prefix. There are
    (|supp|^L)^K forests for K i.i.d. drafts, so this serves only as the
    independent reference that the state walk is tested against (and
    perfbench's tracer still counts what it yields, by name).
    """
    branching = checked_factors(branching)
    base = tuple(int(t) for t in context)
    yield from _group_options(small, base, branching, (), 0)


def _group_options(small: ToyLm, base: tuple, branching: list[int], prefix: tuple,
                   depth: int) -> list[tuple[tuple[DraftNode, ...], float]]:
    """Every group of branching[depth] i.i.d. sibling nodes under `prefix`, with its probability."""
    cond = small.next_dist(base + prefix)
    single: list[tuple[DraftNode, float]] = []
    for y in np.flatnonzero(cond.probs > PROB_FLOOR).tolist():
        groups = (_group_options(small, base, branching, prefix + (y,), depth + 1)
                  if depth + 1 < len(branching) else [((), 1.0)])
        single.extend((DraftNode(y, kids), cond[y] * w2) for kids, w2 in groups)
    return [(tuple(node for node, _ in combo), math.prod(wi for _, wi in combo))
            for combo in itertools.product(single, repeat=branching[depth])]


def max_chain_rule_gap(dist: SeqDist, big: ToyLm, context: Sequence[int],
                       length: int) -> tuple[float, tuple]:
    """Largest stepwise violation and the first (depth, prefix, token) cell where
    it occurs, found in one sweep with prefixes in order of first appearance.
    A law with no cell to check, such as an empty one, raises ValidationError."""
    base = tuple(int(t) for t in context)
    worst, cell = 0.0, None
    for i in range(1, length + 2):
        alive: dict[tuple[int, ...], float] = {}
        extended: dict[tuple[int, ...], float] = {}
        for seq, w in dist.items():
            if len(seq) >= i:
                _bump(alive, seq[:i - 1], w)
                _bump(extended, seq[:i], w)
        for prefix, mass in alive.items():
            row = big.next_dist(base + prefix).probs.tolist()
            for y, qy in enumerate(row):
                gap = abs(extended.get(prefix + (y,), 0.0) - mass * qy)
                if cell is None or gap > worst:
                    worst, cell = gap, (i, prefix, y)
    if cell is None:
        raise tc.ValidationError("the output law has no chain-rule cell to check")
    return worst, cell


def _bump(table: dict, key, value: float) -> None:
    table[key] = table.get(key, 0.0) + value
