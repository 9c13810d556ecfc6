"""Exact distribution computations for validity verification.

At desk scale the sequence-level selection can be verified without sampling.
Given the emitted prefix, the live drafts at a depth are i.i.d. draws from
the draft model's row for that prefix, and only their number carries
forward, so the oracle walks states (emitted prefix, live count m) depth by
depth instead of draft forests. Every ordered m-tuple of the row's support
goes, with its draft probability, through the `law` of the very rule the
decoder draws from (`TokenSelector.rule`, a scan or the plan), kept above
PROB_FLOOR in a table the call owns, and through the decoder's index filter
`selection_step`, with no draft node built: a token carried by c live
drafts moves the weight to (prefix + token, c * next branching factor), a
token carried by none ends the sequence, and after the last depth the bonus
row applies. A state whose |supp|^m exceeds STATE_TUPLE_CAP, or that would
take the walk's running totals past WALK_TUPLE_CAP listed tuples or
WALK_ENTRY_CAP stored entries, raises SizeLimitError before any state of
its depth is walked.
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
from typing import Sequence

import numpy as np

from .lm_sim import ToyLm, window
from .draft_gen import DraftNode, checked_factors
from .spectr_decode import SelectionMethod, TokenSelector, selection_step
from . import token_coupling as tc

SeqDist = dict[tuple[int, ...], float]

# Law entries at or below this are left out of the oracle's law table.
PROB_FLOOR = 1e-15
# Most live tuples the walk lists at one state. A K-SEQ tuple costs about 15 us
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
    walked over (emitted prefix, live count) states; a state above STATE_TUPLE_CAP
    live tuples, or a walk above WALK_TUPLE_CAP tuples or WALK_ENTRY_CAP stored
    entries in all, raises SizeLimitError."""
    branching = checked_factors(branching)
    selector = TokenSelector(big, small, method)  # recomputed on every call
    # (window, live tokens) -> (token, probability) over the law's entries above
    # PROB_FLOOR: the rule's law, or with no live drafts the big model's row.
    laws: dict = {}
    base = tuple(int(t) for t in context)
    out: SeqDist = {}
    states = {((), branching[0]): 1.0}
    fanouts = iter(branching[1:])
    listed = stored = 0
    while states:
        # After the leaves, survivors hand on no drafts and the bonus row applies.
        fanout = next(fanouts, 0)
        # Every state of a depth is sized against the caps before any is walked.
        sized = []
        for prefix, live in states:
            row = small.next_dist(base + prefix)
            supp = np.flatnonzero(row.probs > PROB_FLOOR).tolist()
            if tc.power_exceeds(len(supp), live, STATE_TUPLE_CAP):
                raise tc.SizeLimitError(f"|supp p|^live = {len(supp)}^{live} exceeds "
                                        f"the state tuple cap {STATE_TUPLE_CAP}")
            tuples = len(supp) ** live
            listed += tuples
            if listed > WALK_TUPLE_CAP:
                raise tc.SizeLimitError(f"the walk would list {listed} live tuples, above "
                                        f"the walk tuple cap {WALK_TUPLE_CAP}")
            stored += (tuples + 2) * row.vocab_size
            if stored > WALK_ENTRY_CAP:
                raise tc.SizeLimitError(f"the walk would store {stored} entries, above "
                                        f"the walk entry cap {WALK_ENTRY_CAP}")
            sized.append((row, supp))
        reached: dict[tuple[tuple[int, ...], int], float] = {}
        for ((prefix, live), weight), (row, supp) in zip(states.items(), sized):
            ctx = base + prefix
            win = window(ctx, selector.order)
            probs = row.probs.tolist()
            for tokens in itertools.product(supp, repeat=live):
                w = weight * math.prod(map(probs.__getitem__, tokens))
                law = laws.get((win, tokens))
                if law is None:
                    law = laws[win, tokens] = _support(
                        selector.rule(ctx, live).law(tokens) if live else big.next_dist(ctx).probs)
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
