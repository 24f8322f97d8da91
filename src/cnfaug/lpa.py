"""Satisfiability-preserving CNF transformations.

Each transformation maps a formula to a new formula with the same SAT/UNSAT
label, parameterized by an intensity ``rate`` in [0, 1] and a seed.  The
rate is mapped to a step count with ``ceil(rate * base)`` where the base is
operation-specific (unit clauses for unit propagation, clause count for
clause additions, variable count for elimination).  Every draw comes from
a :class:`cnfaug._stream.Stream` seeded per call, so outputs are a pure
function of (formula, rate, seed).

Variable elimination, clause resolution, subsumption and the pure-variable
scan work on one integer bitmask per clause, in the literal-bit convention
of :mod:`cnfaug.formula` (``+v`` is bit ``2(v-1)``, ``-v`` bit ``2(v-1)+1``);
VE and CR find complementary occurrences through one per-literal index
with a list for every literal up to the highest that occurs, so their work
grows with that variable's index, not with how many variables occur.  A
variable that occurs in no clause is never a VE candidate and never
counted as eliminated.
"""

from __future__ import annotations

import logging
import math

from ._stream import Stream
from .formula import (
    Clause,
    Formula,
    clause_mask,
    clause_of_mask,
    make_clause,
    polarities,
    positive_bits,
)

logger = logging.getLogger(__name__)

MAX_RESOLVE_ATTEMPTS = 50
RESOLVENT_BOUND_FACTOR = 2.0


def _ceil_count(rate: float, base: int) -> int:
    """``ceil(rate * base)`` guarded against float fuzz (0.1 * 10 -> 1)."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate must lie in [0, 1], got {rate}")
    return max(0, math.ceil(rate * base - 1e-9))


def unit_propagate(formula: Formula, rate: float, seed: int) -> Formula:
    """Propagate a seeded selection of unit clauses.

    Performs ``ceil(rate * u)`` single propagation steps, where ``u`` counts
    the unit clauses of the input; after each step the formula is re-scanned
    (propagation may create new units).  If complementary units are derived
    the output contains the empty clause.
    """
    clauses = list(formula.clauses)
    units_at_start = sum(1 for c in clauses if len(c) == 1)
    steps = _ceil_count(rate, units_at_start)
    if steps == 0:
        return formula
    stream = Stream(seed)
    for _ in range(steps):
        unit_positions = [i for i, c in enumerate(clauses) if len(c) == 1]
        if not unit_positions:
            break
        lit = clauses[unit_positions[stream.integers(len(unit_positions))]][0]
        # drop the clauses lit satisfies, delete -lit from the rest; a clause may become empty
        clauses = [tuple(x for x in c if x != -lit) if -lit in c else c
                   for c in clauses if lit not in c]
    return Formula._canonical(formula.num_vars, tuple(clauses))


def add_unit_literal(formula: Formula, rate: float, seed: int) -> Formula:
    """Introduce one fresh variable as a unit clause and weave it in.

    The fresh literal's negation is inserted into ``ceil(rate * m)`` existing
    clauses and ``ceil(rate * m)`` new clauses containing the fresh literal
    plus 1-3 random other literals are appended (``m`` = clause count).  The
    unit clause goes first, new clauses last.  Inverse of one propagation
    step, so the label is preserved.
    """
    stream = Stream(seed)
    fresh = formula.num_vars + 1
    lit = -fresh if stream.integers(2) else fresh
    m = formula.num_clauses
    count = _ceil_count(rate, m)

    targets = set(stream.sample(m, count))
    body = [
        clause + (-lit,) if i in targets else clause
        for i, clause in enumerate(formula.clauses)
    ]

    extras: list[Clause] = []
    for _ in range(count):
        width = min(1 + stream.integers(3), formula.num_vars)
        # canonical: distinct variables below ``fresh``, then the fresh literal
        extras.append((*stream.clause(stream.sample(formula.num_vars, width)), lit))

    return Formula._canonical(fresh, ((lit,), *body, *extras))


def _pure_variables(formula: Formula) -> list[int]:
    """Variables occurring in a single polarity, by the rule DPLL uses, in
    ascending order.  The masks are only as wide as the literals that occur,
    whatever the header declares; the pure variables' positive-literal bits
    decode to the variables themselves."""
    masks = list(map(clause_mask, formula.clauses))
    width = max(masks, default=0).bit_length()
    pos, neg = polarities(masks, positive_bits((width + 1) // 2))
    return list(clause_of_mask(pos ^ neg))


def pure_literal_eliminate(formula: Formula, rate: float, seed: int) -> Formula:
    """Delete every clause containing each of ``ceil(rate * p)`` seeded pure
    variables (``p`` = number of variables occurring in a single polarity)."""
    pure = _pure_variables(formula)
    count = _ceil_count(rate, len(pure))
    if count == 0:
        return formula
    chosen = {pure[i] for i in Stream(seed).sample(len(pure), count)}
    kept = tuple(
        c for c in formula.clauses if not any(abs(lit) in chosen for lit in c)
    )
    return Formula._canonical(formula.num_vars, kept)


def strict_supersets(masks: list[int]) -> set[int]:
    """The clause masks that strictly contain another mask of ``masks``.

    Pairwise subset checks over the distinct masks, smaller masks first, so
    each mask is tested only against masks with fewer literals.
    """
    distinct = sorted(set(masks), key=int.bit_count)
    sizes = [m.bit_count() for m in distinct]
    found = set()
    for outer, size in zip(distinct, sizes):
        for inner, inner_size in zip(distinct, sizes):
            if inner_size >= size:
                break
            if inner & outer == inner:
                found.add(outer)
                break
    return found


def subsumed_clause_eliminate(formula: Formula) -> Formula:
    """Remove every clause that is a strict superset of another clause.

    Exact duplicates count as mutual subsumption; the first occurrence is
    kept.  Pairwise subset checks, O(m^2) in the clause count.
    """
    masks = [clause_mask(c) for c in formula.clauses]
    skip = strict_supersets(masks)
    kept = []
    for clause, mask in zip(formula.clauses, masks):
        if mask not in skip:
            skip.add(mask)  # later duplicates go
            kept.append(clause)
    return Formula._canonical(formula.num_vars, tuple(kept))


def resolve(c1: Clause, c2: Clause, pivot: int) -> Clause | None:
    """Resolvent of two clauses on ``pivot``: the union of both clauses minus
    the complementary pivot pair.  Returns ``None`` when the resolvent is
    tautological.  The pivot must occur positively in one clause and
    negatively in the other (either order)."""
    if pivot < 1:
        raise ValueError("pivot must be a variable index")
    if pivot in c1 and -pivot in c2:
        left, right = c1, c2
    elif -pivot in c1 and pivot in c2:
        left, right = c2, c1
    else:
        raise ValueError(f"variable {pivot} is not complementary between the clauses")
    merged = (set(left) - {pivot}) | (set(right) - {-pivot})
    if any(-lit in merged for lit in merged):
        return None
    return make_clause(merged)


def _occurrence_lists(masks: list[int]) -> tuple[list[list[int]], int]:
    """The ascending indices of the masks holding each literal, at its bit,
    for both literals of every variable up to the highest that occurs (the
    largest mask holds the highest bit), and those variables' tautology mask."""
    width = max(masks, default=0).bit_length()
    occurrences: list[list[int]] = [[] for _ in range(width + width % 2)]
    for i, mask in enumerate(masks):
        while mask:
            low = mask & -mask
            occurrences[low.bit_length() - 1].append(i)
            mask ^= low
    return occurrences, positive_bits(len(occurrences) // 2)


def clause_resolution(formula: Formula, rate: float, seed: int) -> Formula:
    """Append ``ceil(rate * m)`` resolvents of seeded-random clause pairs.

    Pairs are drawn uniformly over complementary literal occurrences of the
    input (with replacement); tautologies and duplicates of current clauses
    are redrawn, within ``MAX_RESOLVE_ATTEMPTS`` draws per requested resolvent.
    When the budget runs out first, fewer resolvents are appended and an
    INFO record gives the count added, the count requested and the budget.
    Identity when no complementary pair exists.  Clauses are resolved on
    their bitmasks, as in :func:`variable_eliminate`.  Pivots are picked from
    the weights' cumulative table and clauses by bounded draws.
    """
    target = _ceil_count(rate, formula.num_clauses)
    if target == 0:
        return formula
    masks = [clause_mask(c) for c in formula.clauses]
    occurrences, even = _occurrence_lists(masks)
    pairs = zip(occurrences[0::2], occurrences[1::2])
    pivots = [(1 << 2 * i, pos, neg) for i, (pos, neg) in enumerate(pairs) if pos and neg]
    if not pivots:
        return formula
    # each weight is one correctly rounded division of exact integers
    counts = [len(pos) * len(neg) for _, pos, neg in pivots]
    total = sum(counts)
    cdf = Stream.cdf([c / total for c in counts])

    stream = Stream(seed)
    existing = set(masks)
    added: list[int] = []
    budget = MAX_RESOLVE_ATTEMPTS * target
    attempts = 0
    while len(added) < target and attempts < budget:
        attempts += 1
        pbit, pos, neg = pivots[stream.pick(cdf)]
        ci = pos[stream.integers(len(pos))]
        cj = neg[stream.integers(len(neg))]
        resolvent = (masks[ci] ^ pbit) | (masks[cj] ^ (pbit << 1))
        if resolvent & (resolvent >> 1) & even or resolvent in existing:
            continue
        existing.add(resolvent)
        added.append(resolvent)
    if len(added) < target:
        logger.info(
            "clause resolution added %d of %d requested resolvents "
            "(attempt budget of %d exhausted)",
            len(added),
            target,
            budget,
        )
    return Formula._canonical(
        formula.num_vars, formula.clauses + tuple(map(clause_of_mask, added))
    )


def _elimination_plan(
    masks: list[int], pos: list[int], neg: list[int], pbit: int, even: int
) -> list[int] | None:
    """Resolvent masks of eliminating the variable whose positive literal is
    the mask ``pbit``, or ``None`` when their count exceeds
    ``RESOLVENT_BOUND_FACTOR`` times the touched clauses.

    ``pos``/``neg`` index the clauses holding each polarity.  Clauses holding
    both are tautologies: they count as touched but are not resolved, so the
    output never mentions the variable.  Resolvents come in ``pos x neg``
    order, tautologies skipped and duplicates kept once.
    """
    nbit = pbit << 1
    both = [i for i in pos if masks[i] & nbit]
    limit = RESOLVENT_BOUND_FACTOR * (len(pos) + len(neg) - len(both))
    if both:
        pos = [i for i in pos if i not in both]
        neg = [i for i in neg if i not in both]
    negs = [masks[j] ^ nbit for j in neg]
    resolvents: dict[int, None] = {}
    for i in pos:
        a = masks[i] ^ pbit
        for b in negs:
            r = a | b
            if r & (r >> 1) & even or r in resolvents:
                continue
            resolvents[r] = None
            if len(resolvents) > limit:
                return None
    return list(resolvents)


def variable_eliminate(formula: Formula, rate: float, seed: int) -> Formula:
    """Eliminate ``max(1, ceil(rate * num_vars))`` variables by resolution.

    For each step a seeded-random variable is chosen among those that occur
    in the current clauses (ascending) and whose elimination yields at most
    ``RESOLVENT_BOUND_FACTOR`` times as many resolvents as clauses removed;
    the touching clauses are replaced by all
    non-tautological pairwise resolvents (deduplicated, appended in
    generation order).  Eliminated variables occur nowhere in the output;
    ``num_vars`` is left unchanged (indices may gap).  A variable that occurs
    nowhere is neither drawn nor counted, so on a sparse or thinned formula
    fewer variables may be eliminated than requested.  When no variable fits
    under the bound the actual elimination count is logged and the formula
    so far is returned.

    Each step indexes the clauses by literal on their bitmasks (``+v`` is
    bit ``2(v-1)``, ``-v`` bit ``2(v-1)+1``, as in the module docstring):
    a resolvent on ``v`` is ``(a ^ p) | (b ^ n)`` for the pivot bits ``p``
    and ``n``, and it is a tautology when ``r & (r >> 1)`` has an even bit
    set.  The index and that tautology mask are only as wide as the literals
    that occur, whatever the header declares.  The steps keep masks only; the
    result is decoded once, an input clause through a map from its mask and a
    resolvent by ``clause_of_mask``.
    """
    requested = max(1, _ceil_count(rate, formula.num_vars))
    masks = [clause_mask(c) for c in formula.clauses]
    decoded = dict(zip(masks, formula.clauses))
    stream = Stream(seed)
    eliminated = 0
    for _ in range(requested):
        occurrences, even = _occurrence_lists(masks)
        plans = {}
        for v, (pos, neg) in enumerate(zip(occurrences[0::2], occurrences[1::2]), 1):
            if pos or neg:
                plan = _elimination_plan(masks, pos, neg, 1 << (2 * v - 2), even)
                if plan is not None:
                    plans[v] = plan
        if not plans:
            break
        candidates = list(plans)
        var = candidates[stream.integers(len(candidates))]
        dropped = set(occurrences[2 * var - 2]).union(occurrences[2 * var - 1])
        masks = [m for i, m in enumerate(masks) if i not in dropped] + plans[var]
        eliminated += 1
    if eliminated < requested:
        logger.info(
            "variable elimination stopped at %d of %d requested variables "
            "(no candidate under the resolvent bound)",
            eliminated,
            requested,
        )
    clauses = tuple(decoded[m] if m in decoded else clause_of_mask(m) for m in masks)
    return Formula._canonical(formula.num_vars, clauses)
