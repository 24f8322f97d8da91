"""Satisfiability-preserving CNF transformations.

Each transformation maps a formula to a new formula with the same SAT/UNSAT
label, parameterized by an intensity ``rate`` in [0, 1] and a seed.  The
rate is mapped to a step count with ``ceil(rate * base)`` where the base is
operation-specific (unit clauses for unit propagation, clause count for
clause additions, variable count for elimination).  All randomness comes
from a PCG64 bit generator seeded per call, so outputs are a pure function of
(formula, rate, seed).  Clause resolution reads the generator's raw output in
bulk through :class:`_Stream`, which gives exactly the values of the numpy
``Generator`` calls it stands in for; the other transformations call the
``Generator`` of :func:`seeded_rng`.

Variable elimination, clause resolution, subsumption and the pure-variable
scan work on one integer bitmask per clause, in the literal-bit convention
of :mod:`cnfaug.formula` (``+v`` is bit ``2(v-1)``, ``-v`` bit ``2(v-1)+1``);
VE and CR find complementary occurrences through one per-literal index.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_right

import numpy as np

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


def seeded_rng(seed: int) -> np.random.Generator:
    """The numpy generator of a seed; :class:`_Stream` gives the values of
    some of its calls from the same PCG64 output."""
    return np.random.Generator(np.random.PCG64(seed))


_RAW_BLOCK = 128
_TWO32 = 1 << 32
_MASK32 = _TWO32 - 1


class _Stream:
    """The draws of ``seeded_rng(seed)`` for four ``Generator`` calls, read
    from PCG64's raw 64-bit outputs fetched ``_RAW_BLOCK`` at a time.

    numpy's bounded draws are Lemire's multiply-and-reject method on 32-bit
    values.  A 32-bit value is the held high half of the last raw output if
    there is one, else the low half of the next output, whose high half is
    then held.  A double takes a whole raw output and leaves any held half in
    place.  The same calls in the same order give the same values as the
    ``Generator``; per call this skips numpy's dispatch and array overhead.
    """

    __slots__ = ("_bits", "_raw", "_half")

    def __init__(self, seed: int) -> None:
        self._bits = np.random.PCG64(seed)
        self._raw: list[int] = []  # reversed, so pop() yields the next output
        self._half: int | None = None

    def _refill(self) -> list[int]:
        self._raw = self._bits.random_raw(_RAW_BLOCK).tolist()[::-1]
        return self._raw

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        raw = (self._raw or self._refill()).pop()
        self._half = raw >> 32
        return raw & _MASK32

    def integers(self, bound: int) -> int:
        """``Generator.integers(bound)`` for ``1 <= bound <= 2**32``; a bound
        of 1 consumes nothing."""
        if not 1 < bound <= _TWO32:
            if bound == 1:
                return 0
            raise ValueError(f"bound must lie in [1, 2**32], got {bound}")
        m = self._next32() * bound
        if m & _MASK32 < bound:
            threshold = _TWO32 % bound
            while m & _MASK32 < threshold:
                m = self._next32() * bound
        return m >> 32

    def random(self) -> float:
        """``Generator.random()``: the top 53 bits of one raw output."""
        return ((self._raw or self._refill()).pop() >> 11) * 2.0**-53

    def sample(self, n: int, k: int) -> list[int]:
        """``Generator.choice(n, k, replace=False)``: Floyd's algorithm, then
        a shuffle of positions ``k-1 .. 1``.

        numpy takes another algorithm when ``n > 10000 and k > n // 50``;
        those shapes raise :class:`ValueError`.
        """
        if not 0 <= k <= n:
            raise ValueError(f"cannot sample {k} of {n} without replacement")
        if n > 10000 and k > n // 50:
            raise ValueError(
                f"sampling {k} of {n} without replacement is limited to "
                "n <= 10000 or k <= n // 50"
            )
        chosen: list[int] = []
        seen: set[int] = set()
        for j in range(n - k, n):
            v = self.integers(j + 1)
            if v in seen:
                v = j
            seen.add(v)
            chosen.append(v)
        for i in range(k - 1, 0, -1):
            j = self.integers(i + 1)
            chosen[i], chosen[j] = chosen[j], chosen[i]
        return chosen

    @staticmethod
    def cdf(p: np.ndarray) -> list[float]:
        """The cumulative table ``Generator.choice(len(p), p=p)`` builds."""
        cdf = p.cumsum()
        cdf /= cdf[-1]
        return cdf.tolist()

    def pick(self, cdf: list[float]) -> int:
        """``Generator.choice(len(p), p=p)`` for ``cdf == _Stream.cdf(p)``."""
        return bisect_right(cdf, self.random())


def _ceil_count(rate: float, base: int) -> int:
    """``ceil(rate * base)`` guarded against float fuzz (0.1 * 10 -> 1)."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate must lie in [0, 1], got {rate}")
    return max(0, math.ceil(rate * base - 1e-9))


def _delete_literal(clauses: list[Clause], lit: int) -> list[Clause]:
    """One unit-propagation step for ``lit``: satisfied clauses are dropped,
    ``-lit`` is deleted elsewhere.  Clauses may become empty (falsum)."""
    out = []
    for clause in clauses:
        if lit in clause:
            continue
        if -lit in clause:
            out.append(tuple(x for x in clause if x != -lit))
        else:
            out.append(clause)
    return out


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
    rng = seeded_rng(seed)
    for _ in range(steps):
        unit_positions = [i for i, c in enumerate(clauses) if len(c) == 1]
        if not unit_positions:
            break
        pick = unit_positions[int(rng.integers(len(unit_positions)))]
        clauses = _delete_literal(clauses, clauses[pick][0])
    return Formula(formula.num_vars, tuple(clauses))


def add_unit_literal(formula: Formula, rate: float, seed: int) -> Formula:
    """Introduce one fresh variable as a unit clause and weave it in.

    The fresh literal's negation is inserted into ``ceil(rate * m)`` existing
    clauses and ``ceil(rate * m)`` new clauses containing the fresh literal
    plus 1-3 random other literals are appended (``m`` = clause count).  The
    unit clause goes first, new clauses last.  Inverse of one propagation
    step, so the label is preserved.
    """
    rng = seeded_rng(seed)
    fresh = formula.num_vars + 1
    lit = -fresh if rng.integers(2) else fresh
    m = formula.num_clauses
    count = _ceil_count(rate, m)

    targets = set(rng.choice(m, size=count, replace=False).tolist()) if count else set()
    body = [
        clause + (-lit,) if i in targets else clause
        for i, clause in enumerate(formula.clauses)
    ]

    extras: list[Clause] = []
    for _ in range(count):
        width = min(int(rng.integers(1, 4)), formula.num_vars)
        lits = [lit]
        if width:
            chosen = rng.choice(formula.num_vars, size=width, replace=False) + 1
            flips = rng.integers(2, size=width)
            lits += [int(-v if neg else v) for v, neg in zip(chosen, flips)]
        extras.append(tuple(lits))

    return Formula(fresh, ((lit,), *body, *extras))


def _pure_variables(formula: Formula) -> list[int]:
    """Variables occurring in a single polarity, by the rule DPLL uses."""
    pos, neg = polarities(map(clause_mask, formula.clauses), positive_bits(formula.num_vars))
    pure = pos ^ neg
    return [v for v in range(1, formula.num_vars + 1) if pure >> (2 * v - 2) & 1]


def pure_literal_eliminate(formula: Formula, rate: float, seed: int) -> Formula:
    """Delete every clause containing each of ``ceil(rate * p)`` seeded pure
    variables (``p`` = number of variables occurring in a single polarity)."""
    pure = _pure_variables(formula)
    count = _ceil_count(rate, len(pure))
    if count == 0:
        return formula
    rng = seeded_rng(seed)
    chosen = set(rng.choice(np.asarray(pure), size=count, replace=False).tolist())
    kept = tuple(
        c for c in formula.clauses if not any(abs(lit) in chosen for lit in c)
    )
    return Formula(formula.num_vars, kept)


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
    return Formula(formula.num_vars, tuple(kept))


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


def _occurrence_lists(masks: list[int], num_vars: int) -> list[list[int]]:
    """The ascending indices of the masks holding each literal, at its bit."""
    occurrences: list[list[int]] = [[] for _ in range(2 * num_vars)]
    for i, mask in enumerate(masks):
        while mask:
            low = mask & -mask
            occurrences[low.bit_length() - 1].append(i)
            mask ^= low
    return occurrences


def clause_resolution(formula: Formula, rate: float, seed: int) -> Formula:
    """Append ``ceil(rate * m)`` resolvents of seeded-random clause pairs.

    Pairs are drawn uniformly over complementary literal occurrences of the
    input (with replacement); tautologies and duplicates of current clauses
    are redrawn, within ``MAX_RESOLVE_ATTEMPTS`` draws per requested resolvent.
    When the budget runs out first, fewer resolvents are appended and an
    INFO record gives the count added, the count requested and the budget.
    Identity when no complementary pair exists.  Clauses are resolved on
    their bitmasks, as in :func:`variable_eliminate`.  Pivots are picked from
    the weights' cumulative table and clauses by bounded draws, both on a
    :class:`_Stream`.
    """
    target = _ceil_count(rate, formula.num_clauses)
    if target == 0:
        return formula
    masks = [clause_mask(c) for c in formula.clauses]
    occurrences = _occurrence_lists(masks, formula.num_vars)
    pairs = zip(occurrences[0::2], occurrences[1::2])
    pivots = [(1 << 2 * i, pos, neg) for i, (pos, neg) in enumerate(pairs) if pos and neg]
    if not pivots:
        return formula
    weights = np.array([len(pos) * len(neg) for _, pos, neg in pivots], dtype=float)
    weights /= weights.sum()
    cdf = _Stream.cdf(weights)

    stream = _Stream(seed)
    even = positive_bits(formula.num_vars)
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
    return Formula(formula.num_vars, formula.clauses + tuple(map(clause_of_mask, added)))


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

    For each step a seeded-random variable is chosen among those whose
    elimination yields at most ``RESOLVENT_BOUND_FACTOR`` times as many
    resolvents as clauses removed; the touching clauses are replaced by all
    non-tautological pairwise resolvents (deduplicated, appended in
    generation order).  Eliminated variables occur nowhere in the output;
    ``num_vars`` is left unchanged (indices may gap).  When no variable fits
    under the bound the actual elimination count is logged and the formula
    so far is returned.

    Each step indexes the clauses by literal on their bitmasks (``+v`` is
    bit ``2(v-1)``, ``-v`` bit ``2(v-1)+1``, as in the module docstring):
    a resolvent on ``v`` is ``(a ^ p) | (b ^ n)`` for the pivot bits ``p``
    and ``n``, and it is a tautology when ``r & (r >> 1)`` has an even bit
    set.  Only the chosen variable's resolvents are decoded; kept clauses
    stay in place.
    """
    requested = max(1, _ceil_count(rate, formula.num_vars))
    clauses = list(formula.clauses)
    masks = [clause_mask(c) for c in clauses]
    even = positive_bits(formula.num_vars)
    remaining = set(range(1, formula.num_vars + 1))
    rng = seeded_rng(seed)
    eliminated = 0
    for _ in range(requested):
        occurrences = _occurrence_lists(masks, formula.num_vars)
        plans = {}
        for v in sorted(remaining):
            pos, neg = occurrences[2 * v - 2], occurrences[2 * v - 1]
            plan = _elimination_plan(masks, pos, neg, 1 << (2 * v - 2), even)
            if plan is not None:
                plans[v] = plan
        if not plans:
            break
        candidates = list(plans)
        var = candidates[int(rng.integers(len(candidates)))]
        dropped = set(occurrences[2 * var - 2]).union(occurrences[2 * var - 1])
        kept = [i for i in range(len(masks)) if i not in dropped]
        clauses = [clauses[i] for i in kept] + [clause_of_mask(r) for r in plans[var]]
        masks = [masks[i] for i in kept] + plans[var]
        remaining.remove(var)
        eliminated += 1
    if eliminated < requested:
        logger.info(
            "variable elimination stopped at %d of %d requested variables "
            "(no candidate under the resolvent bound)",
            eliminated,
            requested,
        )
    return Formula(formula.num_vars, tuple(clauses))
