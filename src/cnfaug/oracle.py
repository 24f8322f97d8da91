"""Satisfiability oracles: a deterministic DPLL solver and exhaustive checks.

The DPLL solver realizes the labelling function used throughout the toolkit
and reports how many branching decisions it made, which the stats tooling
uses as a proxy difficulty measure.  Its search, a function nested in
:func:`solve_dpll` that counts into that call's locals, works on one integer
bitmask per clause (the literal-bit convention of :mod:`cnfaug.formula`): a
conflict is an empty mask, a unit a mask with one bit set, the pure and
active variables come from the OR of all masks, and assigning a literal is
one filter and one AND over the clause list.  Only unit steps check for an
empty clause: a branch falsifies one literal of clauses that all hold two or
more.  The brute-force routines enumerate all ``2**num_vars`` assignments at
once, one bit per assignment in a Python integer per variable, and serve as
the independent oracle for property tests; with no search and no
propagation, they share no code path with the DPLL search.
"""

from __future__ import annotations

from dataclasses import dataclass

from .formula import Formula, Label, clause_mask, polarities, positive_bits

MAX_VARS = 200
MAX_DECISIONS = 1_000_000
BRUTE_MAX_VARS = 24


class OracleBudgetError(RuntimeError):
    """The decision budget ran out before a label was established."""


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a DPLL solve.

    ``assignment`` is a total map over ``1..num_vars`` when SAT and ``None``
    when UNSAT.  ``decisions`` counts branching value-trials only; unit and
    pure-literal steps are counted in ``propagations``.
    """

    label: Label
    assignment: dict[int, bool] | None
    decisions: int
    propagations: int


def solve_dpll(formula: Formula) -> SolveResult:
    """Decide satisfiability with DPLL (unit propagation + pure literals).

    Deterministic: each step propagates the first unit clause, else the
    lowest-indexed pure variable, else branches on the lowest-indexed active
    variable, true first.  Raises :class:`OracleBudgetError` when the decision
    budget runs out; never returns a wrong label.
    """
    if formula.num_vars > MAX_VARS:
        raise ValueError(f"{formula.num_vars} variables exceeds the configured limit {MAX_VARS}")
    even = positive_bits(formula.num_vars)
    decisions = propagations = 0

    def run(clauses: list[int], trail: int) -> int | None:
        """Search below a state free of empty clauses; returns ``trail`` (the
        mask of literals set true) extended to a model, or ``None``."""
        nonlocal decisions, propagations
        while clauses:
            unit = next((c for c in clauses if not c & (c - 1)), 0)
            if unit:
                propagations += 1
                trail |= unit
                keep = ~(unit << 1 if unit & even else unit >> 1)
                clauses = [c & keep for c in clauses if not c & unit]
                if 0 in clauses:
                    return None
                continue

            pos, neg = polarities(clauses, even)
            pure = pos ^ neg
            if pure:
                propagations += 1
                low = pure & -pure  # the lowest pure variable
                lit = low if pos & low else low << 1
                trail |= lit
                # A pure literal never shrinks a clause, so this cannot fail.
                clauses = [c for c in clauses if not c & lit]
                continue

            # Branch on the lowest-indexed variable still active (no variable
            # is pure, so pos holds them all), true first.  No clause is a
            # unit here, so falsifying one literal leaves none empty.
            low = pos & -pos
            for lit, comp in ((low, low << 1), (low << 1, low)):
                decisions += 1
                if decisions > MAX_DECISIONS:
                    raise OracleBudgetError(f"decision budget of {MAX_DECISIONS} exhausted")
                keep = ~comp
                result = run([c & keep for c in clauses if not c & lit], trail | lit)
                if result is not None:
                    return result
            return None
        return trail

    masks = [clause_mask(c) for c in formula.clauses]
    found = None if 0 in masks else run(masks, 0)
    label = Label.UNSAT if found is None else Label.SAT
    assignment = None if found is None else {
        v: not found >> (2 * v - 1) & 1 for v in range(1, formula.num_vars + 1)}
    return SolveResult(label, assignment, decisions, propagations)


def _models(formula: Formula) -> int:
    """The satisfying assignments as one integer of ``2**num_vars`` bits.

    Bit ``a`` of variable ``v``'s column is ``v``'s value in assignment
    ``a``; a clause is the OR of its literals' columns (a negative literal
    is the complement within ``full``) and the formula the AND of its
    clauses.
    """
    if formula.num_vars > BRUTE_MAX_VARS:
        raise ValueError(
            f"exhaustive enumeration is limited to {BRUTE_MAX_VARS} variables"
        )
    size = 1 << formula.num_vars
    full = (1 << size) - 1
    columns = []
    for v in range(formula.num_vars):
        half = 1 << v
        col = ((1 << half) - 1) << half
        width = half << 1
        while width < size:
            col |= col << width
            width <<= 1
        columns.append(col)
    models = full
    for clause in formula.clauses:
        covered = 0
        for lit in clause:
            col = columns[abs(lit) - 1]
            covered |= col if lit > 0 else full ^ col
        models &= covered
        if not models:
            break
    return models


def solve_brute(formula: Formula) -> Label:
    """Exact label by enumerating all ``2**num_vars`` assignments."""
    return Label.SAT if _models(formula) else Label.UNSAT


def count_models(formula: Formula) -> int:
    """Exact number of satisfying assignments over the declared variables."""
    return _models(formula).bit_count()
