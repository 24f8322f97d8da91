#!/usr/bin/env python3
"""Tour of the CNF toolbox on a small worked example.

Walks one four-clause formula through parsing, solving, and each of the six
satisfiability-preserving transformations, printing the formula after every
step so the rules are easy to follow by eye.
"""

from cnfaug import (
    Formula,
    add_unit_literal,
    clause_resolution,
    parse_dimacs,
    pure_literal_eliminate,
    serialize_dimacs,
    solve_dpll,
    subsumed_clause_eliminate,
    unit_propagate,
    variable_eliminate,
)


def show(name, formula):
    clauses = " ".join(
        "(" + " ".join(str(l) for l in c) + ")" if c else "()" for c in formula.clauses
    )
    print(f"{name:24s} {clauses}")


text = """\
c the running example: x1 ; x2|x3 ; x1|-x3|x4 ; -x1|x2|x3|-x4
p cnf 4 4
1 0
2 3 0
1 -3 4 0
-1 2 3 -4 0
"""

f = parse_dimacs(text)
show("original", f)

result = solve_dpll(f)
print(f"label: {result.label.value}, assignment: {result.assignment}, "
      f"decisions: {result.decisions}, propagations: {result.propagations}")
print()

# Unit propagation: the unit clause (1) satisfies clauses containing 1 and
# strips -1 from the rest.
show("unit propagation", unit_propagate(f, rate=1.0, seed=0))

# Add-unit-literal is its inverse: a fresh variable arrives as a unit
# clause, gets woven into existing clauses, and seeds some new ones.
show("add unit literal", add_unit_literal(f, rate=0.25, seed=1252))

# Pure literal: x2 only ever appears positively, so clauses containing it
# can be dropped.
show("pure literal", pure_literal_eliminate(f, rate=0.25, seed=0))

# Subsumption: (2 3) is a strict subset of (-1 2 3 -4), and the unit (1)
# subsumes (1 -3 4); both supersets are redundant.
show("subsumed elimination", subsumed_clause_eliminate(f))

# Resolution on x3 between (2 3) and (1 -3 4) yields (1 2 4), an implied
# clause that can be appended for free.
show("clause resolution", clause_resolution(f, rate=0.25, seed=1))

# Variable elimination replaces every clause touching x3 by the pairwise
# resolvents (tautological ones are dropped).
show("variable elimination", variable_eliminate(f, rate=0.25, seed=4))

print()
print("every transformed formula keeps the original label:",
      solve_dpll(f).label.value)

print()
print("DIMACS round trip (the constructor sorts each clause):")
print(serialize_dimacs(Formula(4, ((2, 1, -3),))), end="")
