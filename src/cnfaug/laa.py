"""Structural graph-style augmentations with no label guarantee.

These mirror the generic graph-augmentation repertoire (node dropping, edge
perturbation, random-walk subgraphs) adapted so that every output is still a
well-formed CNF formula, i.e. a valid incidence graph.  They serve as
baselines: unlike the transformations in :mod:`cnfaug.lpa`, they can and do
flip satisfiability labels.  Every draw comes from a
:class:`cnfaug._stream.Stream` seeded per call, so outputs are a pure
function of (formula, rate, seed).
"""

from __future__ import annotations

import bisect
import math

from ._stream import Stream
from .formula import Clause, Formula, literal_key
from .graph import build_lig
from .lpa import _ceil_count


def _floor_count(rate: float, base: int) -> int:
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate must lie in [0, 1], got {rate}")
    return max(0, math.floor(rate * base + 1e-9))


def drop_clauses(formula: Formula, rate: float, seed: int) -> Formula:
    """Remove ``floor(rate * m)`` seeded-random clauses.

    Can flip UNSAT to SAT but never SAT to UNSAT (constraints only shrink).
    """
    count = _floor_count(rate, formula.num_clauses)
    if count == 0:
        return formula
    dropped = set(Stream(seed).sample(formula.num_clauses, count))
    kept = tuple(c for i, c in enumerate(formula.clauses) if i not in dropped)
    return Formula._canonical(formula.num_vars, kept)


def drop_variables(formula: Formula, rate: float, seed: int) -> Formula:
    """Delete every occurrence of ``floor(rate * v)`` seeded-random variables
    among the ``v`` that occur, drawn by their ascending position, so the cost
    follows the clauses, not the header.  Clauses emptied by the deletion are
    removed; ``num_vars`` is unchanged (indices may gap)."""
    occurring = sorted({abs(lit) for clause in formula.clauses for lit in clause})
    count = _floor_count(rate, len(occurring))
    if count == 0:
        return formula
    dropped = {occurring[i] for i in Stream(seed).sample(len(occurring), count)}
    kept: list[Clause] = []
    for clause in formula.clauses:
        reduced = tuple(lit for lit in clause if abs(lit) not in dropped)
        if reduced or not clause:
            kept.append(reduced)
    return Formula._canonical(formula.num_vars, tuple(kept))


def perturb_links(formula: Formula, rate: float, seed: int) -> Formula:
    """Randomly add/remove literal-clause incidences.

    Performs ``floor(rate * occurrences)`` edits; each edit is a fair coin
    between deleting a uniform literal occurrence (clauses emptied this way
    are removed) and inserting a uniform literal into a uniform clause
    (skipped when the exact literal is already present).
    """
    total = sum(len(c) for c in formula.clauses)
    edits = _floor_count(rate, total)
    if edits == 0:
        return formula
    stream = Stream(seed)
    clauses: list[list[int]] = [list(c) for c in formula.clauses]
    # edits <= total and an edit deletes at most one occurrence, so each edit
    # starts with total >= 1: some clause is non-empty and num_vars >= 1
    for _ in range(edits):
        if stream.integers(2):
            flat = stream.integers(total)
            total -= 1
            for ci, clause in enumerate(clauses):
                if flat < len(clause):
                    clause.pop(flat)
                    if not clause:
                        clauses.pop(ci)
                    break
                flat -= len(clause)
        else:
            ci = stream.integers(len(clauses))
            var = 1 + stream.integers(formula.num_vars)
            lit = -var if stream.integers(2) else var
            if lit not in clauses[ci]:
                bisect.insort(clauses[ci], lit, key=literal_key)
                total += 1
    return Formula._canonical(formula.num_vars, tuple(map(tuple, clauses)))


def subgraph(formula: Formula, rate: float, seed: int) -> Formula:
    """Keep the subformula induced by a random walk on the incidence graph.

    The walk starts at a uniform node of the plus-variant graph and takes
    ``ceil(rate * nodes)`` uniform-neighbor steps (no restarts).  Clauses
    whose node was visited are kept, restricted to visited literal nodes;
    clauses restricted to nothing are dropped.  ``num_vars`` is unchanged.
    The walk stops on a node with no path to a clause (an empty clause, or a
    literal of a variable in no clause), and its table holds only the nodes
    with an edge, so its cost follows the edges, not the header.
    """
    graph = build_lig(formula, plus=True)
    if graph.num_nodes == 0:
        raise ValueError("cannot take a subgraph of an empty formula")
    steps = _ceil_count(rate, graph.num_nodes)
    stream = Stream(seed)
    offset = graph.num_literal_nodes
    # ascending neighbour lists of the nodes with an edge (a literal's
    # complement comes before its clause nodes)
    nbrs: dict[int, list[int]] = {}
    for lit_idx, clause_idx in graph.cl_edges:
        nbrs.setdefault(lit_idx, [lit_idx ^ 1]).append(offset + clause_idx)
        nbrs.setdefault(offset + clause_idx, []).append(lit_idx)
    for options in nbrs.values():
        options.sort()
    current = stream.integers(graph.num_nodes)
    visited = {current}
    for _ in range(steps):
        options = nbrs.get(current)
        if options is None:  # an empty clause, or a literal in no clause
            if current >= offset or current ^ 1 not in nbrs:
                break
            options = [current ^ 1]  # one option: the draw takes nothing
        current = options[stream.integers(len(options))]
        visited.add(current)

    kept: list[Clause] = []
    for ci, clause in enumerate(formula.clauses):
        if offset + ci not in visited:
            continue
        reduced = tuple(lit for lit in clause if 2 * (abs(lit) - 1) + (lit < 0) in visited)
        if reduced:
            kept.append(reduced)
    return Formula._canonical(formula.num_vars, tuple(kept))
