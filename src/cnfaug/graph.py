"""Literal-clause incidence graphs and their JSON export.

A formula maps to a bipartite graph with one node per literal (two per
variable) and one per clause; an edge joins a literal node and a clause
node iff the clause contains that literal.  The "plus" variant additionally
links the two literal nodes of each variable, which downstream encoders use
to locate a literal's complement.

Node indexing is fixed and exported with the schema: the positive literal
of variable ``v`` (1-based) is node ``2*(v-1)``, the negative literal is
``2*(v-1) + 1``, so complementing a literal is an index XOR with 1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import IO

from .formula import Formula

SCHEMA_VERSION = 1
SCHEMA_NAME = "cnfaug.graph"
LITERAL_INDEXING = (
    "positive literal of variable v (1-based) is node 2*(v-1); "
    "negative literal is 2*(v-1)+1; complement = index XOR 1"
)


def literal_node(lit: int) -> int:
    """Node index of a signed literal."""
    if lit == 0:
        raise ValueError("literal 0 has no node")
    return 2 * (abs(lit) - 1) + (1 if lit < 0 else 0)


def node_literal(index: int) -> int:
    """Signed literal of a literal-node index."""
    var = index // 2 + 1
    return -var if index % 2 else var


def flip_node(index: int) -> int:
    """Node of the complementary literal."""
    return index ^ 1


@dataclass(frozen=True)
class LigGraph:
    """Bipartite literal-clause incidence structure.

    ``cl_edges`` holds (literal node, clause index) pairs; ``plus`` selects
    whether the per-variable literal-pair edges are present.
    """

    num_vars: int
    num_clauses: int
    cl_edges: frozenset[tuple[int, int]]
    plus: bool = True

    @property
    def num_literal_nodes(self) -> int:
        return 2 * self.num_vars

    @property
    def num_nodes(self) -> int:
        return 2 * self.num_vars + self.num_clauses

    @property
    def var_edges(self) -> tuple[tuple[int, int], ...]:
        """One edge per variable joining its literal nodes; empty without plus."""
        if not self.plus:
            return ()
        return tuple((2 * v, 2 * v + 1) for v in range(self.num_vars))


def build_lig(formula: Formula, plus: bool = True) -> LigGraph:
    """Incidence graph of a formula; edges mirror literal occurrences.

    A literal's node is computed inline; it equals :func:`literal_node` and
    the literal's bit in :func:`~cnfaug.formula.clause_mask`.
    """
    edges = {
        (2 * lit - 2 if lit > 0 else -2 * lit - 1, ci)
        for ci, clause in enumerate(formula.clauses)
        for lit in clause
    }
    return LigGraph(formula.num_vars, formula.num_clauses, frozenset(edges), plus)


def to_formula(graph: LigGraph) -> Formula:
    """Reconstruct the formula whose incidence graph this is.

    Inverse of :func:`build_lig` (clause order is preserved through the
    clause indices).  Raises ``ValueError`` on edges pointing outside the
    declared node ranges.
    """
    buckets: list[list[int]] = [[] for _ in range(graph.num_clauses)]
    for lit_idx, clause_idx in graph.cl_edges:
        if not 0 <= lit_idx < graph.num_literal_nodes:
            raise ValueError(f"dangling literal node {lit_idx}")
        if not 0 <= clause_idx < graph.num_clauses:
            raise ValueError(f"dangling clause index {clause_idx}")
        buckets[clause_idx].append(node_literal(lit_idx))
    return Formula(graph.num_vars, tuple(map(tuple, buckets)))


def graph_to_json(
    graph: LigGraph, *, source: str | None = None, chain: str | None = None
) -> str:
    """Serialize a graph to the v1 JSON document.

    The text is the ``json.dumps(doc, indent=2, sort_keys=True) + "\n"``
    layout of the v1 document: keys sorted, edges sorted, two-space indent.
    It is written directly, because ``json.dumps`` with an indent runs the
    pure-Python encoder; every scalar still goes through ``json.dumps``, so
    escaping and ``null``/``true``/``false`` are the encoder's own.
    """
    edges = ",\n    ".join(
        f"[\n      {l},\n      {c}\n    ]" for l, c in sorted(graph.cl_edges)
    )
    cl_edges = f"[\n    {edges}\n  ]" if edges else "[]"
    dumps = json.dumps
    return (
        f'{{\n  "cl_edges": {cl_edges},\n'
        f'  "literal_indexing": {dumps(LITERAL_INDEXING)},\n'
        f'  "num_clauses": {dumps(graph.num_clauses)},\n'
        f'  "num_vars": {dumps(graph.num_vars)},\n'
        f'  "provenance": {{\n    "chain": {dumps(chain)},\n    "source": {dumps(source)}\n  }},\n'
        f'  "schema": {dumps(SCHEMA_NAME)},\n'
        f'  "schema_version": {dumps(SCHEMA_VERSION)},\n'
        f'  "var_edges": {dumps(graph.plus)}\n}}\n'
    )


def _count(doc: dict, key: str) -> int:
    value = doc.get(key)
    if type(value) is not int or value < 0:
        raise ValueError(f"{key} must be a non-negative integer")
    return value


def graph_from_json(text: str) -> LigGraph:
    """Rebuild a :class:`LigGraph` from a v1 document.

    Raises ``ValueError`` on any malformed document: not a JSON object, a
    schema or version other than v1's, a count that is not a non-negative
    integer, an edge that is not a pair of integers inside the declared node
    ranges, or a ``var_edges`` that is not a boolean.
    """
    doc = json.loads(text)
    if type(doc) is not dict:
        raise ValueError("a graph document must be a JSON object")
    version = doc.get("schema_version")
    if doc.get("schema") != SCHEMA_NAME or type(version) is not int or version != SCHEMA_VERSION:
        raise ValueError("not a recognized graph document")
    num_vars = _count(doc, "num_vars")
    num_clauses = _count(doc, "num_clauses")
    edges = doc.get("cl_edges")
    if type(edges) is not list:
        raise ValueError("cl_edges must be a list")
    cl_edges = set()
    for edge in edges:
        if type(edge) is not list or len(edge) != 2 or any(type(i) is not int for i in edge):
            raise ValueError(f"cl_edges entry {edge!r} is not a pair of integers")
        lit_idx, clause_idx = edge
        if not (0 <= lit_idx < 2 * num_vars and 0 <= clause_idx < num_clauses):
            raise ValueError(f"cl_edges entry {edge!r} lies outside the node ranges")
        cl_edges.add((lit_idx, clause_idx))
    plus = doc.get("var_edges")
    if type(plus) is not bool:
        raise ValueError("var_edges must be a boolean")
    return LigGraph(num_vars, num_clauses, frozenset(cl_edges), plus)


def export_graph(
    graph: LigGraph,
    sink: str | IO[str],
    *,
    source: str | None = None,
    chain: str | None = None,
) -> str:
    """Write the JSON document to a path or text stream; returns the text."""
    text = graph_to_json(graph, source=source, chain=chain)
    if hasattr(sink, "write"):
        sink.write(text)
    else:
        with open(sink, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
