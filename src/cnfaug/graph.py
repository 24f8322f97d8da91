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

from .formula import Formula, make_clause

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

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "cl_edges", frozenset((int(l), int(c)) for l, c in self.cl_edges)
        )

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
    """Incidence graph of a formula; edges mirror literal occurrences."""
    edges = {
        (literal_node(lit), ci)
        for ci, clause in enumerate(formula.clauses)
        for lit in clause
    }
    return LigGraph(formula.num_vars, formula.num_clauses, frozenset(edges), plus)


def to_formula(graph: LigGraph) -> Formula:
    """Reconstruct the formula whose incidence graph this is.

    Inverse of :func:`build_lig` for canonical formulas (clause order is
    preserved through the clause indices).  Raises ``ValueError`` on edges
    pointing outside the declared node ranges.
    """
    buckets: list[list[int]] = [[] for _ in range(graph.num_clauses)]
    for lit_idx, clause_idx in graph.cl_edges:
        if not 0 <= lit_idx < graph.num_literal_nodes:
            raise ValueError(f"dangling literal node {lit_idx}")
        if not 0 <= clause_idx < graph.num_clauses:
            raise ValueError(f"dangling clause index {clause_idx}")
        buckets[clause_idx].append(node_literal(lit_idx))
    return Formula(graph.num_vars, tuple(make_clause(b) for b in buckets))


def graph_to_json(
    graph: LigGraph, *, source: str | None = None, chain: str | None = None
) -> str:
    """Serialize a graph to the v1 JSON document (byte-stable for a fixed
    input: keys and edges are sorted)."""
    doc = {
        "schema": SCHEMA_NAME,
        "schema_version": SCHEMA_VERSION,
        "num_vars": graph.num_vars,
        "num_clauses": graph.num_clauses,
        "literal_indexing": LITERAL_INDEXING,
        "cl_edges": sorted([l, c] for l, c in graph.cl_edges),
        "var_edges": graph.plus,
        "provenance": {"source": source, "chain": chain},
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def graph_from_json(text: str) -> LigGraph:
    """Rebuild a :class:`LigGraph` from a v1 document."""
    doc = json.loads(text)
    if doc.get("schema") != SCHEMA_NAME or doc.get("schema_version") != SCHEMA_VERSION:
        raise ValueError("not a recognized graph document")
    return LigGraph(
        num_vars=doc["num_vars"],
        num_clauses=doc["num_clauses"],
        cl_edges=frozenset((l, c) for l, c in doc["cl_edges"]),
        plus=bool(doc["var_edges"]),
    )


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
