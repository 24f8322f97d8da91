#!/usr/bin/env python3
"""From formulas to incidence graphs and back.

Shows the bipartite literal-clause structure, the extra per-variable edges
of the plus variant, the JSON export consumed by downstream pipelines, and
the lossless round trip.
"""

import json

from cnfaug import (
    build_lig,
    flip_node,
    graph_from_json,
    graph_to_json,
    literal_node,
    node_literal,
    to_formula,
    Formula,
)

# (x | -y | -z) & (-x | y | z)
f = Formula(3, ((1, -2, -3), (-1, 2, 3)))
print("formula:", f.clauses)

g = build_lig(f, plus=True)
print(f"nodes: {g.num_literal_nodes} literal + {g.num_clauses} clause")
print("incidence edges (literal node, clause):", sorted(g.cl_edges))
print("variable edges:", g.var_edges)
print()

# literal nodes come in complement pairs; XOR 1 hops between them
for lit in (1, -1, 3):
    idx = literal_node(lit)
    print(f"literal {lit:+d} -> node {idx}, complement node {flip_node(idx)} "
          f"(= literal {node_literal(flip_node(idx)):+d})")
print()

doc = graph_to_json(g, source="demo.cnf", chain="CR:0.2:42,SC")
print("exported document:")
print(json.dumps(json.loads(doc), indent=2, sort_keys=True)[:400], "...")
print()

round_tripped = graph_from_json(doc)
print("import reconstructs the same graph:", round_tripped == g)
print("and the graph reconstructs the same formula:", to_formula(g) == f)
