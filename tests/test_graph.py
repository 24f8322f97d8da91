import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnfaug import (
    Formula,
    LigGraph,
    build_lig,
    export_graph,
    flip_node,
    graph_from_json,
    graph_to_json,
    literal_node,
    node_literal,
    to_formula,
)
from cnfaug.graph import LITERAL_INDEXING, SCHEMA_NAME, SCHEMA_VERSION
from conftest import formula_of, non_canonical, small_formulas

# (x | -y | -z) & (-x | y | z) with x,y,z = 1,2,3
THREE_VAR = formula_of(3, [1, -2, -3], [-1, 2, 3])

# graph_to_json(build_lig(THREE_VAR), source="a.cnf", chain="SC"): one line,
# keys and edges sorted; written out so this pin needs no json module
THREE_VAR_DOCUMENT = (
    '{"cl_edges": [[0, 0], [1, 1], [2, 1], [3, 0], [4, 1], [5, 0]], '
    '"literal_indexing": "positive literal of variable v (1-based) is node 2*(v-1); '
    'negative literal is 2*(v-1)+1; complement = index XOR 1", '
    '"num_clauses": 2, "num_vars": 3, "provenance": {"chain": "SC", "source": "a.cnf"}, '
    '"schema": "cnfaug.graph", "schema_version": 1, "var_edges": true}\n'
)

# provenance values: absent, plain names, and strings the encoder must escape
PROVENANCE = [
    (None, None),
    ("a.cnf", "CR:0.2:42,SC"),
    ('quo"te\\back\nslash.cnf', "caf\u00e9 \U0001f600"),
]


def reference_graph_to_json(
    graph: LigGraph, *, source: str | None = None, chain: str | None = None
) -> str:
    """An independent writer: the v1 document, edges as lists, through the
    default json.dumps with sorted keys."""
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
    return json.dumps(doc, sort_keys=True) + "\n"


def test_literal_node_convention():
    assert literal_node(1) == 0
    assert literal_node(-1) == 1
    assert literal_node(3) == 4
    assert literal_node(-3) == 5
    for lit in (1, -1, 7, -7):
        assert node_literal(literal_node(lit)) == lit
        assert flip_node(literal_node(lit)) == literal_node(-lit)
    with pytest.raises(ValueError, match="literal 0 has no node"):
        literal_node(0)


def test_three_var_two_clause_graph():
    g = build_lig(THREE_VAR, plus=True)
    assert g.num_literal_nodes == 6
    assert g.num_clauses == 2
    assert len(g.cl_edges) == 6
    assert len(g.var_edges) == 3
    assert g.num_nodes == 8


def test_plus_flag_controls_var_edges():
    g = build_lig(THREE_VAR, plus=False)
    assert g.var_edges == ()
    assert len(build_lig(THREE_VAR, plus=True).var_edges) == 3


def test_empty_formula():
    g = build_lig(Formula(0, ()))
    assert g.num_nodes == 0
    assert to_formula(g) == Formula(0, ())


def test_round_trip_three_var():
    assert to_formula(build_lig(THREE_VAR)) == THREE_VAR


def test_duplicate_clauses_get_distinct_nodes():
    f = formula_of(2, [1, 2], [1, 2])
    g = build_lig(f)
    assert g.num_clauses == 2
    assert len(g.cl_edges) == 4
    assert to_formula(g) == f


def test_edge_count_equals_total_occurrences(sr_corpus):
    for inst in sr_corpus[:300]:
        g = build_lig(inst.formula)
        assert len(g.cl_edges) == sum(len(c) for c in inst.formula.clauses)
        assert to_formula(g) == inst.formula


def test_dangling_edges_rejected():
    with pytest.raises(ValueError):
        to_formula(LigGraph(2, 1, frozenset({(9, 0)})))
    with pytest.raises(ValueError):
        to_formula(LigGraph(2, 1, frozenset({(0, 3)})))


def test_export_document_fields():
    doc = json.loads(graph_to_json(build_lig(THREE_VAR), source="a.cnf", chain="SC"))
    assert doc["schema_version"] == 1
    assert doc["num_vars"] == 3
    assert doc["num_clauses"] == 2
    assert len(doc["cl_edges"]) == 6
    assert doc["var_edges"] is True
    assert doc["provenance"] == {"source": "a.cnf", "chain": "SC"}
    assert "XOR" in doc["literal_indexing"]


def test_export_is_byte_stable():
    g = build_lig(THREE_VAR)
    assert graph_to_json(g) == graph_to_json(g)


def test_export_empty_formula_has_empty_edges():
    doc = json.loads(graph_to_json(build_lig(Formula(0, ()))))
    assert doc["cl_edges"] == []


def test_import_round_trip(sr_corpus):
    for inst in sr_corpus[:100]:
        g = build_lig(inst.formula)
        assert graph_from_json(graph_to_json(g)) == g
    g_minus = build_lig(THREE_VAR, plus=False)
    assert graph_from_json(graph_to_json(g_minus)) == g_minus


def test_export_graph_to_stream_and_path(tmp_path):
    g = build_lig(THREE_VAR)
    buffer = io.StringIO()
    text = export_graph(g, buffer)
    assert buffer.getvalue() == text
    path = tmp_path / "g.json"
    export_graph(g, path)
    assert path.read_text() == text


def test_rejects_wrong_schema():
    with pytest.raises(ValueError):
        graph_from_json(json.dumps({"schema": "other", "schema_version": 1}))


def test_export_golden_document():
    assert graph_to_json(build_lig(THREE_VAR), source="a.cnf", chain="SC") == THREE_VAR_DOCUMENT


def test_writer_matches_reference(sr_corpus, ur_corpus, pr_corpus):
    formulas = [inst.formula for corpus in (sr_corpus, ur_corpus, pr_corpus) for inst in corpus[:300]]
    formulas += [non_canonical(f) for f in formulas]
    formulas += [Formula(0, ()), formula_of(2, [1, -2], []), Formula(1, ((),))]
    for i, formula in enumerate(formulas):
        for plus in (True, False):
            graph = build_lig(formula, plus)
            source, chain = PROVENANCE[i % len(PROVENANCE)]
            assert graph_to_json(graph, source=source, chain=chain) == reference_graph_to_json(
                graph, source=source, chain=chain
            )


@settings(max_examples=300, deadline=None)
@given(small_formulas(), st.booleans(), st.none() | st.text(), st.none() | st.text())
def test_writer_matches_reference_property(formula, plus, source, chain):
    graph = build_lig(formula, plus)
    assert graph_to_json(graph, source=source, chain=chain) == reference_graph_to_json(
        graph, source=source, chain=chain
    )


@settings(max_examples=300, deadline=None)
@given(small_formulas(), st.booleans())
def test_json_round_trip_recovers_the_canonical_formula(formula, plus):
    document = graph_to_json(build_lig(formula, plus))
    assert to_formula(graph_from_json(document)) == formula


def _document(**changes) -> str:
    doc = json.loads(graph_to_json(build_lig(THREE_VAR)))
    doc.update(changes)
    return json.dumps(doc)


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param("[1, 2]", "JSON object", id="array"),
        pytest.param('"cnfaug.graph"', "JSON object", id="string"),
        pytest.param("not json", "Expecting value", id="not-json"),
        pytest.param(json.dumps({"schema": "cnfaug.graph", "schema_version": 1}), "num_vars", id="header-only"),
        pytest.param(_document(schema_version=2), "not a recognized", id="version-2"),
        pytest.param(_document(schema_version=True), "not a recognized", id="version-bool"),
        pytest.param(_document(schema_version=1.0), "not a recognized", id="version-float"),
        pytest.param(_document(num_vars=-1), "num_vars", id="negative-vars"),
        pytest.param(_document(num_vars=3.0), "num_vars", id="float-vars"),
        pytest.param(_document(num_clauses=None), "num_clauses", id="null-clauses"),
        pytest.param(_document(num_clauses=False), "num_clauses", id="bool-clauses"),
        pytest.param(_document(cl_edges={"0": 0}), "cl_edges must be a list", id="edges-object"),
        pytest.param(_document(cl_edges=[[0.5, 0]]), "pair of integers", id="float-edge"),
        pytest.param(_document(cl_edges=[[0, True]]), "pair of integers", id="bool-edge"),
        pytest.param(_document(cl_edges=[[0, 0, 0]]), "pair of integers", id="triple-edge"),
        pytest.param(_document(cl_edges=[0]), "pair of integers", id="scalar-edge"),
        pytest.param(_document(cl_edges=[[6, 0]]), "outside the node ranges", id="literal-out-of-range"),
        pytest.param(_document(cl_edges=[[0, 2]]), "outside the node ranges", id="clause-out-of-range"),
        pytest.param(_document(cl_edges=[[-1, 0]]), "outside the node ranges", id="negative-node"),
        pytest.param(_document(var_edges=1), "var_edges", id="int-var-edges"),
        pytest.param(_document(var_edges=None), "var_edges", id="null-var-edges"),
    ],
)
def test_import_rejects_malformed_documents(text, message):
    with pytest.raises(ValueError, match=message):
        graph_from_json(text)
