import numpy as np
import pytest
from hypothesis import given, settings

from cnfaug import (
    DimacsError,
    DimacsWarning,
    Formula,
    canonicalize,
    count_models,
    is_tautology,
    make_clause,
    parse_dimacs,
    satisfies,
    serialize_dimacs,
)
from conftest import formula_of, random_formula, small_formulas


def test_make_clause_sorts_and_dedupes():
    assert make_clause([2, 1, 1]) == (1, 2)
    assert make_clause([-2, 1, 2]) == (1, 2, -2)  # variable asc, positive first
    assert make_clause([]) == ()
    with pytest.raises(ValueError):
        make_clause([0])


def test_tautology_query():
    assert is_tautology(make_clause([1, -1, 2]))
    assert not is_tautology(make_clause([1, 2]))
    assert not is_tautology(())


def test_formula_validates_literal_range():
    with pytest.raises(ValueError):
        Formula(2, ((1, 3),))
    with pytest.raises(ValueError):
        Formula(-1, ())


def test_parse_simple():
    f = parse_dimacs("p cnf 2 1\n1 -2 0")
    assert f == Formula(2, ((1, -2),))


def test_parse_empty_problem():
    f = parse_dimacs("p cnf 0 0")
    assert f.num_vars == 0 and f.num_clauses == 0


def test_parse_comments_multiline_clauses_and_empty_clause():
    text = "c a comment\np cnf 3 3\n1 2\n3 0\nc mid comment\n0\n-1 -2 -3 0\n"
    f = parse_dimacs(text)
    assert f.clauses == ((1, 2, 3), (), (-1, -2, -3))


def test_parse_errors():
    with pytest.raises(DimacsError):
        parse_dimacs("p dnf 2 1\n1 0")
    with pytest.raises(DimacsError):
        parse_dimacs("1 2 0")  # clause before header
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf 2 1\n1 -3 0")  # literal out of range
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf 2 1\n1 -2")  # missing terminator
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf 2 1\n1 x 0")


def test_clause_count_mismatch_warns():
    with pytest.warns(DimacsWarning):
        f = parse_dimacs("p cnf 2 5\n1 -2 0")
    assert f.num_clauses == 1


def test_serialize_golden():
    assert serialize_dimacs(Formula(2, ((1, -2),))) == "p cnf 2 1\n1 -2 0\n"
    assert serialize_dimacs(Formula(0, ())) == "p cnf 0 0\n"
    assert serialize_dimacs(Formula(1, ((),))) == "p cnf 1 1\n0\n"


def test_worked_example_round_trips():
    f = formula_of(4, [1], [2, 3], [1, -3, 4], [-1, 2, 3, -4])
    assert parse_dimacs(serialize_dimacs(f)) == f


def test_round_trip_on_generated_corpus(sr_corpus):
    for inst in sr_corpus:
        assert parse_dimacs(serialize_dimacs(inst.formula)) == inst.formula


def test_canonicalize_examples():
    f = Formula(2, ((2, 1, 1),))
    assert canonicalize(f).clauses == ((1, 2),)
    g = formula_of(3, [1, 2], [3])
    assert canonicalize(g) == g


def test_canonicalize_idempotent_and_model_preserving(rng):
    for _ in range(500):
        f = random_formula(rng)
        shuffled = Formula(
            f.num_vars,
            tuple(tuple(rng.permutation(np.array(c, dtype=int)).tolist()) if c else c for c in f.clauses),
        )
        once = canonicalize(shuffled)
        assert canonicalize(once) == once
        assert count_models(once) == count_models(shuffled)
        for clause in once.clauses:
            assert clause == make_clause(clause)


def test_satisfies_partial_assignment():
    f = formula_of(3, [1, 2], [-3])
    assert satisfies(f, {1: True, 3: False})
    assert not satisfies(f, {1: False, 2: False, 3: False})


@settings(max_examples=300, deadline=None)
@given(small_formulas())
def test_parse_of_serialize_is_identity_on_canonical_formulas(formula):
    canonical = canonicalize(formula)
    assert parse_dimacs(serialize_dimacs(canonical)) == canonical
