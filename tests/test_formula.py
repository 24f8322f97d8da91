import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnfaug import (
    DimacsError,
    DimacsWarning,
    Formula,
    Label,
    is_tautology,
    make_clause,
    parse_dimacs,
    satisfies,
    serialize_dimacs,
    solve_dpll,
)
from conftest import formula_of, random_formula, small_formulas


def reference_formula_clauses(num_vars, clauses):
    """The constructor from before clauses were canonical by construction
    (range checks over the clauses as given), followed by :func:`make_clause`
    on each clause: the clauses the constructor must now store."""
    clauses = tuple(tuple(c) for c in clauses)
    if num_vars < 0:
        raise ValueError("num_vars must be non-negative")
    for clause in clauses:
        for lit in clause:
            if lit == 0 or abs(lit) > num_vars:
                raise ValueError(f"literal {lit} out of range for {num_vars} variables")
    return tuple(make_clause(c) for c in clauses)


def ascii_int(token):
    """``int(token)`` for the one spelling a DIMACS count or literal may
    take, ASCII ``-?[0-9]+``; ``int()`` alone also reads ``+1``, ``1_0``
    and non-ASCII digits."""
    if not re.fullmatch(r"-?[0-9]+", token):
        raise ValueError(f"not an ASCII integer: {token!r}")
    return int(token)


def reference_parse_dimacs(text):
    """The parser from before clauses were canonical by construction: it
    canonicalizes each clause with :func:`make_clause` itself.  Tokens are
    read by :func:`ascii_int`."""
    num_vars = None
    declared_clauses = 0
    clauses = []
    current = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if num_vars is not None:
                raise DimacsError(f"line {lineno}: duplicate problem header")
            fields = line.split()
            if len(fields) != 4 or fields[0] != "p" or fields[1] != "cnf":
                raise DimacsError(f"line {lineno}: malformed header {line!r}")
            try:
                num_vars = ascii_int(fields[2])
                declared_clauses = ascii_int(fields[3])
            except ValueError as exc:
                raise DimacsError(f"line {lineno}: malformed header {line!r}") from exc
            if num_vars < 0 or declared_clauses < 0:
                raise DimacsError(f"line {lineno}: negative counts in header")
            continue
        if num_vars is None:
            raise DimacsError(f"line {lineno}: clause data before 'p cnf' header")
        for token in line.split():
            try:
                lit = ascii_int(token)
            except ValueError as exc:
                raise DimacsError(f"line {lineno}: non-integer token {token!r}") from exc
            if lit == 0:
                clauses.append(make_clause(current))
                current = []
            else:
                if abs(lit) > num_vars:
                    raise DimacsError(
                        f"line {lineno}: literal {lit} exceeds declared {num_vars} variables"
                    )
                current.append(lit)

    if num_vars is None:
        raise DimacsError("missing 'p cnf' header")
    if current:
        raise DimacsError("last clause is missing its terminating 0")
    if len(clauses) != declared_clauses:
        warnings.warn(
            f"header declares {declared_clauses} clauses but {len(clauses)} were read",
            DimacsWarning,
            stacklevel=2,
        )
    return Formula(num_vars, tuple(clauses))


def outcome(fn, *args):
    """``fn``'s result, or its exception's type and message, with the
    category and message of every warning it issued."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fn(*args)
        except Exception as exc:
            result = (type(exc), str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


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


def test_integer_literals_are_stored_as_int():
    f = Formula(2, ((True,), (np.int64(1), np.int64(-2))))
    assert all(type(lit) is int for clause in f.clauses for lit in clause)
    assert serialize_dimacs(f) == "p cnf 2 2\n1 0\n1 -2 0\n"


def test_integer_num_vars_is_stored_as_int():
    # a numpy count would wrap in positive_bits from 32 variables on
    f = Formula(np.int64(33), ((1,), (-1, 33), (-33,)))
    assert type(f.num_vars) is int
    assert solve_dpll(f).label is Label.UNSAT
    f = Formula(True, ((1,),))
    assert type(f.num_vars) is int
    assert serialize_dimacs(f) == "p cnf 1 1\n1 0\n"


@pytest.mark.parametrize("num_vars", [2.5, 2.0, np.float64(3), "2"], ids=repr)
def test_non_integer_num_vars_is_refused(num_vars):
    with pytest.raises(TypeError):
        Formula(num_vars, [(1, 2)])


@pytest.mark.parametrize("literal", [1.5, 1.0, "1"], ids=repr)
def test_non_integer_literals_are_refused(literal):
    with pytest.raises(TypeError):
        Formula(3, [(literal,)])
    with pytest.raises(TypeError):
        Formula(3, [(2, literal)])
    with pytest.raises(TypeError):
        make_clause([literal])


def test_constructor_sorts_and_dedupes_each_clause():
    assert Formula(2, ((2, 1, 1),)).clauses == ((1, 2),)
    assert Formula(2, [[-2, 1, 2], []]).clauses == ((1, 2, -2), ())


def test_formulas_differing_in_literal_order_or_repeats_are_equal():
    assert Formula(3, ((3, -1, 1, 3), (2,))) == Formula(3, ((1, -1, 3), (2, 2)))
    assert Formula(3, ((3, 1),)) != Formula(3, ((1, -3),))


@settings(max_examples=500, deadline=None)
@given(
    st.integers(-2, 6),
    st.lists(st.lists(st.integers(-8, 8), max_size=5), max_size=6),
)
def test_constructor_matches_reference(num_vars, clauses):
    expected, _ = outcome(reference_formula_clauses, num_vars, clauses)
    got, _ = outcome(Formula, num_vars, clauses)
    assert (got.clauses if isinstance(got, Formula) else got) == expected


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


def test_non_integer_header_count_is_a_malformed_header():
    # the fast path refuses it and the line parser's integer() raises
    with pytest.raises(DimacsError, match="^line 1: malformed header 'p cnf x 2'$"):
        parse_dimacs("p cnf x 2\n1 0\n")


@pytest.mark.parametrize("text", [
    "p cnf 10 1\n1_0 0",
    "p cnf 3 1\n+1 -0",
    "p cnf 3 1\n\u0663 0",  # ARABIC-INDIC DIGIT THREE
    "p cnf 1_0 1\n3 0",
    "c x\np cnf +3 1\n+1 0",
])
def test_tokens_other_than_ascii_integers_are_refused(text):
    # int() reads each of these as a number
    with pytest.raises(DimacsError):
        parse_dimacs(text)


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


def test_constructor_examples():
    g = formula_of(3, [1, 2], [3])
    assert g.clauses == ((1, 2), (3,))
    assert Formula(g.num_vars, g.clauses) == g


def test_constructor_ignores_literal_order(rng):
    for _ in range(500):
        f = random_formula(rng)
        shuffled = Formula(
            f.num_vars,
            tuple(tuple(rng.permutation(np.array(c, dtype=int)).tolist()) if c else c for c in f.clauses),
        )
        assert shuffled == f
        for clause in shuffled.clauses:
            assert clause == make_clause(clause)


def test_satisfies_partial_assignment():
    f = formula_of(3, [1, 2], [-3])
    assert satisfies(f, {1: True, 3: False})
    assert not satisfies(f, {1: False, 2: False, 3: False})


@settings(max_examples=300, deadline=None)
@given(small_formulas())
def test_parse_of_serialize_is_identity_on_canonical_formulas(formula):
    assert parse_dimacs(serialize_dimacs(formula)) == formula


def test_dimacs_warning_points_at_the_caller():
    with pytest.warns(DimacsWarning) as record:
        parse_dimacs("p cnf 2 5\n1 -2 0")
    assert record[0].filename == __file__


_odd_line = st.one_of(
    st.tuples(st.integers(0, 7), st.integers(0, 7)).map(lambda t: f"p cnf {t[0]} {t[1]}"),
    st.lists(st.sampled_from(["1", "-2", "0", "x", "1.5", "+2", "--1", "-0"]), max_size=5).map("\t".join),
    st.sampled_from(["p", "p cnf 3", "p dnf 3 2", "p cnf x 2", "p cnf -1 2"]),
)


@st.composite
def dimacs_like_text(draw):
    """Mostly a header, then comments, blank lines and clause lines with
    unsorted, repeated or (rarely) out-of-range literals; sometimes no
    header, one odd line (a late header, bad tokens), no final 0 or a
    clause count the header disagrees with."""
    num_vars = draw(st.integers(0, 7))
    literal = st.integers(-num_vars - 1, num_vars + 1).filter(bool).map(str)
    clause_line = st.tuples(st.lists(literal, max_size=5), st.sampled_from(["0", "", "0 -1 0"]))
    body_line = st.one_of(
        clause_line.map(lambda t: " ".join(t[0] + [t[1]])),
        st.sampled_from(["", "   ", "c", "c comment 1 2 0", "0"]),
    )
    lines = draw(st.lists(body_line, max_size=10))
    if draw(st.integers(0, 3)) == 3:
        lines.insert(draw(st.integers(0, len(lines))), draw(_odd_line))
    if draw(st.integers(0, 7)) != 7:
        lines.insert(0, f"p cnf {num_vars} {draw(st.integers(0, 7))}")
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=1000, deadline=None)
@given(dimacs_like_text())
def test_parse_matches_reference(text):
    assert outcome(parse_dimacs, text) == outcome(reference_parse_dimacs, text)


@st.composite
def serialized_with_one_edit(draw):
    """``serialize_dimacs`` output, which the fast path reads, with at most
    one edit at the edge of what it accepts: two literals swapped, one
    repeated or bumped past the header, a header count off by one or spelt
    with a leading ``0``, ``+`` or whitespace, an inserted ``-0``, ``+1``,
    ``1_0``, ``c`` line or blank first line, one CRLF line end, or the last
    0 dropped."""
    formula = draw(small_formulas())
    n, m = formula.num_vars, formula.num_clauses
    lines = serialize_dimacs(formula).split("\n")  # header, one line per clause, ""
    edit = draw(st.sampled_from(["none", "swap", "repeat", "bump", "count", "spelling",
                                 "token", "comment", "blank", "crlf", "last 0"]))
    with_literals = [i for i, c in enumerate(formula.clauses, start=1) if c]
    if edit in ("swap", "repeat", "bump") and with_literals:
        i = draw(st.sampled_from(with_literals))
        tokens = lines[i].split()
        j = draw(st.integers(0, len(tokens) - 2))
        if edit == "swap":
            k = draw(st.integers(0, len(tokens) - 2))
            tokens[j], tokens[k] = tokens[k], tokens[j]
        elif edit == "repeat":
            tokens.insert(j, tokens[j])
        else:
            tokens[j] = str(n + 1 if int(tokens[j]) > 0 else -n - 1)
        lines[i] = " ".join(tokens)
    elif edit == "count":
        dn, dm = draw(st.sampled_from([(1, 0), (-1, 0), (0, 1), (0, -1)]))
        lines[0] = f"p cnf {n + dn} {m + dm}"
    elif edit == "spelling":
        # int() reads all of these, and the last three break the line for
        # str.splitlines()
        sign = draw(st.sampled_from(["0", "+", " ", "\t", "\x0c", "\x85"]))
        lines[0] = draw(st.sampled_from([f"p cnf {sign}{n} {m}", f"p cnf {n} {sign}{m}"]))
    elif edit == "token":
        i = draw(st.integers(1, len(lines) - 1))
        tokens = lines[i].split()
        tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(["-0", "+1", "1_0"])))
        lines[i] = " ".join(tokens)
    elif edit == "comment":
        lines.insert(draw(st.integers(0, len(lines) - 1)), "c")
    elif edit == "blank":
        lines.insert(0, "")
    elif edit == "crlf":
        lines[draw(st.integers(0, len(lines) - 2))] += "\r"
    elif edit == "last 0" and m:
        lines[m] = lines[m][:-1].rstrip()
    return "\n".join(lines)


@settings(max_examples=1000, deadline=None)
@given(serialized_with_one_edit())
def test_parse_matches_reference_at_the_fast_path_edges(text):
    assert outcome(parse_dimacs, text) == outcome(reference_parse_dimacs, text)
