"""CNF formulas in canonical form, with DIMACS parsing and serialization.

Literals use the signed-integer convention: ``v`` is the positive literal of
variable ``v`` (1-based), ``-v`` its negation.  A clause is a tuple of
literals sorted by (variable index, positive-before-negative) with exact
duplicates removed; the empty clause represents falsum.  A formula is an
ordered sequence of clauses over a declared variable count; duplicate
clauses are permitted and clause order is preserved by every operation.
The :class:`Formula` constructor makes every clause canonical; the parser,
every generator and every augmentation kind build canonical clauses
themselves and store them through the unchecked ``_canonical``.

The search and elimination engines work on one integer bitmask per clause:
literal ``+v`` is bit ``2(v-1)`` and ``-v`` is bit ``2(v-1)+1``.  Ascending
bit order is :func:`literal_key` order, so a mask decodes to the canonical
clause tuple, and a clause is tautological exactly when its mask has a pair
``2(v-1), 2(v-1)+1`` both set.

The files the pipeline reads are ones it wrote with :func:`serialize_dimacs`:
one ``p cnf N M`` line, then one canonical clause per line.  Every count and
literal is an ASCII ``-?[0-9]+`` token, cnfaug's one integer rule
(:func:`integer`).  :func:`parse_dimacs` reads such a document in one pass
over its tokens, checks that each clause is canonical and in range, and
stores the clauses without a second check.  Any other document (a comment, a
late header, a bad token, an unsorted or out-of-range clause, a missing 0, a
clause count the header disagrees with, CRLF line ends) goes to the
line-by-line parser, which canonicalises each clause as it closes and is the
only code that raises :class:`DimacsError` or warns :class:`DimacsWarning`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from operator import index, or_
from typing import Iterable, Mapping

Literal = int
Clause = tuple[int, ...]


class Label(Enum):
    """Satisfiability verdict."""

    SAT = "sat"
    UNSAT = "unsat"


class DimacsError(ValueError):
    """Malformed DIMACS CNF input."""


class DimacsWarning(UserWarning):
    """Tolerated DIMACS irregularity, e.g. a header clause-count mismatch."""


def literal_key(lit: int) -> tuple[int, bool]:
    """Canonical sort key: variable ascending, positive before negative."""
    return (abs(lit), lit < 0)


def integer(text: str) -> int:
    """An ASCII ``-?[0-9]+`` integer, the one spelling cnfaug reads.
    ``int()`` alone also reads ``1_0``, ``+3``, `` 3`` and non-ASCII digits."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an ASCII integer: {text!r}")
    return int(text)


def real(text: str) -> float:
    """An ASCII real with no ``_`` or surrounding whitespace, which ``float()``
    alone reads; ``nan`` and ``inf`` pass, for the caller to refuse."""
    if not text.isascii() or "_" in text or text != text.strip():
        raise ValueError(f"not an ASCII real: {text!r}")
    return float(text)


def make_clause(literals: Iterable[int]) -> Clause:
    """Build a canonical clause: deduplicated, sorted by :func:`literal_key`.

    Literals are taken through :func:`operator.index`, so each is a plain
    ``int``; a float or a string raises :class:`TypeError`.  Tautological
    clauses (both ``v`` and ``-v``) are allowed and queryable via
    :func:`is_tautology`.
    """
    lits = set()
    for lit in map(index, literals):
        if lit == 0:
            raise ValueError("literal 0 is reserved as the DIMACS terminator")
        lits.add(lit)
    return tuple(sorted(lits, key=literal_key))


def clause_mask(clause: Clause) -> int:
    """The clause as a literal bitmask (see the module docstring)."""
    mask = 0
    for lit in clause:
        mask |= 1 << (2 * lit - 2 if lit > 0 else -2 * lit - 1)
    return mask


def clause_of_mask(mask: int) -> Clause:
    """Inverse of :func:`clause_mask`: the canonical clause tuple."""
    lits = []
    while mask:
        low = mask & -mask
        bit = low.bit_length() - 1
        lits.append(-(bit + 1) // 2 if bit & 1 else bit // 2 + 1)
        mask ^= low
    return tuple(lits)


def positive_bits(num_vars: int) -> int:
    """The mask of every positive literal ``1..num_vars`` (the even bits)."""
    return (4**num_vars - 1) // 3


def polarities(masks: Iterable[int], even: int) -> tuple[int, int]:
    """``(pos, neg)``: the variables occurring positively and negatively in
    the clause masks, as positive-literal bits (``even`` is :func:`positive_bits`).
    The pure variables are ``pos ^ neg``, the occurring ones ``pos | neg``."""
    union = reduce(or_, masks, 0)
    return union & even, (union >> 1) & even


def is_tautology(clause: Clause) -> bool:
    """True if the clause contains some variable in both polarities."""
    seen = set(clause)
    return any(-lit in seen for lit in clause)


@dataclass(frozen=True)
class Formula:
    """An immutable CNF formula: a declared variable count plus clauses.

    ``num_vars`` and the literals must be integers (``bool`` and numpy
    integers are stored as ``int``), the literals referencing variables in
    ``1..num_vars``.  The constructor stores every clause as
    :func:`make_clause` builds it, so formulas that differ only in literal
    order or repeated literals are equal.

    The private :meth:`_canonical` stores its arguments with no check.  It
    is only for clauses of plain ``int`` literals that are already canonical
    and in range: the parser's fast path, every generator and every
    augmentation kind.
    """

    num_vars: int
    clauses: tuple[Clause, ...] = ()

    def __post_init__(self) -> None:
        num_vars = index(self.num_vars)
        if num_vars < 0:
            raise ValueError("num_vars must be non-negative")
        clauses = tuple(tuple(clause) for clause in self.clauses)
        for clause in clauses:
            for lit in clause:
                if lit == 0 or abs(lit) > num_vars:
                    raise ValueError(f"literal {lit} out of range for {num_vars} variables")
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "clauses", tuple(map(make_clause, clauses)))

    @classmethod
    def _canonical(cls, num_vars: int, clauses: tuple[Clause, ...]) -> Formula:
        """A formula over ``clauses`` as given; only for clauses already canonical."""
        formula = object.__new__(cls)
        object.__setattr__(formula, "num_vars", num_vars)
        object.__setattr__(formula, "clauses", clauses)
        return formula

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)


def satisfies(formula: Formula, assignment: Mapping[int, bool]) -> bool:
    """True if the (possibly partial) assignment satisfies every clause."""
    for clause in formula.clauses:
        for lit in clause:
            value = assignment.get(abs(lit))
            if value is not None and value == (lit > 0):
                break
        else:
            return False
    return True


def parse_dimacs(text: str) -> Formula:
    """Parse a DIMACS CNF document into a canonical :class:`Formula`.

    Accepts ``c`` comment lines anywhere and clauses spanning multiple
    lines.  A clause count that disagrees with the header is tolerated with
    a :class:`DimacsWarning`; a bad header or token (see :func:`integer`),
    an out-of-range literal, or a missing last 0 raise :class:`DimacsError`.

    A document as :func:`serialize_dimacs` writes it takes a fast path: a
    first line ``p cnf N M`` in exactly that spelling, then ASCII integer
    tokens only, forming ``M`` 0-terminated canonical clauses over ``1..N``.
    Their literals are checked once and stored as read.  Any other document
    goes to the line-by-line parser, which raises every error and warning.
    """
    head, _, body = text.partition("\n")
    try:
        num_vars, declared = map(int, head.removeprefix("p cnf ").split(" "))
        literals = list(map(int, body.split()))
    except ValueError:
        return _parse_lines(text)
    # the header is compared whole; int() also reads "+1", "1_0" and non-ASCII digits
    if (head != f"p cnf {num_vars} {declared}" or num_vars < 0
            or not body.isascii() or "+" in body or "_" in body):
        return _parse_lines(text)
    top = 2 * num_vars + 1
    clauses = []
    clause = []
    prev = 1
    # a clause is canonical and in range exactly when its keys 2|l| + (l < 0)
    # strictly increase from 2 up to at most ``top``
    for lit in literals:
        if lit:
            key = 2 * lit if lit > 0 else 1 - 2 * lit
            if key <= prev:
                return _parse_lines(text)
            prev = key
            clause.append(lit)
        else:
            if prev > top:
                return _parse_lines(text)
            clauses.append(tuple(clause))
            clause = []
            prev = 1
    if clause or len(clauses) != declared:
        return _parse_lines(text)
    return Formula._canonical(num_vars, tuple(clauses))


def _parse_lines(text: str) -> Formula:
    """:func:`parse_dimacs` for any document, one line at a time."""
    num_vars: int | None = None
    declared_clauses = 0
    clauses: list[Clause] = []
    current: list[int] = []

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
                num_vars = integer(fields[2])
                declared_clauses = integer(fields[3])
            except ValueError as exc:
                raise DimacsError(f"line {lineno}: malformed header {line!r}") from exc
            if num_vars < 0 or declared_clauses < 0:
                raise DimacsError(f"line {lineno}: negative counts in header")
            continue
        if num_vars is None:
            raise DimacsError(f"line {lineno}: clause data before 'p cnf' header")
        for token in line.split():
            try:
                lit = integer(token)
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
            stacklevel=3,
        )
    return Formula._canonical(num_vars, tuple(clauses))


def serialize_dimacs(formula: Formula) -> str:
    """Render a formula as DIMACS CNF text; :func:`parse_dimacs` inverts it."""
    lines = [f"p cnf {formula.num_vars} {formula.num_clauses}"]
    for clause in formula.clauses:
        body = " ".join(str(lit) for lit in clause)
        lines.append(f"{body} 0" if body else "0")
    return "\n".join(lines) + "\n"
