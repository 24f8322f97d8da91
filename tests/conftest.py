"""Shared fixtures: seeded corpora and random-formula helpers.

Corpora are session-scoped so the generator cost (a few seconds) is paid
once; every test derives its randomness from explicit seeds, so the whole
suite is reproducible run to run.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from cnfaug import (
    Formula,
    GenFamily,
    GenSpec,
    gen_corpus,
    make_clause,
    solve_brute,
)
from cnfaug.gen import PR10

SR_SEED = 20240811
UR_SEED = 7
PR_SEED = 11

UR12 = dict(num_vars=12, num_clauses=51, clause_len=3)


def _one_polarity(v: int) -> int:
    return -v if v % 3 == 0 else v


# numpy samples k of n by a tail shuffle when n > 10000 and k > n // 50.
# Here 10,050 clauses over 10,050 variables, each variable of one polarity,
# take that branch at rates above 1/50 in clause, variable and pure-variable
# samples.
TAIL_SHUFFLE = Formula(
    10050, tuple((_one_polarity(v), _one_polarity(v % 10050 + 1)) for v in range(1, 10051))
)
# a header past 2**32 variables: bounded draws over variables take whole raw outputs
WIDE_HEADER = Formula(5 * 10**9, ((1, 2), (-1,), (3, -4, 5)))


def seeded_rng(seed: int) -> np.random.Generator:
    """The numpy generator whose draws ``cnfaug._stream.Stream`` replays;
    the ``reference_*`` copies in the tests draw from it."""
    return np.random.Generator(np.random.PCG64(seed))


def formula_of(num_vars: int, *clauses) -> Formula:
    """Formula from literal lists."""
    return Formula(num_vars, clauses)


def random_formula(rng: np.random.Generator, max_vars: int = 8) -> Formula:
    """Small random formula with diverse shapes: mixed clause lengths,
    occasional unit clauses, duplicates, and rarely an empty clause."""
    num_vars = int(rng.integers(1, max_vars + 1))
    num_clauses = int(rng.integers(0, 3 * num_vars + 1))
    clauses = []
    for _ in range(num_clauses):
        width = int(rng.integers(1, min(4, num_vars) + 1))
        variables = rng.choice(num_vars, size=width, replace=False) + 1
        flips = rng.integers(2, size=width)
        clauses.append(make_clause(int(-v if f else v) for v, f in zip(variables, flips)))
        if num_clauses > 1 and rng.random() < 0.05:
            clauses.append(clauses[-1])  # duplicate clause
    if num_clauses and rng.random() < 0.02:
        clauses.append(())  # falsum
    return Formula(num_vars, tuple(clauses))


def non_canonical(formula: Formula) -> Formula:
    """Same clauses reversed with a repeated literal, plus two tautologies.

    The constructor canonicalizes the raw clauses, so the function under test
    sees the input's clauses followed by two canonical tautologies."""
    clauses = tuple(tuple(reversed(c)) + c[:1] for c in formula.clauses)
    clauses += tuple((c[0], -c[0]) + c for c in formula.clauses[:2] if c)
    return Formula(formula.num_vars, clauses)


@st.composite
def small_formulas(draw):
    """Up to 7 variables; clauses may be tautologies, repeat each other or be
    empty.  Raw clauses are drawn unsorted and with repeated literals, and the
    constructor canonicalizes them before the function under test sees them."""
    num_vars = draw(st.integers(1, 7))
    literal = st.integers(1, num_vars).flatmap(lambda v: st.sampled_from([v, -v]))
    clauses = draw(st.lists(st.lists(literal, max_size=4).map(tuple), max_size=3 * num_vars))
    return Formula(num_vars, tuple(clauses))


@pytest.fixture(scope="session")
def sr_corpus():
    """1000 paired instances (500 sat/unsat pairs) at 10 variables."""
    return gen_corpus(GenSpec(GenFamily.SR, 10), 500, SR_SEED)


@pytest.fixture(scope="session")
def ur_corpus():
    """500 uniform 3-SAT instances at 12 variables, 51 clauses."""
    return gen_corpus(GenSpec(GenFamily.UR, **UR12), 500, UR_SEED)


@pytest.fixture(scope="session")
def pr_corpus():
    """1000 power-law 3-SAT instances at 10 variables."""
    return gen_corpus(GenSpec(GenFamily.PR, **PR10), 1000, PR_SEED)


@pytest.fixture(scope="session")
def family_corpora(sr_corpus, ur_corpus, pr_corpus):
    """500 formulas per family with cached brute-force labels."""
    out = {}
    for name, corpus in (("SR", sr_corpus), ("UR", ur_corpus), ("PR", pr_corpus)):
        formulas = [inst.formula for inst in corpus[:500]]
        labels = [solve_brute(f) for f in formulas]
        assert all(l is inst.label for l, inst in zip(labels, corpus[:500]))
        out[name] = (formulas, labels)
    return out


@pytest.fixture()
def rng():
    return seeded_rng(987654321)
