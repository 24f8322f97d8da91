import math
import time
import tracemalloc

import pytest

from cnfaug import (
    Formula,
    Label,
    build_lig,
    derive_seed,
    drop_clauses,
    drop_variables,
    make_clause,
    perturb_links,
    solve_brute,
    subgraph,
    to_formula,
)
from cnfaug import laa
from cnfaug.formula import literal_key
from conftest import TAIL_SHUFFLE, WIDE_HEADER, formula_of, non_canonical, random_formula, seeded_rng


def reference_subgraph(formula, rate, seed):
    """The walk on neighbour sets sorted into lists over the unified node
    numbering (the former ``graph.adjacency``), kept as the reference the
    walk on edge-built neighbour lists must match call for call."""
    graph = build_lig(formula, plus=True)
    if graph.num_nodes == 0:
        raise ValueError("cannot take a subgraph of an empty formula")
    steps = max(0, math.ceil(rate * graph.num_nodes - 1e-9))
    rng = seeded_rng(seed)
    offset = graph.num_literal_nodes
    sets = {i: set() for i in range(graph.num_nodes)}
    for lit_idx, clause_idx in graph.cl_edges:
        sets[lit_idx].add(offset + clause_idx)
        sets[offset + clause_idx].add(lit_idx)
    for a, b in graph.var_edges:
        sets[a].add(b)
        sets[b].add(a)
    nbrs = {i: sorted(s) for i, s in sets.items()}
    current = int(rng.integers(graph.num_nodes))
    visited = {current}
    for _ in range(steps):
        options = nbrs[current]
        if not options:
            break
        current = options[int(rng.integers(len(options)))]
        visited.add(current)
    kept = []
    for ci, clause in enumerate(formula.clauses):
        if offset + ci not in visited:
            continue
        reduced = make_clause(lit for lit in clause if 2 * (abs(lit) - 1) + (lit < 0) in visited)
        if reduced:
            kept.append(reduced)
    return Formula(formula.num_vars, tuple(kept))


def find_flip(fn, corpus, rate=0.3, seeds=10):
    for idx, inst in enumerate(corpus):
        for s in range(seeds):
            out = fn(inst.formula, rate, idx * 1000 + s)
            if solve_brute(out) is not inst.label:
                return idx, s
    return None


class TestDropClauses:
    def test_rate_zero_identity(self, sr_corpus):
        f = sr_corpus[0].formula
        assert drop_clauses(f, 0.0, 1) == f

    def test_rate_one_drops_everything(self):
        f = formula_of(3, [1, 2], [-3])
        out = drop_clauses(f, 1.0, 4)
        assert out.clauses == ()
        assert solve_brute(out) is Label.SAT

    def test_flips_some_unsat_instance(self, sr_corpus):
        assert find_flip(drop_clauses, sr_corpus[:200]) is not None

    def test_never_flips_sat_to_unsat(self, sr_corpus):
        sat_instances = [i for i in sr_corpus[:200] if i.label is Label.SAT]
        for idx, inst in enumerate(sat_instances):
            for s in range(3):
                out = drop_clauses(inst.formula, 0.3, idx * 31 + s)
                assert solve_brute(out) is Label.SAT


class TestDropVariables:
    def test_rate_zero_identity(self, sr_corpus):
        f = sr_corpus[0].formula
        assert drop_variables(f, 0.0, 1) == f

    def test_emptied_clauses_are_deleted(self):
        f = formula_of(2, [1, 2], [-2])
        # drop both variables in turn until the seeded pick hits x2
        for s in range(20):
            out = drop_variables(f, 0.5, s)  # floor(0.5 * 2) = 1 variable
            survivors = {abs(l) for c in out.clauses for l in c}
            if 2 not in survivors and out.num_clauses == 1:
                assert out.clauses == ((1,),)
                break
        else:
            pytest.fail("seeded picks never selected x2")

    def test_num_vars_unchanged(self, sr_corpus):
        out = drop_variables(sr_corpus[1].formula, 0.5, 9)
        assert out.num_vars == sr_corpus[1].formula.num_vars

    def test_flips_some_instance(self, sr_corpus):
        assert find_flip(drop_variables, sr_corpus[:200]) is not None

    def test_draws_among_the_variables_that_occur(self):
        # the three variables that occur are the whole population; a draw
        # over the header took 676 ms and a 21 MB peak at 10**6 variables
        tracemalloc.start()
        start = time.perf_counter()
        try:
            out = drop_variables(Formula(10**8, ((1, 2), (-1, 3))), 0.5, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1.0
        assert peak < 8_000_000
        assert out == Formula(10**8, ((1,), (-1, 3)))  # floor(0.5 * 3) = 1 of 3 dropped


class TestPerturbLinks:
    def test_rate_zero_identity(self, sr_corpus):
        f = sr_corpus[0].formula
        assert perturb_links(f, 0.0, 1) == f

    def test_single_literal_flip_turns_sat_into_unsat(self, sr_corpus):
        # the paired construction: sat twin differs from the unsat one by a
        # single literal, i.e. one remove + one targeted insert
        sat, unsat = sr_corpus[0], sr_corpus[1]
        assert sat.label is Label.SAT and unsat.label is Label.UNSAT
        differing = [
            (a, b)
            for a, b in zip(sat.formula.clauses, unsat.formula.clauses)
            if a != b
        ]
        assert len(differing) == 1
        edited, original = differing[0]
        removed = set(edited) - set(original)
        inserted = set(original) - set(edited)
        assert len(removed) == len(inserted) == 1
        assert removed.pop() == -inserted.pop()

    def test_flips_some_instance(self, sr_corpus):
        assert find_flip(perturb_links, sr_corpus[:200]) is not None

    def test_outputs_are_well_formed(self, sr_corpus):
        for idx, inst in enumerate(sr_corpus[:50]):
            out = perturb_links(inst.formula, 0.3, idx)
            build_lig(out)  # validates indices via Formula + graph construction


class TestSubgraph:
    def test_empty_formula_rejected(self):
        with pytest.raises(ValueError):
            subgraph(Formula(0, ()), 0.3, 1)

    def test_rate_above_one_rejected(self):
        with pytest.raises(ValueError, match="rate must lie in"):
            subgraph(formula_of(2, [1, 2]), 1.5, 1)
        # the other three refuse it through _floor_count
        for fn in (drop_clauses, drop_variables, perturb_links):
            with pytest.raises(ValueError, match="rate must lie in"):
                fn(formula_of(2, [1, 2]), 1.5, 1)

    def test_long_walk_returns_whole_formula(self):
        f = formula_of(1, [1])
        # 3-node connected graph; a long walk visits everything
        out = subgraph(f, 1.0, 3)
        assert out == f

    def test_clause_restricted_to_visited_literals(self):
        f = formula_of(2, [1, 2])
        seen = set()
        for s in range(40):
            out = subgraph(f, 0.34, s)  # ceil(0.34 * 5) = 2 steps
            if out.num_clauses == 1 and len(out.clauses[0]) == 1:
                seen.add(out.clauses[0])
        assert seen  # some walk covered the clause plus exactly one literal

    def test_flips_some_instance(self, sr_corpus):
        assert find_flip(subgraph, sr_corpus[:200]) is not None

    def test_a_wide_header_costs_little(self):
        # the walk table holds only the nodes with an edge, and the walk
        # stops on a literal that occurs nowhere; a table sized by the header
        # took about 7 s and a 210 MB peak at 10**6 variables
        tracemalloc.start()
        start = time.perf_counter()
        try:
            out = subgraph(Formula(10**8, ((1, 2), (-1, 3))), 0.6, 32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1.0
        assert out == Formula(10**8, ())
        assert peak < 8_000_000

    def test_outputs_are_well_formed(self, sr_corpus):
        for idx, inst in enumerate(sr_corpus[:50]):
            out = subgraph(inst.formula, 0.3, idx)
            graph = build_lig(out)
            assert to_formula(graph) == out


@pytest.mark.parametrize("rate", [0.1, 0.6, 1.0])
class TestSubgraphMatchesReference:
    def test_random_and_non_canonical_formulas(self, rng, rate):
        for i in range(300):
            f = random_formula(rng)
            for g in (f, non_canonical(f)):
                assert subgraph(g, rate, i) == reference_subgraph(g, rate, i)

    def test_corpora(self, sr_corpus, ur_corpus, pr_corpus, rate):
        for corpus in (sr_corpus, ur_corpus, pr_corpus):
            for i, inst in enumerate(corpus[:200]):
                assert subgraph(inst.formula, rate, i) == reference_subgraph(inst.formula, rate, i)


def reference_drop_clauses(formula, rate, seed):
    """The baselines below on numpy's ``Generator``, one call per draw,
    kept as the references the stream's draws must match."""
    count = laa._floor_count(rate, formula.num_clauses)
    if count == 0:
        return formula
    rng = seeded_rng(seed)
    dropped = set(rng.choice(formula.num_clauses, size=count, replace=False).tolist())
    return Formula(formula.num_vars, tuple(c for i, c in enumerate(formula.clauses) if i not in dropped))


def reference_drop_variables(formula, rate, seed):
    occurring = sorted({abs(lit) for clause in formula.clauses for lit in clause})
    count = laa._floor_count(rate, len(occurring))
    if count == 0:
        return formula
    rng = seeded_rng(seed)
    dropped = {occurring[i] for i in rng.choice(len(occurring), size=count, replace=False).tolist()}
    kept = []
    for clause in formula.clauses:
        reduced = tuple(lit for lit in clause if abs(lit) not in dropped)
        if reduced or not clause:
            kept.append(reduced)
    return Formula(formula.num_vars, tuple(kept))


def reference_perturb_links(formula, rate, seed):
    edits = laa._floor_count(rate, sum(len(c) for c in formula.clauses))
    if edits == 0:
        return formula
    rng = seeded_rng(seed)
    clauses = [list(c) for c in formula.clauses]
    for _ in range(edits):
        if rng.integers(2):
            total = sum(len(c) for c in clauses)
            if total == 0:
                continue
            flat = int(rng.integers(total))
            for ci, clause in enumerate(clauses):
                if flat < len(clause):
                    clause.pop(flat)
                    if not clause:
                        clauses.pop(ci)
                    break
                flat -= len(clause)
        else:
            if not clauses or formula.num_vars == 0:
                continue
            ci = int(rng.integers(len(clauses)))
            var = int(rng.integers(1, formula.num_vars + 1))
            lit = -var if rng.integers(2) else var
            if lit not in clauses[ci]:
                clauses[ci] = sorted(clauses[ci] + [lit], key=literal_key)
    return Formula(formula.num_vars, tuple(tuple(c) for c in clauses))


LAA_REFERENCES = {
    drop_clauses: reference_drop_clauses,
    drop_variables: reference_drop_variables,
    perturb_links: reference_perturb_links,
}


@pytest.mark.parametrize("fn", list(LAA_REFERENCES), ids=lambda fn: fn.__name__)
class TestMatchesGeneratorReference:
    def test_random_and_non_canonical_formulas(self, rng, fn):
        for idx in range(150):
            f = random_formula(rng)
            seed = derive_seed(20, idx) if idx % 2 else idx
            for g in (f, non_canonical(f)):
                for rate in (0.1, 0.6, 1.0):
                    assert fn(g, rate, seed) == LAA_REFERENCES[fn](g, rate, seed), (g, rate, seed)

    def test_corpora(self, sr_corpus, ur_corpus, pr_corpus, fn):
        for corpus in (sr_corpus, ur_corpus, pr_corpus):
            for idx, inst in enumerate(corpus[:100]):
                for rate in (0.1, 0.6):
                    assert fn(inst.formula, rate, idx) == LAA_REFERENCES[fn](inst.formula, rate, idx)


def test_tail_shuffle_and_wide_shapes_match_reference():
    for seed in (0, derive_seed(21, 0)):
        for fn in (drop_clauses, drop_variables):
            assert fn(TAIL_SHUFFLE, 0.05, seed) == LAA_REFERENCES[fn](TAIL_SHUFFLE, 0.05, seed)
        for fn, rate in ((drop_variables, 0.6), (perturb_links, 1.0)):
            assert fn(WIDE_HEADER, rate, seed) == LAA_REFERENCES[fn](WIDE_HEADER, rate, seed)
