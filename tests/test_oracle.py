import itertools

import numpy as np
import pytest
from hypothesis import given, settings

from cnfaug import (
    Formula,
    Label,
    OracleBudgetError,
    SolveResult,
    apply_chain,
    count_models,
    gen_sr,
    parse_chain,
    parse_dimacs,
    resolve,
    satisfies,
    solve_brute,
    solve_dpll,
)
from cnfaug import oracle
from conftest import formula_of, non_canonical, random_formula, small_formulas


def _reference_simplify(clauses, lit):
    out = []
    for clause in clauses:
        if lit in clause:
            continue
        if -lit in clause:
            reduced = tuple(x for x in clause if x != -lit)
            if not reduced:
                return None
            out.append(reduced)
        else:
            out.append(clause)
    return out


class _ReferenceSearch:
    def __init__(self, max_decisions):
        self.max_decisions = max_decisions
        self.decisions = 0
        self.propagations = 0

    def run(self, clauses, assignment):
        while True:
            if any(len(c) == 0 for c in clauses):
                return None
            if not clauses:
                return assignment

            unit = next((c[0] for c in clauses if len(c) == 1), None)
            if unit is not None:
                self.propagations += 1
                assignment[abs(unit)] = unit > 0
                reduced = _reference_simplify(clauses, unit)
                if reduced is None:
                    return None
                clauses = reduced
                continue

            polarity = {}  # var -> bitmask of seen polarities
            for clause in clauses:
                for lit in clause:
                    polarity[abs(lit)] = polarity.get(abs(lit), 0) | (1 if lit > 0 else 2)
            pure = min((v for v, mask in polarity.items() if mask != 3), default=None)
            if pure is not None:
                self.propagations += 1
                lit = pure if polarity[pure] == 1 else -pure
                assignment[abs(lit)] = lit > 0
                clauses = [c for c in clauses if lit not in c]
                continue

            var = min(polarity)
            for lit in (var, -var):
                self.decisions += 1
                if self.decisions > self.max_decisions:
                    raise OracleBudgetError(
                        f"decision budget of {self.max_decisions} exhausted"
                    )
                reduced = _reference_simplify(clauses, lit)
                if reduced is None:
                    continue
                branch = dict(assignment)
                branch[var] = lit > 0
                result = self.run(reduced, branch)
                if result is not None:
                    return result
            return None


def reference_solve_dpll(formula, max_decisions=1_000_000, max_vars=200):
    """The DPLL engine on literal tuples that the bitmask search replaced:
    the same unit / pure / branch order, kept to check that every
    ``SolveResult`` (label, model, decisions, propagations) is unchanged."""
    if formula.num_vars > max_vars:
        raise ValueError(
            f"{formula.num_vars} variables exceeds the configured limit {max_vars}"
        )
    search = _ReferenceSearch(max_decisions)
    found = search.run([tuple(c) for c in formula.clauses], {})
    if found is None:
        return SolveResult(Label.UNSAT, None, search.decisions, search.propagations)
    assignment = {v: found.get(v, True) for v in range(1, formula.num_vars + 1)}
    return SolveResult(Label.SAT, assignment, search.decisions, search.propagations)


def _reference_sat_mask_small(formula):
    idx = np.arange(1 << formula.num_vars, dtype=np.uint32)
    bits = np.stack([(idx >> v) & 1 for v in range(formula.num_vars)]).astype(bool)
    ok = np.ones(1 << formula.num_vars, dtype=bool)
    for clause in formula.clauses:
        acc = np.zeros(ok.shape, dtype=bool)
        for lit in clause:
            acc |= bits[abs(lit) - 1] if lit > 0 else ~bits[abs(lit) - 1]
        ok &= acc
        if not ok.any():
            break
    return ok


def _reference_count_chunked(formula):
    total = 0
    block = 1 << 18
    for start in range(0, 1 << formula.num_vars, block):
        idx = np.arange(start, start + block, dtype=np.uint64)
        ok = np.ones(block, dtype=bool)
        for clause in formula.clauses:
            acc = np.zeros(block, dtype=bool)
            for lit in clause:
                bit = (idx >> np.uint64(abs(lit) - 1)) & np.uint64(1)
                acc |= (bit != 0) if lit > 0 else (bit == 0)
            ok &= acc
            if not ok.any():
                break
        total += int(ok.sum())
    return total


def reference_count_models(formula):
    """The numpy enumeration that the integer engine replaced: one boolean
    row per variable up to 18 variables, blocks of 2**18 assignments above.
    It needs at least one variable."""
    if formula.num_vars <= 18:
        return int(_reference_sat_mask_small(formula).sum())
    return _reference_count_chunked(formula)


def assert_matches_reference(formula):
    expected = reference_count_models(formula)
    assert count_models(formula) == expected
    assert solve_brute(formula) is (Label.SAT if expected else Label.UNSAT)


def slow_label(f: Formula) -> Label:
    """Independent reference oracle: plain nested-loop enumeration."""
    for bits in itertools.product([False, True], repeat=f.num_vars):
        assignment = {v + 1: bits[v] for v in range(f.num_vars)}
        if satisfies(f, assignment):
            return Label.SAT
    return Label.UNSAT


def test_empty_formula_is_sat():
    res = solve_dpll(Formula(0, ()))
    assert res.label is Label.SAT
    assert res.assignment == {}
    assert res.decisions == 0


def test_empty_clause_is_unsat():
    res = solve_dpll(formula_of(2, [1, 2], []))
    assert res.label is Label.UNSAT
    assert res.assignment is None
    assert res.decisions == 0


def test_worked_example_is_sat():
    f = formula_of(4, [1], [2, 3], [1, -3, 4], [-1, 2, 3, -4])
    # brute-checked: x1=T, x2=T satisfies all four clauses
    assert slow_label(f) is Label.SAT
    res = solve_dpll(f)
    assert res.label is Label.SAT
    assert satisfies(f, res.assignment)


def test_brute_trivial_cases():
    assert solve_brute(formula_of(1, [1], [-1])) is Label.UNSAT
    assert solve_brute(formula_of(2, [1, 2])) is Label.SAT


def test_count_models_trivial_cases():
    assert count_models(Formula(3, ())) == 8
    assert count_models(formula_of(1, [1])) == 1
    assert count_models(formula_of(2, [1, -1])) == 4  # tautology constrains nothing


@pytest.mark.parametrize(
    "formula, label, models",
    [
        (Formula(0, ()), Label.SAT, 1),
        (Formula(0, ((),)), Label.UNSAT, 0),
        (parse_dimacs("p cnf 0 0\n"), Label.SAT, 1),
    ],
    ids=["no-clauses", "empty-clause", "dimacs-header-only"],
)
def test_zero_variables(formula, label, models):
    assert solve_brute(formula) is label
    assert count_models(formula) == models
    assert solve_dpll(formula).label is label


def test_brute_limit():
    with pytest.raises(ValueError):
        solve_brute(Formula(25, ()))


def test_var_limit(monkeypatch):
    with pytest.raises(ValueError, match="201 variables exceeds the configured limit 200"):
        solve_dpll(Formula(201, ()))
    monkeypatch.setattr(oracle, "MAX_VARS", 4)
    with pytest.raises(ValueError, match="5 variables exceeds the configured limit 4"):
        solve_dpll(Formula(5, ()))


def test_oracles_agree_on_random_formulas(rng):
    for i in range(2000):
        f = random_formula(rng, max_vars=12 if i % 4 else 6)
        res = solve_dpll(f)
        assert res.label is solve_brute(f)
        if res.label is Label.SAT:
            assert satisfies(f, res.assignment)
            assert len(res.assignment) == f.num_vars
        if i % 10 == 0 and f.num_vars <= 6:
            assert res.label is slow_label(f)


def test_count_models_matches_enumeration(rng):
    for _ in range(200):
        f = random_formula(rng, max_vars=6)
        expected = sum(
            satisfies(f, {v + 1: b[v] for v in range(f.num_vars)})
            for b in itertools.product([False, True], repeat=f.num_vars)
        )
        assert count_models(f) == expected


def test_enumeration_in_blocks_above_18_variables(rng):
    # 19 to 24 variables: each variable's column holds 2**19 to 2**24 bits
    wide = Formula(20, ((1, 2), (-20,), (19, -3)))
    assert count_models(wide) == 294912
    assert_matches_reference(wide)
    unsat = formula_of(19, [1, 19], [-1, 19], [2, -19], [-2, -19])
    assert solve_brute(unsat) is Label.UNSAT and count_models(unsat) == 0
    assert_matches_reference(unsat)
    for _ in range(3):
        f = random_formula(rng, max_vars=6)
        padded = Formula(21, f.clauses)
        assert count_models(padded) == count_models(f) << (21 - f.num_vars)
        assert solve_brute(padded) is solve_brute(f)
        assert_matches_reference(padded)
    sat24 = Formula(24, ((1, 24), (-1, -24), (12, -13, 24)))
    assert solve_brute(sat24) is Label.SAT and count_models(sat24) == 7 << 20
    assert_matches_reference(sat24)
    unsat24 = formula_of(24, [1, 24], [-1, 24], [2, -24], [-2, -24])
    assert solve_brute(unsat24) is Label.UNSAT and count_models(unsat24) == 0
    assert_matches_reference(unsat24)


def test_matches_reference_on_random_formulas(rng):
    for i in range(1000):
        assert_matches_reference(random_formula(rng, max_vars=12 if i % 4 else 6))


@pytest.mark.parametrize("num_vars", range(13, 25))
def test_matches_reference_on_padded_formulas(rng, num_vars):
    f = random_formula(rng, max_vars=8)
    assert_matches_reference(Formula(num_vars, f.clauses))


def test_resolvent_preserves_model_count(rng):
    done = 0
    while done < 200:
        f = random_formula(rng, max_vars=10)
        pairs = [
            (i, j, v)
            for i, ci in enumerate(f.clauses)
            for j, cj in enumerate(f.clauses)
            for v in range(1, f.num_vars + 1)
            if i != j and v in ci and -v in cj
        ]
        if not pairs:
            continue
        i, j, v = pairs[int(rng.integers(len(pairs)))]
        resolvent = resolve(f.clauses[i], f.clauses[j], v)
        if resolvent is None:
            continue
        extended = Formula(f.num_vars, f.clauses + (resolvent,))
        assert count_models(extended) == count_models(f)
        done += 1


def test_determinism():
    f = formula_of(6, [1, 2], [-1, 3], [-3, -2], [4, 5, 6], [-4, -5], [2, -6])
    first = solve_dpll(f)
    second = solve_dpll(f)
    assert first == second


def test_decision_budget_is_explicit_failure(monkeypatch):
    f = formula_of(2, [1, 2], [1, -2], [-1, 2], [-1, -2])
    with monkeypatch.context() as patch, pytest.raises(OracleBudgetError, match="budget of 0 "):
        patch.setattr(oracle, "MAX_DECISIONS", 0)
        solve_dpll(f)
    # and a sufficient budget labels it correctly
    assert solve_dpll(f).label is Label.UNSAT


def test_propagation_only_formulas_report_zero_decisions():
    f = formula_of(3, [1], [-1, 2], [-2, 3])
    res = solve_dpll(f)
    assert res.label is Label.SAT
    assert res.decisions == 0
    assert res.propagations > 0


LPA_VIEW = "AU:0.2:{0},CR:0.3:{0},SC"
LAA_VIEW = "SG:0.3:{0},LP:0.2:{0}"


def assert_same_result(formulas):
    for idx, f in enumerate(formulas):
        assert solve_dpll(f) == reference_solve_dpll(f), idx


class TestMaskEngineMatchesReference:
    """The bitmask search keeps every decision and propagation of the tuple
    search on clauses without repeated literals."""

    def test_random_formulas(self, rng):
        assert_same_result([random_formula(rng, max_vars=12 if i % 4 else 6) for i in range(3000)])

    @pytest.mark.parametrize("family", ["SR", "UR", "PR"])
    def test_corpora_and_chain_views(self, family_corpora, family):
        formulas, _ = family_corpora[family]
        assert_same_result(formulas)
        for chain in (LPA_VIEW, LAA_VIEW):
            assert_same_result(
                [apply_chain(f, parse_chain(chain.format(i))) for i, f in enumerate(formulas)]
            )

    def test_sr40(self):
        assert_same_result(
            [inst.formula for seed in range(4) for inst in gen_sr(40, seed)]
        )

    @pytest.mark.parametrize("budget", [0, 1, 3, 10])
    def test_budget_runs_out_at_the_same_decision(self, rng, sr_corpus, budget, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_DECISIONS", budget)
        formulas = [random_formula(rng, max_vars=12) for _ in range(300)]
        for f in formulas + [inst.formula for inst in sr_corpus[:200]]:
            try:
                expected = reference_solve_dpll(f, budget)
            except OracleBudgetError:
                with pytest.raises(OracleBudgetError):
                    solve_dpll(f)
            else:
                assert solve_dpll(f) == expected

    def test_repeated_literals_keep_the_label(self, rng):
        # a repeated literal may change the counts, never the label
        for _ in range(1000):
            f = non_canonical(random_formula(rng, max_vars=10))
            res = solve_dpll(f)
            assert res.label is solve_brute(f)
            if res.label is Label.SAT:
                assert satisfies(f, res.assignment)


@settings(max_examples=500, deadline=None)
@given(small_formulas())
def test_label_matches_brute_force(formula):
    res = solve_dpll(formula)
    assert res.label is solve_brute(formula)
    if res.label is Label.SAT:
        assert len(res.assignment) == formula.num_vars
        assert satisfies(formula, res.assignment)


@settings(max_examples=300, deadline=None)
@given(small_formulas())
def test_brute_force_matches_reference(formula):
    assert_matches_reference(formula)
