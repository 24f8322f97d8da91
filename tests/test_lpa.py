import logging
import math
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnfaug import (
    Formula,
    GenFamily,
    GenSpec,
    Label,
    add_unit_literal,
    clause_resolution,
    count_models,
    gen_corpus,
    make_clause,
    pure_literal_eliminate,
    resolve,
    solve_brute,
    subsumed_clause_eliminate,
    unit_propagate,
    variable_eliminate,
)
from cnfaug import derive_seed, lpa
from cnfaug._stream import Stream, integer_rounds
from cnfaug.gen import _power_weights
from cnfaug.lpa import _pure_variables
from conftest import (
    TAIL_SHUFFLE,
    WIDE_HEADER,
    formula_of,
    non_canonical,
    random_formula,
    seeded_rng,
    small_formulas,
)

# The four-clause running example used by the deterministic golden tests:
#   c1: x1   c2: x2|x3   c3: x1|-x3|x4   c4: -x1|x2|x3|-x4
RUNNING = formula_of(4, [1], [2, 3], [1, -3, 4], [-1, 2, 3, -4])

# Seeds pinned so the stochastic choices reproduce the documented outputs.
AU_SEED = 1252
CR_SEED = 1
VE_SEED = 4


def brute_preserved(fn, formulas, labels, rates=(0.1, 0.3, 0.5)):
    for rate in rates:
        for idx, (f, label) in enumerate(zip(formulas, labels)):
            out = fn(f, rate, idx * 7919 + 13)
            assert solve_brute(out) is label, (rate, idx)


@pytest.fixture(scope="module")
def labeled_sample(sr_corpus):
    formulas = [inst.formula for inst in sr_corpus[:120]]
    return formulas, [inst.label for inst in sr_corpus[:120]]


def _generator_call(rng, call):
    """The numpy ``Generator`` call that ``Stream`` stands in for."""
    name, *args = call
    if name == "integers":
        (bound,) = args
        return int(rng.integers(bound, dtype=np.uint64 if bound > 2**63 else np.int64))
    if name == "random":
        return rng.random()
    if name == "sample":
        return rng.choice(*args, replace=False).tolist()
    (p,) = args
    return int(rng.choice(len(p), p=p))


def _stream_call(stream, call):
    name, *args = call
    if name == "pick":
        return stream.pick(Stream.cdf(*args))
    return getattr(stream, name)(*args)


def _sample_call(n):
    return st.tuples(st.just("sample"), st.just(n), st.just(n) | st.integers(0, min(n, 40)))


def _normalized(weights):
    p = np.array(weights)
    return p / p.sum()


STREAM_CALLS = st.one_of(
    st.tuples(
        st.just("integers"),
        st.sampled_from([1, 2, 3, 12, 2**31 + 1, 2**32, 2**32 + 1, 3 * 2**40 + 7, 2**63, 2**63 + 1, 2**64]),
    ),
    st.just(("random",)),
    (st.sampled_from([1, 10000]) | st.integers(1, 300)).flatmap(_sample_call),
    st.lists(st.floats(0, 1, allow_subnormal=False), min_size=1, max_size=12)
    .filter(lambda w: sum(w) > 0)
    .map(lambda w: ("pick", _normalized(w))),
)


class TestStream:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.lists(STREAM_CALLS, max_size=12))
    def test_matches_generator_call_for_call(self, seed, calls):
        rng, stream = seeded_rng(seed), Stream(seed)
        for call in calls:
            assert _stream_call(stream, call) == _generator_call(rng, call), call
        # a lost or reused held 32-bit half shows in the next two draws
        assert stream.integers(2**32) == int(rng.integers(2**32))
        assert stream.random() == rng.random()

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(1, 10**6), min_size=1, max_size=60), st.floats(1.01, 4.0))
    def test_cdf_bits_match_cumsum(self, counts, exponent):
        # CR's integer counts over their exact sum, and gen_pr's power-law weights
        total = sum(counts)
        weights = np.array(counts, dtype=float)
        power = _power_weights(len(counts), exponent)
        for ours, p in (([c / total for c in counts], weights / weights.sum()), (power.tolist(), power)):
            cdf = p.cumsum()
            cdf /= cdf[-1]
            assert Stream.cdf(ours) == cdf.tolist()

    def test_sample_shapes_numpy_draws_another_way_match_choice(self):
        # numpy shuffles the tail of range(n) when n > 10000 and k > n // 50;
        # the edges of that precondition, and bounds past 2**32, take Floyd's
        shapes = [(10001, 201), (20000, 401), (20000, 20000), (10001, 10001),
                  (10000, 10000), (10001, 200), (20000, 400), (2**33, 5)]
        for seed in (3, derive_seed(16, 3)):
            for n, k in shapes:
                rng, stream = seeded_rng(seed), Stream(seed)
                assert stream.sample(n, k) == rng.choice(n, k, replace=False).tolist(), (n, k)
                assert stream.integers(2**32) == int(rng.integers(2**32))
                assert stream.random() == rng.random()

    def test_integer_rounds_match_generator_call_for_call(self):
        # bound patterns with 1s, 2s, small and 32-bit bounds; a product whose
        # low 32 bits fall below its bound, where numpy may draw again, gives
        # None, as does a bound above 2**32
        pick = seeded_rng(29)
        outcomes = {"values": 0, "none": 0}
        for case in range(1500):
            seed = case if case % 2 else int(pick.integers(2**64, dtype=np.uint64))
            kinds = pick.integers(4, size=int(pick.integers(8)))
            bounds = [(1, 2, int(pick.integers(1, 50)), int(pick.integers(1, 2**32)))[c]
                      for c in kinds]
            rounds = int(pick.integers(5))
            words = np.random.PCG64(seed).random_raw(rounds * len(bounds)).tolist()
            halves = iter([h for w in words for h in (w & 0xFFFFFFFF, w >> 32)])
            in_zone = any((next(halves) * b) & 0xFFFFFFFF < b
                          for _ in range(rounds) for b in bounds if b > 1)
            got = integer_rounds(seed, bounds, rounds)
            if in_zone:
                assert got is None, (seed, bounds, rounds)
                outcomes["none"] += 1
                continue
            rng = seeded_rng(seed)
            assert got.dtype == np.int64 and got.shape == (rounds, len(bounds))
            assert got.tolist() == [[int(rng.integers(b)) for b in bounds] for _ in range(rounds)]
            outcomes["values"] += 1
        assert min(outcomes.values()) > 300, outcomes
        for bounds in ([2**32], [3, 2**32 + 1]):
            assert integer_rounds(5, bounds, 1) is None

    def test_out_of_range_arguments_are_refused(self):
        stream = Stream(0)
        for bound in (0, -1, 2**64 + 1):
            with pytest.raises(ValueError, match="bound must lie in"):
                stream.integers(bound)
        with pytest.raises(ValueError, match="cannot sample 4 of 3"):
            stream.sample(3, 4)


class TestUnitPropagate:
    def test_golden_single_step(self):
        out = unit_propagate(RUNNING, 0.3, 0)
        assert out == formula_of(4, [2, 3], [2, 3, -4])

    def test_no_units_identity(self):
        f = formula_of(3, [1, 2], [-1, 3])
        assert unit_propagate(f, 1.0, 5) == f

    def test_rate_zero_identity(self):
        assert unit_propagate(RUNNING, 0.0, 0) == RUNNING

    def test_conflicting_units_leave_empty_clause(self):
        f = formula_of(2, [1], [-1], [1, 2])
        out = unit_propagate(f, 1.0, 3)
        assert () in out.clauses
        assert solve_brute(out) is Label.UNSAT

    def test_label_preserved(self, labeled_sample):
        brute_preserved(unit_propagate, *labeled_sample)

    def test_repeated_literal_clause_is_a_unit(self):
        # (1, 1) is stored as (1,), so UP and DPLL agree on what a unit is
        assert unit_propagate(Formula(2, ((1, 1), (-1, 2))), 1.0, 0) == Formula(2, ((2,),))


class TestAddUnitLiteral:
    def test_golden_pinned_seed(self):
        out = add_unit_literal(RUNNING, 0.25, AU_SEED)
        assert out == formula_of(
            5, [-5], [1, 5], [2, 3], [1, -3, 4], [-1, 2, 3, -4], [-5, 1, -2, 3]
        )

    def test_rate_zero_adds_only_the_unit(self):
        out = add_unit_literal(RUNNING, 0.0, 9)
        assert out.num_vars == 5
        assert out.num_clauses == RUNNING.num_clauses + 1
        assert out.clauses[0] in ((5,), (-5,))
        assert out.clauses[1:] == RUNNING.clauses
        assert solve_brute(out) is solve_brute(RUNNING)

    def test_fresh_variable_everywhere_it_appears(self):
        out = add_unit_literal(RUNNING, 0.5, 17)
        unit = out.clauses[0]
        assert abs(unit[0]) == 5
        inserted = sum(1 for c in out.clauses[1:] if -unit[0] in c)
        appended = sum(1 for c in out.clauses[1:] if unit[0] in c)
        assert inserted == 2 and appended == 2  # ceil(0.5 * 4)

    def test_label_preserved(self, labeled_sample):
        brute_preserved(add_unit_literal, *labeled_sample)


class TestPureLiteralEliminate:
    def test_all_clauses_contain_the_pure_variable(self):
        f = formula_of(2, [1, 2], [1, -2])
        out = pure_literal_eliminate(f, 1.0, 0)
        assert out.clauses == ()
        assert solve_brute(out) is Label.SAT

    def test_no_pure_variable_identity(self):
        f = formula_of(2, [1, 2], [-1, -2])
        assert pure_literal_eliminate(f, 1.0, 0) == f

    def test_selection_is_rate_limited(self):
        f = formula_of(4, [1, 3], [2, 3], [-3, 4])
        out = pure_literal_eliminate(f, 0.25, 2)  # one of the pure vars 1,2,4
        assert out.num_clauses < f.num_clauses

    def test_label_preserved(self, labeled_sample):
        brute_preserved(pure_literal_eliminate, *labeled_sample)

    def test_pure_variables_match_a_polarity_scan(self, rng):
        for _ in range(300):
            f = random_formula(rng, max_vars=10)
            for g in (f, non_canonical(f)):
                assert _pure_variables(g) == reference_pure_variables(g)

    def test_wide_header_gives_the_clauses_of_a_tight_one(self):
        # the cost follows the literals that occur, not the declared count
        tight = Formula(5, WIDE_HEADER.clauses)
        wider = Formula(5 * 10**9, ((1, 2), (-1, 7), (4000, -9), (-7,)))
        for seed in (0, 1, derive_seed(19, 2)):
            for rate in (0.3, 1.0):
                for wide, narrow in ((WIDE_HEADER, tight), (wider, Formula(4000, wider.clauses))):
                    out = pure_literal_eliminate(wide, rate, seed)
                    assert out.clauses == pure_literal_eliminate(narrow, rate, seed).clauses
                    assert out.num_vars == wide.num_vars


class TestSubsumedClauseEliminate:
    def test_golden(self):
        out = subsumed_clause_eliminate(RUNNING)
        # both supersets go: c2 < c4, and the unit c1 < c3
        assert out == formula_of(4, [1], [2, 3])

    def test_antichain_identity(self):
        f = formula_of(3, [1, 2], [2, 3], [-1, 3])
        assert subsumed_clause_eliminate(f) == f

    def test_duplicates_keep_first_occurrence(self):
        f = formula_of(2, [1, 2], [1, 2], [1])
        out = subsumed_clause_eliminate(f)
        assert out.clauses == ((1,),)
        g = formula_of(2, [1, 2], [1, 2])
        assert subsumed_clause_eliminate(g).clauses == ((1, 2),)

    def test_idempotent_and_no_residual_subsumption(self, rng):
        for _ in range(300):
            f = random_formula(rng)
            once = subsumed_clause_eliminate(f)
            assert subsumed_clause_eliminate(once) == once
            sets = [frozenset(c) for c in once.clauses]
            # no duplicates and no strict subset pair remain
            assert len(set(sets)) == len(sets)
            assert not any(
                i != j and a < b for i, a in enumerate(sets) for j, b in enumerate(sets)
            )

    def test_label_preserved(self, labeled_sample):
        formulas, labels = labeled_sample
        for f, label in zip(formulas, labels):
            assert solve_brute(subsumed_clause_eliminate(f)) is label


class TestResolve:
    def test_union_minus_pivot(self):
        assert resolve((2, 3), (1, -3, 4), 3) == (1, 2, 4)
        assert resolve((1, -3, 4), (2, 3), 3) == (1, 2, 4)

    def test_tautological_resolvent_is_discarded(self):
        assert resolve((-1, 2, 3, -4), (1, -3, 4), 3) is None

    def test_unit_conflict_gives_empty_clause(self):
        assert resolve((1,), (-1,), 1) == ()

    def test_pivot_must_be_complementary(self):
        with pytest.raises(ValueError):
            resolve((1, 2), (1, 3), 1)
        with pytest.raises(ValueError):
            resolve((1, 2), (-1, 3), 2)
        with pytest.raises(ValueError, match="pivot must be a variable index"):
            resolve((1,), (-1,), 0)


class TestClauseResolution:
    def test_golden_pinned_seed(self):
        out = clause_resolution(RUNNING, 0.25, CR_SEED)
        assert out == Formula(4, RUNNING.clauses + ((1, 2, 4),))

    def test_rate_zero_identity(self):
        assert clause_resolution(RUNNING, 0.0, 1) == RUNNING

    def test_no_complementary_pair_identity(self):
        f = formula_of(3, [1, 2], [2, 3])
        assert clause_resolution(f, 0.5, 8) == f

    def test_appends_requested_count(self):
        out = clause_resolution(RUNNING, 0.5, 3)
        assert out.clauses[: RUNNING.num_clauses] == RUNNING.clauses
        assert out.num_clauses == RUNNING.num_clauses + 2

    def test_added_clauses_are_new_non_tautological(self, rng):
        for _ in range(100):
            f = random_formula(rng, max_vars=8)
            out = clause_resolution(f, 0.3, int(rng.integers(2**32)))
            original = set(f.clauses)
            for added in out.clauses[f.num_clauses :]:
                assert added not in original
                assert not any(-lit in added for lit in added)

    def test_each_resolvent_preserves_model_count(self, rng):
        for _ in range(100):
            f = random_formula(rng, max_vars=10)
            out = clause_resolution(f, 0.2, int(rng.integers(2**32)))
            base = count_models(f)
            for added in out.clauses[f.num_clauses :]:
                assert count_models(Formula(f.num_vars, f.clauses + (added,))) == base

    def test_label_preserved(self, labeled_sample):
        brute_preserved(clause_resolution, *labeled_sample)

    def test_short_run_is_logged(self, caplog):
        # every resolvent is a tautology or a clause already present
        f = formula_of(3, [1, 2], [-1, -2], [3], [3, -3])
        with caplog.at_level(logging.INFO, logger="cnfaug.lpa"):
            assert clause_resolution(f, 0.5, 8) == f
            assert clause_resolution(RUNNING, 0.25, CR_SEED).num_clauses == 5
        assert [r.getMessage() for r in caplog.records] == [
            "clause resolution added 0 of 2 requested resolvents (attempt budget of 100 exhausted)"
        ]


def reference_clause_resolution(formula, rate, seed, max_attempts=50):
    """The tuple CR that the bitmask engine replaced: occurrences from a dict
    scan and one ``resolve`` set merge per attempt, kept as the reference it
    must match clause for clause on canonical inputs."""
    target = math.ceil(rate * formula.num_clauses - 1e-9)
    if target == 0:
        return formula
    pos, neg = {}, {}
    for i, clause in enumerate(formula.clauses):
        for lit in clause:
            (pos if lit > 0 else neg).setdefault(abs(lit), []).append(i)
    pivots = sorted(v for v in pos if v in neg)
    if not pivots:
        return formula
    weights = np.array([len(pos[v]) * len(neg[v]) for v in pivots], dtype=float)
    weights /= weights.sum()
    rng = seeded_rng(seed)
    existing = {make_clause(c) for c in formula.clauses}
    added = []
    attempts = 0
    while len(added) < target and attempts < max_attempts * target:
        attempts += 1
        v = pivots[int(rng.choice(len(pivots), p=weights))]
        ci = pos[v][int(rng.integers(len(pos[v])))]
        cj = neg[v][int(rng.integers(len(neg[v])))]
        resolvent = resolve(formula.clauses[ci], formula.clauses[cj], v)
        if resolvent is None or resolvent in existing:
            continue
        existing.add(resolvent)
        added.append(resolvent)
    return Formula(formula.num_vars, formula.clauses + tuple(added))


class TestClauseResolutionEngine:
    RATES = (0.1, 0.2, 0.5, 1.0)

    @pytest.mark.parametrize("attempts", [50, 1])
    def test_matches_reference_on_random_formulas(self, rng, attempts, monkeypatch):
        monkeypatch.setattr(lpa, "MAX_RESOLVE_ATTEMPTS", attempts)
        for idx in range(200):
            f = random_formula(rng, max_vars=10)
            for rate in self.RATES:
                expected = reference_clause_resolution(f, rate, idx, attempts)
                assert clause_resolution(f, rate, idx) == expected

    def test_matches_reference_on_64_bit_seeds(self, rng):
        for idx in range(150):
            f = random_formula(rng, max_vars=10)
            seed = derive_seed(16, idx)
            for rate in self.RATES:
                assert clause_resolution(f, rate, seed) == reference_clause_resolution(f, rate, seed)

    # pivot 1 occurs once in each polarity, so its clause draws consume nothing
    SINGLE_OCCURRENCE = formula_of(3, [1, 2], [-1, 3], [2, 3], [-2, -3])
    # three new resolvents exist, so rate 1.0 asks for four and runs out of attempts
    SHORT_RUN = formula_of(3, [1, 2], [-1, 2], [1, 3], [-1, 3])

    def test_matches_reference_on_single_occurrences_and_exhausted_budgets(self):
        assert clause_resolution(self.SHORT_RUN, 1.0, 0).num_clauses == 7
        for f in (self.SINGLE_OCCURRENCE, self.SHORT_RUN):
            for seed in [*range(30), *(derive_seed(17, i) for i in range(30))]:
                for rate in self.RATES:
                    expected = reference_clause_resolution(f, rate, seed)
                    assert clause_resolution(f, rate, seed) == expected, (f, rate, seed)

    def test_matches_reference_on_corpora(self, sr_corpus, ur_corpus, pr_corpus):
        sr40 = [inst.formula for seed in range(4) for inst in gen_corpus(GenSpec(GenFamily.SR, 40), 1, seed)]
        corpora = [inst.formula for corpus in (sr_corpus, ur_corpus, pr_corpus) for inst in corpus[:60]]
        for idx, f in enumerate(corpora + sr40):
            for rate in self.RATES:
                assert clause_resolution(f, rate, idx) == reference_clause_resolution(f, rate, idx)

    def test_wide_header_gives_the_clauses_of_a_tight_one(self):
        # the occurrence lists follow the literals that occur, not the declared count
        tight = formula_of(3, [1, 2], [-1, 3], [2, -3])
        pairs = ((Formula(WIDE_HEADER.num_vars, tight.clauses), tight),
                 (WIDE_HEADER, Formula(5, WIDE_HEADER.clauses)))
        for seed in (0, 1, derive_seed(19, 2)):
            for rate in self.RATES:
                for wide, narrow in pairs:
                    out = clause_resolution(wide, rate, seed)
                    assert out.clauses == clause_resolution(narrow, rate, seed).clauses
                    assert out.num_vars == wide.num_vars

    def test_non_canonical_inputs_keep_label_and_model_count(self, rng):
        # a repeated literal is one occurrence here, so pivot weights (and the
        # draws) may differ from the tuple reference; the semantics may not
        for idx in range(150):
            f = non_canonical(random_formula(rng, max_vars=10))
            label, models = solve_brute(f), count_models(f)
            for rate in self.RATES:
                out = clause_resolution(f, rate, idx)
                assert out.clauses[: f.num_clauses] == f.clauses
                assert solve_brute(out) is label
                assert count_models(out) == models


class TestVariableEliminate:
    def test_golden_pinned_seed(self):
        out = variable_eliminate(RUNNING, 0.25, VE_SEED)
        assert out == formula_of(4, [1], [1, 2, 4])

    def test_absent_variable_is_trivially_eliminable(self):
        f = Formula(1, ())
        assert variable_eliminate(f, 1.0, 0) == f

    def test_absent_variables_are_not_candidates(self, caplog):
        f = Formula(40, ((1, 2), (-1, 3)))
        with caplog.at_level(logging.INFO, logger="cnfaug.lpa"):
            out = variable_eliminate(f, 1.0, 0)
        assert out == Formula(40, ())
        assert [r.args for r in caplog.records] == [(2, 40)]

    def test_a_wide_header_costs_little_memory(self):
        # the tautology mask follows the literals that occur; one sized by
        # the header peaked near 90 MB
        tracemalloc.start()
        try:
            out = variable_eliminate(Formula(10**8, ((1, 2), (-1, 3))), 0.1, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out == Formula(10**8, ())
        assert peak < 8_000_000

    def test_eliminated_variables_vanish(self, labeled_sample):
        formulas, _ = labeled_sample
        eliminated_somewhere = 0
        for idx, f in enumerate(formulas[:60]):
            out = variable_eliminate(f, 0.3, idx)
            before = {abs(l) for c in f.clauses for l in c}
            after = {abs(l) for c in out.clauses for l in c}
            assert after <= before  # no variable is ever introduced
            assert out.num_vars == f.num_vars
            if before - after:
                eliminated_somewhere += 1
            else:
                # dense instances can leave no variable under the bound
                assert out == f
        assert eliminated_somewhere >= 50

    def test_label_preserved(self, labeled_sample):
        brute_preserved(variable_eliminate, *labeled_sample)


def _reference_plan(clauses, var, bound_factor):
    pos_idx, neg_idx, touched = [], [], []
    for i, clause in enumerate(clauses):
        has_pos, has_neg = var in clause, -var in clause
        if has_pos or has_neg:
            touched.append(i)
        if has_pos and has_neg:
            continue
        elif has_pos:
            pos_idx.append(i)
        elif has_neg:
            neg_idx.append(i)
    resolvents, seen = [], set()
    for i in pos_idx:
        for j in neg_idx:
            r = resolve(clauses[i], clauses[j], var)
            if r is None or r in seen:
                continue
            seen.add(r)
            resolvents.append(r)
            if len(resolvents) > bound_factor * len(touched):
                return None
    return touched, resolvents


def reference_variable_eliminate(formula, rate, seed, bound_factor=2.0):
    """The tuple-and-set VE that the bitmask engine replaced, kept as the
    reference it must match clause for clause."""
    requested = max(1, math.ceil(rate * formula.num_vars - 1e-9))
    clauses = list(formula.clauses)
    rng = seeded_rng(seed)
    for _ in range(requested):
        plans = {
            v: plan
            for v in sorted({abs(lit) for c in clauses for lit in c})
            if (plan := _reference_plan(clauses, v, bound_factor)) is not None
        }
        if not plans:
            break
        candidates = sorted(plans)
        var = candidates[int(rng.integers(len(candidates)))]
        touched, resolvents = plans[var]
        dropped = set(touched)
        clauses = [c for i, c in enumerate(clauses) if i not in dropped] + resolvents
    return Formula(formula.num_vars, tuple(clauses))


class _StopRecords(logging.Handler):
    def __init__(self):
        super().__init__(logging.INFO)
        self.args = []

    def emit(self, record):
        self.args.append(record.args)


class TestVariableEliminateEngine:
    @pytest.mark.parametrize("bound", [2.0, 1.0, 0.5])
    def test_matches_reference(self, rng, bound, monkeypatch):
        monkeypatch.setattr(lpa, "RESOLVENT_BOUND_FACTOR", bound)
        for idx in range(150):
            f = random_formula(rng, max_vars=10)
            for g in (f, non_canonical(f)):
                for rate in (0.1, 0.5, 1.0):
                    expected = reference_variable_eliminate(g, rate, idx, bound)
                    assert variable_eliminate(g, rate, idx) == expected

    @settings(max_examples=300, deadline=None)
    @given(
        small_formulas(),
        st.sampled_from([0.1, 0.3, 0.5, 1.0]),
        st.sampled_from([0.5, 1.0, 2.0]),
        st.integers(0, 2**32 - 1),
    )
    def test_label_and_vanishing(self, formula, rate, bound, seed):
        log = logging.getLogger("cnfaug.lpa")
        handler = _StopRecords()
        log.addHandler(handler)
        level = log.level
        log.setLevel(logging.INFO)
        try:
            with mock.patch.object(lpa, "RESOLVENT_BOUND_FACTOR", bound):
                out = variable_eliminate(formula, rate, seed)
        finally:
            log.removeHandler(handler)
            log.setLevel(level)
        assert solve_brute(out) is solve_brute(formula)
        requested = max(1, math.ceil(rate * formula.num_vars - 1e-9))
        eliminated = handler.args[0][0] if handler.args else requested
        before = {abs(lit) for c in formula.clauses for lit in c}
        after = {abs(lit) for c in out.clauses for lit in c}
        assert after <= before
        # each eliminated variable occurred in the input and occurs nowhere in the output
        assert len(before) - len(after) >= eliminated


def reference_unit_propagate(formula, rate, seed):
    """The transformations below on numpy's ``Generator``, one call per
    draw, kept as the references the stream's draws must match."""
    clauses = list(formula.clauses)
    steps = lpa._ceil_count(rate, sum(1 for c in clauses if len(c) == 1))
    if steps == 0:
        return formula
    rng = seeded_rng(seed)
    for _ in range(steps):
        unit_positions = [i for i, c in enumerate(clauses) if len(c) == 1]
        if not unit_positions:
            break
        pick = unit_positions[int(rng.integers(len(unit_positions)))]
        lit = clauses[pick][0]
        clauses = [tuple(x for x in c if x != -lit) for c in clauses if lit not in c]
    return Formula(formula.num_vars, tuple(clauses))


def reference_add_unit_literal(formula, rate, seed):
    rng = seeded_rng(seed)
    fresh = formula.num_vars + 1
    lit = -fresh if rng.integers(2) else fresh
    m = formula.num_clauses
    count = lpa._ceil_count(rate, m)
    targets = set(rng.choice(m, size=count, replace=False).tolist()) if count else set()
    body = [clause + (-lit,) if i in targets else clause for i, clause in enumerate(formula.clauses)]
    extras = []
    for _ in range(count):
        width = min(int(rng.integers(1, 4)), formula.num_vars)
        lits = [lit]
        if width:
            chosen = rng.choice(formula.num_vars, size=width, replace=False) + 1
            flips = rng.integers(2, size=width)
            lits += [int(-v if neg else v) for v, neg in zip(chosen, flips)]
        extras.append(tuple(lits))
    return Formula(fresh, ((lit,), *body, *extras))


def reference_pure_variables(formula):
    """Variables occurring in a single polarity, by a scan of the clauses."""
    polarity: dict[int, int] = {}
    for clause in formula.clauses:
        for lit in clause:
            polarity[abs(lit)] = polarity.get(abs(lit), 0) | (1 if lit > 0 else 2)
    return sorted(v for v, m in polarity.items() if m != 3)


def reference_pure_literal_eliminate(formula, rate, seed):
    pure = reference_pure_variables(formula)
    count = lpa._ceil_count(rate, len(pure))
    if count == 0:
        return formula
    rng = seeded_rng(seed)
    chosen = set(rng.choice(np.asarray(pure), size=count, replace=False).tolist())
    kept = tuple(c for c in formula.clauses if not any(abs(lit) in chosen for lit in c))
    return Formula(formula.num_vars, kept)


LPA_REFERENCES = {
    unit_propagate: reference_unit_propagate,
    add_unit_literal: reference_add_unit_literal,
    pure_literal_eliminate: reference_pure_literal_eliminate,
    variable_eliminate: reference_variable_eliminate,
}


@pytest.mark.parametrize("fn", list(LPA_REFERENCES), ids=lambda fn: fn.__name__)
class TestMatchesGeneratorReference:
    def test_random_and_non_canonical_formulas(self, rng, fn):
        for idx in range(100):
            f = random_formula(rng, max_vars=10)
            seed = derive_seed(18, idx) if idx % 2 else idx
            for g in (f, non_canonical(f)):
                for rate in (0.1, 0.5, 1.0):
                    assert fn(g, rate, seed) == LPA_REFERENCES[fn](g, rate, seed), (g, rate, seed)

    def test_corpora(self, sr_corpus, ur_corpus, pr_corpus, fn):
        for corpus in (sr_corpus, ur_corpus, pr_corpus):
            for idx, inst in enumerate(corpus[:30]):
                for rate in (0.1, 0.5):
                    expected = LPA_REFERENCES[fn](inst.formula, rate, idx)
                    assert fn(inst.formula, rate, idx) == expected


def test_tail_shuffle_and_wide_shapes_match_reference():
    for seed in (0, derive_seed(19, 0)):
        for fn in (add_unit_literal, pure_literal_eliminate):
            assert fn(TAIL_SHUFFLE, 0.05, seed) == LPA_REFERENCES[fn](TAIL_SHUFFLE, 0.05, seed)
        expected = reference_add_unit_literal(WIDE_HEADER, 1.0, seed)
        assert add_unit_literal(WIDE_HEADER, 1.0, seed) == expected


def _sc(formula, rate, seed):
    return subsumed_clause_eliminate(formula)


class TestPropertiesAgainstBruteForce:
    """On top of the fixed-seed corpus tests: any small formula, rate and seed."""

    @pytest.mark.parametrize(
        "fn", [unit_propagate, add_unit_literal, pure_literal_eliminate, _sc, clause_resolution]
    )
    @settings(max_examples=200, deadline=None)
    @given(small_formulas(), st.floats(0, 1), st.integers(0, 2**32 - 1))
    def test_label(self, fn, formula, rate, seed):
        assert solve_brute(fn(formula, rate, seed)) is solve_brute(formula)

    @pytest.mark.parametrize("fn", [_sc, clause_resolution])
    @settings(max_examples=200, deadline=None)
    @given(small_formulas(), st.floats(0, 1), st.integers(0, 2**32 - 1))
    def test_model_count(self, fn, formula, rate, seed):
        out = fn(formula, rate, seed)
        assert out.num_vars == formula.num_vars
        assert count_models(out) == count_models(formula)


class TestDeterminismAndThroughput:
    @pytest.mark.parametrize(
        "fn",
        [unit_propagate, add_unit_literal, pure_literal_eliminate, clause_resolution, variable_eliminate],
    )
    def test_same_seed_same_output(self, fn, sr_corpus):
        f = sr_corpus[4].formula
        assert fn(f, 0.4, 77) == fn(f, 0.4, 77)

    def test_throughput_regression_bounds(self, rng):
        # loose wall-clock ceilings: single-step linear ops on a wide
        # formula, quadratic ops on a few hundred clauses
        wide = formula_of(400, [1], *([int(v), int(v) + 1] for v in range(1, 400)))
        start = time.perf_counter()
        unit_propagate(wide, 0.01, 0)
        add_unit_literal(wide, 0.01, 0)
        pure_literal_eliminate(wide, 0.01, 0)
        linear_elapsed = time.perf_counter() - start
        assert linear_elapsed < 1.0

        chunky = Formula(
            20,
            tuple(
                make_clause(rng.choice(20, size=3, replace=False) + 1)
                for _ in range(600)
            ),
        )
        start = time.perf_counter()
        subsumed_clause_eliminate(chunky)
        quadratic_elapsed = time.perf_counter() - start
        assert quadratic_elapsed < 5.0

        # one SR(40) pair: ~40 ms when a solve runs only for a clause the
        # last model falsifies, and 165-241 ms solving after every clause
        start = time.perf_counter()
        sr40 = gen_corpus(GenSpec(GenFamily.SR, 40), 1, 0)[0].formula
        gen_elapsed = time.perf_counter() - start
        assert gen_elapsed < 0.1

        # VE on one SR(40) instance (158 clauses): ~20 ms on bitmasks, and
        # 240-350 ms on the former tuple-and-set engine
        start = time.perf_counter()
        variable_eliminate(sr40, 0.3, 0)
        ve_elapsed = time.perf_counter() - start
        assert ve_elapsed < 0.1
