import itertools
import json
import math
import tracemalloc
from bisect import bisect_right

import numpy as np
import pytest

from cnfaug import (
    Formula,
    GenFamily,
    GenSpec,
    Label,
    LabeledInstance,
    derive_seed,
    gen_corpus,
    gen_pr,
    gen_sr,
    gen_ur,
    load_corpus,
    make_clause,
    oracle,
    read_manifest,
    satisfies,
    solve_brute,
    solve_dpll,
    write_corpus,
)
from cnfaug._stream import Stream
from cnfaug.gen import (
    PR40,
    SR_BERNOULLI_P,
    SR_GEOMETRIC_P,
    _SR_P0,
    _drawable,
    _power_cdf,
    _sr_bernoulli,
    _sr_geometric,
    _ur_clauses,
    write_run,
)
from conftest import PR10, UR12, seeded_rng


def reference_gen_sr(num_vars, seed):
    """The SR loop that solved the whole prefix after every appended clause,
    kept as the reference the model-reusing loop must match pair for pair."""
    rng = seeded_rng(seed)
    if isinstance(num_vars, tuple):
        n = int(rng.integers(num_vars[0], num_vars[1] + 1))
    else:
        n = num_vars
    clauses = []
    while True:
        width = 1 + int(rng.binomial(1, SR_BERNOULLI_P)) + int(rng.geometric(SR_GEOMETRIC_P))
        width = min(width, n)
        variables = rng.choice(n, size=width, replace=False) + 1
        flips = rng.integers(2, size=width)
        clauses.append(make_clause(int(-v if neg else v) for v, neg in zip(variables, flips)))
        if solve_dpll(Formula(n, tuple(clauses))).label is Label.UNSAT:
            break
    unsat_formula = Formula(n, tuple(clauses))
    final = clauses[-1]
    flip_at = int(rng.integers(len(final)))
    flipped = make_clause(-lit if i == flip_at else lit for i, lit in enumerate(final))
    sat_formula = Formula(n, tuple(clauses[:-1]) + (flipped,))
    assert solve_dpll(sat_formula).label is Label.SAT
    meta = {"family": GenFamily.SR.value, "seed": seed, "num_vars": n}
    return (
        LabeledInstance(sat_formula, Label.SAT, {**meta, "role": "sat"}),
        LabeledInstance(unsat_formula, Label.UNSAT, {**meta, "role": "unsat"}),
    )


SR_IDENTITY_CASES = [
    *((n, seed) for n in (2, 3, 5, 10, 12) for seed in range(40)),
    *(((5, 9), seed) for seed in range(40)),
    *((40, seed) for seed in range(4)),
]


def reference_gen_ur(num_vars, num_clauses, clause_len, seed):
    """``gen_ur`` with its own clause loop, from before UR and PR shared one
    body, kept as the reference the shared body must match."""
    rng = seeded_rng(seed)
    clauses = []
    for _ in range(num_clauses):
        variables = rng.choice(num_vars, size=clause_len, replace=False) + 1
        flips = rng.integers(2, size=clause_len)
        clauses.append(make_clause(int(-v if neg else v) for v, neg in zip(variables, flips)))
    formula = Formula(num_vars, tuple(clauses))
    label = solve_dpll(formula).label
    meta = {
        "family": GenFamily.UR.value,
        "seed": seed,
        "num_vars": num_vars,
        "num_clauses": num_clauses,
        "clause_len": clause_len,
    }
    return LabeledInstance(formula, label, meta)


def reference_gen_pr(num_vars, num_clauses, clause_len, power_exponent, seed):
    """``gen_pr`` with its own clause loop, kept like :func:`reference_gen_ur`."""
    rng = seeded_rng(seed)
    weights = np.arange(1, num_vars + 1, dtype=float) ** -power_exponent
    weights = weights / weights.sum()
    clauses = []
    for _ in range(num_clauses):
        chosen = []
        while len(chosen) < clause_len:
            v = int(rng.choice(num_vars, p=weights)) + 1
            if v not in chosen:
                chosen.append(v)
        flips = rng.integers(2, size=clause_len)
        clauses.append(make_clause(int(-v if neg else v) for v, neg in zip(chosen, flips)))
    formula = Formula(num_vars, tuple(clauses))
    label = solve_dpll(formula).label
    meta = {
        "family": GenFamily.PR.value,
        "seed": seed,
        "num_vars": num_vars,
        "num_clauses": num_clauses,
        "clause_len": clause_len,
        "power_exponent": power_exponent,
    }
    return LabeledInstance(formula, label, meta)


# (num_vars, num_clauses, clause_len): a stock preset, full-width clauses,
# no clauses, one variable, and DPLL's MAX_VARS with narrow and full-width
# clauses
UR_SHAPES = [(12, 51, 3), (4, 6, 4), (5, 0, 3), (1, 3, 1), (200, 40, 3), (200, 2, 200)]
# the same for PR, with the PR40 preset and no full-width clauses at 200
# variables: filling one by redraws takes some 10**5 draws
PR_SHAPES = [
    (10, 41, 3, 1.7), (4, 6, 4, 1.7), (5, 0, 3, 2.5), (1, 3, 1, 2.5),
    (6, 4, 6, 2.5), (200, 40, 3, 1.7), tuple(PR40.values()),
]
# small seeds, then 64-bit ones as corpora derive them
REFERENCE_SEEDS = [*range(200), *(derive_seed(15, i) for i in range(100))]
# PR shapes whose numpy reference is slow take 20 of each kind
SLOW_PR_SHAPES = {(6, 4, 6, 2.5), (200, 40, 3, 1.7), tuple(PR40.values())}


@pytest.mark.parametrize("shape", UR_SHAPES)
def test_ur_matches_reference(shape):
    for seed in REFERENCE_SEEDS:
        assert gen_ur(*shape, seed) == reference_gen_ur(*shape, seed), seed


@pytest.mark.parametrize("shape", PR_SHAPES)
def test_pr_matches_reference(shape):
    slow = shape in SLOW_PR_SHAPES
    seeds = REFERENCE_SEEDS[:20] + REFERENCE_SEEDS[200:220] if slow else REFERENCE_SEEDS
    for seed in seeds:
        assert gen_pr(*shape, seed) == reference_gen_pr(*shape, seed), seed


# Found by a search over seeds 0 .. 2 * 10**6: one 32-bit product of this
# seed's (200, 2, 200) draws falls below numpy's rejection threshold, so
# numpy draws that value again
UR_REDRAW_SEED = 509982


def test_ur_draws_through_the_stream_where_numpy_draws_again():
    shape = (200, 2, 200)
    assert _ur_clauses(*shape, UR_REDRAW_SEED) is None
    assert gen_ur(*shape, UR_REDRAW_SEED) == reference_gen_ur(*shape, UR_REDRAW_SEED)


def test_ur_literals_are_plain_ints():
    # from the array pass and from the stream
    for shape, seed in (((12, 51, 3), 0), ((200, 2, 200), 0), ((200, 2, 200), UR_REDRAW_SEED)):
        clauses = gen_ur(*shape, seed).formula.clauses
        assert all(type(lit) is int for clause in clauses for lit in clause), (shape, seed)


@pytest.mark.parametrize(
    "shape", [(10000, 60, 3), (10000, 3, 200), (10001, 3, 200), (20000, 2, 401)]
)
def test_ur_matches_reference_past_the_dpll_limit(shape, monkeypatch):
    # 10,000 variables is the widest header numpy samples by Floyd's algorithm
    # at any width, 200 of 10,001 the widest sample past it; 401 of 20,000
    # takes numpy's tail shuffle, which gen_ur draws through the stream
    monkeypatch.setattr(oracle, "MAX_VARS", shape[0])
    for seed in (0, derive_seed(15, 0)):
        assert gen_ur(*shape, seed) == reference_gen_ur(*shape, seed), seed


def test_ur_draw_memory_follows_the_clauses():
    # drawn before DPLL refuses the header; a table of clauses by variables
    # would peak near 200 MB here, the clause-by-clause stream near 4 MB
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="10000 variables exceeds the configured limit"):
            gen_ur(10000, 20000, 3, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16_000_000


def test_ur_refuses_shapes_outside_floyds_sampler():
    # numpy draws 401 of 20000 by a tail shuffle; the stream replays it, and
    # DPLL's variable limit refuses the formula
    for seed in (0, derive_seed(15, 0)):
        with pytest.raises(ValueError, match="20000 variables"):
            gen_ur(20000, 1, 401, seed)


def test_sr_width_replays_match_generator():
    # numpy's binomial(1, 0.3) and geometric(0.4), call for call, then the
    # next bounded draw and double show that the stream stays aligned
    for seed in [*range(50), *(derive_seed(22, i) for i in range(50))]:
        rng, stream = seeded_rng(seed), Stream(seed)
        for _ in range(100):
            assert _sr_bernoulli(stream) == rng.binomial(1, SR_BERNOULLI_P)
            assert _sr_geometric(stream) == rng.geometric(SR_GEOMETRIC_P)
            assert stream.integers(10) == rng.integers(10)
        assert stream.integers(2**32) == rng.integers(2**32)
        assert stream.random() == rng.random()


def test_sr_bernoulli_never_redraws():
    # numpy redraws when u - P0 exceeds the probability of 1; _sr_bernoulli
    # skips that test, which holds only while the largest uniform below 1
    # passes it
    assert math.nextafter(1.0, 0.0) - _SR_P0 <= SR_BERNOULLI_P * _SR_P0 / (1.0 - SR_BERNOULLI_P)


def test_spec_validation():
    with pytest.raises(ValueError):
        GenSpec(GenFamily.UR, 10)  # clause count required
    with pytest.raises(ValueError):
        GenSpec(GenFamily.UR, 3, num_clauses=5, clause_len=4)
    with pytest.raises(ValueError):
        GenSpec(GenFamily.PR, 10, num_clauses=5, clause_len=3, power_exponent=0.9)
    with pytest.raises(ValueError):
        GenSpec(GenFamily.SR, 1)


def test_ur_and_pr_refuse_a_variable_range():
    for family, extra in ((GenFamily.UR, {}), (GenFamily.PR, {"power_exponent": 1.7})):
        with pytest.raises(ValueError, match=f"^{family.value} takes a fixed variable count$"):
            GenSpec(family, (3, 5), num_clauses=5, clause_len=3, **extra)


def test_a_fixed_sr_count_is_the_one_value_range():
    for n in (2, 3, 10):
        for seed in range(20):
            assert gen_sr(n, seed) == gen_sr((n, n), seed)


def test_spec_stores_a_real_exponent_as_float():
    for exponent in (2, 2.0, np.int64(2), np.float32(2.0)):
        spec = GenSpec(GenFamily.PR, 10, num_clauses=41, clause_len=3, power_exponent=exponent)
        assert type(spec.power_exponent) is float and spec.power_exponent == 2.0
    for make in (
        lambda: GenSpec(GenFamily.PR, 10, num_clauses=41, clause_len=3, power_exponent="2"),
        lambda: gen_pr(10, 41, 3, "2", 1),
    ):
        with pytest.raises(TypeError):
            make()


def test_numpy_exponent_writes_a_float_manifest(tmp_path):
    # the exponent used to reach the manifest as a numpy integer and fail json.dumps
    instance = gen_pr(10, 41, 3, np.int64(2), 1)
    assert instance.formula == gen_pr(10, 41, 3, 2, 1).formula == gen_pr(10, 41, 3, 2.0, 1).formula
    write_corpus([instance], tmp_path / "c", run_header={"command": "test"})
    record = read_manifest(tmp_path / "c")[1]
    assert type(record["power_exponent"]) is float and record["power_exponent"] == 2.0


def test_spec_stores_numpy_counts_as_int():
    spec = GenSpec(GenFamily.UR, np.int64(12), num_clauses=np.int64(51), clause_len=np.int32(3))
    assert (spec.num_vars, spec.num_clauses, spec.clause_len) == (12, 51, 3)
    assert all(type(v) is int for v in (spec.num_vars, spec.num_clauses, spec.clause_len))
    sr = GenSpec(GenFamily.SR, (np.int64(8), np.int64(11)))
    assert sr.num_vars == (8, 11) and all(type(v) is int for v in sr.num_vars)


def test_generators_take_numpy_counts():
    # the counts used to reach the formula and the solver as numpy integers
    assert gen_ur(np.int64(40), 100, 3, 1) == gen_ur(40, 100, 3, 1)
    assert gen_sr(np.int64(40), 1) == gen_sr(40, 1)
    assert gen_sr((np.int64(8), np.int64(11)), 2) == gen_sr((8, 11), 2)
    assert gen_pr(np.int64(10), np.int64(41), np.int64(3), 1.7, 1) == gen_pr(10, 41, 3, 1.7, 1)
    for inst in (gen_ur(np.int64(12), np.int64(51), np.int64(3), 1), *gen_sr(np.int64(10), 1)):
        assert type(inst.formula.num_vars) is int
        assert all(type(inst.meta[k]) is int for k in ("num_vars", "num_clauses", "clause_len") if k in inst.meta)


def test_numpy_counts_write_an_int_manifest(tmp_path):
    corpora = {}
    for name, n in (("numpy", np.int64(12)), ("int", 12)):
        corpus = gen_corpus(GenSpec(GenFamily.UR, n, num_clauses=51, clause_len=3), 2, 1)
        write_corpus(corpus, tmp_path / name, run_header={"command": "test"})
        corpora[name] = corpus
    assert [i.formula for i in corpora["numpy"]] == [i.formula for i in corpora["int"]]
    assert read_manifest(tmp_path / "numpy") == read_manifest(tmp_path / "int")
    for record in read_manifest(tmp_path / "numpy")[1:]:
        assert all(type(record[k]) is int for k in ("num_vars", "num_clauses", "clause_len"))


def test_negative_clause_counts_are_refused():
    for make in (
        lambda: gen_ur(12, -1, 3, 0),
        lambda: gen_pr(10, -3, 3, 1.7, 0),
        lambda: GenSpec(GenFamily.UR, 12, num_clauses=-1, clause_len=3),
        lambda: GenSpec(GenFamily.PR, 10, num_clauses=-3, clause_len=3, power_exponent=1.7),
    ):
        with pytest.raises(ValueError, match="^num_clauses must be non-negative$"):
            make()
    with pytest.raises(ValueError, match="^num_clauses is required$"):
        GenSpec(GenFamily.UR, 12, clause_len=3)


def gen_spec(family: str, *fields_and_seed):
    # GenSpec alone, for the fields no generator of SR or UR takes
    return GenSpec(GenFamily(family), *fields_and_seed[:-1])


# (generator, arguments without the seed, GenSpec's message)
INVALID_ARGUMENTS = [
    (gen_sr, (1,), "SR needs at least 2 variables"),
    (gen_sr, ((1, 5),), "SR needs at least 2 variables"),
    (gen_sr, ((6, 5),), "variable range must satisfy lo <= hi"),
    (gen_sr, (0,), "num_vars must be positive"),
    # (3,) used to raise a bare IndexError, and (3, 5, 9) was read as (3, 5)
    (gen_sr, ((3,),), "a variable range must have exactly two ends (lo, hi)"),
    (gen_sr, ((3, 5, 9),), "a variable range must have exactly two ends (lo, hi)"),
    (gen_ur, (12, -1, 3), "num_clauses must be non-negative"),
    (gen_ur, (3, 5, 4), "clause_len must lie in [1, num_vars]"),
    (gen_ur, (3, 5, 0), "clause_len must lie in [1, num_vars]"),
    (gen_pr, (10, -3, 3, 1.7), "num_clauses must be non-negative"),
    (gen_pr, (3, 5, 4, 1.7), "clause_len must lie in [1, num_vars]"),
    (gen_pr, (10, 41, 3, 1.0), "power_exponent must exceed 1"),
    (gen_pr, (10, 41, 3, -math.inf), "power_exponent must exceed 1"),
    (gen_pr, (10, 41, 3, math.nan), "power_exponent must be finite"),
    (gen_pr, (10, 41, 3, math.inf), "power_exponent must be finite"),
    # 2**-700 is not 0 but is lost in the cumulative sum, so no draw reaches variable 2
    (gen_pr, (10, 41, 3, 700.0),
     "power_exponent leaves fewer than clause_len variables that can be drawn"),
    # every weight is non-zero, but only variable 1 can be drawn for a 2-clause
    (gen_pr, (5, 3, 2, 60.0),
     "power_exponent leaves fewer than clause_len variables that can be drawn"),
    (gen_spec, ("SR", 10, 41), "SR takes no num_clauses"),
    (gen_spec, ("SR", (8, 12), None, 3), "SR takes no clause_len"),
    (gen_spec, ("SR", 10, None, None, 2.0), "SR takes no power_exponent"),
    (gen_spec, ("UR", 12, 51, 3, 2.0), "UR takes no power_exponent"),
]


@pytest.mark.parametrize(
    "generator, args, message", INVALID_ARGUMENTS,
    ids=[f"{g.__name__}{args}" for g, args, _ in INVALID_ARGUMENTS],
)
def test_generators_raise_gen_spec_messages(generator, args, message):
    with pytest.raises(ValueError) as info:
        generator(*args, 0)
    assert str(info.value) == message


def test_drawable_counts_the_variables_a_uniform_can_pick():
    # Stream.pick is bisect_right(cdf, j / 2**53) for 0 <= j < 2**53, and the
    # smallest j at or above each cdf[i-1] reaches every index that any j reaches
    specs = ((5, 60.0), (10, 700.0), (40, 25.0), (10, 1.7), (2, 53.0))
    power = [_power_cdf(n, exponent) for n, exponent in specs]
    # index 1 spans [2**50 + 1/4, 2**50 + 1/2) / 2**53, which holds no draw
    narrow = [0.125 + 2.0**-55, 0.125 + 2.0**-54, 1.0]
    for cdf in [*power, narrow]:
        firsts = {math.ceil(c * 2.0**53) for c in [0.0, *cdf[:-1]]}
        picks = {bisect_right(cdf, j * 2.0**-53) for j in firsts if j < 2**53}
        assert _drawable(cdf) == len(picks)
    assert [_drawable(cdf) for cdf in power] == [1, 1, 4, 10, 1]
    assert _drawable(narrow) == 2


def assert_stored_as_constructed(instances):
    # the generators store their clauses without the constructor's check
    for inst in instances:
        f = inst.formula
        assert Formula(f.num_vars, f.clauses).clauses == f.clauses
        assert all(type(lit) is int for clause in f.clauses for lit in clause)


def test_ur_and_pr_clauses_are_what_the_constructor_stores(ur_corpus, pr_corpus):
    pr40 = gen_corpus(GenSpec(GenFamily.PR, **PR40), 20, 40)
    assert_stored_as_constructed([*ur_corpus, *pr_corpus, *pr40])


class TestSr:
    def test_pair_differs_in_exactly_one_literal(self):
        for seed in range(30):
            sat_inst, unsat_inst = gen_sr(10, seed)
            assert sat_inst.label is Label.SAT
            assert unsat_inst.label is Label.UNSAT
            diff = [
                (a, b)
                for a, b in zip(sat_inst.formula.clauses, unsat_inst.formula.clauses)
                if a != b
            ]
            assert sat_inst.formula.num_clauses == unsat_inst.formula.num_clauses
            assert len(diff) == 1
            a, b = diff[0]
            assert len(a) == len(b)
            flipped = set(a).symmetric_difference(b)
            assert len(flipped) == 2 and sum(flipped) == 0

    def test_unsat_member_minus_final_clause_is_sat(self):
        for seed in range(20):
            _, unsat_inst = gen_sr(10, seed)
            prefix = unsat_inst.formula
            from cnfaug import Formula

            assert solve_dpll(Formula(prefix.num_vars, prefix.clauses[:-1])).label is Label.SAT

    def test_labels_verified_by_brute_force(self, sr_corpus):
        for inst in sr_corpus[:400]:
            assert solve_brute(inst.formula) is inst.label

    def test_variable_range(self):
        sizes = {gen_sr((5, 9), seed)[0].formula.num_vars for seed in range(40)}
        assert sizes <= set(range(5, 10))
        assert len(sizes) > 1

    def test_determinism(self):
        assert gen_sr(10, 5) == gen_sr(10, 5)

    def test_clauses_are_what_the_constructor_stores(self, sr_corpus):
        sr12 = gen_corpus(GenSpec(GenFamily.SR, 12), 100, 12)
        assert_stored_as_constructed([*sr_corpus, *sr12])

    def test_matches_solve_every_clause_reference(self):
        for num_vars, seed in SR_IDENTITY_CASES:
            assert gen_sr(num_vars, seed) == reference_gen_sr(num_vars, seed), (num_vars, seed)

    def test_skips_solves_the_last_model_answers(self, monkeypatch):
        import cnfaug.gen

        solve = cnfaug.gen.solve_dpll
        calls = []

        def counted(*args, **kwargs):
            result = solve(*args, **kwargs)
            calls.append((args[0], result))
            return result

        monkeypatch.setattr(cnfaug.gen, "solve_dpll", counted)
        reference_calls = 0
        for seed in range(20):
            sat_inst, unsat_inst = gen_sr(10, seed)
            # the last solve confirms the UNSAT label; the model of the solve
            # before it certifies the twin
            assert calls[-1][0] == unsat_inst.formula
            assert satisfies(sat_inst.formula, calls[-2][1].assignment)
            # the reference solves once per appended clause, then the twin
            reference_calls += unsat_inst.formula.num_clauses + 1
        # measured: 143 solves against the reference's 1083
        assert len(calls) < reference_calls / 3


class TestUr:
    def test_zero_clauses_is_sat(self):
        inst = gen_ur(5, 0, 3, 1)
        assert inst.label is Label.SAT
        assert inst.formula.num_clauses == 0

    def test_full_width_clauses(self):
        inst = gen_ur(4, 6, 4, 2)
        assert all(len(c) == 4 for c in inst.formula.clauses)

    def test_sat_fraction_near_transition_pinned(self):
        # measured once for this seed and frozen; the 4.27 clause/variable
        # ratio sits near the crossover, shifted sat-ward at 12 variables
        corpus = gen_corpus(GenSpec(GenFamily.UR, **UR12), 1000, 7)
        fraction = sum(1 for i in corpus if i.label is Label.SAT) / len(corpus)
        assert fraction == pytest.approx(0.771, abs=1e-12)

    def test_labels_verified_by_brute_force(self, ur_corpus):
        for inst in ur_corpus[:200]:
            assert solve_brute(inst.formula) is inst.label


class TestPr:
    def test_clause_shape(self):
        inst = gen_pr(seed=3, **PR10)
        assert inst.formula.num_vars == 10
        assert inst.formula.num_clauses == 41
        assert all(len(c) == 3 for c in inst.formula.clauses)

    def test_defaults_for_both_scales(self):
        from cnfaug.gen import PR10 as pr10_defaults, PR40 as pr40_defaults

        assert pr10_defaults == dict(num_vars=10, num_clauses=41, clause_len=3, power_exponent=1.7)
        assert pr40_defaults == dict(num_vars=40, num_clauses=147, clause_len=3, power_exponent=2.5)

    def test_power_law_frequencies_chi_squared(self, pr_corpus):
        # inclusion probabilities computed exactly by enumerating ordered
        # draws without replacement; the chi-squared bound was fixed at the
        # first run (measured statistic ~5.1 over 9 dof)
        sample = pr_corpus[:244]  # ~1e4 clauses
        observed = np.zeros(10)
        clause_count = 0
        for inst in sample:
            for clause in inst.formula.clauses:
                clause_count += 1
                for lit in clause:
                    observed[abs(lit) - 1] += 1
        weights = np.arange(1, 11, dtype=float) ** -1.7
        weights /= weights.sum()
        inclusion = np.zeros(10)
        for a, b, c in itertools.permutations(range(10), 3):
            p = weights[a] * weights[b] / (1 - weights[a]) * weights[c] / (1 - weights[a] - weights[b])
            inclusion[[a, b, c]] += p
        expected = inclusion * clause_count
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        assert chi2 < 30.0

    def test_labels_verified_by_brute_force(self, pr_corpus):
        for inst in pr_corpus[:200]:
            assert solve_brute(inst.formula) is inst.label


class TestCorpus:
    def test_determinism(self):
        spec = GenSpec(GenFamily.PR, **PR10)
        a = gen_corpus(spec, 5, 42)
        b = gen_corpus(spec, 5, 42)
        assert [i.formula for i in a] == [i.formula for i in b]
        assert [i.label for i in a] == [i.label for i in b]

    def test_count_below_one_is_refused(self):
        for count in (0, -1):
            with pytest.raises(ValueError, match="^count must be at least 1$"):
                gen_corpus(GenSpec(GenFamily.UR, **UR12), count, 1)

    def test_count_one_uses_derived_seed_zero(self):
        spec = GenSpec(GenFamily.UR, **UR12)
        corpus = gen_corpus(spec, 1, 99)
        direct = gen_ur(seed=derive_seed(99, 0), **UR12)
        assert corpus[0].formula == direct.formula

    def test_sr_corpus_is_exactly_balanced(self, sr_corpus):
        labels = [i.label for i in sr_corpus]
        assert labels.count(Label.SAT) == labels.count(Label.UNSAT) == 500

    def test_write_and_load_round_trip(self, tmp_path, pr_corpus):
        sample = pr_corpus[:10]
        manifest = write_corpus(sample, tmp_path / "corpus")
        assert manifest.exists()
        loaded = load_corpus(tmp_path / "corpus")
        assert [i.formula for i in loaded] == [i.formula for i in sample]
        assert [i.label for i in loaded] == [i.label for i in sample]

    def test_second_write_into_one_directory_is_refused(self, tmp_path, sr_corpus):
        out = tmp_path / "corpus"
        write_corpus(sr_corpus[:4], out)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        loaded = load_corpus(out)
        for second in (sr_corpus[:2], sr_corpus[10:16]):
            with pytest.raises(FileExistsError):
                write_corpus(second, out)
        (out / "manifest.jsonl").unlink()
        with pytest.raises(FileExistsError):  # a same-named .cnf file alone
            write_corpus(sr_corpus[:1], out)
        (out / "manifest.jsonl").write_bytes(before["manifest.jsonl"])
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert load_corpus(out) == loaded

    def test_unserializable_record_writes_nothing(self, tmp_path, ur_corpus):
        bad = LabeledInstance(ur_corpus[1].formula, ur_corpus[1].label, {"note": object()})
        out = tmp_path / "corpus"
        with pytest.raises(TypeError):
            write_corpus([ur_corpus[0], bad], out, run_header={"command": "test"})
        assert not out.exists()

    def test_unserializable_record_keeps_a_used_directory(self, tmp_path, ur_corpus):
        out = tmp_path / "corpus"
        write_corpus(ur_corpus[:2], out, run_header={"command": "test"})
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        files = [("extra.cnf", ur_corpus[2].formula)]
        for header, record in (({"command": object()}, {"path": "extra.cnf"}),
                               ({"command": "test"}, {"path": "extra.cnf", "note": object()})):
            with pytest.raises(TypeError):
                write_run(out, header, [record], files)
            assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_manifest_records_are_json_lines_with_provenance(self, tmp_path, ur_corpus):
        write_corpus(ur_corpus[:3], tmp_path / "c", run_header={"command": "test"})
        records = read_manifest(tmp_path / "c")
        assert records[0]["type"] == "run"
        for record in records[1:]:
            assert record["type"] == "instance"
            assert set(record) >= {"path", "label", "family", "seed"}
            assert json.dumps(record)  # serializable

    def test_load_skips_the_run_record(self, tmp_path, ur_corpus):
        # every corpus that `cnfaug gen` writes starts with a run record
        write_corpus(ur_corpus[:3], tmp_path / "c", run_header={"command": "gen"})
        assert read_manifest(tmp_path / "c")[0]["type"] == "run"
        loaded = load_corpus(tmp_path / "c")
        assert [i.formula for i in loaded] == [i.formula for i in ur_corpus[:3]]
        assert [i.label for i in loaded] == [i.label for i in ur_corpus[:3]]
        assert [i.meta for i in loaded] == [i.meta for i in ur_corpus[:3]]

    def test_external_manifest_accepted(self, tmp_path):
        corpus = tmp_path / "ext"
        corpus.mkdir()
        (corpus / "a.cnf").write_text("p cnf 2 1\n1 -2 0\n")
        (corpus / "manifest.jsonl").write_text(
            json.dumps({"path": "a.cnf", "label": "sat"}) + "\n"
        )
        loaded = load_corpus(corpus)
        assert len(loaded) == 1 and loaded[0].label is Label.SAT
