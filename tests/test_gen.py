import itertools
import json
import math

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
    read_manifest,
    solve_brute,
    solve_dpll,
    write_corpus,
)
from cnfaug.gen import SR_BERNOULLI_P, SR_GEOMETRIC_P
from conftest import PR10, UR12


def reference_gen_sr(num_vars, seed):
    """The SR loop that solved the whole prefix after every appended clause,
    kept as the reference the model-reusing loop must match pair for pair."""
    rng = np.random.Generator(np.random.PCG64(seed))
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
    rng = np.random.Generator(np.random.PCG64(seed))
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
    rng = np.random.Generator(np.random.PCG64(seed))
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
# no clauses, and one variable
UR_SHAPES = [(12, 51, 3), (4, 6, 4), (5, 0, 3), (1, 3, 1)]
PR_SHAPES = [(10, 41, 3, 1.7), (4, 6, 4, 1.7), (5, 0, 3, 2.5), (1, 3, 1, 2.5)]


@pytest.mark.parametrize("shape", UR_SHAPES)
def test_ur_matches_reference(shape):
    for seed in range(200):
        assert gen_ur(*shape, seed) == reference_gen_ur(*shape, seed), seed


@pytest.mark.parametrize("shape", PR_SHAPES)
def test_pr_matches_reference(shape):
    for seed in range(200):
        assert gen_pr(*shape, seed) == reference_gen_pr(*shape, seed), seed


def test_spec_validation():
    with pytest.raises(ValueError):
        GenSpec(GenFamily.UR, 10)  # clause count required
    with pytest.raises(ValueError):
        GenSpec(GenFamily.UR, 3, num_clauses=5, clause_len=4)
    with pytest.raises(ValueError):
        GenSpec(GenFamily.PR, 10, num_clauses=5, clause_len=3, power_exponent=0.9)
    with pytest.raises(ValueError):
        GenSpec(GenFamily.SR, 1)


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


# (generator, arguments without the seed, GenSpec's message)
INVALID_ARGUMENTS = [
    (gen_sr, (1,), "SR needs at least 2 variables"),
    (gen_sr, ((1, 5),), "SR needs at least 2 variables"),
    (gen_sr, ((6, 5),), "variable range must satisfy lo <= hi"),
    (gen_sr, (0,), "num_vars must be positive"),
    (gen_ur, (12, -1, 3), "num_clauses must be non-negative"),
    (gen_ur, (3, 5, 4), "clause_len must lie in [1, num_vars]"),
    (gen_ur, (3, 5, 0), "clause_len must lie in [1, num_vars]"),
    (gen_pr, (10, -3, 3, 1.7), "num_clauses must be non-negative"),
    (gen_pr, (3, 5, 4, 1.7), "clause_len must lie in [1, num_vars]"),
    (gen_pr, (10, 41, 3, 1.0), "power_exponent must exceed 1"),
    (gen_pr, (10, 41, 3, -math.inf), "power_exponent must exceed 1"),
    (gen_pr, (10, 41, 3, math.nan), "power_exponent must be finite"),
    (gen_pr, (10, 41, 3, math.inf), "power_exponent must be finite"),
    # 3**-700 underflows to 0: two weighted variables cannot fill a 3-clause
    (gen_pr, (10, 41, 3, 700.0),
     "power_exponent leaves fewer than clause_len variables with a non-zero weight"),
]


@pytest.mark.parametrize(
    "generator, args, message", INVALID_ARGUMENTS,
    ids=[f"{g.__name__}{args}" for g, args, _ in INVALID_ARGUMENTS],
)
def test_generators_raise_gen_spec_messages(generator, args, message):
    with pytest.raises(ValueError) as info:
        generator(*args, 0)
    assert str(info.value) == message


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

    def test_matches_solve_every_clause_reference(self):
        for num_vars, seed in SR_IDENTITY_CASES:
            assert gen_sr(num_vars, seed) == reference_gen_sr(num_vars, seed), (num_vars, seed)

    def test_skips_solves_the_last_model_answers(self, monkeypatch):
        import cnfaug.gen

        solve = cnfaug.gen.solve_dpll
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return solve(*args, **kwargs)

        monkeypatch.setattr(cnfaug.gen, "solve_dpll", counted)
        reference_calls = 0
        for seed in range(20):
            sat_inst, unsat_inst = gen_sr(10, seed)
            # both labels are still confirmed by the last two solves
            assert calls[-2:] == [unsat_inst.formula, sat_inst.formula]
            # the reference solves once per appended clause, then the twin
            reference_calls += unsat_inst.formula.num_clauses + 1
        # measured: 163 solves against the reference's 1083
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

    def test_manifest_records_are_json_lines_with_provenance(self, tmp_path, ur_corpus):
        write_corpus(ur_corpus[:3], tmp_path / "c", run_header={"command": "test"})
        records = read_manifest(tmp_path / "c")
        assert records[0]["type"] == "run"
        for record in records[1:]:
            assert record["type"] == "instance"
            assert set(record) >= {"path", "label", "family", "seed"}
            assert json.dumps(record)  # serializable

    def test_external_manifest_accepted(self, tmp_path):
        corpus = tmp_path / "ext"
        corpus.mkdir()
        (corpus / "a.cnf").write_text("p cnf 2 1\n1 -2 0\n")
        (corpus / "manifest.jsonl").write_text(
            json.dumps({"path": "a.cnf", "label": "sat"}) + "\n"
        )
        loaded = load_corpus(corpus)
        assert len(loaded) == 1 and loaded[0].label is Label.SAT
