"""Acceptance suite: one test per primary criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Criteria and their pinned tolerances:

1. label-preservation      - UP/AU/PL/SC/CR/VE at rates 0.1/0.3/0.5 over 500
                             seeded instances each of SR(10), UR(12, m=51,
                             k=3), PR(10): brute-force label identical in
                             100% of cases (zero tolerance).
2. worked-example-goldens  - deterministic single-step UP/AU/SC/CR/VE
                             outputs on the four-clause running example,
                             with pinned seeds for the stochastic choices.
3. resolution-soundness    - 1000 random resolvable pairs (<= 10 vars):
                             appending the resolvent never changes the
                             model count; the tautological resolvent of the
                             running example is discarded.
4. laa-non-preservation    - DC/DV/LP/SG at p=0.3 each flip at least one
                             label over 500 SR instances x 10 seeds, and DC
                             never flips SAT to UNSAT.
5. nt-xent-oracle          - loss matches a naive double-loop evaluation
                             within 1e-9 on 1000 random batches (n <= 8,
                             d <= 16); closed-form cases exact to 1e-12.
6. subsumed-statistic      - strict-subsumption clause fraction over 1000
                             instances: PR(10) exactly 0, SR(10) in
                             [0.28, 0.58].
7. decision-step-stability - after CR:0.15,SC the median decision count
                             stays within 0.5x-2x per family (soft warning
                             outside), and at most 20% of augmented
                             instances are decided by propagation alone
                             (hard).
8. round-trips             - DIMACS parse/serialize and graph
                             build/export/import identities over all
                             generated corpora; the 3-variable 2-clause
                             formula yields 6+2 nodes, 6 incidence edges,
                             3 variable edges.
9. cli-determinism         - gen/augment runs are byte-reproducible from
                             identical flags and seeds.
"""

import hashlib
import json
import math
import shutil
import statistics
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from cnfaug import (
    Formula,
    Label,
    add_unit_literal,
    apply_chain,
    build_lig,
    clause_resolution,
    count_models,
    drop_clauses,
    drop_variables,
    graph_from_json,
    graph_to_json,
    nt_xent,
    parse_chain,
    parse_dimacs,
    perturb_links,
    pure_literal_eliminate,
    resolve,
    serialize_dimacs,
    solve_brute,
    solve_dpll,
    subgraph,
    subsumed_clause_eliminate,
    to_formula,
    unit_propagate,
    variable_eliminate,
)
from cnfaug.cli import EXIT_OK, main
from conftest import formula_of, random_formula
from test_contrastive import naive_nt_xent

RUNNING = formula_of(4, [1], [2, 3], [1, -3, 4], [-1, 2, 3, -4])
AU_SEED, CR_SEED, VE_SEED = 1252, 1, 4

LPA_OPS = {
    "UP": unit_propagate,
    "AU": add_unit_literal,
    "PL": pure_literal_eliminate,
    "SC": lambda f, rate, seed: subsumed_clause_eliminate(f),
    "CR": clause_resolution,
    "VE": variable_eliminate,
}
LAA_OPS = {
    "DC": drop_clauses,
    "DV": drop_variables,
    "LP": perturb_links,
    "SG": subgraph,
}


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"\n[ACCEPTANCE] {name}: FAIL")
        raise
    print(f"\n[ACCEPTANCE] {name}: PASS")


def test_1_label_preservation(family_corpora):
    with criterion("label-preservation"):
        flips = 0
        for kind, op in LPA_OPS.items():
            for rate in (0.1, 0.3, 0.5):
                for family, (formulas, labels) in family_corpora.items():
                    for idx, (formula, label) in enumerate(zip(formulas, labels)):
                        out = op(formula, rate, idx * 7919 + 13)
                        if solve_brute(out) is not label:
                            flips += 1
                            print(f"flip: {kind} rate={rate} {family} #{idx}")
        assert flips == 0


def test_2_worked_example_goldens():
    with criterion("worked-example-goldens"):
        assert unit_propagate(RUNNING, 0.3, 0) == formula_of(4, [2, 3], [2, 3, -4])
        assert add_unit_literal(RUNNING, 0.25, AU_SEED) == formula_of(
            5, [-5], [1, 5], [2, 3], [1, -3, 4], [-1, 2, 3, -4], [-5, 1, -2, 3]
        )
        # full subsumption elimination: the documented superset (of x2|x3)
        # goes, and so does the superset of the unit clause x1
        assert subsumed_clause_eliminate(RUNNING) == formula_of(4, [1], [2, 3])
        assert clause_resolution(RUNNING, 0.25, CR_SEED) == Formula(
            4, RUNNING.clauses + ((1, 2, 4),)
        )
        assert variable_eliminate(RUNNING, 0.25, VE_SEED) == formula_of(4, [1], [1, 2, 4])


def test_3_resolution_soundness(rng):
    with criterion("resolution-soundness"):
        checked = 0
        while checked < 1000:
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
                merged = (set(f.clauses[i]) - {v}) | (set(f.clauses[j]) - {-v})
                assert any(-lit in merged for lit in merged)
                continue
            assert count_models(Formula(f.num_vars, f.clauses + (resolvent,))) == count_models(f)
            checked += 1
        # tautology detection on the running example's discarded resolvent
        assert resolve((-1, 2, 3, -4), (1, -3, 4), 3) is None
        assert resolve((2, 3), (1, -3, 4), 3) == (1, 2, 4)


def test_4_laa_non_preservation(sr_corpus):
    with criterion("laa-non-preservation"):
        instances = sr_corpus[:500]
        for kind, op in LAA_OPS.items():
            flipped = False
            for idx, inst in enumerate(instances):
                for s in range(10):
                    out = op(inst.formula, 0.3, idx * 1009 + s)
                    if solve_brute(out) is not inst.label:
                        flipped = True
                        break
                if flipped:
                    break
            assert flipped, f"{kind} produced no flip in 500 x 10 trials"
        for idx, inst in enumerate(instances):
            if inst.label is not Label.SAT:
                continue
            for s in range(10):
                out = drop_clauses(inst.formula, 0.3, idx * 1009 + s)
                assert solve_brute(out) is Label.SAT, "DC flipped SAT to UNSAT"


def test_5_nt_xent_oracle(rng):
    with criterion("nt-xent-oracle"):
        for _ in range(1000):
            pairs = int(rng.integers(1, 9))
            dim = int(rng.integers(1, 17))
            vectors = rng.normal(size=(2 * pairs, dim))
            temperature = float(rng.uniform(0.1, 2.0))
            fast = nt_xent(vectors, temperature=temperature)
            assert abs(fast - naive_nt_xent(vectors, temperature)) < 1e-9
        assert nt_xent(np.array([[2.0, 1.0], [-1.0, 0.5]])) == 0.0
        four_identical = np.tile(np.array([[0.4, -1.0, 2.0]]), (4, 1))
        assert abs(nt_xent(four_identical) - math.log(3.0)) < 1e-12


def _subsumed_clause_fraction(formulas) -> float:
    subsumed = total = 0
    for f in formulas:
        sets = [frozenset(c) for c in f.clauses]
        total += len(sets)
        for j, outer in enumerate(sets):
            if any(i != j and len(s) < len(outer) and s < outer for i, s in enumerate(sets)):
                subsumed += 1
    return subsumed / total


def test_6_subsumed_statistic(sr_corpus, pr_corpus):
    with criterion("subsumed-statistic"):
        pr_fraction = _subsumed_clause_fraction([i.formula for i in pr_corpus])
        assert pr_fraction == 0.0  # equal-width clauses cannot strictly subsume
        sr_fraction = _subsumed_clause_fraction([i.formula for i in sr_corpus])
        print(f"SR subsumed-clause fraction: {sr_fraction:.4f}")
        assert 0.28 <= sr_fraction <= 0.58


def test_7_decision_step_stability(family_corpora):
    with criterion("decision-step-stability"):
        chain = parse_chain("CR:0.15,SC")
        for family, (formulas, _) in family_corpora.items():
            before = [solve_dpll(f).decisions for f in formulas]
            after = [solve_dpll(apply_chain(f, chain)).decisions for f in formulas]
            median_before = statistics.median(before)
            median_after = statistics.median(after)
            ratio = median_after / median_before if median_before else float("inf")
            print(
                f"{family}: median decisions {median_before} -> {median_after} "
                f"(ratio {ratio:.3f})"
            )
            if not 0.5 <= ratio <= 2.0:
                warnings.warn(
                    f"{family}: decision-step median ratio {ratio:.3f} outside [0.5, 2]"
                )
            propagation_only = sum(1 for d in after if d == 0) / len(after)
            assert propagation_only <= 0.20, (
                f"{family}: {propagation_only:.1%} of augmented instances decided "
                "by propagation alone"
            )


def test_8_round_trips(family_corpora):
    with criterion("round-trips"):
        for formulas, _ in family_corpora.values():
            for f in formulas:
                assert parse_dimacs(serialize_dimacs(f)) == f
                g = build_lig(f)
                assert to_formula(g) == f
                assert graph_from_json(graph_to_json(g)) == g
        g = build_lig(formula_of(3, [1, -2, -3], [-1, 2, 3]))
        assert g.num_literal_nodes == 6
        assert g.num_clauses == 2
        assert len(g.cl_edges) == 6
        assert len(g.var_edges) == 3


def _digest(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_9_cli_determinism(tmp_path):
    with criterion("cli-determinism"):
        gen_out = tmp_path / "corpus"
        gen_flags = ["gen", "--family", "sr", "--vars", "10", "--count", "10",
                     "--seed", "3", "--out", str(gen_out)]
        assert main(gen_flags) == EXIT_OK
        first = _digest(gen_out)
        shutil.rmtree(gen_out)
        assert main(gen_flags) == EXIT_OK
        assert _digest(gen_out) == first

        aug_out = tmp_path / "aug"
        aug_flags = ["augment", "--input", str(gen_out / "*.cnf"),
                     "--chain", "CR:0.2:42,SC", "--out", str(aug_out), "--verify"]
        assert main(aug_flags) == EXIT_OK
        first = _digest(aug_out)
        shutil.rmtree(aug_out)
        assert main(aug_flags) == EXIT_OK
        assert _digest(aug_out) == first

        export_out = tmp_path / "graphs"
        export_flags = ["export", "--input", str(gen_out / "*.cnf"), "--out", str(export_out)]
        assert main(export_flags) == EXIT_OK
        first = _digest(export_out)
        shutil.rmtree(export_out)
        assert main(export_flags) == EXIT_OK
        assert _digest(export_out) == first
