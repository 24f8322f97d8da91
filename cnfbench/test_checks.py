"""Tests of the benchmark's own checks: each accepts real outputs and rejects
a planted wrong one.

Run from the root of the repository::

    python3 -m pytest -q cnfbench
"""

from __future__ import annotations

import itertools
import json
import math
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
from checks import (
    ENUM_MAX_VARS,
    _dpll,
    _enumerate,
    check_round,
    decode_graph,
    differ_in_one_literal,
    is_sat,
    naive_nt_xent,
    read_dimacs,
    stats_recount,
    strict_subsumed_count,
)
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def brute_force(num_vars, clauses) -> bool:
    return any(
        all(any(bits[abs(l) - 1] == (l > 0) for l in c) for c in clauses)
        for bits in itertools.product((False, True), repeat=num_vars)
    )


def test_labellers_agree_with_brute_force():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(1, 7)
        clauses = [
            tuple(rng.choice((-1, 1)) * v for v in rng.sample(range(1, n + 1), rng.randint(1, min(3, n))))
            for _ in range(rng.randint(0, 4 * n))
        ]
        want = brute_force(n, clauses)
        assert _enumerate(n, clauses) is want
        assert _dpll([frozenset(c) for c in clauses]) is want
    assert is_sat(ENUM_MAX_VARS + 4, [(1, 2), (-1,), (-2, 3)])
    assert not is_sat(ENUM_MAX_VARS + 4, [(1, 2), (-1,), (-2,)])
    assert not is_sat(0, [()])


def test_schema_example_decodes():
    doc = {
        "cl_edges": [[0, 0], [1, 1], [2, 1], [3, 0], [4, 1], [5, 0]],
        "num_clauses": 2, "num_vars": 3, "schema": "cnfaug.graph", "schema_version": 1,
        "var_edges": True, "provenance": {"chain": None, "source": "demo.cnf"},
    }
    assert decode_graph(doc) == (3, [{1, -2, -3}, {-1, 2, 3}], 6)
    with pytest.raises(ValueError):
        decode_graph({**doc, "cl_edges": doc["cl_edges"] + [[0, 0]]})
    with pytest.raises(ValueError):
        decode_graph({**doc, "cl_edges": [[6, 0]]})


def test_naive_nt_xent():
    assert naive_nt_xent([[1.0, 0.0], [0.5, 0.5]]) == 0.0  # one pair: only the positive term
    # two pairs, orthogonal across pairs and equal within: each row sees exp(2) against exp(0) + exp(0)
    rows = [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]
    assert naive_nt_xent(rows) == pytest.approx(math.log(math.exp(2) + 2) - 2)


def test_subsumption_and_twins():
    assert strict_subsumed_count([(1, 2), (1, 2, 3), (1, 2), (-1, 4), (4,)]) == 2
    assert stats_recount([(3, [(1, 2), (1, 2, 3)]), (4, [(1,)])])["subsumed_clause_fraction"] == round(1 / 3, 4)
    assert differ_in_one_literal([(1, 2), (2, -3)], [(1, 2), (2, 3)])
    assert not differ_in_one_literal([(1, 2), (2, -3)], [(1, 2), (-2, 3)])
    assert not differ_in_one_literal([(1, 2)], [(1, 2)])


def test_dimacs_reader():
    assert read_dimacs("c x\np cnf 3 2\n1 -2 0\n3\n0\n") == (3, [(1, -2), (3,)])
    with pytest.raises(ValueError):
        read_dimacs("p cnf 2 1\n1 3 0\n")
    with pytest.raises(ValueError):
        read_dimacs("p cnf 2 2\n1 2 0\n")


def pipeline_round(round_dir: Path, name: str, trace: int = 0) -> Path:
    subprocess.run(
        [sys.executable, str(HERE / "pipeline.py"), "--workload", name, "--corpus-seed", "7",
         "--spawned-at", repr(time.perf_counter()), "--trace", str(trace)],
        cwd=round_dir, check=True, timeout=120,
    )
    return round_dir


@pytest.fixture(scope="module")
def rounds(tmp_path_factory):
    """One real round of each LPA and LAA workload, run through pipeline.py."""
    return {name: pipeline_round(tmp_path_factory.mktemp(name), name) for name in ("sr10-lpa", "ur12-laa")}


def planted(rounds, name, tmp_path):
    copy = tmp_path / name
    shutil.copytree(rounds[name], copy)
    return copy, json.loads((copy / "result.json").read_text())


def failures(name, round_dir, result):
    return {stage: r["failed"] for stage, r in check_round(WORKLOADS[name], round_dir, result).items()}


@pytest.mark.parametrize("name", ["sr10-lpa", "ur12-laa"])
def test_real_round_passes(rounds, name, tmp_path):
    round_dir, result = planted(rounds, name, tmp_path)
    assert set(failures(name, round_dir, result).values()) == {0}


def test_traced_round_writes_the_same_bytes(rounds, tmp_path):
    traced = pipeline_round(tmp_path, "sr10-lpa", trace=1)
    plain = rounds["sr10-lpa"]
    traced_result = json.loads((traced / "result.json").read_text())
    plain_result = json.loads((plain / "result.json").read_text())
    assert run.stage_digests(traced, traced_result) == run.stage_digests(plain, plain_result)
    trace = traced_result["trace"]
    assert trace["calls"]["cli.gen"] == 1 and trace["calls"]["gen.gen_sr"] == WORKLOADS["sr10-lpa"].count
    assert trace["counts"]["oracle.decisions"] > 0


def test_flipped_manifest_label_is_caught(rounds, tmp_path):
    round_dir, result = planted(rounds, "sr10-lpa", tmp_path)
    manifest = round_dir / "corpus" / "manifest.jsonl"
    lines = manifest.read_text().splitlines()
    record = json.loads(lines[1])
    record["label"] = "unsat" if record["label"] == "sat" else "sat"
    lines[1] = json.dumps(record, sort_keys=True)
    manifest.write_text("\n".join(lines) + "\n")
    assert failures("sr10-lpa", round_dir, result)["gen"] >= 1


def test_dropped_graph_edge_is_caught(rounds, tmp_path):
    round_dir, result = planted(rounds, "sr10-lpa", tmp_path)
    graph = next((round_dir / "graphs2").glob("*.json"))
    doc = json.loads(graph.read_text())
    doc["cl_edges"] = doc["cl_edges"][1:]
    graph.write_text(json.dumps(doc))
    assert failures("sr10-lpa", round_dir, result)["export"] == 1


def test_perturbed_loss_is_caught(rounds, tmp_path):
    round_dir, result = planted(rounds, "sr10-lpa", tmp_path)
    result["losses"][0] += 1e-8
    assert failures("sr10-lpa", round_dir, result)["loss"] == 1


def test_wrong_flip_count_is_caught(rounds, tmp_path):
    round_dir, result = planted(rounds, "ur12-laa", tmp_path)
    report = json.loads(result["stages"]["verify2"]["stdout"])
    report["flipped"] += 1
    result["stages"]["verify2"]["stdout"] = json.dumps(report)
    got = failures("ur12-laa", round_dir, result)
    assert got["verify"] == WORKLOADS["ur12-laa"].instances  # every pair of view 2
    assert got["augment"] == 0


def test_dc_view_made_unsat_is_caught(rounds, tmp_path):
    round_dir, result = planted(rounds, "ur12-laa", tmp_path)
    records = [json.loads(line) for line in (round_dir / "corpus" / "manifest.jsonl").read_text().splitlines()]
    sat = next(r["path"] for r in records if r.get("label") == "sat")
    (round_dir / "view1" / sat).write_text("p cnf 12 1\n0\n")  # a DC view that is UNSAT
    assert failures("ur12-laa", round_dir, result)["augment"] == 1


def test_tampered_stats_are_caught(rounds, tmp_path):
    round_dir, result = planted(rounds, "ur12-laa", tmp_path)
    report = json.loads(result["stages"]["stats"]["stdout"])
    report["subsumed_clause_fraction"] += 0.0001
    result["stages"]["stats"]["stdout"] = json.dumps(report)
    assert failures("ur12-laa", round_dir, result)["stats"] == 1


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    empty = {"calls": {}, "busy_s": {}, "self_s": {}, "counts": {}}
    layer = {name: unit for name, (_, unit) in run.per_layer(empty, 0.0).items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layer


def test_runner_refuses_a_tree_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("runs", "traces", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "sr10-lpa", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
