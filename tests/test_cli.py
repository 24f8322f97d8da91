import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import cnfaug
from cnfaug import apply_chain, parse_chain, parse_dimacs, serialize_dimacs
from cnfaug.cli import EXIT_DATA, EXIT_IO, EXIT_OK, EXIT_USAGE, main
from conftest import formula_of


def tree_digest(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def run_gen(out: Path, *extra: str) -> int:
    return main(
        ["gen", "--family", "pr", "--vars", "10", "--clauses", "41", "--k", "3",
         "--exp", "1.7", "--count", "8", "--seed", "5", "--out", str(out), *extra]
    )


def test_gen_writes_corpus_and_manifest(tmp_path, capsys):
    assert run_gen(tmp_path / "c") == EXIT_OK
    files = sorted((tmp_path / "c").glob("*.cnf"))
    assert len(files) == 8
    lines = (tmp_path / "c" / "manifest.jsonl").read_text().splitlines()
    header = json.loads(lines[0])
    assert header["type"] == "run" and header["command"] == "gen"
    assert len(lines) == 9


def test_gen_sr_pairs(tmp_path):
    code = main(["gen", "--family", "sr", "--vars", "10", "--count", "5",
                 "--seed", "7", "--out", str(tmp_path / "sr")])
    assert code == EXIT_OK
    files = sorted((tmp_path / "sr").glob("*.cnf"))
    assert len(files) == 10
    assert sum(1 for f in files if "_sat" in f.name) == 5


def test_gen_usage_errors(tmp_path):
    assert main(["gen", "--family", "ur", "--vars", "10", "--out", str(tmp_path)]) == EXIT_USAGE
    assert main(["gen", "--family", "pr", "--vars", "x", "--out", str(tmp_path)]) == EXIT_USAGE
    assert main(["nonsense"]) == EXIT_USAGE
    assert main([]) == EXIT_USAGE


def test_gen_negative_seed_is_usage_error(tmp_path, capsys):
    out = tmp_path / "corpus"
    assert run_gen(out, "--seed", "-1") == EXIT_USAGE
    assert "seed must be non-negative" in capsys.readouterr().err
    assert not out.exists()


def test_gen_negative_clause_count_is_usage_error(tmp_path, capsys):
    out = tmp_path / "corpus"
    argv = ["gen", "--family", "ur", "--vars", "12", "--clauses", "-1", "--k", "3", "--out", str(out)]
    assert main(argv) == EXIT_USAGE
    assert "error: num_clauses must be non-negative" in capsys.readouterr().err
    assert not out.exists()


def test_gen_sr_variable_range(tmp_path):
    out = tmp_path / "sr"
    assert main(["gen", "--family", "sr", "--vars", "8:11", "--count", "6",
                 "--seed", "2", "--out", str(out)]) == EXIT_OK
    files = sorted(out.glob("*.cnf"))
    sizes = {parse_dimacs(f.read_text()).num_vars for f in files}
    assert len(files) == 12 and sizes <= set(range(8, 12)) and len(sizes) > 1
    records = [json.loads(l) for l in (out / "manifest.jsonl").read_text().splitlines()[1:]]
    assert [r["num_vars"] for r in records] == [parse_dimacs(f.read_text()).num_vars for f in files]


def test_gen_sr_reversed_range_is_usage_error(tmp_path, capsys):
    out = tmp_path / "sr"
    assert main(["gen", "--family", "sr", "--vars", "11:8", "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: variable range must satisfy lo <= hi\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "exp, message",
    [("nan", "power_exponent must be finite"), ("inf", "power_exponent must be finite"),
     ("700", "power_exponent leaves fewer than clause_len variables with a non-zero weight"),
     ("0.5", "power_exponent must exceed 1")],
)
def test_gen_unusable_exponent_is_usage_error(tmp_path, capsys, exp, message):
    out = tmp_path / "corpus"
    assert run_gen(out, "--exp", exp) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_gen_determinism_byte_identical(tmp_path):
    out = tmp_path / "corpus"
    assert run_gen(out) == EXIT_OK
    first = tree_digest(out)
    shutil.rmtree(out)
    assert run_gen(out) == EXIT_OK
    assert tree_digest(out) == first


def test_gen_refuses_a_non_empty_output_directory(tmp_path, capsys):
    out = tmp_path / "corpus"
    out.mkdir()  # an empty directory is accepted
    assert run_gen(out) == EXIT_OK
    first = tree_digest(out)
    capsys.readouterr()
    assert main(["gen", "--family", "sr", "--vars", "10", "--count", "1",
                 "--seed", "1", "--out", str(out)]) == EXIT_USAGE
    assert "not empty" in capsys.readouterr().err
    assert tree_digest(out) == first


def test_gen_dpll_variable_limit_is_data_error(tmp_path, capsys):
    out = tmp_path / "wide"
    code = main(["gen", "--family", "ur", "--vars", "201", "--clauses", "5", "--k", "3",
                 "--count", "1", "--out", str(out)])
    assert code == EXIT_DATA
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error:") and "201 variables" in err


def test_gen_oracle_budget_is_data_error(tmp_path, capsys, monkeypatch):
    from cnfaug import OracleBudgetError, gen

    def exhausted(formula):
        raise OracleBudgetError("decision budget of 0 exhausted")

    monkeypatch.setattr(gen, "solve_dpll", exhausted)
    out = tmp_path / "c"
    assert run_gen(out) == EXIT_DATA
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error:") and "budget" in err


def test_augment_and_verify_flow(tmp_path):
    src = tmp_path / "src"
    assert run_gen(src) == EXIT_OK
    aug = tmp_path / "aug"
    code = main(["augment", "--input", str(src / "*.cnf"),
                 "--chain", "CR:0.2:42,SC", "--out", str(aug), "--verify"])
    assert code == EXIT_OK
    assert len(sorted(aug.glob("*.cnf"))) == 8
    records = [json.loads(l) for l in (aug / "manifest.jsonl").read_text().splitlines()]
    assert records[0]["command"] == "augment"
    for record in records[1:]:
        assert record["chain"] == "CR:0.2:42,SC"
        assert record["label_before"] == record["label_after"]
        assert record["elapsed_ms"] is None

    code = main(["verify", "--before", str(src), "--after", str(aug), "--strict"])
    assert code == EXIT_OK


def test_augment_empty_chain_copies(tmp_path):
    src = tmp_path / "src"
    assert run_gen(src) == EXIT_OK
    out = tmp_path / "copy"
    assert main(["augment", "--input", str(src / "*.cnf"), "--chain", "", "--out", str(out)]) == EXIT_OK
    for path in src.glob("*.cnf"):
        assert (out / path.name).read_text() == serialize_dimacs(parse_dimacs(path.read_text()))


def test_augment_determinism(tmp_path):
    src = tmp_path / "src"
    assert run_gen(src) == EXIT_OK
    out = tmp_path / "aug"
    flags = ["augment", "--input", str(src / "*.cnf"),
             "--chain", "VE:0.2:9,SC", "--out", str(out)]
    assert main(flags) == EXIT_OK
    first = tree_digest(out)
    shutil.rmtree(out)
    assert main(flags) == EXIT_OK
    assert tree_digest(out) == first


def test_augment_records_parse_failures(tmp_path):
    src = tmp_path / "bad"
    src.mkdir()
    (src / "ok.cnf").write_text("p cnf 2 1\n1 -2 0\n")
    (src / "broken.cnf").write_text("p cnf 2 1\n1 -2\n")
    out = tmp_path / "out"
    code = main(["augment", "--input", str(src / "*.cnf"), "--chain", "SC", "--out", str(out)])
    assert code == EXIT_DATA
    records = [json.loads(l) for l in (out / "manifest.jsonl").read_text().splitlines()]
    statuses = {Path(r["input"]).name: r["status"] for r in records[1:]}
    assert statuses == {"ok.cnf": "ok", "broken.cnf": "error"}


def test_augment_verify_records_oracle_limit(tmp_path, capsys):
    src = tmp_path / "in"
    src.mkdir()
    (src / "ok.cnf").write_text("p cnf 2 1\n1 -2 0\n")
    (src / "wide.cnf").write_text("p cnf 201 1\n1 -201 0\n")
    out = tmp_path / "out"
    code = main(["augment", "--input", str(src / "*.cnf"), "--chain", "SC",
                 "--out", str(out), "--verify"])
    assert code == EXIT_DATA
    records = [json.loads(l) for l in (out / "manifest.jsonl").read_text().splitlines()]
    by_name = {Path(r["input"]).name: r for r in records[1:]}
    assert by_name["ok.cnf"]["status"] == "ok"
    assert by_name["wide.cnf"]["status"] == "error"
    assert "201 variables" in by_name["wide.cnf"]["error"]
    assert sorted(p.name for p in out.glob("*.cnf")) == ["ok.cnf"]


def test_augment_bad_chain_is_usage_error(tmp_path):
    assert main(["augment", "--input", "x", "--chain", "ZZ:1", "--out", str(tmp_path)]) == EXIT_USAGE


def test_verify_detects_flips(tmp_path, capsys):
    before = tmp_path / "b"
    after = tmp_path / "a"
    before.mkdir()
    after.mkdir()
    sat = formula_of(2, [1, 2])
    unsat = formula_of(2, [1], [-1])
    (before / "f.cnf").write_text(serialize_dimacs(sat))
    (after / "f.cnf").write_text(serialize_dimacs(unsat))
    assert main(["verify", "--before", str(before), "--after", str(after)]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["flipped"] == 1 and report["flipped_files"] == ["f.cnf"]
    assert main(["verify", "--before", str(before), "--after", str(after), "--strict"]) == EXIT_DATA


def test_verify_empty_is_trivial_pass(tmp_path, capsys):
    (tmp_path / "b").mkdir()
    (tmp_path / "a").mkdir()
    assert main(["verify", "--before", str(tmp_path / "b"), "--after", str(tmp_path / "a")]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report == {"pairs": 0, "preserved": 0, "flipped": 0, "errors": 0, "flipped_files": []}


def test_verify_missing_counterpart_is_data_error(tmp_path):
    (tmp_path / "b").mkdir()
    (tmp_path / "a").mkdir()
    (tmp_path / "b" / "f.cnf").write_text("p cnf 1 1\n1 0\n")
    assert main(["verify", "--before", str(tmp_path / "b"), "--after", str(tmp_path / "a")]) == EXIT_DATA


@pytest.mark.parametrize("missing", ["before", "after"])
def test_verify_missing_directory_is_io_error(tmp_path, capsys, missing):
    (tmp_path / "b").mkdir()
    (tmp_path / "b" / "f.cnf").write_text("p cnf 1 1\n1 0\n")
    # a typo must not pass the strict label check
    dirs = {"before": tmp_path / "b", "after": tmp_path / "b", missing: tmp_path / "nope"}
    argv = ["verify", "--before", str(dirs["before"]), "--after", str(dirs["after"]), "--strict"]
    assert main(argv) == EXIT_IO
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("I/O error:") and "nope" in err


def test_stats_report(tmp_path, capsys):
    src = tmp_path / "src"
    assert run_gen(src) == EXIT_OK
    capsys.readouterr()
    assert main(["stats", "--corpus", str(src), "--chain", "CR:0.15,SC"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["instances"] == 8
    assert report["subsumed_clause_fraction"] == 0.0  # equal-width clauses
    assert "decisions_before_median" in report
    assert "propagation_only_after_fraction" in report


def test_stats_missing_directory_is_io_error(tmp_path, capsys):
    assert main(["stats", "--corpus", str(tmp_path / "nope")]) == EXIT_IO
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("I/O error:") and "nope" in err


def test_stats_unknown_chain_is_usage_error(tmp_path, capsys):
    src = tmp_path / "src"
    assert run_gen(src) == EXIT_OK
    capsys.readouterr()
    assert main(["stats", "--corpus", str(src), "--chain", "BOGUS"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and "BOGUS" in err


def test_stats_empty_directory(tmp_path, capsys):
    (tmp_path / "empty").mkdir()
    assert main(["stats", "--corpus", str(tmp_path / "empty")]) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == {"instances": 0}


def test_stats_unparsable_file_is_data_error(tmp_path, capsys):
    src = tmp_path / "src"
    assert run_gen(src) == EXIT_OK
    (src / "broken.cnf").write_text("p cnf 2 1\n1 -2\n")
    capsys.readouterr()
    assert main(["stats", "--corpus", str(src)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error:") and "broken.cnf" in err


def test_stats_oracle_budget_is_data_error(tmp_path, capsys, monkeypatch):
    from cnfaug import OracleBudgetError, cli

    def exhausted(formula):
        raise OracleBudgetError("decision budget of 0 exhausted")

    src = tmp_path / "src"
    assert run_gen(src) == EXIT_OK
    monkeypatch.setattr(cli, "solve_dpll", exhausted)
    capsys.readouterr()
    assert main(["stats", "--corpus", str(src), "--chain", "SC"]) == EXIT_DATA
    assert "budget" in capsys.readouterr().err


def test_stats_dpll_variable_limit_is_data_error(tmp_path, capsys):
    src = tmp_path / "wide"
    src.mkdir()
    (src / "wide.cnf").write_text("p cnf 201 1\n1 -201 0\n")
    assert main(["stats", "--corpus", str(src)]) == EXIT_OK  # no solve without --chain
    capsys.readouterr()
    assert main(["stats", "--corpus", str(src), "--chain", "SC"]) == EXIT_DATA
    assert "201 variables" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["augment", "export"])
def test_same_named_inputs_are_refused_before_writing(tmp_path, capsys, command):
    for corpus in ("a", "b"):
        assert main(["gen", "--family", "sr", "--vars", "10", "--count", "1",
                     "--seed", "3", "--out", str(tmp_path / corpus)]) == EXIT_OK
    out = tmp_path / "out"
    chain = ["--chain", "CR:0.2:1"] if command == "augment" else []
    capsys.readouterr()
    code = main([command, "--input", str(tmp_path / "a" / "*.cnf"),
                 str(tmp_path / "b" / "*.cnf"), *chain, "--out", str(out)])
    assert code == EXIT_USAGE
    assert not out.exists()
    err = capsys.readouterr().err
    assert str(tmp_path / "a") in err and str(tmp_path / "b") in err


@pytest.mark.parametrize("command", ["augment", "export"])
def test_pattern_matching_no_file_is_io_error(tmp_path, capsys, command):
    src = tmp_path / "corpus"
    assert run_gen(src) == EXIT_OK
    typo = str(tmp_path / "corpsu" / "*.cnf")
    out = tmp_path / "out"
    chain = ["--chain", "SC"] if command == "augment" else []
    capsys.readouterr()
    code = main([command, "--input", str(src / "*.cnf"), typo, *chain, "--out", str(out)])
    assert code == EXIT_IO
    assert not out.exists()
    assert capsys.readouterr().err == f"I/O error: no file matches {typo}\n"


def test_export_and_reimport(tmp_path):
    src = tmp_path / "src"
    assert run_gen(src) == EXIT_OK
    out = tmp_path / "graphs"
    assert main(["export", "--input", str(src / "*.cnf"), "--out", str(out)]) == EXIT_OK
    graphs = sorted(out.glob("*.json"))
    assert len(graphs) == 8
    from cnfaug import build_lig, graph_from_json

    for gpath in graphs:
        doc = graph_from_json(gpath.read_text())
        direct = build_lig(parse_dimacs((src / (gpath.stem + ".cnf")).read_text()))
        assert doc == direct


def test_export_records_a_non_utf8_input(tmp_path):
    src = tmp_path / "in"
    src.mkdir()
    (src / "ok.cnf").write_text("p cnf 2 1\n1 -2 0\n")
    (src / "bad.cnf").write_bytes(b"p cnf 2 1\n1 \xff 0\n")
    out = tmp_path / "graphs"
    assert main(["export", "--input", str(src / "*.cnf"), "--out", str(out)]) == EXIT_DATA
    records = [json.loads(l) for l in (out / "manifest.jsonl").read_text().splitlines()]
    statuses = {Path(r["input"]).name: r["status"] for r in records[1:]}
    assert statuses == {"ok.cnf": "ok", "bad.cnf": "error"}
    assert sorted(p.name for p in out.glob("*.json")) == ["ok.json"]


@pytest.mark.parametrize("command", ["augment", "export", "verify"])
def test_unreadable_input_is_recorded_and_the_rest_written(tmp_path, capsys, command):
    src = tmp_path / "in"
    src.mkdir()
    (src / "a.cnf").write_text("p cnf 2 1\n1 -2 0\n")
    (src / "b.cnf").mkdir()  # matched by the glob, but cannot be read
    (src / "c.cnf").write_text("p cnf 2 1\n-1 2 0\n")
    if command == "verify":
        assert main(["verify", "--before", str(src), "--after", str(src)]) == EXIT_IO
        report = json.loads(capsys.readouterr().out)
        assert (report["pairs"], report["preserved"], report["errors"]) == (3, 2, 1)
        return
    out = tmp_path / "out"
    chain = ["--chain", "SC"] if command == "augment" else []
    code = main([command, "--input", str(src / "*.cnf"), *chain, "--out", str(out)])
    assert code == EXIT_IO
    records = [json.loads(l) for l in (out / "manifest.jsonl").read_text().splitlines()]
    by_name = {Path(r["input"]).name: r for r in records[1:]}
    assert {name: r["status"] for name, r in by_name.items()} == {
        "a.cnf": "ok", "b.cnf": "error", "c.cnf": "ok"}
    assert "Is a directory" in by_name["b.cnf"]["error"]
    suffix = ".cnf" if command == "augment" else ".json"
    assert sorted(p.name for p in out.iterdir()) == [f"a{suffix}", f"c{suffix}", "manifest.jsonl"]
    assert "2/3" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["augment", "export"])
def test_failed_write_is_recorded_and_the_rest_written(tmp_path, capsys, command):
    src = tmp_path / "in"
    src.mkdir()
    for stem in "abc":
        (src / f"{stem}.cnf").write_text("p cnf 2 1\n1 -2 0\n")
    out = tmp_path / "out"
    out.mkdir()
    suffix = ".cnf" if command == "augment" else ".json"
    # a dangling link is not an existing output, so the run is not refused,
    # but b's output cannot be written once b has been read
    (out / f"b{suffix}").symlink_to(out / "missing" / "b")
    flags = ["--chain", "SC", "--timing"] if command == "augment" else []
    code = main([command, "--input", str(src / "*.cnf"), *flags, "--out", str(out)])
    assert code == EXIT_IO
    records = [json.loads(l) for l in (out / "manifest.jsonl").read_text().splitlines()]
    by_name = {Path(r["input"]).name: r for r in records[1:]}
    assert {name: r["status"] for name, r in by_name.items()} == {
        "a.cnf": "ok", "b.cnf": "error", "c.cnf": "ok"}
    assert by_name["b.cnf"]["output"] is None and "No such file" in by_name["b.cnf"]["error"]
    if command == "augment":  # a failed file is timed too
        assert all(isinstance(r["elapsed_ms"], float) for r in by_name.values())
    assert (out / f"a{suffix}").is_file() and (out / f"c{suffix}").is_file()
    assert "2/3" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["augment", "export", "pair"])
def test_rerun_into_one_out_refuses_to_overwrite(tmp_path, capsys, command):
    src = tmp_path / "src"
    assert run_gen(src) == EXIT_OK
    first, second = sorted(src.glob("*.cnf"))[:2]
    out = tmp_path / "out"
    flags = {"augment": ["--chain", "SC"], "export": [],
             "pair": ["--chain1", "SC", "--chain2", "CR:1:1"]}[command]

    def run(path: Path) -> int:
        return main([command, "--input", str(path), *flags, "--out", str(out)])

    assert run(first) == EXIT_OK
    before = tree_digest(out)
    capsys.readouterr()
    assert run(first) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out}") and "already exists" in err
    assert tree_digest(out) == before
    assert run(second) == EXIT_OK  # all names new: written, and the manifest gains a run
    lines = (out / "manifest.jsonl").read_text().splitlines()
    assert [json.loads(l)["type"] for l in lines].count("run") == 2
    after = tree_digest(out)
    assert [name for name in before if after[name] != before[name]] == ["manifest.jsonl"]


def test_export_no_plus(tmp_path, capsys):
    src = tmp_path / "src"
    assert run_gen(src) == EXIT_OK
    out = tmp_path / "graphs"
    assert main(["export", "--input", str(src / "*.cnf"), "--out", str(out), "--no-plus"]) == EXIT_OK
    doc = json.loads(sorted(out.glob("*.json"))[0].read_text())
    assert doc["var_edges"] is False


def test_pair_command(tmp_path):
    src = tmp_path / "src"
    assert run_gen(src) == EXIT_OK
    one = sorted(src.glob("*.cnf"))[0]
    out = tmp_path / "views"
    code = main(["pair", "--input", str(one), "--chain1", "VE:0.1:7,SC",
                 "--chain2", "CR:0.2:11,SC", "--out", str(out)])
    assert code == EXIT_OK
    assert len(sorted(out.glob("*.cnf"))) == 2
    formula = parse_dimacs(one.read_text())
    for k, chain in ((1, "VE:0.1:7,SC"), (2, "CR:0.2:11,SC")):
        view = out / f"{one.stem}.view{k}.cnf"
        assert view.read_text() == serialize_dimacs(apply_chain(formula, parse_chain(chain)))
    lines = [json.loads(l) for l in (out / "manifest.jsonl").read_text().splitlines()]
    assert lines[0]["command"] == "pair"
    assert lines[1:] == [
        {"type": "instance", "input": str(one), "chain": "VE:0.1:7,SC",
         "output": f"{one.stem}.view1.cnf", "status": "ok"},
        {"type": "instance", "input": str(one), "chain": "CR:0.2:11,SC",
         "output": f"{one.stem}.view2.cnf", "status": "ok"},
    ]


@pytest.mark.parametrize(
    "text, chain, message",
    [("p cnf 0 0\n", "SG:0.5:1", "empty formula"), ("p cnf 2 1\n1 -2\n", "SC", "terminating 0")],
)
def test_pair_data_errors_write_nothing(tmp_path, capsys, text, chain, message):
    one = tmp_path / "one.cnf"
    one.write_text(text)
    out = tmp_path / "views"
    code = main(["pair", "--input", str(one), "--chain1", chain, "--chain2", "SC", "--out", str(out)])
    assert code == EXIT_DATA
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith(f"error: {one}:") and message in err


@pytest.mark.parametrize("chain1, chain2", [("SC,QQ:0.5", "SC"), ("SC", "SC,QQ:0.5")])
def test_pair_unknown_chain_kind_is_usage_error(tmp_path, capsys, chain1, chain2):
    one = tmp_path / "one.cnf"
    one.write_text("p cnf 2 1\n1 -2\n")  # unparsable: the chains are checked first
    out = tmp_path / "views"
    argv = ["pair", "--input", str(one), "--chain1", chain1, "--chain2", chain2, "--out", str(out)]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == "error: unknown augmentation kind 'QQ'\n"
    assert not out.exists()


def test_io_error_exit_code(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    code = main(["gen", "--family", "pr", "--vars", "10", "--clauses", "41",
                 "--k", "3", "--exp", "1.7", "--count", "1", "--seed", "1",
                 "--out", str(blocker / "sub")])
    assert code == EXIT_IO


def test_version_and_help():
    assert main(["--version"]) == 0
    assert main(["--help"]) == 0


def test_module_entry_point(tmp_path):
    # Put the directory holding the package under test first on the child's
    # path: a relative PYTHONPATH (e.g. "src") does not resolve from tmp_path,
    # and an installed copy of cnfaug must not stand in for the tested one.
    package_root = str(Path(cnfaug.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "cnfaug", "--version"],
        capture_output=True,
        text=True,
        cwd=str(tmp_path),
        env=env,
    )
    assert result.returncode == 0
    assert "cnfaug" in result.stdout
    assert result.stdout.strip() == f"cnfaug {cnfaug.__version__}"
