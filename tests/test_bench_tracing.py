"""The benchmark's tracer binds cnfaug functions by name; a deleted or
renamed binding, or a CLI helper that calls around it, would otherwise break
only traced benchmark runs."""

import subprocess
import sys
from pathlib import Path

import cnfaug

BENCH = Path(__file__).resolve().parent.parent / "cnfbench"

# Runs gen -> augment --verify -> verify -> export, then an SG augment,
# through cli.main under the tracer and checks, stage by stage, that each
# wrapped layer was called once per file (twice for the two solves or parses
# of a before/after pair), and that the counts the benchmark reports from
# CR, SC and VE are read.  An SR corpus and its export then check the
# gen.dpll_calls and graph.edges counts against what they count.
PIPELINE = """
from collections import Counter
from pathlib import Path
from cnfaug import cli, parse_dimacs

def calls():
    return Counter(tracer.summary()["calls"])

def stage(*argv):
    seen = calls()
    assert cli.main(list(argv)) == 0, argv
    return calls() - seen

stage("gen", "--family", "pr", "--vars", "8", "--clauses", "30", "--k", "3",
      "--exp", "1.7", "--count", "4", "--seed", "3", "--out", "corpus")
n = len(list(Path("corpus").glob("*.cnf")))
assert n == 4, n
d = stage("augment", "--input", "corpus/*.cnf", "--chain", "CR:0.2:1,SC", "--out", "aug", "--verify")
assert (d["formula.parse_dimacs"], d["chains.apply_chain"], d["oracle.solve_dpll"]) == (n, n, 2 * n), d
counts = tracer.counts
assert "gen.dpll_calls" not in counts, counts  # the PR corpus solves outside gen_sr
assert counts["lpa.cr_added"] <= counts["lpa.cr_requested"], counts
assert "lpa.sc_removed" in counts, counts
d = stage("verify", "--before", "corpus", "--after", "aug", "--strict")
assert (d["formula.parse_dimacs"], d["oracle.solve_dpll"]) == (2 * n, 2 * n), d
d = stage("export", "--input", "aug/*.cnf", "--out", "graphs")
assert (d["formula.parse_dimacs"], d["graph.export_graph"]) == (n, n), d
d = stage("augment", "--input", "corpus/*.cnf", "--chain", "SG:0.6:1", "--out", "sg")
assert (d["laa.subgraph"], d["graph.build_lig"]) == (n, n), d
# VE stops short of the 40 requested variables, as only 3 occur; the tracer
# reads how many it eliminated from VE's log record, which the benchmark's
# ve_eliminated_ratio needs
Path("sparse").mkdir()
Path("sparse/f.cnf").write_text("p cnf 40 2\\n1 2 0\\n-1 3 0\\n")
stage("augment", "--input", "sparse/f.cnf", "--chain", "VE:1.0:1,SC", "--out", "ve")
assert (counts["lpa.ve_requested"], counts["lpa.ve_eliminated"]) == (40, 2), counts
# every solve of an SR run happens inside gen_sr, so the benchmark's
# gen.dpll_calls_per_pair counts them all, through gen's own binding
d = stage("gen", "--family", "sr", "--vars", "8", "--count", "3", "--seed", "2", "--out", "sr")
assert counts["gen.dpll_calls"] == d["oracle.solve_dpll"] > 0, (counts, d)
# graph.edges counts one edge per literal occurrence of each exported formula
edges = counts["graph.edges"]
stage("export", "--input", "sr/*.cnf", "--out", "srgraphs")
occurrences = sum(len(clause) for path in Path("sr").glob("*.cnf")
                  for clause in parse_dimacs(path.read_text()).clauses)
assert counts["graph.edges"] - edges == occurrences > 0, (counts, occurrences)
"""


def test_tracer_installs_on_the_package_under_test(tmp_path):
    package_root = str(Path(cnfaug.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path[:0] = [{str(BENCH)!r}, {package_root!r}]\n"
        "import cnfaug\n"
        f"assert cnfaug.__file__.startswith({package_root!r}), cnfaug.__file__\n"
        "from tracing import Tracer, install\n"
        "tracer = Tracer()\n"
        "install(tracer)\n" + PIPELINE
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=str(tmp_path), timeout=60
    )
    assert result.returncode == 0, result.stderr
