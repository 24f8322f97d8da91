"""Benchmark of the cnfaug pipeline: gen -> augment -> verify -> export -> stats -> loss.

Usage, from the root of a checkout::

    python3 cnfbench/run.py --workload sr10-lpa --seed 1 --seconds 30 --trace 0

A run executes pipeline rounds, each in a fresh interpreter (``pipeline.py``)
with fresh, empty output directories, and checks every round's outputs with
``checks.py``.  With ``--trace 0`` it runs rounds until ``--seconds`` have
passed and reports the end-to-end metrics; with ``--trace 1`` it runs a
number of rounds fixed by ``--seconds``, each once untraced and once traced,
and reports the per-layer metrics.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it are the run's report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from checks import attempts, check_round
from workloads import STAGES, WORKLOADS, Workload, corpus_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ROUND_TIMEOUT_S = 150
# Timings are scaled to a host on which pipeline.host_loop() takes this long,
# a round number near its time on the 2-core reference box (7-14 ms seen).
# The speed of the shared host drifts by tens of percent over seconds to
# minutes; a round's timings are multiplied by REFERENCE_LOOP_S / (median of
# its host loops).
REFERENCE_LOOP_S = 0.010
# A traced run executes one untraced and one traced round per ``TRACE_PAIR_S``
# of --seconds: about 5 s of work on a 2-core box, leaving headroom on a
# slower host.  The round count depends on --seconds alone, so that the
# counts of two traced runs with the same seed repeat exactly.
TRACE_PAIR_S = 8

STAGE_OUTPUTS = {
    "gen": ["corpus"],
    "augment": ["view1", "view2"],
    "export": ["graphs1", "graphs2"],
}

E2E_UNITS = {
    "setup_s": "s",
    "pipeline_s": "s",
    "gen_instances_per_s": "instances/s",
    "augment_views_per_s": "views/s",
    "verify_views_per_s": "views/s",
    "export_graphs_per_s": "graphs/s",
    "peak_rss_mb": "MB",
}


def per_layer(trace: dict, overhead_s: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics from the summed traces of a run's traced rounds."""
    calls, busy, own, counts = trace["calls"], trace["busy_s"], trace["self_s"], trace["counts"]

    def ratio(num: float, base: float) -> float:
        return num / base if base else 0.0

    metrics: dict[str, tuple[float, str]] = {}
    for stage in ("gen", "augment", "verify", "export", "stats"):
        metrics[f"cli.{stage}.busy_s"] = (busy.get(f"cli.{stage}", 0.0), "s")
        metrics[f"cli.{stage}.self_s"] = (own.get(f"cli.{stage}", 0.0), "s")
    metrics["cli.bytes_written"] = (counts.get("cli.bytes_written", 0), "bytes")
    metrics["gen.gen_sr.calls"] = (calls.get("gen.gen_sr", 0), "count")
    for name in ("gen.gen_sr", "gen.gen_ur", "gen.write_corpus"):
        metrics[f"{name}.busy_s"] = (busy.get(name, 0.0), "s")
    metrics["gen.dpll_calls_per_pair"] = (
        ratio(counts.get("gen.dpll_calls", 0), calls.get("gen.gen_sr", 0)), "calls/pair")
    metrics["oracle.solve_dpll.calls"] = (calls.get("oracle.solve_dpll", 0), "count")
    metrics["oracle.solve_dpll.busy_s"] = (busy.get("oracle.solve_dpll", 0.0), "s")
    metrics["oracle.decisions"] = (counts.get("oracle.decisions", 0), "count")
    metrics["oracle.propagations"] = (counts.get("oracle.propagations", 0), "count")
    metrics["chains.apply_chain.calls"] = (calls.get("chains.apply_chain", 0), "count")
    metrics["chains.apply_chain.busy_s"] = (busy.get("chains.apply_chain", 0.0), "s")
    metrics["lpa.variable_eliminate.calls"] = (calls.get("lpa.variable_eliminate", 0), "count")
    for name in ("lpa.variable_eliminate", "lpa.subsumed_clause_eliminate",
                 "lpa.clause_resolution", "lpa.add_unit_literal"):
        metrics[f"{name}.busy_s"] = (busy.get(name, 0.0), "s")
    metrics["lpa.ve_eliminated_ratio"] = (
        ratio(counts.get("lpa.ve_eliminated", 0), counts.get("lpa.ve_requested", 0)), "ratio")
    metrics["lpa.ve_requested"] = (counts.get("lpa.ve_requested", 0), "count")
    metrics["lpa.cr_added_ratio"] = (
        ratio(counts.get("lpa.cr_added", 0), counts.get("lpa.cr_requested", 0)), "ratio")
    metrics["lpa.cr_requested"] = (counts.get("lpa.cr_requested", 0), "count")
    metrics["lpa.sc_removed"] = (counts.get("lpa.sc_removed", 0), "count")
    for name in ("laa.drop_clauses", "laa.subgraph", "laa.perturb_links"):
        metrics[f"{name}.busy_s"] = (busy.get(name, 0.0), "s")
    metrics["laa.label_flips"] = (counts.get("laa.label_flips", 0), "count")
    for name in ("formula.parse_dimacs", "formula.serialize_dimacs"):
        metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
        metrics[f"{name}.busy_s"] = (busy.get(name, 0.0), "s")
    metrics["graph.build_lig.busy_s"] = (busy.get("graph.build_lig", 0.0), "s")
    metrics["graph.export_graph.busy_s"] = (busy.get("graph.export_graph", 0.0), "s")
    metrics["graph.edges"] = (counts.get("graph.edges", 0), "count")
    metrics["contrastive.nt_xent.calls"] = (calls.get("contrastive.nt_xent", 0), "count")
    metrics["contrastive.nt_xent.busy_s"] = (busy.get("contrastive.nt_xent", 0.0), "s")
    metrics["trace.overhead_s"] = (overhead_s, "s")
    return metrics


def _digest_dirs(round_dir: Path, dirs: list[str]) -> str:
    h = hashlib.sha256()
    for d in dirs:
        for path in sorted((round_dir / d).iterdir()):
            h.update(f"{d}/{path.name}\0".encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def stage_digests(round_dir: Path, result: dict) -> dict[str, str]:
    """One digest of each stage's outputs in a round."""
    digests = {stage: _digest_dirs(round_dir, dirs) for stage, dirs in STAGE_OUTPUTS.items()}
    runs = result["stages"]
    for stage, keys in (("verify", ["verify1", "verify2"]), ("stats", ["stats"])):
        text = "\0".join(runs[k]["stdout"] for k in keys)
        digests[stage] = hashlib.sha256(text.encode()).hexdigest()
    digests["loss"] = hashlib.sha256(repr(result["losses"]).encode()).hexdigest()
    return digests


class Round:
    """One pipeline round: its child process's result, the checks and digests."""

    def __init__(self, workload: Workload, seed: int, round_dir: Path, trace: bool):
        round_dir.mkdir(parents=True)
        self.corpus_seed = seed
        cmd = [sys.executable, str(HERE / "pipeline.py"), "--workload", workload.name,
               "--corpus-seed", str(seed), "--trace", str(int(trace))]
        proc = None
        # Start every round without a backlog of the file system work that earlier
        # rounds left (their files are written and deleted by then).  Without it,
        # export (the stage that writes the most bytes per unit of CPU) slowed
        # against the host loop by up to 1.46x over 150 s of back-to-back rounds.
        os.sync()
        try:
            spawned = time.perf_counter()
            proc = subprocess.run(cmd + ["--spawned-at", repr(spawned)], cwd=round_dir,
                                  capture_output=True, text=True, timeout=ROUND_TIMEOUT_S)
            self.result = json.loads((round_dir / "result.json").read_text(encoding="utf-8"))
            self.scale = REFERENCE_LOOP_S / statistics.median(self.result["host_loop_s"])
            self.checks = check_round(workload, round_dir, self.result)
            self.digests = stage_digests(round_dir, self.result)
        except (OSError, ValueError, KeyError, subprocess.TimeoutExpired) as exc:
            why = f"round with corpus seed {seed} did not finish: {exc!r}"
            if proc is not None:
                why += f"; exit {proc.returncode}: {proc.stderr[-2000:]}"
            self.result = None
            self.checks = {stage: {"attempted": count, "failed": count, "errors": [why]}
                           for stage, count in attempts(workload).items()}
            self.digests = {}
        shutil.rmtree(round_dir, ignore_errors=True)

    @property
    def ok(self) -> bool:
        return self.result is not None


def _combine(digests: list[str]) -> str:
    return hashlib.sha256("".join(digests).encode()).hexdigest()


def summarize(rounds: list[Round]) -> dict:
    """Operations attempted and failed per stage, errors and output digests."""
    stages = {}
    for stage in STAGES:
        reports = [r.checks[stage] for r in rounds]
        stages[stage] = {
            "attempted": sum(x["attempted"] for x in reports),
            "failed": sum(x["failed"] for x in reports),
            "errors": [e for x in reports for e in x["errors"]][:5],
        }
    digests = {
        stage: _combine([r.digests.get(stage, "missing") for r in rounds])
        for stage in STAGES
    }
    return {"stages": stages, "digests": digests}


def machine(rounds: list[Round]) -> dict:
    try:
        # the ceiling keeps git from reading a repository above the checkout
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    versions = next((r.result["versions"] for r in rounds if r.ok), {})
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": versions.get("numpy"), "cnfaug": versions.get("cnfaug"), "commit": commit}


def timed_run(workload: Workload, seed: int, seconds: float, work: Path) -> tuple[list[Round], dict, dict]:
    rounds: list[Round] = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        k = len(rounds)
        rounds.append(Round(workload, corpus_seed(seed, k), work / f"round{k:03d}", trace=False))
    done = [r for r in rounds if r.ok]
    if not done:
        return rounds, {}, {}

    n = workload.instances
    rates = {  # metric: (operations per round, stage, timed stage keys)
        "gen_instances_per_s": (n, "gen", ["gen"]),
        "augment_views_per_s": (2 * n, "augment", ["augment1", "augment2"]),
        "verify_views_per_s": (2 * n, "verify", ["verify1", "verify2"]),
        "export_graphs_per_s": (2 * n, "export", ["export1", "export2"]),
    }

    def sample(r: Round, scale: float) -> dict[str, float]:
        values = {"setup_s": r.result["setup_s"] * scale, "pipeline_s": r.result["pipeline_s"] * scale}
        for name, (items, stage, keys) in rates.items():
            seconds = sum(r.result["stages"][k]["seconds"] for k in keys) * scale
            values[name] = (items - r.checks[stage]["failed"]) / seconds
        return values

    def medians(per_round: list[dict[str, float]]) -> dict[str, float]:
        return {name: statistics.median(s[name] for s in per_round) for name in per_round[0]}

    samples = [sample(r, r.scale) for r in done]
    metrics = {name: (value, E2E_UNITS[name]) for name, value in medians(samples).items()}
    metrics["peak_rss_mb"] = (max(r.result["peak_rss_mb"] for r in done), "MB")
    host = {
        "loop_s_median": statistics.median(t for r in done for t in r.result["host_loop_s"]),
        "unscaled_medians": medians([sample(r, 1.0) for r in done]),
    }
    return rounds, metrics, {"rounds": len(done), "host": host,
                             "samples": {name: [s[name] for s in samples] for name in samples[0]}}


def traced_run(workload: Workload, seed: int, seconds: float, work: Path) -> tuple[list[Round], dict, dict]:
    plain: list[Round] = []
    traced: list[Round] = []
    for k in range(max(1, int(seconds / TRACE_PAIR_S))):
        plain.append(Round(workload, corpus_seed(seed, k), work / f"round{k:03d}", trace=False))
        traced.append(Round(workload, corpus_seed(seed, k), work / f"traced{k:03d}", trace=True))
    done = [(p, t) for p, t in zip(plain, traced) if p.ok and t.ok]
    trace = {part: Counter() for part in ("calls", "busy_s", "self_s", "counts")}
    for _, t in done:
        for part, values in t.result["trace"].items():
            scale = t.scale if part in ("busy_s", "self_s") else 1
            trace[part].update({name: value * scale for name, value in values.items()})
    overhead_s = (statistics.median(t.result["pipeline_s"] * t.scale for _, t in done)
                  - statistics.median(p.result["pipeline_s"] * p.scale for p, _ in done)) if done else 0.0
    spans = [{"corpus_seed": r.corpus_seed, "spans": r.result["spans"]} for r in traced if r.ok]
    trace_dir = HERE / "traces"
    trace_dir.mkdir(exist_ok=True)
    (trace_dir / f"{workload.name}-seed{seed}.json").write_text(json.dumps(spans), encoding="utf-8")
    same = all(p.digests == t.digests for p, t in zip(plain, traced))
    return plain + traced, per_layer(trace, overhead_s), {"traced_digests_match": same}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="corpus seed of the run")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "cnfaug" / "__init__.py").is_file():
        print(f"no cnfaug package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    workload = WORKLOADS[args.workload]
    work = HERE / "runs" / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        run = traced_run if args.trace else timed_run
        rounds, metrics, extra = run(workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    summary = summarize(rounds)
    attempted = sum(s["attempted"] for s in summary["stages"].values())
    failed = sum(s["failed"] for s in summary["stages"].values())
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "corpus_seeds": [r.corpus_seed for r in rounds],
        "trace": bool(args.trace),
        "machine": machine(rounds),
        **summary,
        **extra,
    }
    print(json.dumps(report, indent=2))
    correct = failed == 0 and bool(metrics) and extra.get("traced_digests_match", True)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
