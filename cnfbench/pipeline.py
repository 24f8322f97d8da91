"""One pipeline round in a fresh interpreter, as a user would run it.

Started by ``run.py`` with the round's directory as its working directory.
Set-up is everything from the parent's spawn to the first stage: starting
the interpreter, importing ``cnfaug`` and making the empty output
directories.  Then each stage is one timed call into ``cnfaug.cli.main``::

    gen -> augment x2 -> verify x2 -> export x2 -> stats -> loss

and the loss step feeds embeddings of the exported graphs to
``cnfaug.nt_xent`` in batches.  Timings, exit codes, printed reports, loss
values, peak memory and the times of a fixed host loop run between the
stages go to ``result.json``; with ``--trace 1`` the round also records
spans around the calls into each layer (see ``tracing.py``).
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from checks import graph_embedding, loss_batches
from tracing import Tracer, install
from workloads import LAA_KINDS, WORKLOADS, chain_kinds

ROOT = Path(__file__).resolve().parent.parent
OUTPUT_DIRS = ("corpus", "view1", "view2", "graphs1", "graphs2")


def host_loop() -> float:
    """Seconds taken by a fixed pure-Python loop that does not touch cnfaug.

    A round runs it before its first stage and after every stage, so that
    ``run.py`` can scale the round's timings to a reference host speed.
    """
    started = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(60_000):
        counts[i & 1023] = counts.get(i & 1023, 0) + i
    return time.perf_counter() - started


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--corpus-seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True, help="parent's perf_counter at spawn")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import cnfaug
    from cnfaug import cli

    if not Path(cnfaug.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"imported cnfaug from {cnfaug.__file__}, not from {ROOT / 'src'}")
    workload = WORKLOADS[args.workload]
    for name in OUTPUT_DIRS:
        Path(name).mkdir()
    setup_s = time.perf_counter() - args.spawned_at

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        install(tracer)
    stages: dict[str, dict] = {}
    loops = [host_loop()]

    def stage(key: str, argv: list[str], out_dir: str | None) -> None:
        main_fn = cli.main if tracer is None else tracer.wrap(f"cli.{argv[0]}", cli.main)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            started = time.perf_counter()
            try:
                rc = main_fn(argv)
            except Exception:  # a crash in one stage must not hide the other stages
                traceback.print_exc()
                rc = -1
            seconds = time.perf_counter() - started
        stages[key] = {"seconds": seconds, "rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()[-4000:]}
        if tracer is not None and out_dir is not None:
            tracer.counts["cli.bytes_written"] += sum(p.stat().st_size for p in Path(out_dir).iterdir())
        loops.append(host_loop())

    verify_flags = ["--strict"] if workload.label_preserving else []
    stage("gen", ["gen", *workload.gen_args, "--count", str(workload.count),
                  "--seed", str(args.corpus_seed), "--out", "corpus"], "corpus")
    for v, chain in enumerate(workload.views, start=1):
        stage(f"augment{v}", ["augment", "--input", "corpus/*.cnf", "--chain", chain, "--out", f"view{v}"], f"view{v}")
    for v in (1, 2):
        stage(f"verify{v}", ["verify", "--before", "corpus", "--after", f"view{v}", *verify_flags], None)
    for v in (1, 2):
        stage(f"export{v}", ["export", "--input", f"view{v}/*.cnf", "--out", f"graphs{v}"], f"graphs{v}")
    stage("stats", ["stats", "--corpus", "corpus"], None)

    loss_started = time.perf_counter()
    rows = [
        [graph_embedding(json.loads(p.read_text(encoding="utf-8"))) for p in sorted(Path(f"graphs{v}").glob("*.json"))]
        for v in (1, 2)
    ]
    losses = [float(cnfaug.nt_xent(np.asarray(batch))) for batch in loss_batches(*rows)]
    stages["loss"] = {"seconds": time.perf_counter() - loss_started, "rc": 0, "stdout": "", "stderr": ""}
    loops.append(host_loop())

    result = {
        "setup_s": setup_s,
        "pipeline_s": sum(s["seconds"] for s in stages.values()),
        "host_loop_s": loops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "stages": stages,
        "losses": losses,
        "versions": {"cnfaug": cnfaug.__version__, "numpy": np.__version__},
    }
    if tracer is not None:
        flips = 0
        for v, chain in enumerate(workload.views, start=1):
            if chain_kinds(chain) & LAA_KINDS:
                try:
                    flips += json.loads(stages[f"verify{v}"]["stdout"])["flipped"]
                except (ValueError, KeyError):
                    pass  # a broken verify report fails the round's checks
        tracer.counts["laa.label_flips"] = flips
        result["trace"] = tracer.summary()
        result["spans"] = tracer.spans
    Path("result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
