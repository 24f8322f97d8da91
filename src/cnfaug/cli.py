"""Command-line interface.

Subcommands: ``gen`` (seeded corpora), ``augment`` (apply a chain to DIMACS
files), ``verify`` (compare labels before/after), ``stats`` (corpus
statistics and decision-step comparison), ``export`` (incidence-graph JSON),
``pair`` (two augmented views of one instance).

Every run is deterministic given its flags: all randomness flows from the
seeds in the flags and chain strings, manifests record no wall-clock data
unless ``--timing`` is passed, and per-file work runs in input-path order.

Exit codes: 0 success, 1 usage, 2 I/O failure, 3 data failure (unparsable
inputs, oracle budget exhaustion, or label flips under ``verify --strict``).
"""

from __future__ import annotations

import argparse
import glob
import json
import statistics
import sys
import time
from pathlib import Path

from . import __version__
from .chains import ChainParseError, apply_chain, parse_chain
from .contrastive import make_pair
from .formula import DimacsError, Formula, clause_mask, parse_dimacs, serialize_dimacs
from .gen import GenFamily, GenSpec, append_manifest, gen_corpus, write_corpus
from .graph import build_lig, export_graph
from .lpa import strict_supersets
from .oracle import OracleBudgetError, solve_dpll

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_DATA = 3

class _UsageError(Exception):
    pass


class _DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 for usage problems, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise _UsageError(message)


def _expand_inputs(patterns: list[str]) -> list[Path]:
    paths: set[Path] = set()
    for pattern in patterns:
        paths.update(Path(p) for p in glob.glob(pattern))
    return sorted(paths)


def _refuse_existing(out: Path, names) -> None:
    """A file the run would write that already exists in ``out`` is a usage
    error, raised before anything is written; the manifest is appended to."""
    used = next((name for name in names if (out / name).exists()), None)
    if used is not None:
        raise _UsageError(f"{out / used} already exists")


def _output_names(inputs: list[Path], output_name, out: Path) -> dict[Path, str]:
    """Each input's output file name in ``out``; two inputs that would write
    one file, or a file that already exists, are a usage error raised before
    anything is written."""
    owners: dict[str, Path] = {}
    for path in inputs:
        name = output_name(path)
        if name in owners:
            raise _UsageError(f"inputs {owners[name]} and {path} both map to output {name}")
        owners[name] = path
    _refuse_existing(out, owners)
    return {path: name for name, path in owners.items()}


def _run_header(command: str, argv: list[str], seed: int | None = None) -> dict:
    return {"command": command, "argv": argv, "seed": seed, "version": __version__}


def _elapsed(started: float | None) -> float | None:
    return round((time.perf_counter() - started) * 1000, 3) if started is not None else None


def _exit_code(failures: int, unreadable: list[Path]) -> int:
    """Exit code of a per-file run whose manifest is written: an input that
    could not be read is an I/O failure, any other failed file a data one."""
    if unreadable:
        return EXIT_IO
    return EXIT_DATA if failures else EXIT_OK


def cmd_gen(args) -> int:
    family = GenFamily(args.family.upper())
    try:
        if family is GenFamily.SR and ":" in args.vars:
            lo, hi = args.vars.split(":", 1)
            num_vars: int | tuple[int, int] = (int(lo), int(hi))
        else:
            num_vars = int(args.vars)
        if args.count < 1:
            raise ValueError("count must be at least 1")
        spec = GenSpec(
            family=family,
            num_vars=num_vars,
            num_clauses=args.clauses,
            clause_len=args.k,
            power_exponent=args.exp,
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc

    out = Path(args.out)
    if out.exists() and any(out.iterdir()):
        # checked before generating; write_corpus only refuses names it would write
        raise _UsageError(f"output directory {out} is not empty")
    out.mkdir(parents=True, exist_ok=True)
    try:
        corpus = gen_corpus(spec, args.count, args.seed)
    except (ValueError, OracleBudgetError) as exc:
        raise _DataError(str(exc)) from exc
    write_corpus(corpus, out, run_header=_run_header("gen", args._argv, args.seed))
    print(f"wrote {len(corpus)} instances to {out}")
    return EXIT_OK


def cmd_augment(args) -> int:
    try:
        chain = parse_chain(args.chain)
    except ChainParseError as exc:
        raise _UsageError(str(exc)) from exc
    inputs = _expand_inputs(args.input)
    out = Path(args.out)
    names = _output_names(inputs, lambda path: path.name, out)
    out.mkdir(parents=True, exist_ok=True)
    unreadable: list[Path] = []

    def work(path: Path) -> dict:
        started = time.perf_counter() if args.timing else None
        record: dict = {"input": str(path), "chain": args.chain, "output": None,
                        "label_before": None, "label_after": None,
                        "decisions_before": None, "decisions_after": None}
        try:
            formula = parse_dimacs(path.read_text(encoding="utf-8"))
            augmented = apply_chain(formula, chain)
        except OSError as exc:
            unreadable.append(path)
            record.update(status="error", error=str(exc), elapsed_ms=_elapsed(started))
            return record
        except (DimacsError, ValueError) as exc:
            record.update(status="error", error=str(exc), elapsed_ms=_elapsed(started))
            return record
        if args.verify:
            try:
                before = solve_dpll(formula)
                after = solve_dpll(augmented)
            except (ValueError, OracleBudgetError) as exc:
                record.update(status="error", error=str(exc), elapsed_ms=_elapsed(started))
                return record
            record.update(
                label_before=before.label.value,
                label_after=after.label.value,
                decisions_before=before.decisions,
                decisions_after=after.decisions,
            )
        name = names[path]
        (out / name).write_text(serialize_dimacs(augmented), encoding="utf-8")
        record.update(status="ok", output=name, elapsed_ms=_elapsed(started))
        return record

    records = [work(path) for path in inputs]
    append_manifest(out, _run_header("augment", args._argv), records)
    failures = sum(1 for r in records if r["status"] == "error")
    print(f"augmented {len(records) - failures}/{len(records)} files into {out}")
    return _exit_code(failures, unreadable)


def cmd_verify(args) -> int:
    before_dir, after_dir = Path(args.before), Path(args.after)
    before_files = sorted(before_dir.glob("*.cnf"))

    def work(path: Path) -> dict:
        twin = after_dir / path.name
        record = {"input": str(path), "after": str(twin)}
        if not twin.exists():
            record.update(status="error", error="missing counterpart")
            return record
        try:
            before = solve_dpll(parse_dimacs(path.read_text(encoding="utf-8")))
            after = solve_dpll(parse_dimacs(twin.read_text(encoding="utf-8")))
        except (DimacsError, ValueError, OracleBudgetError) as exc:
            record.update(status="error", error=str(exc))
            return record
        record.update(
            status="ok",
            label_before=before.label.value,
            label_after=after.label.value,
            decisions_before=before.decisions,
            decisions_after=after.decisions,
            preserved=before.label is after.label,
        )
        return record

    records = [work(path) for path in before_files]
    flipped = [Path(r["input"]).name for r in records if r.get("preserved") is False]
    errors = sum(1 for r in records if r["status"] == "error")
    report = {
        "pairs": len(records),
        "preserved": sum(1 for r in records if r.get("preserved") is True),
        "flipped": len(flipped),
        "errors": errors,
        "flipped_files": flipped,
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    if errors:
        return EXIT_DATA
    if args.strict and flipped:
        return EXIT_DATA
    return EXIT_OK


def _subsumed_clause_count(formula: Formula) -> int:
    """Clauses that are a strict superset of another clause (duplicates are
    not counted: equal clauses cannot strictly subsume each other)."""
    masks = [clause_mask(c) for c in formula.clauses]
    supersets = strict_supersets(masks)
    return sum(1 for mask in masks if mask in supersets)


def cmd_stats(args) -> int:
    try:
        chain = parse_chain(args.chain) if args.chain else None
    except ChainParseError as exc:
        raise _UsageError(str(exc)) from exc
    corpus_dir = Path(args.corpus)
    files = sorted(corpus_dir.glob("*.cnf"))
    if not files:
        print(json.dumps({"instances": 0}, indent=2, sort_keys=True))
        return EXIT_OK

    def work(path: Path) -> dict:
        try:
            formula = parse_dimacs(path.read_text(encoding="utf-8"))
            row = {
                "clauses": formula.num_clauses,
                "vars": formula.num_vars,
                "subsumed": _subsumed_clause_count(formula),
            }
            if chain is not None:
                before = solve_dpll(formula)
                after = solve_dpll(apply_chain(formula, chain))
                row.update(
                    decisions_before=before.decisions,
                    decisions_after=after.decisions,
                )
        except (DimacsError, ValueError, OracleBudgetError) as exc:
            raise _DataError(f"{path}: {exc}") from exc
        return row

    rows = [work(path) for path in files]
    total_clauses = sum(r["clauses"] for r in rows)
    report = {
        "instances": len(rows),
        "mean_clauses": round(total_clauses / len(rows), 3),
        "mean_vars": round(sum(r["vars"] for r in rows) / len(rows), 3),
        "subsumed_clause_fraction": round(
            sum(r["subsumed"] for r in rows) / total_clauses, 4
        )
        if total_clauses
        else 0.0,
        "instances_with_subsumed_fraction": round(
            sum(1 for r in rows if r["subsumed"]) / len(rows), 4
        ),
    }
    if chain is not None:
        before = [r["decisions_before"] for r in rows]
        after = [r["decisions_after"] for r in rows]
        median_before = statistics.median(before)
        median_after = statistics.median(after)
        report.update(
            chain=args.chain,
            decisions_before_median=median_before,
            decisions_after_median=median_after,
            decisions_median_ratio=round(median_after / median_before, 4)
            if median_before
            else None,
            propagation_only_before_fraction=round(
                sum(1 for d in before if d == 0) / len(before), 4
            ),
            propagation_only_after_fraction=round(
                sum(1 for d in after if d == 0) / len(after), 4
            ),
        )
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_export(args) -> int:
    inputs = _expand_inputs(args.input)
    out = Path(args.out)
    names = _output_names(inputs, lambda path: path.stem + ".json", out)
    out.mkdir(parents=True, exist_ok=True)
    unreadable: list[Path] = []

    def work(path: Path) -> dict:
        record: dict = {"input": str(path), "output": None, "plus": not args.no_plus}
        try:
            formula = parse_dimacs(path.read_text(encoding="utf-8"))
        except OSError as exc:
            unreadable.append(path)
            record.update(status="error", error=str(exc))
            return record
        except (DimacsError, ValueError) as exc:  # ValueError covers UnicodeDecodeError
            record.update(status="error", error=str(exc))
            return record
        name = names[path]
        export_graph(
            build_lig(formula, plus=not args.no_plus),
            out / name,
            source=path.name,
            chain=None,
        )
        record.update(status="ok", output=name)
        return record

    records = [work(path) for path in inputs]
    append_manifest(out, _run_header("export", args._argv), records)
    failures = sum(1 for r in records if r["status"] == "error")
    print(f"exported {len(records) - failures}/{len(records)} graphs into {out}")
    return _exit_code(failures, unreadable)


def cmd_pair(args) -> int:
    try:
        chain1 = parse_chain(args.chain1)
        chain2 = parse_chain(args.chain2)
    except ChainParseError as exc:
        raise _UsageError(str(exc)) from exc
    path = Path(args.input)
    out = Path(args.out)
    names = (f"{path.stem}.view1.cnf", f"{path.stem}.view2.cnf")
    _refuse_existing(out, names)
    try:
        view1, view2 = make_pair(parse_dimacs(path.read_text(encoding="utf-8")), chain1, chain2)
    except (DimacsError, ValueError) as exc:
        raise _DataError(f"{path}: {exc}") from exc
    out.mkdir(parents=True, exist_ok=True)
    (out / names[0]).write_text(serialize_dimacs(view1), encoding="utf-8")
    (out / names[1]).write_text(serialize_dimacs(view2), encoding="utf-8")
    records = [
        {"input": str(path), "chain": args.chain1, "output": names[0], "status": "ok"},
        {"input": str(path), "chain": args.chain2, "output": names[1], "status": "ok"},
    ]
    append_manifest(out, _run_header("pair", args._argv), records)
    print(f"wrote {names[0]} and {names[1]} to {out}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="cnfaug", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"cnfaug {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a labeled corpus")
    p.add_argument("--family", required=True, choices=["sr", "ur", "pr"])
    p.add_argument("--vars", required=True, help="variable count, or LO:HI for sr")
    p.add_argument("--clauses", type=int, help="clause count (ur, pr)")
    p.add_argument("--k", type=int, help="literals per clause (ur, pr)")
    p.add_argument("--exp", type=float, help="power-law exponent (pr)")
    p.add_argument("--count", type=int, default=1, help="instances (sr: pairs)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("augment", help="apply an augmentation chain to DIMACS files")
    p.add_argument("--input", required=True, nargs="+", help="input glob(s)")
    p.add_argument("--chain", required=True, help='e.g. "CR:0.2:42,SC"')
    p.add_argument("--out", required=True)
    p.add_argument("--verify", action="store_true", help="record labels/decisions")
    p.add_argument("--timing", action="store_true", help="record wall-clock per file")
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("verify", help="compare labels between two corpora")
    p.add_argument("--before", required=True)
    p.add_argument("--after", required=True)
    p.add_argument("--strict", action="store_true", help="exit 3 on any flip")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("stats", help="corpus statistics, optionally before/after a chain")
    p.add_argument("--corpus", required=True)
    p.add_argument("--chain", help="chain for decision-step comparison")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("export", help="export incidence-graph JSON documents")
    p.add_argument("--input", required=True, nargs="+", help="input glob(s)")
    p.add_argument("--out", required=True)
    p.add_argument("--no-plus", action="store_true", help="omit variable edges")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("pair", help="write two augmented views of one instance")
    p.add_argument("--input", required=True)
    p.add_argument("--chain1", required=True)
    p.add_argument("--chain2", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pair)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError:
        return EXIT_USAGE
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    args._argv = argv
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
