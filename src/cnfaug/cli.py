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
``main`` maps a data failure of the whole run once: a ``ValueError`` or
``OracleBudgetError`` that leaves a command exits 3 (a ``ChainParseError``,
though a ``ValueError``, stays a usage error).
``augment``, ``export`` and ``verify`` record a failing file and go on; the
run then exits 2 if any input could not be read or written, else 3.
``verify`` and ``stats`` exit 2 before any work on a missing directory, and
``augment`` and ``export`` on an ``--input`` pattern that matches no file.
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
from .formula import Formula, clause_mask, integer, parse_dimacs, real, serialize_dimacs
from .gen import MANIFEST_NAME, GenFamily, GenSpec, gen_corpus, write_corpus, write_run
from .graph import build_lig, export_graph
from .lpa import strict_supersets
from .oracle import OracleBudgetError, solve_dpll

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_DATA = 3

class _UsageError(Exception):
    pass


def _expand_inputs(patterns: list[str]) -> list[Path]:
    paths: set[Path] = set()
    for pattern in patterns:
        if not (matches := glob.glob(pattern)):
            raise FileNotFoundError(f"no file matches {pattern}")
        paths.update(map(Path, matches))
    return sorted(paths)


def _refuse_existing(out: Path, names) -> None:
    """A file the run would write that already exists in ``out`` is a usage
    error, raised before anything is written; the manifest is appended to."""
    used = next((name for name in names if (out / name).exists()), None)
    if used is not None:
        raise _UsageError(f"{out / used} already exists")


def _run_header(command: str, argv: list[str], seed: int | None = None) -> dict:
    return {"command": command, "argv": argv, "seed": seed, "version": __version__}


def _directory(name: str) -> Path:
    """A missing directory is an I/O error, not an empty corpus."""
    path = Path(name)
    if not path.is_dir():
        raise NotADirectoryError(f"{path} is not a directory")
    return path


def _read_formula(path: Path) -> Formula:
    return parse_dimacs(path.read_text(encoding="utf-8"))


def _solve_both(before: Formula, after: Formula) -> dict:
    """Labels and DPLL decision counts of a formula and its view."""
    one, two = solve_dpll(before), solve_dpll(after)
    return {"label_before": one.label.value, "label_after": two.label.value,
            "decisions_before": one.decisions, "decisions_after": two.decisions}


def _each_file(paths: list[Path], work, **fields) -> tuple[list[dict], int]:
    """One record per input, in path order, filled in by ``work(path, record)``;
    a failing file is recorded as an error, and the exit code follows the
    module docstring.  ``ValueError`` covers ``DimacsError``, non-UTF-8 input,
    chain errors and DPLL's variable limit."""
    records, code = [], EXIT_OK
    for path in paths:
        record = {"input": str(path), **fields}
        try:
            work(path, record)
        except (OSError, ValueError, OracleBudgetError) as exc:
            record.update(status="error", error=str(exc))
            code = EXIT_IO if isinstance(exc, OSError) else code or EXIT_DATA  # 2 outranks 3
        else:
            record["status"] = "ok"
        records.append(record)
    return records, code


def _write_each(args, output_name, write, noun: str, **fields) -> int:
    """The run shared by ``augment`` and ``export``: ``write(path, target,
    record)`` turns each ``--input`` file into ``--out``/``output_name(path)``,
    then the manifest and a summary line follow.  Two inputs that would write
    one file, an output named as the manifest, or a file that already exists,
    are a usage error raised before anything is written."""
    inputs = _expand_inputs(args.input)
    out = Path(args.out)
    owners: dict[str, Path] = {}
    for path in inputs:
        name = output_name(path)
        if name == MANIFEST_NAME:
            raise _UsageError(f"input {path} maps to output {name}, the run's manifest")
        if name in owners:
            raise _UsageError(f"inputs {owners[name]} and {path} both map to output {name}")
        owners[name] = path
    _refuse_existing(out, owners)
    names = {path: name for name, path in owners.items()}
    out.mkdir(parents=True, exist_ok=True)

    def work(path: Path, record: dict) -> None:
        write(path, out / names[path], record)
        record["output"] = names[path]

    records, code = _each_file(inputs, work, output=None, **fields)
    write_run(out, _run_header(args.command, args._argv), records)
    failures = sum(1 for r in records if r["status"] == "error")
    print(f"{args.command}ed {len(records) - failures}/{len(records)} {noun} into {out}")
    return code


def cmd_gen(args) -> int:
    family = GenFamily(args.family.upper())
    lo, colon, hi = args.vars.partition(":")  # GenSpec refuses a range outside SR
    ends = (lo, hi) if colon else (lo,)
    if not all(end.isascii() and end.isdigit() for end in ends):  # int() takes "1_0", " 10"
        raise _UsageError(f"--vars takes a count N or a range LO:HI, got {args.vars!r}")
    num_vars = (int(lo), int(hi)) if colon else int(lo)
    try:
        if args.count < 1:
            raise ValueError("count must be at least 1")
        if args.seed < 0:
            raise ValueError("seed must be non-negative")
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
    corpus = gen_corpus(spec, args.count, args.seed)
    write_corpus(corpus, out, run_header=_run_header("gen", args._argv, args.seed))
    print(f"wrote {len(corpus)} instances to {out}")
    return EXIT_OK


def cmd_augment(args) -> int:
    chain = parse_chain(args.chain)

    def write(path: Path, target: Path, record: dict) -> None:
        started = time.perf_counter()
        try:
            formula = _read_formula(path)
            augmented = apply_chain(formula, chain)
            if args.verify:
                record.update(_solve_both(formula, augmented))
            target.write_text(serialize_dimacs(augmented), encoding="utf-8")
        finally:
            elapsed = round((time.perf_counter() - started) * 1000, 3)
            record["elapsed_ms"] = elapsed if args.timing else None

    return _write_each(args, lambda path: path.name, write, "files", chain=args.chain,
                       label_before=None, label_after=None,
                       decisions_before=None, decisions_after=None)


def cmd_verify(args) -> int:
    before_dir, after_dir = _directory(args.before), _directory(args.after)

    def work(path: Path, record: dict) -> None:
        twin = after_dir / path.name
        record["after"] = str(twin)
        if not twin.exists():
            raise ValueError("missing counterpart")
        record.update(_solve_both(_read_formula(path), _read_formula(twin)))
        record["preserved"] = record["label_before"] == record["label_after"]

    records, code = _each_file(sorted(before_dir.glob("*.cnf")), work)
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
    return code or (EXIT_DATA if args.strict and flipped else EXIT_OK)


def _subsumed_clause_count(formula: Formula) -> int:
    """Clauses that are a strict superset of another clause (duplicates are
    not counted: equal clauses cannot strictly subsume each other)."""
    masks = [clause_mask(c) for c in formula.clauses]
    supersets = strict_supersets(masks)
    return sum(1 for mask in masks if mask in supersets)


def cmd_stats(args) -> int:
    chain = parse_chain(args.chain) if args.chain else None
    files = sorted(_directory(args.corpus).glob("*.cnf"))
    if not files:
        print(json.dumps({"instances": 0}, indent=2, sort_keys=True))
        return EXIT_OK

    def work(path: Path) -> dict:
        try:
            formula = _read_formula(path)
            row = {
                "clauses": formula.num_clauses,
                "vars": formula.num_vars,
                "subsumed": _subsumed_clause_count(formula),
            }
            if chain is not None:
                row.update(_solve_both(formula, apply_chain(formula, chain)))
        except (ValueError, OracleBudgetError) as exc:
            raise ValueError(f"{path}: {exc}") from exc
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
    def write(path: Path, target: Path, record: dict) -> None:
        graph = build_lig(_read_formula(path), plus=not args.no_plus)
        export_graph(graph, target, source=path.name, chain=None)

    return _write_each(args, lambda path: path.stem + ".json", write, "graphs",
                       plus=not args.no_plus)


def cmd_pair(args) -> int:
    chain1, chain2 = parse_chain(args.chain1), parse_chain(args.chain2)
    path = Path(args.input)
    out = Path(args.out)
    names = (f"{path.stem}.view1.cnf", f"{path.stem}.view2.cnf")
    _refuse_existing(out, names)
    try:
        formula = _read_formula(path)
        views = [apply_chain(formula, chain1), apply_chain(formula, chain2)]
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    records = [{"input": str(path), "chain": chain, "output": name, "status": "ok"}
               for chain, name in zip((args.chain1, args.chain2), names)]
    write_run(out, _run_header("pair", args._argv), records, zip(names, views))
    print(f"wrote {names[0]} and {names[1]} to {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cnfaug", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"cnfaug {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a labeled corpus")
    p.add_argument("--family", required=True, choices=["sr", "ur", "pr"])
    p.add_argument("--vars", required=True, help="variable count, or LO:HI for sr")
    p.add_argument("--clauses", type=integer, help="clause count (ur, pr)")
    p.add_argument("--k", type=integer, help="literals per clause (ur, pr)")
    p.add_argument("--exp", type=real, help="power-law exponent (pr)")
    p.add_argument("--count", type=integer, default=1, help="instances (sr: pairs)")
    p.add_argument("--seed", type=integer, default=0)
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
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help / --version
        return EXIT_USAGE if exc.code else EXIT_OK
    args._argv = argv
    try:
        return args.func(args)
    except (_UsageError, ChainParseError) as exc:  # every command parses its chains first
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OracleBudgetError) as exc:  # after ChainParseError, itself a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
