"""Seeded random instance generators with oracle-assigned labels.

Three families:

* ``SR`` - solver-in-the-loop paired generation: random clauses are appended
  until the formula first turns unsatisfiable (the solver runs only when the
  last model falsifies the new clause), then the satisfiable twin is
  obtained by negating a single literal of the final clause.  Every pair is
  perfectly label-balanced and differs in exactly one literal occurrence.
* ``UR`` - uniform random k-SAT: each clause draws distinct variables
  uniformly with fair-coin polarity.
* ``PR`` - power-law random k-SAT: variable ``i`` is drawn with probability
  proportional to ``i**-gamma`` (distinct within a clause, by redraw).

All instances are labeled eagerly with the DPLL oracle.  Corpora are
reproducible: instance ``i`` of a corpus uses a seed derived from the corpus
seed and the counter ``i``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .formula import Formula, Label, make_clause, parse_dimacs, serialize_dimacs
from .lpa import seeded_rng
from .oracle import solve_dpll

MANIFEST_NAME = "manifest.jsonl"

# Stock parameter sets for the power-law family at two scales.
PR10 = dict(num_vars=10, num_clauses=41, clause_len=3, power_exponent=1.7)
PR40 = dict(num_vars=40, num_clauses=147, clause_len=3, power_exponent=2.5)

# SR clause widths follow 1 + Bernoulli(SR_BERNOULLI_P) + Geometric(SR_GEOMETRIC_P).
# The geometric draw counts trials (support starting at 1), so clauses have
# at least two literals and SR instances contain no unit clauses.
SR_BERNOULLI_P = 0.3
SR_GEOMETRIC_P = 0.4


class GenFamily(Enum):
    SR = "SR"
    UR = "UR"
    PR = "PR"


@dataclass(frozen=True)
class GenSpec:
    """Parameters of one generator family; ``num_vars`` may be an inclusive
    ``(lo, hi)`` range for SR.  The only place generator parameters are
    checked: ``gen_sr``, ``gen_ur`` and ``gen_pr`` build one too."""

    family: GenFamily
    num_vars: int | tuple[int, int]
    num_clauses: int | None = None
    clause_len: int | None = None
    power_exponent: float | None = None

    def __post_init__(self) -> None:
        lo = self.num_vars[0] if isinstance(self.num_vars, tuple) else self.num_vars
        if lo < 1:
            raise ValueError("num_vars must be positive")
        if self.family is GenFamily.SR:
            if lo < 2:
                raise ValueError("SR needs at least 2 variables")
            if isinstance(self.num_vars, tuple) and self.num_vars[1] < lo:
                raise ValueError("variable range must satisfy lo <= hi")
            return
        if isinstance(self.num_vars, tuple):
            raise ValueError(f"{self.family.value} takes a fixed variable count")
        if self.num_clauses is None:
            raise ValueError("num_clauses is required")
        if self.num_clauses < 0:
            raise ValueError("num_clauses must be non-negative")
        if self.clause_len is None or not 1 <= self.clause_len <= self.num_vars:
            raise ValueError("clause_len must lie in [1, num_vars]")
        if self.family is GenFamily.PR:
            if self.power_exponent is None or self.power_exponent <= 1:
                raise ValueError("power_exponent must exceed 1")
            if not math.isfinite(self.power_exponent):
                raise ValueError("power_exponent must be finite")
            # gen_pr redraws until a clause has clause_len distinct variables
            weights = _power_weights(self.num_vars, self.power_exponent)
            if np.count_nonzero(weights) < self.clause_len:
                raise ValueError(
                    "power_exponent leaves fewer than clause_len variables with a non-zero weight"
                )


@dataclass(frozen=True)
class LabeledInstance:
    formula: Formula
    label: Label
    meta: dict = field(default_factory=dict)


def derive_seed(seed: int, index: int) -> int:
    """Stable per-instance seed from a corpus seed and a counter."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0])


def gen_sr(num_vars: int | tuple[int, int], seed: int) -> tuple[LabeledInstance, LabeledInstance]:
    """One balanced pair ``(sat, unsat)`` differing in one literal.

    Clauses are sampled and appended until the formula first becomes
    unsatisfiable.  The model of the last satisfiable solve is kept: a new
    clause it satisfies leaves the formula satisfiable, so the oracle is
    called only when the model falsifies the new clause, and its model is
    replaced on SAT.  No draw depends on a solve, so the pair is the same as
    with a solve after every clause.  Negating one seeded-random literal of
    the final clause gives the satisfiable twin (any model of the prefix
    falsifies the final clause, hence satisfies the negated literal).  The
    final UNSAT solve and a solve of the twin confirm both labels.
    """
    GenSpec(GenFamily.SR, num_vars)
    rng = seeded_rng(seed)
    if isinstance(num_vars, tuple):
        n = int(rng.integers(num_vars[0], num_vars[1] + 1))
    else:
        n = num_vars

    clauses: list[tuple[int, ...]] = []
    model: dict[int, bool] | None = None  # total model of the prefix, from its last solve
    while True:
        width = 1 + int(rng.binomial(1, SR_BERNOULLI_P)) + int(rng.geometric(SR_GEOMETRIC_P))
        width = min(width, n)
        variables = rng.choice(n, size=width, replace=False) + 1
        flips = rng.integers(2, size=width)
        clause = make_clause(int(-v if neg else v) for v, neg in zip(variables, flips))
        clauses.append(clause)
        if model is not None and any(model[abs(lit)] == (lit > 0) for lit in clause):
            continue  # the model satisfies the whole prefix, so it is still SAT
        result = solve_dpll(Formula(n, tuple(clauses)))
        if result.label is Label.UNSAT:
            break
        model = result.assignment

    unsat_formula = Formula(n, tuple(clauses))
    final = clauses[-1]
    flip_at = int(rng.integers(len(final)))
    flipped = tuple(-lit if i == flip_at else lit for i, lit in enumerate(final))
    sat_formula = Formula(n, tuple(clauses[:-1]) + (flipped,))

    if solve_dpll(sat_formula).label is not Label.SAT:
        raise RuntimeError("SR invariant violated: flipped twin is not satisfiable")
    meta = {"family": GenFamily.SR.value, "seed": seed, "num_vars": n}
    return (
        LabeledInstance(sat_formula, Label.SAT, {**meta, "role": "sat"}),
        LabeledInstance(unsat_formula, Label.UNSAT, {**meta, "role": "unsat"}),
    )


def _random_ksat(
    family: GenFamily, num_vars: int, num_clauses: int, clause_len: int, seed: int, draw, **params
) -> LabeledInstance:
    """Random k-SAT instance with an oracle-assigned label: each clause takes
    its variables from ``draw(rng)`` and a fair-coin polarity for each."""
    rng = seeded_rng(seed)
    clauses = []
    for _ in range(num_clauses):
        variables = draw(rng)
        flips = rng.integers(2, size=clause_len)
        clauses.append([int(-v if neg else v) for v, neg in zip(variables, flips)])
    formula = Formula(num_vars, tuple(clauses))
    label = solve_dpll(formula).label
    meta = {"family": family.value, "seed": seed, "num_vars": num_vars,
            "num_clauses": num_clauses, "clause_len": clause_len, **params}
    return LabeledInstance(formula, label, meta)


def gen_ur(num_vars: int, num_clauses: int, clause_len: int, seed: int) -> LabeledInstance:
    """Uniform random k-SAT instance with an oracle-assigned label."""
    GenSpec(GenFamily.UR, num_vars, num_clauses, clause_len)

    def draw(rng: np.random.Generator) -> np.ndarray:
        return rng.choice(num_vars, size=clause_len, replace=False) + 1

    return _random_ksat(GenFamily.UR, num_vars, num_clauses, clause_len, seed, draw)


def _power_weights(num_vars: int, exponent: float) -> np.ndarray:
    weights = np.arange(1, num_vars + 1, dtype=float) ** -exponent
    return weights / weights.sum()


def gen_pr(
    num_vars: int,
    num_clauses: int,
    clause_len: int,
    power_exponent: float,
    seed: int,
) -> LabeledInstance:
    """Power-law random k-SAT: variable frequency follows ``i**-exponent``.

    Distinct variables per clause are enforced by redrawing duplicates.
    """
    GenSpec(GenFamily.PR, num_vars, num_clauses, clause_len, power_exponent)
    weights = _power_weights(num_vars, power_exponent)

    def draw(rng: np.random.Generator) -> list[int]:
        chosen: list[int] = []
        while len(chosen) < clause_len:
            v = int(rng.choice(num_vars, p=weights)) + 1
            if v not in chosen:
                chosen.append(v)
        return chosen

    return _random_ksat(
        GenFamily.PR, num_vars, num_clauses, clause_len, seed, draw, power_exponent=power_exponent
    )


def gen_corpus(spec: GenSpec, count: int, seed: int) -> list[LabeledInstance]:
    """Deterministic stream of ``count`` draws from a generator spec.

    Instance ``i`` uses ``derive_seed(seed, i)``.  For SR each draw yields a
    (sat, unsat) pair, so the corpus holds ``2 * count`` instances and is
    exactly label-balanced.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    out: list[LabeledInstance] = []
    for i in range(count):
        inst_seed = derive_seed(seed, i)
        if spec.family is GenFamily.SR:
            out.extend(gen_sr(spec.num_vars, inst_seed))
        elif spec.family is GenFamily.UR:
            out.append(gen_ur(spec.num_vars, spec.num_clauses, spec.clause_len, inst_seed))
        else:
            out.append(
                gen_pr(
                    spec.num_vars,
                    spec.num_clauses,
                    spec.clause_len,
                    spec.power_exponent,
                    inst_seed,
                )
            )
    for i, inst in enumerate(out):
        inst.meta["index"] = i
    return out


def write_corpus(
    instances: Sequence[LabeledInstance],
    out_dir: str | Path,
    *,
    run_header: dict | None = None,
) -> Path:
    """Write one DIMACS file per instance plus a JSON-lines manifest.

    Manifest records carry path (relative to the directory), label, family,
    seed, and the remaining generator parameters.  Raises
    :class:`FileExistsError`, before writing anything, when the directory
    already holds a manifest or a file of one of the instance names.
    Returns the manifest path.
    """
    out = Path(out_dir)
    manifest = out / MANIFEST_NAME
    names = [f"{i:05d}_{inst.label.value}.cnf" for i, inst in enumerate(instances)]
    used = next((p for p in (manifest, *(out / name for name in names)) if p.exists()), None)
    if used is not None:
        raise FileExistsError(f"{out} already holds {used.name}")
    out.mkdir(parents=True, exist_ok=True)
    records = []
    for name, inst in zip(names, instances):
        (out / name).write_text(serialize_dimacs(inst.formula), encoding="utf-8")
        records.append({"path": name, "label": inst.label.value, **inst.meta})
    return append_manifest(out, run_header, records)


def append_manifest(out_dir: Path, run_header: dict | None, records: Iterable[dict]) -> Path:
    """Append a ``run`` record (when a header is given) and one ``instance``
    record per entry to the directory's manifest; returns the manifest path."""
    manifest = out_dir / MANIFEST_NAME
    with open(manifest, "a", encoding="utf-8") as mh:
        if run_header is not None:
            mh.write(json.dumps({"type": "run", **run_header}, sort_keys=True) + "\n")
        for record in records:
            mh.write(json.dumps({"type": "instance", **record}, sort_keys=True) + "\n")
    return manifest


def read_manifest(corpus_dir: str | Path) -> list[dict]:
    """All manifest records of a corpus directory, in file order."""
    manifest = Path(corpus_dir) / MANIFEST_NAME
    records = []
    with open(manifest, encoding="utf-8") as mh:
        for line in mh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def load_corpus(corpus_dir: str | Path) -> list[LabeledInstance]:
    """Load instances listed in a corpus manifest.

    Externally produced corpora work as long as each instance record has a
    ``path`` and a ``label`` of ``sat``/``unsat``.
    """
    base = Path(corpus_dir)
    out = []
    for record in read_manifest(base):
        if record.get("type") not in (None, "instance"):
            continue
        formula = parse_dimacs((base / record["path"]).read_text(encoding="utf-8"))
        label = Label(record["label"])
        meta = {k: v for k, v in record.items() if k not in ("type", "path", "label")}
        out.append(LabeledInstance(formula, label, meta))
    return out
