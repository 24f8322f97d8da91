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
seed and the counter ``i``, and draws from a :class:`cnfaug._stream.Stream`
on that seed.  A UR instance's draws have bounds fixed by its shape, so it
takes them all in one array pass (:func:`cnfaug._stream.integer_rounds`).
It draws through the stream instead when that pass cannot give numpy's
values (a draw in Lemire's rejection zone) and when numpy's sampler takes
its tail-shuffle branch; the clauses are the same either way.  SR and PR
stay on the stream: how many draws they make depends on the values drawn.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from numbers import Real
from operator import index
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from ._stream import Stream, floyd_shape, integer_rounds
from .formula import Formula, Label, parse_dimacs, satisfies, serialize_dimacs
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
# numpy's inversion sampler for binomial(1, p) returns 0 for a uniform u up to
# P0 = exp(n log q), else 1 unless u - P0 exceeds p * P0 / q, when it redraws.
# u - P0 is exact for u in (P0, 1) (Sterbenz's lemma) and within p * P0 / q
# even at the largest u below 1, so the redraw is never reached at this p.
_SR_P0 = math.exp(math.log(1.0 - SR_BERNOULLI_P))


def _sr_bernoulli(stream: Stream) -> int:
    """``Generator.binomial(1, SR_BERNOULLI_P)`` in one comparison."""
    return int(stream.random() > _SR_P0)


def _sr_geometric(stream: Stream) -> int:
    """``Generator.geometric(SR_GEOMETRIC_P)`` by numpy's search sampler,
    which numpy takes for ``p >= 1/3``: the trial count at which the running
    sum of the probabilities first reaches one uniform."""
    u = stream.random()
    trials, prob = 1, SR_GEOMETRIC_P
    total = prob
    while u > total:
        prob *= 1.0 - SR_GEOMETRIC_P
        total += prob
        trials += 1
    return trials


class GenFamily(Enum):
    SR = "SR"
    UR = "UR"
    PR = "PR"


@dataclass(frozen=True)
class GenSpec:
    """Parameters of one generator family; ``num_vars`` may be an inclusive
    ``(lo, hi)`` range for SR, a tuple of exactly two ends with
    ``2 <= lo <= hi`` (any other tuple raises :class:`ValueError`).  The only
    place generator parameters are checked: ``gen_sr``, ``gen_ur`` and
    ``gen_pr`` build one and read their parameters back from it.  Counts are
    stored as plain ``int`` through :func:`operator.index`, as
    :class:`Formula` stores ``num_vars``, and a real ``power_exponent`` as
    ``float`` (anything else raises :class:`TypeError`).  A parameter the
    family does not use is refused: SR takes only ``num_vars``, UR no
    ``power_exponent``.  PR is refused when fewer than ``clause_len``
    variables can be drawn from its table at all (:func:`_drawable`);
    ``gen_pr`` would redraw forever."""

    family: GenFamily
    num_vars: int | tuple[int, int]
    num_clauses: int | None = None
    clause_len: int | None = None
    power_exponent: float | None = None

    def __post_init__(self) -> None:
        if isinstance(self.num_vars, tuple):
            if len(self.num_vars) != 2:
                raise ValueError("a variable range must have exactly two ends (lo, hi)")
            object.__setattr__(self, "num_vars", tuple(map(index, self.num_vars)))
        else:
            object.__setattr__(self, "num_vars", index(self.num_vars))
        for name in ("num_clauses", "clause_len"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, index(getattr(self, name)))
        if self.power_exponent is not None:
            if not isinstance(self.power_exponent, Real):
                raise TypeError("power_exponent must be a real number")
            object.__setattr__(self, "power_exponent", float(self.power_exponent))
        unused = {GenFamily.SR: ("num_clauses", "clause_len", "power_exponent"),
                  GenFamily.UR: ("power_exponent",)}.get(self.family, ())
        for name in unused:
            if getattr(self, name) is not None:
                raise ValueError(f"{self.family.value} takes no {name}")
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
            if _drawable(_power_cdf(self.num_vars, self.power_exponent)) < self.clause_len:
                raise ValueError(
                    "power_exponent leaves fewer than clause_len variables that can be drawn"
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
    the final clause gives the satisfiable twin.  The kept model certifies
    it without a solve: it satisfies every clause but the last, and it
    falsifies every literal of the last, so it satisfies the negated one (a
    single clause of width >= 2 is satisfiable, so a model is always kept by
    then).  The final UNSAT solve confirms the other label.
    """
    spec = GenSpec(GenFamily.SR, num_vars)
    lo, hi = spec.num_vars if isinstance(spec.num_vars, tuple) else (spec.num_vars,) * 2
    stream = Stream(seed)
    n = lo + stream.integers(hi + 1 - lo)  # a bound of 1 draws nothing

    clauses: list[tuple[int, ...]] = []
    model: dict[int, bool] | None = None  # total model of the prefix, from its last solve
    while True:
        width = min(1 + _sr_bernoulli(stream) + _sr_geometric(stream), n)
        literals = [-v - 1 if stream.integers(2) else v + 1 for v in stream.sample(n, width)]
        clause = tuple(sorted(literals, key=abs))  # distinct variables: canonical
        clauses.append(clause)
        if model is not None and any(model[abs(lit)] == (lit > 0) for lit in clause):
            continue  # the model satisfies the whole prefix, so it is still SAT
        prefix = Formula._canonical(n, tuple(clauses))
        result = solve_dpll(prefix)
        if result.label is Label.UNSAT:
            break
        model = result.assignment

    # the last prefix solved is the UNSAT instance, and ``clause`` its final clause
    flip_at = stream.integers(len(clause))
    flipped = tuple(-lit if i == flip_at else lit for i, lit in enumerate(clause))
    sat_formula = Formula._canonical(n, prefix.clauses[:-1] + (flipped,))

    if not satisfies(sat_formula, model):
        raise RuntimeError("SR invariant violated: flipped twin is not satisfiable")
    meta = {"family": GenFamily.SR.value, "seed": seed, "num_vars": n}
    return (
        LabeledInstance(sat_formula, Label.SAT, {**meta, "role": "sat"}),
        LabeledInstance(prefix, Label.UNSAT, {**meta, "role": "unsat"}),
    )


def _random_ksat(spec: GenSpec, seed: int, draw, clauses=None, **params) -> LabeledInstance:
    """Random k-SAT instance with an oracle-assigned label: each of the
    spec's clauses takes its variables from ``draw(stream)`` and a fair-coin
    polarity for each, unless ``clauses`` already holds them."""
    if clauses is None:
        stream = Stream(seed)
        clauses = []
        for _ in range(spec.num_clauses):
            literals = [-v if stream.integers(2) else v for v in draw(stream)]
            clauses.append(tuple(sorted(literals, key=abs)))  # distinct variables: canonical
    formula = Formula._canonical(spec.num_vars, tuple(clauses))
    label = solve_dpll(formula).label
    meta = {"family": spec.family.value, "seed": seed, "num_vars": spec.num_vars,
            "num_clauses": spec.num_clauses, "clause_len": spec.clause_len, **params}
    return LabeledInstance(formula, label, meta)


def _ur_clauses(n: int, m: int, k: int, seed: int) -> tuple[tuple[int, ...], ...] | None:
    """The ``m`` clauses ``_random_ksat`` draws for UR, all at once; or
    ``None`` when ``Stream.sample(n, k)`` takes numpy's tail-shuffle branch
    or :func:`integer_rounds` cannot give the draws.

    Each clause is ``Stream.sample(n, k)`` by Floyd's algorithm, then ``k``
    coins, so its bounds are the same ``3k - 1`` every time: Floyd's
    ``n-k+1 .. n``, the shuffle's ``k .. 2``, and ``2`` for each coin.  Floyd's
    duplicate rule, the swaps, the signs and the sort by ``|lit|`` then run
    over all clauses at once, in O(m k) memory and O(m k**2) comparisons.
    """
    if not floyd_shape(n, k):
        return None
    drawn = integer_rounds(seed, [*range(n - k + 1, n + 1), *range(k, 1, -1), *[2] * k], m)
    if drawn is None:
        return None
    chosen = drawn[:, :k]  # a view: Floyd's draws become the sample in place
    for t in range(1, k):
        seen = (chosen[:, :t] == chosen[:, t, None]).any(axis=1)
        chosen[seen, t] = n - k + t
    rows = np.arange(m)
    for i, j in zip(range(k - 1, 0, -1), drawn[:, k:2 * k - 1].T):
        chosen[rows, i], chosen[rows, j] = chosen[rows, j], chosen[rows, i]
    # variables are distinct within a clause, so sorting 2 * variable + coin
    # sorts the literals by |lit| and keeps each coin with its variable
    keys = np.sort(2 * chosen + drawn[:, 2 * k - 1:], axis=1)
    variables = keys >> 1
    literals = np.where(keys & 1, ~variables, variables + 1)
    return tuple(map(tuple, literals.tolist()))


def gen_ur(num_vars: int, num_clauses: int, clause_len: int, seed: int) -> LabeledInstance:
    """Uniform random k-SAT instance with an oracle-assigned label.

    The clauses come from one array pass (:func:`_ur_clauses`), or through a
    :class:`Stream` clause by clause when that pass cannot give them.  Both
    give the same clauses."""
    spec = GenSpec(GenFamily.UR, num_vars, num_clauses, clause_len)
    n, k = spec.num_vars, spec.clause_len

    def draw(stream: Stream) -> list[int]:
        return [v + 1 for v in stream.sample(n, k)]

    return _random_ksat(spec, seed, draw, _ur_clauses(n, spec.num_clauses, k, seed))


def _power_weights(num_vars: int, exponent: float) -> np.ndarray:
    weights = np.arange(1, num_vars + 1, dtype=float) ** -exponent
    return weights / weights.sum()


def _power_cdf(num_vars: int, exponent: float) -> list[float]:
    """The table ``gen_pr`` draws variable ``i + 1`` from with ``Stream.pick``."""
    return Stream.cdf(_power_weights(num_vars, exponent).tolist())


def _drawable(cdf: list[float]) -> int:
    """How many indices ``Stream.pick(cdf)`` can return.  A draw is
    ``u = j / 2**53`` with ``0 <= j < 2**53`` and picks ``i`` when
    ``cdf[i-1] <= u < cdf[i]`` (``cdf[-1]`` read as 0), so ``i`` comes up
    exactly when ``ceil(cdf[i-1] * 2**53) < cdf[i] * 2**53``; both products
    are exact."""
    scaled = [c * 2.0**53 for c in cdf]
    return sum(1 for lo, hi in zip([0.0, *scaled], scaled) if math.ceil(lo) < hi)


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
    spec = GenSpec(GenFamily.PR, num_vars, num_clauses, clause_len, power_exponent)
    cdf = _power_cdf(spec.num_vars, spec.power_exponent)

    def draw(stream: Stream) -> list[int]:
        chosen: list[int] = []
        while len(chosen) < spec.clause_len:
            v = stream.pick(cdf) + 1
            if v not in chosen:
                chosen.append(v)
        return chosen

    return _random_ksat(spec, seed, draw, power_exponent=spec.power_exponent)


def gen_corpus(spec: GenSpec, count: int, seed: int) -> list[LabeledInstance]:
    """Deterministic stream of ``count`` draws from a generator spec.

    Instance ``i`` uses ``derive_seed(seed, i)``.  For SR each draw yields a
    (sat, unsat) pair, so the corpus holds ``2 * count`` instances and is
    exactly label-balanced.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    out: list[LabeledInstance] = []
    # GenSpec refuses the fields a family does not use, so the set ones are
    # its generator's parameters in order; the map is built per call, so a
    # generator replaced on this module after import is the one called
    generate = {GenFamily.SR: gen_sr, GenFamily.UR: gen_ur, GenFamily.PR: gen_pr}[spec.family]
    params = [p for p in (spec.num_vars, spec.num_clauses, spec.clause_len,
                          spec.power_exponent) if p is not None]
    for i in range(count):
        drawn = generate(*params, derive_seed(seed, i))
        out.extend(drawn if spec.family is GenFamily.SR else [drawn])
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
    already holds a manifest or a file of one of the instance names, and
    serializes every record before it writes a file (:func:`write_run`).
    Returns the manifest path.
    """
    out = Path(out_dir)
    files = [(f"{i:05d}_{inst.label.value}.cnf", inst.formula) for i, inst in enumerate(instances)]
    used = next((n for n in (MANIFEST_NAME, *(f for f, _ in files)) if (out / n).exists()), None)
    if used is not None:
        raise FileExistsError(f"{out} already holds {used}")
    records = [{"path": name, "label": inst.label.value, **inst.meta}
               for (name, _), inst in zip(files, instances)]
    return write_run(out, run_header, records, files)


def write_run(out_dir: Path, run_header: dict | None, records: Iterable[dict],
              files: Iterable[tuple[str, Formula]] = ()) -> Path:
    """Serialize a ``run`` record (when a header is given) and one
    ``instance`` record per entry, then create ``out_dir``, write each
    ``(name, formula)`` of ``files`` as DIMACS and append the records to the
    manifest in one write, so a record that cannot be serialized leaves
    ``out_dir`` as it was.  Returns the manifest path."""
    header = [] if run_header is None else [{"type": "run", **run_header}]
    text = "".join(json.dumps(record, sort_keys=True) + "\n"
                   for record in header + [{"type": "instance", **r} for r in records])
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, formula in files:
        (out_dir / name).write_text(serialize_dimacs(formula), encoding="utf-8")
    with open(out_dir / MANIFEST_NAME, "a", encoding="utf-8") as mh:
        mh.write(text)
    return out_dir / MANIFEST_NAME


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
    ``path`` and a ``label`` of ``sat``/``unsat``.  The instance records of
    an ``augment``, ``export`` or ``pair`` run appended to the same directory
    describe that run's outputs, not corpus instances, and are skipped.
    """
    base = Path(corpus_dir)
    out = []
    outputs = False  # inside the records of an augment, export or pair run
    for record in read_manifest(base):
        if record.get("type") == "run":
            outputs = record.get("command") in ("augment", "export", "pair")
        if outputs or record.get("type") not in (None, "instance"):
            continue
        formula = parse_dimacs((base / record["path"]).read_text(encoding="utf-8"))
        label = Label(record["label"])
        meta = {k: v for k, v in record.items() if k not in ("type", "path", "label")}
        out.append(LabeledInstance(formula, label, meta))
    return out
