"""Checks of a pipeline round, computed apart from ``cnfaug``.

Nothing here imports ``cnfaug``.  The pieces are:

* a DIMACS reader and a labeller: bit-parallel enumeration of every
  assignment up to :data:`ENUM_MAX_VARS` variables, a plain DPLL above;
* a decoder for graph documents, written from ``docs/graph-schema-v1.md``;
* the embedding the loss step derives from a graph document, and a naive
  double-loop NT-Xent to check the loss against;
* a recount of strict subsumption and of the ``stats`` fields.

:func:`check_round` applies them to the files of one round and returns, per
stage, the operations attempted, the operations that failed and why.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from workloads import LOSS_BATCH_PAIRS, Workload, chain_kinds

ENUM_MAX_VARS = 16
EMBED_DIM = 16
NT_XENT_TEMPERATURE = 0.5
LOSS_TOLERANCE = 1e-9


# --- DIMACS and labels -------------------------------------------------------

def read_dimacs(text: str) -> tuple[int, list[tuple[int, ...]]]:
    """``(num_vars, clauses)``; each clause keeps the literal order of the file."""
    num_vars = None
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    for line in text.splitlines():
        fields = line.split()
        if not fields or fields[0] == "c":
            continue
        if fields[0] == "p":
            if num_vars is not None or len(fields) != 4 or fields[1] != "cnf":
                raise ValueError(f"bad problem line {line!r}")
            num_vars = int(fields[2])
            declared = int(fields[3])
            continue
        if num_vars is None:
            raise ValueError("clause before the problem line")
        for token in fields:
            lit = int(token)
            if lit == 0:
                clauses.append(tuple(current))
                current = []
            elif abs(lit) > num_vars:
                raise ValueError(f"literal {lit} beyond {num_vars} variables")
            else:
                current.append(lit)
    if num_vars is None or current or len(clauses) != declared:
        raise ValueError("truncated DIMACS document")
    return num_vars, clauses


_MASKS: dict[int, tuple[int, list[int]]] = {}


def _variable_masks(num_vars: int) -> tuple[int, list[int]]:
    """Bit ``a`` of mask ``v-1`` is the value of variable ``v`` in assignment ``a``."""
    if num_vars not in _MASKS:
        size = 1 << num_vars
        masks = []
        for v in range(num_vars):
            width = 2 << v
            mask = ((1 << (1 << v)) - 1) << (1 << v)  # one period: 2**v zeros, 2**v ones
            while width < size:
                mask |= mask << width
                width *= 2
            masks.append(mask)
        _MASKS[num_vars] = ((1 << size) - 1, masks)
    return _MASKS[num_vars]


def _enumerate(num_vars: int, clauses) -> bool:
    every, masks = _variable_masks(num_vars)
    alive = every
    for clause in clauses:
        covered = 0
        for lit in clause:
            mask = masks[abs(lit) - 1]
            covered |= mask if lit > 0 else every ^ mask
        alive &= covered
        if not alive:
            return False
    return True


def _assign(clauses: list[frozenset], lit: int) -> list[frozenset]:
    return [c - {-lit} if -lit in c else c for c in clauses if lit not in c]


def _dpll(clauses: list[frozenset]) -> bool:
    while True:
        if not clauses:
            return True
        if any(not c for c in clauses):
            return False
        unit = next((c for c in clauses if len(c) == 1), None)
        if unit is None:
            break
        clauses = _assign(clauses, next(iter(unit)))
    lit = min(min(clauses, key=len))
    return _dpll(_assign(clauses, lit)) or _dpll(_assign(clauses, -lit))


def is_sat(num_vars: int, clauses) -> bool:
    if num_vars <= ENUM_MAX_VARS:
        return _enumerate(num_vars, clauses)
    return _dpll([frozenset(c) for c in clauses])


def differ_in_one_literal(a: list[tuple[int, ...]], b: list[tuple[int, ...]]) -> bool:
    """Same clauses but one, where one literal has the opposite sign."""
    if len(a) != len(b):
        return False
    diffs = [(set(x), set(y)) for x, y in zip(a, b) if set(x) != set(y)]
    if len(diffs) != 1:
        return False
    x, y = diffs[0]
    return len(x - y) == 1 and len(y - x) == 1 and (x - y).pop() == -(y - x).pop()


# --- graph documents, embeddings and the loss ---------------------------------

def decode_graph(doc: dict) -> tuple[int, list[set[int]], int]:
    """``(num_vars, clauses, edges)`` of a v1 graph document.

    Literal node ``2*(v-1)`` is ``v`` and ``2*(v-1)+1`` is ``-v``; an edge
    ``[l, c]`` puts literal ``l`` into clause ``c``.
    """
    if doc.get("schema") != "cnfaug.graph" or doc.get("schema_version") != 1:
        raise ValueError("not a v1 cnfaug.graph document")
    num_vars, num_clauses = doc["num_vars"], doc["num_clauses"]
    clauses: list[set[int]] = [set() for _ in range(num_clauses)]
    for node, clause in doc["cl_edges"]:
        if not (0 <= node < 2 * num_vars and 0 <= clause < num_clauses):
            raise ValueError(f"edge [{node}, {clause}] outside the node ranges")
        lit = -(node // 2 + 1) if node % 2 else node // 2 + 1
        if lit in clauses[clause]:
            raise ValueError(f"duplicate edge [{node}, {clause}]")
        clauses[clause].add(lit)
    return num_vars, clauses, len(doc["cl_edges"])


def graph_embedding(doc: dict) -> list[float]:
    """A fixed feature vector of a graph: a constant 1, the shares of clauses
    of width 1, 2, 3 and 4+, and per-variable polarity balance folded into
    the remaining slots."""
    _, clauses, _ = decode_graph(doc)
    vec = [0.0] * EMBED_DIM
    vec[0] = 1.0
    share = 1.0 / max(1, len(clauses))
    for clause in clauses:
        vec[min(len(clause), 4)] += share
        for lit in clause:
            vec[5 + (abs(lit) - 1) % (EMBED_DIM - 5)] += share if lit > 0 else -share
    return vec


def loss_batches(rows1: list[list[float]], rows2: list[list[float]]) -> list[list[list[float]]]:
    """Interleave the two views (rows 2k, 2k+1 = instance k) in batches."""
    rows = [r for pair in zip(rows1, rows2) for r in pair]
    step = 2 * LOSS_BATCH_PAIRS
    return [rows[i:i + step] for i in range(0, len(rows), step)]


def naive_nt_xent(rows: list[list[float]], temperature: float = NT_XENT_TEMPERATURE) -> float:
    def cos(a, b):
        dot = sum(x * y for x, y in zip(a, b))
        return dot / (math.sqrt(sum(x * x for x in a)) * math.sqrt(sum(y * y for y in b)))

    total = 0.0
    for i, anchor in enumerate(rows):
        others = sum(math.exp(cos(anchor, rows[k]) / temperature) for k in range(len(rows)) if k != i)
        total -= math.log(math.exp(cos(anchor, rows[i ^ 1]) / temperature) / others)
    return total / len(rows)


# --- stats -----------------------------------------------------------------------

def strict_subsumed_count(clauses) -> int:
    """Clauses that strictly contain another clause of the formula."""
    by_width: dict[int, list[frozenset]] = {}
    for c in clauses:
        by_width.setdefault(len(set(c)), []).append(frozenset(c))
    count = 0
    for c in clauses:
        outer = frozenset(c)
        if any(inner <= outer for w, group in by_width.items() if w < len(outer) for inner in group):
            count += 1
    return count


def stats_recount(formulas: list[tuple[int, list]]) -> dict:
    """The fields ``cnfaug stats --corpus`` prints, from the same formulas."""
    if not formulas:
        return {"instances": 0}
    count = len(formulas)
    clauses = sum(len(c) for _, c in formulas)
    subsumed = [strict_subsumed_count(c) for _, c in formulas]
    return {
        "instances": count,
        "mean_clauses": round(clauses / count, 3),
        "mean_vars": round(sum(n for n, _ in formulas) / count, 3),
        "subsumed_clause_fraction": round(sum(subsumed) / clauses, 4) if clauses else 0.0,
        "instances_with_subsumed_fraction": round(sum(1 for s in subsumed if s) / count, 4),
    }


# --- one round -------------------------------------------------------------------

class _Stage:
    def __init__(self, attempted: int):
        self.attempted = attempted
        self.failed: set[int] = set()
        self.errors: list[str] = []

    def fail(self, why: str, *items: int) -> None:
        """Mark operations failed; no items means every operation of the stage."""
        self.failed.update(items or range(self.attempted))
        if len(self.errors) < 5:
            self.errors.append(why)

    def report(self) -> dict:
        return {"attempted": self.attempted, "failed": len(self.failed), "errors": self.errors}


def _manifest(path: Path) -> list[dict]:
    lines = path.read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines if line.strip()]
    if not records or records[0].get("type") != "run":
        raise ValueError(f"{path} does not start with one run record")
    instances = records[1:]
    if any(r.get("type") != "instance" for r in instances):
        raise ValueError(f"{path} holds more than one run")
    return instances


def attempts(workload: Workload) -> dict[str, int]:
    """Operations per stage in one round."""
    n = workload.instances
    return {"gen": n, "augment": 2 * n, "verify": 2 * n, "export": 2 * n,
            "stats": 1, "loss": math.ceil(n / LOSS_BATCH_PAIRS)}


def check_round(workload: Workload, round_dir: Path, result: dict) -> dict[str, dict]:
    """Check every output of one round against the computations above.

    Operation ``i`` of ``gen`` is instance ``i``; operation ``(v-1)*n + i`` of
    ``augment``, ``verify`` and ``export`` is view ``v`` of instance ``i``.
    """
    n = workload.instances
    stages = {stage: _Stage(count) for stage, count in attempts(workload).items()}
    runs = result["stages"]
    corpus_dir = round_dir / "corpus"
    names = sorted(p.name for p in corpus_dir.glob("*.cnf"))
    cache: dict[Path, tuple[tuple[int, list], bool]] = {}
    docs: dict[int, dict[str, dict]] = {}  # view -> corpus file name -> graph document

    def load(path: Path) -> tuple[tuple[int, list], bool]:
        if path not in cache:
            formula = read_dimacs(path.read_text(encoding="utf-8"))
            cache[path] = formula, is_sat(*formula)
        return cache[path]

    def manifest(stage: _Stage, path: Path, items: range) -> list[dict]:
        try:
            records = _manifest(path)
        except (OSError, ValueError) as exc:
            stage.fail(str(exc), *items)
            return []
        errors = [r for r in records if r.get("status", "ok") != "ok"]
        if len(records) != len(items) or errors:
            stage.fail(f"{path}: {len(records)} records, {len(errors)} errors, "
                       f"for {len(items)} inputs", *items)
        return records

    # gen: count, labels, family shape, and for SR balance and twins
    gen = stages["gen"]
    if runs["gen"]["rc"] != 0:
        gen.fail(f"gen exited {runs['gen']['rc']}")
    records = manifest(gen, corpus_dir / "manifest.jsonl", range(n))
    if len(names) != n:
        gen.fail(f"expected {n} instances, the corpus directory holds {len(names)}")
    flags = workload.flags
    for i, record in enumerate(records[:n]):
        try:
            (num_vars, clauses), sat = load(corpus_dir / record["path"])
        except (OSError, ValueError, KeyError) as exc:
            gen.fail(f"instance {i} unreadable: {exc}", i)
            continue
        if record.get("label") != ("sat" if sat else "unsat"):
            gen.fail(f"instance {i}: manifest says {record.get('label')}, "
                     f"the labeller says {'sat' if sat else 'unsat'}", i)
        if num_vars != int(flags["--vars"]):
            gen.fail(f"instance {i} has {num_vars} variables", i)
        if not workload.sr and (
            len(clauses) != int(flags["--clauses"])
            or any(len({abs(x) for x in c}) != int(flags["--k"]) for c in clauses)
        ):
            gen.fail(f"instance {i} is not uniform {flags['--k']}-SAT with {flags['--clauses']} clauses", i)
    if workload.sr:
        if [r.get("label") for r in records] != ["sat", "unsat"] * workload.count:
            gen.fail("the SR corpus is not exactly balanced in sat/unsat pairs")
        for k in range(len(records) // 2):
            try:
                a, _ = load(corpus_dir / records[2 * k]["path"])
                b, _ = load(corpus_dir / records[2 * k + 1]["path"])
            except (OSError, ValueError, KeyError):
                continue  # failed above
            if a[0] != b[0] or not differ_in_one_literal(a[1], b[1]):
                gen.fail(f"SR pair {k} does not differ in exactly one literal", 2 * k, 2 * k + 1)

    # augment, verify and export of each view
    aug, ver, exp = stages["augment"], stages["verify"], stages["export"]
    for v, chain in enumerate(workload.views, start=1):
        view_dir, graph_dir = round_dir / f"view{v}", round_dir / f"graphs{v}"
        items = range((v - 1) * n, v * n)
        if runs[f"augment{v}"]["rc"] != 0:
            aug.fail(f"augment of view {v} exited {runs[f'augment{v}']['rc']}", *items)
        manifest(aug, view_dir / "manifest.jsonl", items)
        if runs[f"export{v}"]["rc"] != 0:
            exp.fail(f"export of view {v} exited {runs[f'export{v}']['rc']}", *items)
        manifest(exp, graph_dir / "manifest.jsonl", items)

        flips = []
        docs[v] = {}
        for i, name in zip(items, names):
            try:
                _, before = load(corpus_dir / name)
                view, after = load(view_dir / name)
            except (OSError, ValueError) as exc:
                aug.fail(f"view{v}/{name} unreadable: {exc}", i)
                exp.fail(f"view{v}/{name} unreadable: {exc}", i)
                continue
            if before != after:
                flips.append(name)
                if workload.label_preserving:
                    aug.fail(f"view{v}/{name}: an LPA chain flipped the label", i)
                elif chain_kinds(chain) == {"DC"} and before:
                    aug.fail(f"view{v}/{name}: dropping clauses made a SAT formula UNSAT", i)
            try:
                doc = json.loads((graph_dir / f"{Path(name).stem}.json").read_text(encoding="utf-8"))
                num_vars, decoded, edges = decode_graph(doc)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                exp.fail(f"graph of view{v}/{name}: {exc}", i)
                continue
            docs[v][name] = doc
            occurrences = sum(len(c) for c in view[1])
            if (num_vars, decoded) != (view[0], [set(c) for c in view[1]]):
                exp.fail(f"graph of view{v}/{name} does not decode to the view's clauses", i)
            elif edges != occurrences:
                exp.fail(f"graph of view{v}/{name}: {edges} edges for {occurrences} literals", i)
            elif doc.get("var_edges") is not True or doc.get("provenance") != {"source": name, "chain": None}:
                exp.fail(f"graph of view{v}/{name}: wrong var_edges or provenance", i)

        verify = runs[f"verify{v}"]
        expected = {"pairs": n, "preserved": n - len(flips), "flipped": len(flips),
                    "errors": 0, "flipped_files": flips}
        try:
            report = json.loads(verify["stdout"])
            wrong = {k: report.get(k) for k in expected if report.get(k) != expected[k]}
        except ValueError as exc:
            wrong = {"stdout": str(exc)}
        want_rc = 3 if workload.label_preserving and flips else 0
        if wrong or verify["rc"] != want_rc:
            ver.fail(f"verify of view {v} exited {verify['rc']}; differs from the recount in {wrong}", *items)

    # stats
    stats = stages["stats"]
    try:
        reported = json.loads(runs["stats"]["stdout"])
        recount = stats_recount([load(corpus_dir / name)[0] for name in names])
        if runs["stats"]["rc"] != 0 or reported != recount:
            stats.fail(f"stats printed {reported}, the recount gives {recount}")
    except (OSError, ValueError) as exc:
        stats.fail(str(exc))

    # loss
    loss = stages["loss"]
    if all(len(docs[v]) == n for v in (1, 2)):
        batches = loss_batches(*([graph_embedding(docs[v][name]) for name in names] for v in (1, 2)))
    else:
        batches = []
        loss.fail("a graph document is missing, so the loss cannot be recomputed")
    losses = result.get("losses", [])
    if len(losses) != len(batches):
        loss.fail(f"{len(losses)} loss values for {len(batches)} batches")
    for b, (got, rows) in enumerate(zip(losses, batches)):
        want = naive_nt_xent(rows)
        if not abs(got - want) <= LOSS_TOLERANCE:
            loss.fail(f"batch {b}: nt_xent gave {got!r}, the naive loss {want!r}", b)

    return {name: stage.report() for name, stage in stages.items()}
