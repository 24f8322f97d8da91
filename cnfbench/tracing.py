"""Spans around the calls into each ``cnfaug`` layer, recorded from outside.

:func:`install` replaces each traced function at the binding its callers
actually go through: ``from .oracle import solve_dpll`` in ``gen`` and
``cli`` binds the name at import time, and ``chains._DISPATCH`` holds the
augmentation functions, so wrapping ``cnfaug.oracle.solve_dpll`` or
``cnfaug.lpa.variable_eliminate`` alone would record nothing.  A wrapper
only times its call and reads the arguments and the result; it never
changes them, so a traced round writes the same bytes as an untraced one.
"""

from __future__ import annotations

import logging
import math
import time
from collections import Counter, defaultdict


def _ceil_count(rate: float, base: int) -> int:
    """``ceil(rate * base)`` as the LPAs document their step counts."""
    return max(0, math.ceil(rate * base - 1e-9))


class Tracer:
    """Spans ``[name, start, end, parent index]`` and counts, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self.ve_stopped: tuple[int, int] | None = None  # (eliminated, requested) from VE's log

    def wrap(self, name: str, fn, after=None):
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else None])
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = time.perf_counter()
            if after is not None:
                after(args, result)
            return result

        return traced

    def parent_name(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def summary(self) -> dict:
        """Calls, busy time and self time per span name, and the counts."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        calls, busy, own = Counter(), defaultdict(float), defaultdict(float)
        for (name, start, end, _), child in zip(self.spans, covered):
            calls[name] += 1
            busy[name] += end - start
            own[name] += end - start - child
        return {"calls": dict(calls), "busy_s": dict(busy), "self_s": dict(own),
                "counts": dict(self.counts)}

    # --- counts taken at the layer boundaries ---

    def _solved(self, args, result) -> None:
        self.counts["oracle.decisions"] += result.decisions
        self.counts["oracle.propagations"] += result.propagations
        if self.parent_name() == "gen.gen_sr":
            self.counts["gen.dpll_calls"] += 1

    def _eliminated(self, args, result) -> None:
        formula, rate = args[0], args[1]
        requested = max(1, _ceil_count(rate, formula.num_vars))
        eliminated = self.ve_stopped[0] if self.ve_stopped else requested
        self.ve_stopped = None
        self.counts["lpa.ve_requested"] += requested
        self.counts["lpa.ve_eliminated"] += eliminated

    def _resolved(self, args, result) -> None:
        formula, rate = args[0], args[1]
        self.counts["lpa.cr_requested"] += _ceil_count(rate, formula.num_clauses)
        self.counts["lpa.cr_added"] += result.num_clauses - formula.num_clauses

    def _subsumed(self, args, result) -> None:
        self.counts["lpa.sc_removed"] += args[0].num_clauses - result.num_clauses

    def _exported(self, args, result) -> None:
        self.counts["graph.edges"] += len(args[0].cl_edges)


class _StopLog(logging.Handler):
    """Reads VE's own report of stopping short of the requested count."""

    def __init__(self, tracer: Tracer) -> None:
        super().__init__(logging.INFO)
        self.tracer = tracer

    def emit(self, record: logging.LogRecord) -> None:
        if record.msg.startswith("variable elimination stopped"):
            self.tracer.ve_stopped = record.args


def install(tracer: Tracer) -> None:
    """Wrap the public functions of each layer where the pipeline calls them."""
    import cnfaug
    from cnfaug import chains, cli, gen, laa, lpa

    def patch(module, attr: str, name: str, after=None) -> None:
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), after))

    patch(cli, "gen_corpus", "gen.gen_corpus")
    patch(cli, "write_corpus", "gen.write_corpus")
    for attr in ("gen_sr", "gen_ur", "gen_pr"):
        patch(gen, attr, f"gen.{attr}")
    for module in (cli, gen):
        patch(module, "solve_dpll", "oracle.solve_dpll", tracer._solved)
        patch(module, "parse_dimacs", "formula.parse_dimacs")
        patch(module, "serialize_dimacs", "formula.serialize_dimacs")
    patch(cli, "apply_chain", "chains.apply_chain")
    after = {
        chains.LpaKind.VE: tracer._eliminated,
        chains.LpaKind.CR: tracer._resolved,
    }
    for kind, fn in chains._DISPATCH.items():
        if kind is not chains.LpaKind.SC:  # SC's entry calls lpa.subsumed_clause_eliminate, patched below
            layer = fn.__module__.rsplit(".", 1)[-1]
            chains._DISPATCH[kind] = tracer.wrap(f"{layer}.{fn.__name__}", fn, after.get(kind))
    patch(lpa, "subsumed_clause_eliminate", "lpa.subsumed_clause_eliminate", tracer._subsumed)
    patch(cli, "build_lig", "graph.build_lig")
    patch(laa, "build_lig", "graph.build_lig")
    patch(cli, "export_graph", "graph.export_graph", tracer._exported)
    patch(cnfaug, "nt_xent", "contrastive.nt_xent")

    log = logging.getLogger(lpa.__name__)
    log.setLevel(logging.INFO)
    log.propagate = False
    log.addHandler(_StopLog(tracer))
