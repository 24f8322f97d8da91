"""Augmentation specs, ordered chains, and the compact chain grammar.

A chain is an ordered sequence of augmentation steps applied left to right;
order matters (adding resolvents before pruning subsumed clauses is not the
same as the reverse).  The text form is ``KIND[:rate[:seed]]`` joined by
commas, e.g. ``CR:0.2:42,SC`` - each step carries its own seed so a chain
string fully determines the output for a given input formula.  A kind is
ASCII letters in either case; a rate and a seed are ASCII digits with no
leading zero, and a rate may add a ``.digits`` fraction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal
from enum import Enum
from typing import Callable, Union

from . import laa, lpa
from .formula import Formula


class LpaKind(Enum):
    """Label-preserving augmentation kinds."""

    UP = "UP"
    AU = "AU"
    PL = "PL"
    SC = "SC"
    CR = "CR"
    VE = "VE"


class LaaKind(Enum):
    """Label-agnostic augmentation kinds."""

    DC = "DC"
    DV = "DV"
    LP = "LP"
    SG = "SG"


AugKind = Union[LpaKind, LaaKind]

_DISPATCH: dict[AugKind, Callable[[Formula, float, int], Formula]] = {
    LpaKind.UP: lpa.unit_propagate,
    LpaKind.AU: lpa.add_unit_literal,
    LpaKind.PL: lpa.pure_literal_eliminate,
    LpaKind.SC: lambda f, rate, seed: lpa.subsumed_clause_eliminate(f),
    LpaKind.CR: lpa.clause_resolution,
    LpaKind.VE: lpa.variable_eliminate,
    LaaKind.DC: laa.drop_clauses,
    LaaKind.DV: laa.drop_variables,
    LaaKind.LP: laa.perturb_links,
    LaaKind.SG: laa.subgraph,
}


class ChainParseError(ValueError):
    """Malformed chain string."""


@dataclass(frozen=True)
class AugmentationSpec:
    """One augmentation step: kind, intensity rate in [0, 1], and seed.

    SC takes no rate or seed (it always eliminates all subsumed clauses);
    both fields are ignored for it.
    """

    kind: AugKind
    rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.kind, (LpaKind, LaaKind)):
            raise ValueError(f"unknown augmentation kind {self.kind!r}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must lie in [0, 1], got {self.rate}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")

    def apply(self, formula: Formula) -> Formula:
        return _DISPATCH[self.kind](formula, self.rate, self.seed)

    def is_label_preserving(self) -> bool:
        return isinstance(self.kind, LpaKind)


Chain = tuple[AugmentationSpec, ...]


_KINDS = {kind.value: kind for kind in _DISPATCH}
_STEP = re.compile(r"([A-Za-z]+)(?::((?:0|[1-9][0-9]*)(?:\.[0-9]+)?)(?::(0|[1-9][0-9]*))?)?")


def parse_chain(text: str) -> Chain:
    """Parse ``KIND[:rate[:seed]],...``; the empty string is the empty chain.
    Surrounding spaces of the text and of each step are ignored."""
    text = text.strip()
    if not text:
        return ()
    specs = []
    for token in text.split(","):
        step = _STEP.fullmatch(token.strip())
        if step is None:
            raise ChainParseError(f"malformed chain step {token!r}")
        name, rate, seed = step.groups()
        kind = _KINDS.get(name.upper(), name)  # the spec refuses an unknown name
        try:
            specs.append(AugmentationSpec(kind, float(rate or 0), int(seed or 0)))
        except ValueError as exc:
            raise ChainParseError(str(exc)) from exc
    return tuple(specs)


def format_chain(chain: Chain) -> str:
    """Inverse of :func:`parse_chain`: each rate is its shortest round-trip
    ``repr`` written positionally, so ``1e-05`` becomes ``0.00001``, and
    without the sign of ``-0.0``, a valid rate the grammar would refuse."""
    return ",".join(f"{s.kind.value}:{Decimal(repr(abs(s.rate))):f}:{s.seed}" for s in chain)


def is_label_preserving(chain: Chain) -> bool:
    """True when every step of the chain guarantees the label."""
    return all(spec.is_label_preserving() for spec in chain)


def apply_chain(formula: Formula, chain: Chain) -> Formula:
    """Apply the steps left to right; the empty chain is the identity."""
    for spec in chain:
        formula = spec.apply(formula)
    return formula
