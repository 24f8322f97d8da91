"""Augmentation specs, ordered chains, and the compact chain grammar.

A chain is an ordered sequence of augmentation steps applied left to right;
order matters (adding resolvents before pruning subsumed clauses is not the
same as the reverse).  The text form is ``KIND[:rate[:seed]]`` joined by
commas, e.g. ``CR:0.2:42,SC`` - each step carries its own seed so a chain
string fully determines the output for a given input formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Union

from . import laa, lpa
from .formula import Formula, integer


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


def real(text: str) -> float:
    """An ASCII real with no ``_``.  ``float()`` alone also reads ``1_5``
    and non-ASCII digits."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"not an ASCII real: {text!r}")
    return float(text)


def parse_kind(name: str) -> AugKind:
    token = name.strip().upper()
    for enum in (LpaKind, LaaKind):
        try:
            return enum(token)
        except ValueError:
            continue
    raise ChainParseError(f"unknown augmentation kind {name!r}")


def parse_chain(text: str) -> Chain:
    """Parse ``KIND[:rate[:seed]],...``; the empty string is the empty chain.
    Rates follow :func:`real` and seeds :func:`integer`."""
    text = text.strip()
    if not text:
        return ()
    specs = []
    for token in text.split(","):
        parts = token.strip().split(":")
        if not 1 <= len(parts) <= 3:
            raise ChainParseError(f"malformed chain step {token!r}")
        kind = parse_kind(parts[0])
        try:
            rate = real(parts[1]) if len(parts) > 1 and parts[1] else 0.0
            seed = integer(parts[2]) if len(parts) > 2 and parts[2] else 0
        except ValueError as exc:
            raise ChainParseError(f"malformed chain step {token!r}") from exc
        try:
            specs.append(AugmentationSpec(kind, rate, seed))
        except ValueError as exc:
            raise ChainParseError(str(exc)) from exc
    return tuple(specs)


def format_chain(chain: Chain) -> str:
    """Inverse of :func:`parse_chain` (rates use shortest round-trip repr)."""
    return ",".join(f"{s.kind.value}:{s.rate!r}:{s.seed}" for s in chain)


def is_label_preserving(chain: Chain) -> bool:
    """True when every step of the chain guarantees the label."""
    return all(spec.is_label_preserving() for spec in chain)


def apply_chain(formula: Formula, chain: Chain) -> Formula:
    """Apply the steps left to right; the empty chain is the identity."""
    for spec in chain:
        formula = spec.apply(formula)
    return formula
