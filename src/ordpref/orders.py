"""Validated partial orders on outcome sets and the map machinery above them.

`pullback` takes two maps phi, psi from states to outcomes and an order on
the outcomes, and gives the relation on states pairing y1 with y2 whenever
phi(y1) <= psi(y2).  It is the defining form of a state preference:
`dmp.state_preference` reads the same relation off a per-game table of
strategy masks, from which `derive` takes the cells of every pair of a row at
once, and the tests compare them with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .relations import BinaryRelation, GroundSet


class OrderValidationError(ValueError):
    """Raised when a relation fails the partial-order axioms."""


@dataclass(frozen=True)
class PartialOrder:
    ground: GroundSet
    leq: BinaryRelation

    def __post_init__(self) -> None:
        if self.leq.ground != self.ground:
            raise OrderValidationError("order relation lives on a different ground set")
        leq = self.leq
        if not leq.is_reflexive():
            raise OrderValidationError("order must be reflexive")
        if not leq.is_transitive():
            raise OrderValidationError("order must be transitive")
        identity = BinaryRelation.identity(self.ground)
        cycles = leq.intersection(leq.inverse()).difference(identity).pairs()
        if cycles:
            u, v = cycles[0]
            raise OrderValidationError(
                f"order must be antisymmetric; cycle between {u!r} and {v!r}"
            )

    def inverse(self) -> "PartialOrder":
        return PartialOrder(self.ground, self.leq.inverse())


def from_comparabilities(ground: GroundSet, pairs: Iterable[tuple[str, str]]) -> PartialOrder:
    """Reflexive-transitive closure of the given u <= v pairs.

    Raises OrderValidationError naming one offending cycle if the closure
    fails antisymmetry.
    """
    base = BinaryRelation.from_pairs(ground, pairs)
    leq = base.union(BinaryRelation.identity(ground)).transitive_closure()
    return PartialOrder(ground, leq)


@dataclass(frozen=True)
class OutcomeMap:
    """A map from states to outcomes, stored as codomain indices."""

    domain: GroundSet
    codomain: GroundSet
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        if len(self.values) != self.domain.size:
            raise ValueError(
                f"expected {self.domain.size} values, got {len(self.values)}"
            )
        for v in self.values:
            if not 0 <= v < self.codomain.size:
                raise ValueError(f"value index {v} out of range for codomain")


def _check_shapes(phi: OutcomeMap, psi: OutcomeMap, order: PartialOrder) -> None:
    if phi.domain != psi.domain or phi.codomain != psi.codomain:
        raise ValueError("maps must share domain and codomain")
    if phi.codomain != order.ground:
        raise ValueError("map codomain must be the order's ground set")


def pullback(phi: OutcomeMap, psi: OutcomeMap, order: PartialOrder) -> BinaryRelation:
    """Relation on the shared domain: (y1, y2) iff phi(y1) <= psi(y2)."""
    _check_shapes(phi, psi, order)
    up = order.leq.rows
    rows = [
        sum(1 << j for j, b in enumerate(psi.values) if up[a] >> b & 1)
        for a in phi.values
    ]
    return BinaryRelation.from_rows(phi.domain, rows)
