"""Validated partial orders on outcome sets and the map machinery above them.

The central operation is `pullback`: given two maps phi, psi from states to
outcomes and an order on the outcomes, it produces the relation on states
pairing y1 with y2 whenever phi(y1) <= psi(y2).  Everything the preference
engine derives reduces to membership tests on such pullbacks.
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
        profile = self.leq.classify()
        if not profile.reflexive:
            raise OrderValidationError("order must be reflexive")
        if not profile.transitive:
            raise OrderValidationError("order must be transitive")
        if not profile.antisymmetric:
            cycle = _find_symmetric_pair(self.leq)
            raise OrderValidationError(
                f"order must be antisymmetric; cycle between {cycle[0]!r} and {cycle[1]!r}"
            )

    @classmethod
    def trivial(cls, ground: GroundSet) -> "PartialOrder":
        return cls(ground, BinaryRelation.identity(ground))

    def le(self, u: str, v: str) -> bool:
        return self.leq.holds(u, v)

    def lt(self, u: str, v: str) -> bool:
        return u != v and self.leq.holds(u, v)

    def inverse(self) -> "PartialOrder":
        return PartialOrder(self.ground, self.leq.inverse())


def _find_symmetric_pair(rel: BinaryRelation) -> tuple[str, str]:
    sym = rel.intersection(rel.inverse())
    for u, v in sym.pairs():
        if u != v:
            return u, v
    raise AssertionError("no symmetric pair in an antisymmetric relation")


def from_comparabilities(ground: GroundSet, pairs: Iterable[tuple[str, str]]) -> PartialOrder:
    """Reflexive-transitive closure of the given u <= v pairs.

    Raises OrderValidationError naming one offending cycle if the closure
    fails antisymmetry.
    """
    base = BinaryRelation.from_pairs(ground, pairs)
    leq = base.union(BinaryRelation.identity(ground)).transitive_closure()
    return PartialOrder(ground, leq)


def strict_part(order: PartialOrder) -> BinaryRelation:
    return order.leq.difference(BinaryRelation.identity(order.ground))


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

    @classmethod
    def from_labels(cls, domain: GroundSet, codomain: GroundSet, labels: Iterable[str]) -> "OutcomeMap":
        return cls(domain, codomain, tuple(codomain.index(lab) for lab in labels))

    def apply(self, label: str) -> str:
        return self.codomain.labels[self.values[self.domain.index(label)]]

    def image_labels(self) -> tuple[str, ...]:
        return tuple(self.codomain.labels[v] for v in self.values)


def _check_shapes(phi: OutcomeMap, psi: OutcomeMap, order: PartialOrder) -> None:
    if phi.domain != psi.domain or phi.codomain != psi.codomain:
        raise ValueError("maps must share domain and codomain")
    if phi.codomain != order.ground:
        raise ValueError("map codomain must be the order's ground set")


def pullback(phi: OutcomeMap, psi: OutcomeMap, order: PartialOrder) -> BinaryRelation:
    """Relation on the shared domain: (y1, y2) iff phi(y1) <= psi(y2)."""
    _check_shapes(phi, psi, order)
    n = phi.domain.size
    rows = []
    for i in range(n):
        a = phi.values[i]
        acc = 0
        for j in range(n):
            if order.leq.holds_index(a, psi.values[j]):
                acc |= 1 << j
        rows.append(acc)
    return BinaryRelation(phi.domain, tuple(rows))


def down_set(order: PartialOrder, subset: Iterable[str], mode: str = "bounds") -> frozenset[str]:
    """Elements below `subset`.

    mode="bounds": common lower bounds, {a | a <= s for every s in subset}.
    mode="union":  union of principal ideals, {a | a <= s for some s}.
    """
    idx = [order.ground.index(s) for s in subset]
    if mode not in ("bounds", "union"):
        raise ValueError(f"mode must be 'bounds' or 'union', got {mode!r}")
    labs = order.ground.labels
    out = []
    for a in range(order.ground.size):
        hits = (order.leq.holds_index(a, s) for s in idx)
        if all(hits) if mode == "bounds" else any(hits):
            out.append(labs[a])
    return frozenset(out)
