"""Closed submonoids of the monoid of binary relations on a state set.

A family of relations is a closed submonoid when it contains the identity
relation, is closed under composition, and is upward closed under inclusion.
Such a family is an up-set in the boolean lattice of relations, so it is
represented by its antichain of inclusion-minimal members.  Membership is
"some minimal member is a subset of the candidate".

Composition is inclusion-monotone in both arguments, so closure under
composition of the minimal members implies closure of the whole up-set;
construction validates exactly that.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from .relations import BinaryRelation, GroundSet, GroundSetMismatchError, compose


class MonoidConstructionError(ValueError):
    """Raised when an antichain does not describe a closed submonoid."""


def minimize(relations: Iterable[BinaryRelation]) -> list[BinaryRelation]:
    """Inclusion-minimal elements, deduplicated, in canonical row order
    (lexicographic by rows, row 0 first).

    Taking candidates by increasing size means no later one is a proper
    subset of an earlier one, so a candidate is minimal iff no kept one is
    inside it.
    """
    out: list[BinaryRelation] = []
    for r in sorted(set(relations), key=BinaryRelation.count):
        if not any(m.is_subset(r) for m in out):
            out.append(r)
    return sorted(out, key=lambda r: r.rows)


@dataclass(frozen=True)
class ClosedMonoid:
    ground: GroundSet
    min_antichain: tuple[BinaryRelation, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "min_antichain", tuple(self.min_antichain))
        if not self.min_antichain:
            raise MonoidConstructionError("antichain must be non-empty")
        for m in self.min_antichain:
            if m.ground != self.ground:
                raise GroundSetMismatchError("antichain member on wrong ground set")
        for a, b in itertools.combinations(self.min_antichain, 2):
            if a.is_subset(b) or b.is_subset(a):
                raise MonoidConstructionError(
                    f"not an antichain: {a} and {b} are comparable"
                )
        identity = BinaryRelation.identity(self.ground)
        if not self.contains(identity):
            raise MonoidConstructionError("identity relation is not a member")
        for a in self.min_antichain:
            for b in self.min_antichain:
                prod = compose(a, b)
                if not self.contains(prod):
                    raise MonoidConstructionError(
                        f"not composition-closed: {b}*{a} = {prod} escapes"
                    )

    @classmethod
    def from_antichain(
        cls, ground: GroundSet, relations: Iterable[BinaryRelation]
    ) -> "ClosedMonoid":
        return cls(ground, tuple(minimize(relations)))

    def contains(self, rel: BinaryRelation) -> bool:
        if rel.ground != self.ground:
            raise GroundSetMismatchError("relation on wrong ground set")
        outside = ~rel.bits
        return any(m.bits & outside == 0 for m in self.min_antichain)

    def includes(self, other: "ClosedMonoid") -> bool:
        """Monoid inclusion: every member of `other` is a member of self."""
        return all(self.contains(m) for m in other.min_antichain)

    def dual(self) -> "ClosedMonoid":
        return ClosedMonoid.from_antichain(
            self.ground, (m.inverse() for m in self.min_antichain)
        )

    def is_self_dual(self) -> bool:
        return self == self.dual()

    def all_have_fixed_point(self) -> bool:
        # Fixed points persist upward under inclusion, so checking the
        # minimal members decides the whole up-set.
        return all(m.has_fixed_point() for m in self.min_antichain)

    def signature(self) -> str:
        return "|".join(str(m) for m in self.min_antichain)


def closure(ground: GroundSet, generators: Iterable[BinaryRelation]) -> ClosedMonoid:
    """Least closed submonoid containing all generators."""
    gens = list(generators)
    for g in gens:
        if g.ground != ground:
            raise GroundSetMismatchError("generator on wrong ground set")
    antichain = minimize(gens + [BinaryRelation.identity(ground)])
    while True:
        fresh = []
        for a in antichain:
            for b in antichain:
                prod = compose(a, b)
                if not any(m.is_subset(prod) for m in antichain):
                    fresh.append(prod)
        if not fresh:
            break
        antichain = minimize(antichain + fresh)
    return ClosedMonoid(ground, tuple(antichain))


# -- canonical families ------------------------------------------------------


def reflexive_monoid(ground: GroundSet) -> ClosedMonoid:
    """All reflexive relations; induces Pareto-domination."""
    return ClosedMonoid(ground, (BinaryRelation.identity(ground),))


def universal_monoid(ground: GroundSet) -> ClosedMonoid:
    """All relations; induces the complete preference."""
    return ClosedMonoid(ground, (BinaryRelation.empty(ground),))


def surjective_monoid(ground: GroundSet) -> ClosedMonoid:
    """Relations whose second projection covers the states; beta-domination.

    The minimal members are the co-function graphs {(g(y), y)}.
    """
    n = ground.size
    rels = [
        BinaryRelation.from_index_pairs(ground, ((g[j], j) for j in range(n)))
        for g in itertools.product(range(n), repeat=n)
    ]
    return ClosedMonoid.from_antichain(ground, rels)


def total_monoid(ground: GroundSet) -> ClosedMonoid:
    """Everywhere defined relations; dual beta-domination."""
    n = ground.size
    rels = [
        BinaryRelation.from_index_pairs(ground, ((i, g[i]) for i in range(n)))
        for g in itertools.product(range(n), repeat=n)
    ]
    return ClosedMonoid.from_antichain(ground, rels)


def beta_both_monoid(ground: GroundSet) -> ClosedMonoid:
    """Everywhere defined surjective relations; meet of beta and dual beta."""
    return meet(surjective_monoid(ground), total_monoid(ground))


def filter_monoid(ground: GroundSet, base: Iterable[str]) -> ClosedMonoid:
    """Relations whose diagonal covers the principal filter base."""
    base_labels = list(base)
    if not base_labels:
        raise ValueError("filter base must be non-empty")
    gen = BinaryRelation.from_pairs(ground, ((y, y) for y in base_labels))
    return ClosedMonoid(ground, (gen,))


def dictator_monoid(ground: GroundSet, state: str) -> ClosedMonoid:
    return filter_monoid(ground, [state])


def idempotent_monoid(ground: GroundSet, sigma: BinaryRelation) -> ClosedMonoid:
    """Monoid generated by a single idempotent relation: reflexive relations
    plus everything containing sigma."""
    if compose(sigma, sigma) != sigma:
        raise ValueError(f"relation {sigma} is not idempotent; use closure() instead")
    return ClosedMonoid.from_antichain(
        ground, [BinaryRelation.identity(ground), sigma]
    )


def atom_monoid(ground: GroundSet, state: str) -> ClosedMonoid:
    """Reflexive relations plus everything containing the full relation with
    the single diagonal cell at `state` removed; an atom of the lattice."""
    if ground.size < 2:
        raise ValueError("atom monoid needs at least two states")
    cell = BinaryRelation.from_pairs(ground, [(state, state)])
    near_full = BinaryRelation.full(ground).difference(cell)
    return ClosedMonoid.from_antichain(
        ground, [BinaryRelation.identity(ground), near_full]
    )


# -- lattice operations ------------------------------------------------------


def meet(a: ClosedMonoid, b: ClosedMonoid) -> ClosedMonoid:
    """Intersection of the two membership sets."""
    if a.ground != b.ground:
        raise GroundSetMismatchError("monoids on different ground sets")
    unions = [x.union(y) for x in a.min_antichain for y in b.min_antichain]
    return ClosedMonoid.from_antichain(a.ground, unions)


def join(a: ClosedMonoid, b: ClosedMonoid) -> ClosedMonoid:
    """Least closed submonoid containing both."""
    if a.ground != b.ground:
        raise GroundSetMismatchError("monoids on different ground sets")
    return closure(a.ground, a.min_antichain + b.min_antichain)

