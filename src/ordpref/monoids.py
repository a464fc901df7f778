"""Closed submonoids of the monoid of binary relations on a state set.

A family of relations is a closed submonoid when it contains the identity
relation, is closed under composition, and is upward closed under inclusion.
Such a family is an up-set in the boolean lattice of relations, so it is
determined by its antichain of inclusion-minimal members.  Membership is
"some minimal member is a subset of the candidate".

Composition is inclusion-monotone in both arguments, so closure under
composition of the minimal members implies closure of the whole up-set;
construction validates exactly that.

The canonical families are held in structural form instead: a relation is a
member iff it contains every cell of a `need` mask and meets every mask in a
`hit` list.  Beta-domination needs every column non-empty, its dual every
row, Pareto and the filters the diagonal cells of their base.  Membership
then costs at most 2n + 1 integer ANDs, and the minimal antichain is built
only when something asks for it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .relations import (
    BinaryRelation,
    GroundSet,
    GroundSetMismatchError,
    column_masks,
    compose,
    row_masks,
)


class MonoidConstructionError(ValueError):
    """Raised when an antichain does not describe a closed submonoid, or is
    too large to build."""


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


# Most candidates the minimal antichain of a structural monoid is picked
# from.  Every canonical family on up to 4 states fits (beta-both on 4 states
# has 2200); beta on 5 states (3125 co-function graphs) does not.
MAX_ANTICHAIN_CANDIDATES = 3_000


@dataclass(frozen=True, eq=False)
class ClosedMonoid:
    """A closed submonoid held as its minimal antichain, validated on
    construction; membership scans the antichain.  Equality and hashing go by
    the ground set and the minimal antichain, for every subclass too."""

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
        # Subclasses override `_accepts`, not this: every membership test of
        # every form passes here, where bench/replay.py counts them.
        if rel.ground != self.ground:
            raise GroundSetMismatchError("relation on wrong ground set")
        return self._accepts(rel.bits)

    def _accepts(self, bits: int) -> bool:
        """Membership of the relation with these bits on `ground`."""
        outside = ~bits
        return any(m.bits & outside == 0 for m in self.min_antichain)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClosedMonoid):
            return NotImplemented
        return self.ground == other.ground and self.min_antichain == other.min_antichain

    def __hash__(self) -> int:
        return hash((self.ground, self.min_antichain))

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


class StructuralMonoid(ClosedMonoid):
    """The relations that contain every cell of `need` and meet every mask
    in `hit`; the caller vouches that they form a closed submonoid.

    Nothing is built up front: membership is read off the masks, and the
    minimal antichain is built and validated on first access.
    """

    def __init__(self, ground: GroundSet, need: int = 0, hit: Iterable[int] = ()) -> None:
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "need", need)
        object.__setattr__(self, "hit", tuple(hit))

    @cached_property
    def min_antichain(self) -> tuple[BinaryRelation, ...]:
        """Every minimal member is `need` plus one cell of each `hit` mask
        that the cells taken so far miss, so minimizing those candidates
        gives the antichain, which is then validated like a given one."""
        found = [self.need]
        for mask in self.hit:
            cells = [1 << k for k in range(mask.bit_length()) if mask >> k & 1]
            found = [
                bits | cell for bits in found for cell in ((0,) if bits & mask else cells)
            ]
            if len(found) > MAX_ANTICHAIN_CANDIDATES:
                raise MonoidConstructionError(
                    f"the minimal members of this monoid on {self.ground.size} "
                    f"states have more than {MAX_ANTICHAIN_CANDIDATES} candidates"
                )
        rels = (BinaryRelation(self.ground, bits) for bits in found)
        return ClosedMonoid(self.ground, minimize(rels)).min_antichain

    def _accepts(self, bits: int) -> bool:
        if bits & self.need != self.need:
            return False
        for mask in self.hit:
            if not bits & mask:
                return False
        return True

    def __repr__(self) -> str:
        return f"StructuralMonoid({self.ground!r}, {self.need:#x}, {self.hit!r})"


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
    return StructuralMonoid(ground, need=BinaryRelation.identity(ground).bits)


def universal_monoid(ground: GroundSet) -> ClosedMonoid:
    """All relations; induces the complete preference."""
    return StructuralMonoid(ground)


def surjective_monoid(ground: GroundSet) -> ClosedMonoid:
    """Relations whose second projection covers the states: every column is
    non-empty; beta-domination.  The minimal members are the co-function
    graphs {(g(y), y)}."""
    return StructuralMonoid(ground, hit=column_masks(ground.size))


def total_monoid(ground: GroundSet) -> ClosedMonoid:
    """Everywhere defined relations: every row is non-empty; dual
    beta-domination."""
    return StructuralMonoid(ground, hit=row_masks(ground.size))


def beta_both_monoid(ground: GroundSet) -> ClosedMonoid:
    """Everywhere defined surjective relations; meet of beta and dual beta."""
    n = ground.size
    return StructuralMonoid(ground, hit=column_masks(n) + row_masks(n))


def filter_monoid(ground: GroundSet, base: Iterable[str]) -> ClosedMonoid:
    """Relations whose diagonal covers the principal filter base."""
    base_labels = list(base)
    if not base_labels:
        raise ValueError("filter base must be non-empty")
    gen = BinaryRelation.from_pairs(ground, ((y, y) for y in base_labels))
    return StructuralMonoid(ground, need=gen.bits)


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

