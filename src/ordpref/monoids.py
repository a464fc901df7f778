"""Closed submonoids of the monoid of binary relations on a state set.

A family of relations is a closed submonoid when it contains the identity
relation, is closed under composition, and is upward closed under inclusion.
Such a family is an up-set in the boolean lattice of relations, so it is
determined by its antichain of inclusion-minimal members.  Membership is
"some minimal member is a subset of the candidate".

Composition is inclusion-monotone in both arguments, so closure under
composition of the minimal members implies closure of the whole up-set;
construction validates exactly that, on the members' bits.  `closure()` is
the one builder from arbitrary relations: it takes the least such family by
a semi-naive fixed point on bits, where each round composes only the members
added in the round before, on the right with each minimal generator.

The canonical families are held in structural form instead: a relation is a
member iff it contains every cell of a `need` mask and meets every mask in a
`hit` list.  Beta-domination needs every column non-empty, its dual every
row, Pareto and the filters the diagonal cells of their base.  Membership
then costs at most 2n + 1 integer ANDs, and the minimal antichain is built
only when something asks for it.

`derive` tests a whole row of strategy pairs at once through `_select`, the
batch form of membership: each cell of the relation becomes a mask of the
candidates holding it, and the membership formula (the AND of `need` cells
and ORs of `hit` cells, or the OR over minimal members of the AND of their
cells) is evaluated on those masks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable

from .relations import (
    BinaryRelation,
    GroundSet,
    GroundSetMismatchError,
    bit_positions,
    column_masks,
    compose,
    compose_bits,
    row_masks,
)


class MonoidConstructionError(ValueError):
    """Raised when an antichain does not describe a closed submonoid, or is
    too large to build."""


def _minimal_bits(candidates: Iterable[int]) -> list[int]:
    """The inclusion-minimal relations among `candidates`, given by their
    bits, deduplicated.

    Taking candidates by increasing size means no later one is a proper
    subset of an earlier one, so a candidate is minimal iff no kept one is
    inside it.
    """
    out: list[int] = []
    for bits in sorted(set(candidates), key=int.bit_count):
        outside = ~bits
        if all(m & outside for m in out):
            out.append(bits)
    return out


def _covered(bits: int, members: set[int], antichain: Iterable[int]) -> bool:
    """Whether the relation with these bits contains a member of the
    antichain, whose bits are also given as the set `members`."""
    if bits in members:
        return True
    outside = ~bits
    return any(m & outside == 0 for m in antichain)


# Most candidates the minimal antichain of a structural monoid is picked
# from.  Every canonical family on up to 4 states fits (beta-both on 4 states
# has 2200); beta on 5 states (3125 co-function graphs) does not.
MAX_ANTICHAIN_CANDIDATES = 3_000

# Most relations `closure()` holds at once: its antichain so far plus the
# products of the current round that it does not cover.  Validating k
# members composes k^2 pairs: 0.15 s for the 256 function graphs of all
# maps on 4 states, which fit, about 0.6 s at this bound.  All maps on 5
# states (3125) do not fit, and are refused within milliseconds.
MAX_CLOSURE_MEMBERS = 500


@dataclass(frozen=True, eq=False)
class ClosedMonoid:
    """A closed submonoid held as its minimal antichain, put in row order
    (lexicographic by rows, row 0 first) and validated on construction;
    membership scans the antichain.  Equality and hashing go by the ground
    set and the minimal antichain, for every subclass too, so they do not
    depend on the order the antichain was given in."""

    ground: GroundSet
    min_antichain: tuple[BinaryRelation, ...]

    def __post_init__(self) -> None:
        members = tuple(self.min_antichain)
        if not members:
            raise MonoidConstructionError("antichain must be non-empty")
        for m in members:
            if m.ground != self.ground:
                raise GroundSetMismatchError("antichain member on wrong ground set")
        members = tuple(sorted(members, key=lambda r: r.rows))
        object.__setattr__(self, "min_antichain", members)
        antichain = [m.bits for m in members]
        for (i, a), (j, b) in itertools.combinations(enumerate(antichain), 2):
            if a & ~b == 0 or b & ~a == 0:
                raise MonoidConstructionError(
                    f"not an antichain: {members[i]} and {members[j]} are comparable"
                )
        bit_set = set(antichain)
        if not _covered(BinaryRelation.identity(self.ground).bits, bit_set, antichain):
            raise MonoidConstructionError("identity relation is not a member")
        n = self.ground.size
        for i, a in enumerate(antichain):
            for j, b in enumerate(antichain):
                prod = compose_bits(a, b, n)
                if not _covered(prod, bit_set, antichain):
                    raise MonoidConstructionError(
                        f"not composition-closed: {members[j]}*{members[i]} = "
                        f"{BinaryRelation(self.ground, prod)} escapes"
                    )

    def contains(self, rel: BinaryRelation) -> bool:
        # Subclasses override `_accepts`, not this: every per-relation
        # membership test passes here, where bench/replay.py counts them.
        # `derive` tests whole rows through `_select` instead.
        if rel.ground != self.ground:
            raise GroundSetMismatchError("relation on wrong ground set")
        return self._accepts(rel.bits)

    def _accepts(self, bits: int) -> bool:
        """Membership of the relation with these bits on `ground`."""
        outside = ~bits
        return any(m.bits & outside == 0 for m in self.min_antichain)

    @cached_property
    def _member_cells(self) -> tuple[tuple[int, ...], ...]:
        """The cells (bit positions) of each minimal member."""
        return tuple(tuple(bit_positions(m.bits)) for m in self.min_antichain)

    def _select(self, cells: list[int], full: int) -> int:
        """Batch membership: cells[c] is the mask of the candidates whose
        relation holds cell c, and the result is the mask of the members,
        within `full`.  Some minimal member holds only cells a candidate
        holds: the OR over members of the AND of their cells."""
        selected = 0
        for member in self._member_cells:
            mask = full
            for c in member:
                mask &= cells[c]
            selected |= mask
            if selected == full:
                break
        return selected

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClosedMonoid):
            return NotImplemented
        return self.ground == other.ground and self.min_antichain == other.min_antichain

    def __hash__(self) -> int:
        return hash((self.ground, self.min_antichain))

    def signature(self) -> str:
        return "|".join(str(m) for m in self.min_antichain)


class StructuralMonoid(ClosedMonoid):
    """The relations that contain every cell of `need` and meet every mask
    in `hit`; the caller vouches that they form a closed submonoid.

    Only the cell positions of the masks are taken up front: membership is
    read off the masks, and the minimal antichain is built and validated
    on first access.
    """

    def __init__(self, ground: GroundSet, need: int = 0, hit: Iterable[int] = ()) -> None:
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "need", need)
        object.__setattr__(self, "hit", tuple(hit))
        object.__setattr__(self, "_need_cells", tuple(bit_positions(need)))
        object.__setattr__(
            self, "_hit_cells", tuple(tuple(bit_positions(mask)) for mask in self.hit)
        )

    @cached_property
    def min_antichain(self) -> tuple[BinaryRelation, ...]:
        """Every minimal member is `need` plus one cell of each `hit` mask
        that the cells taken so far miss, so minimizing those candidates
        gives the antichain, which is then validated like a given one."""
        found = [self.need]
        for mask in self.hit:
            cells = [1 << c for c in bit_positions(mask)]
            found = [
                bits | cell for bits in found for cell in ((0,) if bits & mask else cells)
            ]
            if len(found) > MAX_ANTICHAIN_CANDIDATES:
                raise MonoidConstructionError(
                    f"the minimal members of this monoid on {self.ground.size} "
                    f"states have more than {MAX_ANTICHAIN_CANDIDATES} candidates"
                )
        antichain = tuple(BinaryRelation(self.ground, bits) for bits in _minimal_bits(found))
        return ClosedMonoid(self.ground, antichain).min_antichain

    def _accepts(self, bits: int) -> bool:
        if bits & self.need != self.need:
            return False
        for mask in self.hit:
            if not bits & mask:
                return False
        return True

    def _select(self, cells: list[int], full: int) -> int:
        """The AND of the `need` cells and, for each `hit` mask, of the OR
        of its cells; the antichain is never built."""
        selected = full
        for c in self._need_cells:
            selected &= cells[c]
        for group in self._hit_cells:
            hit = 0
            for c in group:
                hit |= cells[c]
            selected &= hit
        return selected

    def __repr__(self) -> str:
        return f"StructuralMonoid({self.ground!r}, {self.need:#x}, {self.hit!r})"


def closure(ground: GroundSet, generators: Iterable[BinaryRelation]) -> ClosedMonoid:
    """Least closed submonoid containing all generators.

    A semi-naive fixed point on bits.  Every member found is a product of
    the minimal generators, so once each member composed on the right with
    each minimal generator is covered, the up-set is closed: for members a
    and b = g1*...*gk, a*g1 covers some member a1, a1*g2 some a2, and so on
    up to a*b.  The up-set only grows, so what one round covers stays
    covered, and each round composes only the members the round before
    added.  Raises MonoidConstructionError as soon as the antichain and the
    round's uncovered products pass MAX_CLOSURE_MEMBERS.
    """
    gens = list(generators)
    for g in gens:
        if g.ground != ground:
            raise GroundSetMismatchError("generator on wrong ground set")
    n = ground.size
    identity = BinaryRelation.identity(ground).bits
    antichain = _minimal_bits([g.bits for g in gens] + [identity])
    factors = [g for g in antichain if g != identity]
    fresh = antichain
    while fresh:
        members = set(antichain)
        pending: set[int] = set()
        for a in fresh:
            for g in factors:
                prod = compose_bits(a, g, n)
                if prod in pending or _covered(prod, members, antichain):
                    continue
                pending.add(prod)
                if len(antichain) + len(pending) > MAX_CLOSURE_MEMBERS:
                    raise MonoidConstructionError(
                        f"the closure of these generators on {n} states "
                        f"holds more than {MAX_CLOSURE_MEMBERS} relations"
                    )
        antichain = _minimal_bits(antichain + list(pending))
        fresh = pending.intersection(antichain)
    return ClosedMonoid(ground, tuple(BinaryRelation(ground, bits) for bits in antichain))


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
    return closure(ground, [sigma])


def atom_monoid(ground: GroundSet, state: str) -> ClosedMonoid:
    """Reflexive relations plus everything containing the full relation with
    the single diagonal cell at `state` removed; an atom of the lattice."""
    if ground.size < 2:
        raise ValueError("atom monoid needs at least two states")
    cell = BinaryRelation.from_pairs(ground, [(state, state)])
    return closure(ground, [BinaryRelation.full(ground).difference(cell)])


# The named monoids in display order, each with its builder and whether it
# takes a state label (one monoid per state, as dictator=y1).
NAMED_MONOIDS: dict[str, tuple[Callable[..., ClosedMonoid], bool]] = {
    "pareto": (reflexive_monoid, False),
    "universal": (universal_monoid, False),
    "dictator": (dictator_monoid, True),
    "beta": (surjective_monoid, False),
    "dual-beta": (total_monoid, False),
    "beta-both": (beta_both_monoid, False),
    "atom": (atom_monoid, True),
}

