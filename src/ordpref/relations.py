"""Finite binary relations over an indexed ground set.

A relation on n elements is one n*n-bit integer: the pair (element i,
element j) belongs to it iff bit n*i + j is set, so row i is the n-bit mask
``(bits >> n*i) & (2^n - 1)``.  Union, intersection, difference, inclusion
and equality are single integer operations, and the relations on a set are
the integers below 2^(n*n).  Pair-chasing operations unpack the rows once
and walk bits only inside a row, never across the whole packed integer.

All values are immutable; operations return new values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import lshift, or_
from typing import Iterable, Iterator, Sequence


class GroundSetMismatchError(ValueError):
    """Raised when relations over different ground sets are combined."""


@dataclass(frozen=True)
class GroundSet:
    """An ordered finite set of distinct labels; index i <-> labels[i]."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        if not self.labels:
            raise ValueError("ground set must contain at least one element")
        for lab in self.labels:
            if not isinstance(lab, str) or not lab:
                raise ValueError(f"labels must be non-empty strings, got {lab!r}")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"labels must be pairwise distinct: {self.labels}")

    @property
    def size(self) -> int:
        return len(self.labels)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise KeyError(f"unknown label {label!r}") from None

    def __contains__(self, label: object) -> bool:
        return label in self._index


def _check_same_ground(a: "BinaryRelation", b: "BinaryRelation") -> None:
    if a.ground != b.ground:
        raise GroundSetMismatchError(
            f"ground sets differ: {a.ground.labels} vs {b.ground.labels}"
        )


@dataclass(frozen=True)
class RelationProfile:
    reflexive: bool
    transitive: bool
    antisymmetric: bool
    preorder: bool
    partial_order: bool
    idempotent: bool
    surjective: bool
    total: bool


def pack_rows(rows: Iterable[int], n: int) -> int:
    """The bits of the relation on n elements whose row i is rows[i].  Each
    row must be below 2^n; that is not checked here."""
    return sum(map(lshift, rows, range(0, n * n, n)))


def row_masks(n: int) -> list[int]:
    """For each element i, the bits of all cells (i, j) on n elements."""
    full = (1 << n) - 1
    return [full << n * i for i in range(n)]


def column_masks(n: int) -> list[int]:
    """For each element j, the bits of all cells (i, j) on n elements."""
    column = pack_rows([1] * n, n)
    return [column << j for j in range(n)]


def bit_positions(mask: int) -> Iterator[int]:
    """Positions of the set bits of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class BinaryRelation:
    ground: GroundSet
    bits: int

    def __post_init__(self) -> None:
        n = self.ground.size
        if self.bits < 0 or self.bits.bit_length() > n * n:
            raise ValueError(f"relation bits {self.bits:#x} exceed ground size {n}")

    def __hash__(self) -> int:
        return hash(self.bits)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rows(cls, ground: GroundSet, rows: Sequence[int]) -> "BinaryRelation":
        """Pack row masks: bit j of rows[i] is the pair (i, j)."""
        n = ground.size
        if len(rows) != n or min(rows) < 0 or max(rows) >> n:
            raise ValueError(f"expected {n} row masks below 2^{n}, got {rows!r}")
        return cls(ground, pack_rows(rows, n))

    @classmethod
    def identity(cls, ground: GroundSet) -> "BinaryRelation":
        n = ground.size
        return cls(ground, sum(1 << (n + 1) * i for i in range(n)))

    @classmethod
    def full(cls, ground: GroundSet) -> "BinaryRelation":
        return cls(ground, (1 << ground.size**2) - 1)

    @classmethod
    def from_pairs(cls, ground: GroundSet, pairs: Iterable[tuple[str, str]]) -> "BinaryRelation":
        return cls.from_index_pairs(
            ground, ((ground.index(u), ground.index(v)) for u, v in pairs)
        )

    @classmethod
    def from_index_pairs(cls, ground: GroundSet, pairs: Iterable[tuple[int, int]]) -> "BinaryRelation":
        rows = [0] * ground.size
        for i, j in pairs:
            rows[i] |= 1 << j
        return cls.from_rows(ground, rows)

    # -- queries -----------------------------------------------------------

    @property
    def rows(self) -> tuple[int, ...]:
        """Row masks, unpacked from `bits`: bit j of rows[i] is the pair (i, j)."""
        n = self.ground.size
        full = (1 << n) - 1
        return tuple([self.bits >> k & full for k in range(0, n * n, n)])

    def holds(self, u: str, v: str) -> bool:
        return self.holds_index(self.ground.index(u), self.ground.index(v))

    def holds_index(self, i: int, j: int) -> bool:
        n = self.ground.size
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError(f"cell ({i}, {j}) outside a ground set of size {n}")
        return bool(self.bits >> n * i + j & 1)

    def index_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((i, j) for i, r in enumerate(self.rows) for j in bit_positions(r))

    def pairs(self) -> tuple[tuple[str, str], ...]:
        labs = self.ground.labels
        return tuple((labs[i], labs[j]) for i, j in self.index_pairs())

    def __str__(self) -> str:
        return "{" + ", ".join(f"({u},{v})" for u, v in self.pairs()) + "}"

    # -- boolean algebra ---------------------------------------------------

    def union(self, other: "BinaryRelation") -> "BinaryRelation":
        _check_same_ground(self, other)
        return BinaryRelation(self.ground, self.bits | other.bits)

    def intersection(self, other: "BinaryRelation") -> "BinaryRelation":
        _check_same_ground(self, other)
        return BinaryRelation(self.ground, self.bits & other.bits)

    def difference(self, other: "BinaryRelation") -> "BinaryRelation":
        _check_same_ground(self, other)
        return BinaryRelation(self.ground, self.bits & ~other.bits)

    def is_subset(self, other: "BinaryRelation") -> bool:
        _check_same_ground(self, other)
        return self.bits & ~other.bits == 0

    def inverse(self) -> "BinaryRelation":
        rows = [0] * self.ground.size
        for i, r in enumerate(self.rows):
            for j in bit_positions(r):
                rows[j] |= 1 << i
        return BinaryRelation.from_rows(self.ground, rows)

    # -- predicates --------------------------------------------------------

    def is_reflexive(self) -> bool:
        return BinaryRelation.identity(self.ground).is_subset(self)

    def is_transitive(self) -> bool:
        return compose(self, self).is_subset(self)

    def classify(self) -> RelationProfile:
        rows = self.rows
        reflexive = self.is_reflexive()
        square = compose(self, self)
        transitive = square.is_subset(self)
        symmetric_part = self.intersection(self.inverse())
        antisymmetric = symmetric_part.is_subset(BinaryRelation.identity(self.ground))
        preorder = reflexive and transitive
        return RelationProfile(
            reflexive=reflexive,
            transitive=transitive,
            antisymmetric=antisymmetric,
            preorder=preorder,
            partial_order=preorder and antisymmetric,
            idempotent=square == self,
            surjective=reduce(or_, rows) == (1 << self.ground.size) - 1,
            total=all(rows),
        )

    def transitive_closure(self) -> "BinaryRelation":
        rel = self
        while True:
            wider = rel.union(compose(rel, rel))
            if wider == rel:
                return rel
            rel = wider


def compose_bits(first: int, then: int, n: int) -> int:
    """The bits of `compose` for two relations on n elements given by their
    bits.

    Row i of the result is the union of the rows j of `then` with (i, j) in
    `first`.  For each j, ``first >> j & column`` has bit n*i set for
    exactly those i, so multiplying it by row j of `then` copies that row
    into each of them; the copies do not overlap, so no carries occur.
    """
    full = (1 << n) - 1
    column = ((1 << n * n) - 1) // full  # bit n*i for every row i
    bits = 0
    for j in range(n):
        bits |= (first >> j & column) * (then >> n * j & full)
    return bits


def compose(first: BinaryRelation, then: BinaryRelation) -> BinaryRelation:
    """Chase pairs through `first` and then `then`.

    result(i, k) holds iff there is j with first(i, j) and then(j, k).
    In conventional right-to-left notation this is `then . first`.
    """
    _check_same_ground(first, then)
    n = first.ground.size
    return BinaryRelation(first.ground, compose_bits(first.bits, then.bits, n))


def all_relations(ground: GroundSet) -> Iterator[BinaryRelation]:
    """All 2^(n*n) relations on `ground`, in the order of their bits."""
    for bits in range(1 << ground.size**2):
        yield BinaryRelation(ground, bits)
