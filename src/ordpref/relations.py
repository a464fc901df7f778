"""Finite binary relations over an indexed ground set.

A relation is stored densely as one bitmask per row: bit ``j`` of
``rows[i]`` is set iff the pair (element i, element j) belongs to the
relation.  Bitmask rows keep composition and subset tests word-parallel,
which matters when enumerating all 2^(n*n) relations on a small set.

All values are immutable; operations return new values.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator


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

    def __iter__(self) -> Iterator[str]:
        return iter(self.labels)

    def __len__(self) -> int:
        return len(self.labels)


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


@dataclass(frozen=True)
class BinaryRelation:
    ground: GroundSet
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(self.rows))
        n = self.ground.size
        if len(self.rows) != n:
            raise ValueError(f"expected {n} rows, got {len(self.rows)}")
        full = (1 << n) - 1
        for r in self.rows:
            if r & ~full:
                raise ValueError(f"row mask {r:#x} exceeds ground size {n}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def empty(cls, ground: GroundSet) -> "BinaryRelation":
        return cls(ground, (0,) * ground.size)

    @classmethod
    def identity(cls, ground: GroundSet) -> "BinaryRelation":
        return cls(ground, tuple(1 << i for i in range(ground.size)))

    @classmethod
    def full(cls, ground: GroundSet) -> "BinaryRelation":
        mask = (1 << ground.size) - 1
        return cls(ground, (mask,) * ground.size)

    @classmethod
    def from_pairs(cls, ground: GroundSet, pairs: Iterable[tuple[str, str]]) -> "BinaryRelation":
        rows = [0] * ground.size
        for u, v in pairs:
            rows[ground.index(u)] |= 1 << ground.index(v)
        return cls(ground, tuple(rows))

    @classmethod
    def from_index_pairs(cls, ground: GroundSet, pairs: Iterable[tuple[int, int]]) -> "BinaryRelation":
        rows = [0] * ground.size
        for i, j in pairs:
            rows[i] |= 1 << j
        return cls(ground, tuple(rows))

    # -- queries -----------------------------------------------------------

    def holds(self, u: str, v: str) -> bool:
        return bool(self.rows[self.ground.index(u)] >> self.ground.index(v) & 1)

    def holds_index(self, i: int, j: int) -> bool:
        return bool(self.rows[i] >> j & 1)

    def index_pairs(self) -> tuple[tuple[int, int], ...]:
        n = self.ground.size
        return tuple(
            (i, j) for i in range(n) for j in range(n) if self.rows[i] >> j & 1
        )

    def pairs(self) -> tuple[tuple[str, str], ...]:
        labs = self.ground.labels
        return tuple((labs[i], labs[j]) for i, j in self.index_pairs())

    def count(self) -> int:
        return sum(r.bit_count() for r in self.rows)

    def __str__(self) -> str:
        return "{" + ", ".join(f"({u},{v})" for u, v in self.pairs()) + "}"

    # -- boolean algebra ---------------------------------------------------

    def union(self, other: "BinaryRelation") -> "BinaryRelation":
        _check_same_ground(self, other)
        return BinaryRelation(self.ground, tuple(a | b for a, b in zip(self.rows, other.rows)))

    def intersection(self, other: "BinaryRelation") -> "BinaryRelation":
        _check_same_ground(self, other)
        return BinaryRelation(self.ground, tuple(a & b for a, b in zip(self.rows, other.rows)))

    def difference(self, other: "BinaryRelation") -> "BinaryRelation":
        _check_same_ground(self, other)
        return BinaryRelation(self.ground, tuple(a & ~b for a, b in zip(self.rows, other.rows)))

    def is_subset(self, other: "BinaryRelation") -> bool:
        _check_same_ground(self, other)
        return all(a & ~b == 0 for a, b in zip(self.rows, other.rows))

    def inverse(self) -> "BinaryRelation":
        n = self.ground.size
        rows = [0] * n
        for i in range(n):
            r = self.rows[i]
            while r:
                j = (r & -r).bit_length() - 1
                rows[j] |= 1 << i
                r &= r - 1
        return BinaryRelation(self.ground, tuple(rows))

    # -- projections and predicates ----------------------------------------

    def pr1(self) -> frozenset[str]:
        labs = self.ground.labels
        return frozenset(labs[i] for i, r in enumerate(self.rows) if r)

    def pr2(self) -> frozenset[str]:
        labs = self.ground.labels
        mask = 0
        for r in self.rows:
            mask |= r
        return frozenset(labs[j] for j in range(self.ground.size) if mask >> j & 1)

    def pr_diag(self) -> frozenset[str]:
        labs = self.ground.labels
        return frozenset(labs[i] for i, r in enumerate(self.rows) if r >> i & 1)

    def projections(self) -> tuple[frozenset[str], frozenset[str], frozenset[str]]:
        return self.pr1(), self.pr2(), self.pr_diag()

    def has_fixed_point(self) -> bool:
        return any(r >> i & 1 for i, r in enumerate(self.rows))

    def is_reflexive(self) -> bool:
        return all(r >> i & 1 for i, r in enumerate(self.rows))

    def is_transitive(self) -> bool:
        return compose(self, self).is_subset(self)

    def is_antisymmetric(self) -> bool:
        return self.intersection(self.inverse()).is_subset(BinaryRelation.identity(self.ground))

    def classify(self) -> RelationProfile:
        n = self.ground.size
        full = (1 << n) - 1
        reflexive = self.is_reflexive()
        square = compose(self, self)
        transitive = square.is_subset(self)
        idempotent = square == self
        antisymmetric = self.is_antisymmetric()
        col_mask = 0
        for r in self.rows:
            col_mask |= r
        surjective = col_mask == full
        total = all(r != 0 for r in self.rows)
        preorder = reflexive and transitive
        return RelationProfile(
            reflexive=reflexive,
            transitive=transitive,
            antisymmetric=antisymmetric,
            preorder=preorder,
            partial_order=preorder and antisymmetric,
            idempotent=idempotent,
            surjective=surjective,
            total=total,
        )

    def transitive_closure(self) -> "BinaryRelation":
        rows = list(self.rows)
        n = self.ground.size
        for k in range(n):
            bit = 1 << k
            row_k = rows[k]
            for i in range(n):
                if rows[i] & bit:
                    rows[i] |= row_k
        return BinaryRelation(self.ground, tuple(rows))


def compose(first: BinaryRelation, then: BinaryRelation) -> BinaryRelation:
    """Chase pairs through `first` and then `then`.

    result(i, k) holds iff there is j with first(i, j) and then(j, k).
    In conventional right-to-left notation this is `then . first`.
    """
    _check_same_ground(first, then)
    n = first.ground.size
    rows = []
    for i in range(n):
        acc = 0
        r = first.rows[i]
        while r:
            j = (r & -r).bit_length() - 1
            acc |= then.rows[j]
            r &= r - 1
        rows.append(acc)
    return BinaryRelation(first.ground, tuple(rows))


def all_relations(ground: GroundSet) -> Iterator[BinaryRelation]:
    """All 2^(n*n) relations on `ground`, in a fixed deterministic order."""
    n = ground.size
    row_values = range(1 << n)
    for rows in itertools.product(row_values, repeat=n):
        yield BinaryRelation(ground, rows)
