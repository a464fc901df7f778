"""Decision-making problems with partially ordered outcomes.

A problem is a strategy set, a state set, a partially ordered outcome set,
and a realization table assigning an outcome to every (strategy, state)
situation.  From it we compute Pareto and state-preference relations,
monoid-derived preferences, the alpha/beta domination notions, guaranteed
outcome sets and saddle points, plus the morphism and consistency checks
that keep derived preferences honest.

Orientation convention: a pair (x1, x2) in a preference means "x2 is at
least as preferable as x1".
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import and_, or_
from typing import Iterable, Mapping

from .monoids import ClosedMonoid, reflexive_monoid
from .orders import OutcomeMap, PartialOrder
# Not used here: kept as `dmp.pullback`, the name bench/replay.py counts
# pullback calls through.
from .orders import pullback  # noqa: F401
from .relations import BinaryRelation, GroundSet, GroundSetMismatchError, pack_rows


class MorphismError(ValueError):
    """Raised when a candidate map between problems is not a morphism."""


@dataclass(frozen=True)
class DMP:
    strategies: GroundSet
    states: GroundSet
    outcomes: PartialOrder
    table: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "table", tuple(tuple(row) for row in self.table))
        if len(self.table) != self.strategies.size:
            raise ValueError("table must have one row per strategy")
        for row in self.table:
            if len(row) != self.states.size:
                raise ValueError("every table row must have one entry per state")
            for v in row:
                if not 0 <= v < self.outcomes.ground.size:
                    raise ValueError(f"outcome index {v} out of range")

    @classmethod
    def from_labels(
        cls,
        strategies: GroundSet,
        states: GroundSet,
        outcomes: PartialOrder,
        rows: Mapping[str, Iterable[str]],
    ) -> "DMP":
        table = tuple(
            tuple(outcomes.ground.index(lab) for lab in rows[x])
            for x in strategies.labels
        )
        return cls(strategies, states, outcomes, table)

    def f_star(self, x: str) -> OutcomeMap:
        i = self.strategies.index(x)
        return OutcomeMap(self.states, self.outcomes.ground, self.table[i])

    @cached_property
    def _at(self) -> list[list[int]]:
        """at[t][b] is the mask of the strategies x with F(x, y_t) = b."""
        at = [[0] * self.outcomes.ground.size for _ in range(self.states.size)]
        for k, row in enumerate(self.table):
            for t, b in enumerate(row):
                at[t][b] |= 1 << k
        return at

    @cached_property
    def _reach(self) -> list[list[int]]:
        """reach[t][a] is the mask of the strategies x with a <= F(x, y_t),
        built once per game; the `at` masks of a state are disjoint, so
        their sum is their union."""
        above = self.outcomes.leq.rows
        return [
            [sum(m for b, m in enumerate(at) if up >> b & 1) for up in above]
            for at in self._at
        ]


@dataclass(frozen=True)
class Preference:
    """A preorder on the strategy set."""

    ground: GroundSet
    rel: BinaryRelation

    def __post_init__(self) -> None:
        if self.rel.ground != self.ground:
            raise ValueError("preference relation on wrong ground set")
        if not (self.rel.is_reflexive() and self.rel.is_transitive()):
            raise ValueError("preference must be a preorder (reflexive and transitive)")

    def holds(self, x1: str, x2: str) -> bool:
        return self.rel.holds(x1, x2)

    def maximal(self) -> tuple[str, ...]:
        """Strategies not strictly below any other in the preorder: x_i is
        maximal iff every x_k in row i has bit i in its own row."""
        rows = self.rel.rows
        return tuple(
            x for i, (x, row) in enumerate(zip(self.ground.labels, rows))
            if all(r >> i & 1 for k, r in enumerate(rows) if row >> k & 1)
        )

    def greatest(self) -> tuple[str, ...]:
        """Strategies at least as preferable as every other one: their bit
        is set in every row."""
        common = reduce(and_, self.rel.rows)
        return tuple(x for i, x in enumerate(self.ground.labels) if common >> i & 1)


# -- basic derived relations -------------------------------------------------


def _cells(game: DMP, row: tuple[int, ...]) -> list[int]:
    """The state preferences of the strategy x1 with table row `row`
    against every strategy at once, one mask per cell in the order of the
    relation's bits (row by row): the mask of cell (s, t) holds the
    strategies x2 with F(x1, y_s) <= F(x2, y_t)."""
    reach = game._reach
    return [r[a] for a in row for r in reach]


def pareto(game: DMP) -> Preference:
    """(x1, x2) iff the x2 row dominates the x1 row in every state: the
    preference derived from the reflexive relations."""
    return derive(game, reflexive_monoid(game.states))


def strict_pareto(game: DMP) -> BinaryRelation:
    """(x1, x2) iff F(x1, y) < F(x2, y) in every state y.

    Row x1 is the AND over states y_t of the strategies reaching at least
    F(x1, y_t) at y_t, less those reaching exactly it; so no pair is tested
    on its own.
    """
    reach, at = game._reach, game._at
    rows = []
    for row in game.table:
        mask = (1 << game.strategies.size) - 1
        for t, a in enumerate(row):
            mask &= reach[t][a] & ~at[t][a]
        rows.append(mask)
    return BinaryRelation.from_rows(game.strategies, rows)


def state_preference(game: DMP, x1: str, x2: str) -> BinaryRelation:
    """Relation on states: (y1, y2) iff F(x1, y1) <= F(x2, y2).

    Cell (s, t) is bit k of reach[t][F(x1, y_s)], where x2 is strategy k;
    `derive` reads the same masks for all x2 at once and never calls this.
    """
    k, reach = game.strategies.index(x2), game._reach
    rows = [
        sum((r[a] >> k & 1) << t for t, r in enumerate(reach))
        for a in game.table[game.strategies.index(x1)]
    ]
    return BinaryRelation(game.states, pack_rows(rows, game.states.size))


def derive(game: DMP, monoid: ClosedMonoid) -> Preference:
    """Preference induced by a closed submonoid: (x1, x2) is accepted iff
    the state preference of the pair is a member of the monoid.

    Membership depends only on the cells of the state preference, so row
    x1 is the monoid's `_select` of the cells of x1 against every x2 at
    once: no pair is built or tested on its own.
    """
    if monoid.ground != game.states:
        raise GroundSetMismatchError("monoid must live on the game's state set")
    full = (1 << game.strategies.size) - 1
    rows = [monoid._select(_cells(game, row), full) for row in game.table]
    return Preference(game.strategies, BinaryRelation.from_rows(game.strategies, rows))


# -- alpha-domination and characteristic sets ---------------------------------


@dataclass(frozen=True)
class AlphaReport:
    guaranteed: dict[str, frozenset[str]]
    preference: Preference
    greatest: tuple[str, ...]


def _floors(game: DMP) -> list[int]:
    """Per strategy, the mask of the outcomes below every entry of its row."""
    below = game.outcomes.leq.inverse().rows
    return [reduce(and_, (below[a] for a in row)) for row in game.table]


def _labels(game: DMP, mask: int) -> frozenset[str]:
    """The labels of the outcomes in an outcome mask."""
    return frozenset(a for i, a in enumerate(game.outcomes.ground.labels) if mask >> i & 1)


def alpha(game: DMP) -> AlphaReport:
    """Alpha-domination: compare guaranteed-outcome sets by inclusion.

    Not induced by any closed submonoid; kept because the anomaly corpus
    is built on it.
    """
    floors = _floors(game)
    rows = [sum(1 << k for k, v in enumerate(floors) if u & ~v == 0) for u in floors]
    pref = Preference(game.strategies, BinaryRelation.from_rows(game.strategies, rows))
    guaranteed = {x: _labels(game, u) for x, u in zip(game.strategies.labels, floors)}
    return AlphaReport(guaranteed, pref, pref.greatest())


@dataclass(frozen=True)
class CharacteristicSets:
    lower: frozenset[str]
    upper: frozenset[str]
    has_generalized_value: bool


def characteristic_sets(game: DMP) -> CharacteristicSets:
    """Lower set: union of guaranteed sets.  Upper set: intersection over
    states of the outcomes beaten by some strategy there."""
    below = game.outcomes.leq.inverse().rows
    lower = reduce(or_, _floors(game))
    upper = (1 << game.outcomes.ground.size) - 1
    for column in zip(*game.table):
        upper &= reduce(or_, (below[a] for a in column))
    if lower & ~upper:
        raise RuntimeError("lower characteristic set is not inside the upper one")
    return CharacteristicSets(_labels(game, lower), _labels(game, upper), lower == upper)


def saddle_points(game: DMP) -> tuple[tuple[str, str], ...]:
    """Situations (x0, y0) with F(x, y0) <= F(x0, y0) <= F(x0, y) for all x, y."""
    above = game.outcomes.leq.rows
    states = game.states.labels
    return tuple(
        (x0, states[j])
        for x0, row in zip(game.strategies.labels, game.table)
        for j, pivot in enumerate(row)
        if all(above[other[j]] >> pivot & 1 for other in game.table)
        and all(above[pivot] >> a & 1 for a in row)
    )


def dualize(game: DMP) -> DMP:
    """Swap the players: states become strategies, the order is inverted,
    and the table is transposed."""
    table = tuple(
        tuple(game.table[i][j] for i in range(game.strategies.size))
        for j in range(game.states.size)
    )
    return DMP(game.states, game.strategies, game.outcomes.inverse(), table)


# -- morphisms and the functor/suitability checks -----------------------------


@dataclass(frozen=True)
class Morphism:
    source: DMP
    target: DMP


def apply_morphism(
    game: DMP, mapping: Mapping[str, str], target_order: PartialOrder
) -> tuple[Morphism, DMP]:
    """Push the game through an isotone outcome map, producing the image game.
    The map must be total on the game's outcomes and isotone: each pair of
    the source order, in row order, must map to a pair of the target's."""
    image = []
    for a in game.outcomes.ground.labels:
        if a not in mapping:
            raise MorphismError(f"outcome map is not total: missing {a!r}")
        if mapping[a] not in target_order.ground:
            raise MorphismError(f"image {mapping[a]!r} of {a!r} is not a target outcome")
        image.append(target_order.ground.index(mapping[a]))
    a_labels = game.outcomes.ground.labels
    b_labels = target_order.ground.labels
    above = target_order.leq.rows
    for i, j in game.outcomes.leq.index_pairs():
        if not above[image[i]] >> image[j] & 1:
            raise MorphismError(
                f"map is not isotone: {a_labels[i]} <= {a_labels[j]} but "
                f"{b_labels[image[i]]} !<= {b_labels[image[j]]}"
            )
    table = tuple(tuple(image[v] for v in row) for row in game.table)
    target = DMP(game.strategies, game.states, target_order, table)
    return Morphism(game, target), target


def check_functoriality(
    morphism: Morphism, monoid: ClosedMonoid
) -> tuple[bool, tuple[str, str] | None]:
    """Derived preference of the source must be included in the target's.
    Returns (holds, violating strategy pair or None)."""
    src_pref = derive(morphism.source, monoid)
    tgt_pref = derive(morphism.target, monoid)
    lost = src_pref.rel.difference(tgt_pref.rel).pairs()
    return (False, lost[0]) if lost else (True, None)


def is_suitable(game: DMP, pref: Preference) -> tuple[bool, tuple[str, str] | None]:
    """A preference is suitable when it never ranks a strictly
    Pareto-dominated strategy as at-least-as-good as its dominator.
    Returns (verdict, witness pair in the preference or None)."""
    if pref.ground != game.strategies:
        raise ValueError("preference must live on the game's strategy set")
    reversed_strict = pref.rel.intersection(strict_pareto(game).inverse()).pairs()
    return (False, reversed_strict[0]) if reversed_strict else (True, None)
