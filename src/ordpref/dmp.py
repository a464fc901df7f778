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
from typing import Iterable, Iterator, Mapping

from .monoids import ClosedMonoid
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
    def _up(self) -> list[list[int]]:
        """up[k][a] is the bitmask of states y with a <= F(x_k, y), built
        once per game.  Row j of the state-preference relation of (x_i, x_k)
        is then up[k][F(x_i, y_j)], so a pair costs one lookup per state."""
        above = self.outcomes.leq.rows
        return [
            [sum(1 << j for j, b in enumerate(row) if up >> b & 1) for up in above]
            for row in self.table
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


def _dominance(game: DMP, strict: bool) -> BinaryRelation:
    """(x1, x2) iff F(x1, y) <= F(x2, y) in every state y, and also
    F(x1, y) != F(x2, y) when `strict`.

    Row x1 is the AND over states y of the strategies reaching at least
    F(x1, y) at y (without those reaching exactly it, when strict); each
    state's table of these masks by outcome costs one pass over the
    strategies and one over the order, so no pair is tested on its own.
    """
    above = game.outcomes.leq.rows
    rows = [(1 << game.strategies.size) - 1] * game.strategies.size
    for j in range(game.states.size):
        at = [0] * len(above)
        for k, row in enumerate(game.table):
            at[row[j]] |= 1 << k
        # the `at` masks are disjoint, so their sum is their union
        reach = [sum(m for b, m in enumerate(at) if up >> b & 1) for up in above]
        if strict:
            reach = [r & ~m for r, m in zip(reach, at)]
        for i, row in enumerate(game.table):
            rows[i] &= reach[row[j]]
    return BinaryRelation.from_rows(game.strategies, rows)


def pareto(game: DMP) -> Preference:
    """(x1, x2) iff the x2 row dominates the x1 row in every state."""
    return Preference(game.strategies, _dominance(game, strict=False))


def strict_pareto(game: DMP) -> BinaryRelation:
    """(x1, x2) iff the x2 row strictly dominates in every state."""
    return _dominance(game, strict=True)


def state_preference(game: DMP, x1: str, x2: str) -> BinaryRelation:
    """Relation on states: (y1, y2) iff F(x1, y1) <= F(x2, y2).

    Row y1 is the set of states where x2 reaches at least F(x1, y1), read
    off the game's up-masks (each below 2^n by construction, so they are
    packed without a per-row check); derive and the lattice census build
    every state-preference here.
    """
    up = game._up[game.strategies.index(x2)]
    row = game.table[game.strategies.index(x1)]
    bits = pack_rows([up[a] for a in row], game.states.size)
    return BinaryRelation(game.states, bits)


def _state_preferences(game: DMP) -> Iterator[tuple[tuple[int, int], BinaryRelation]]:
    """Every strategy index pair (i, k) with the state preference of
    (x_i, x_k), in row order."""
    labels = game.strategies.labels
    for i, x1 in enumerate(labels):
        for k, x2 in enumerate(labels):
            yield (i, k), state_preference(game, x1, x2)


def derive(game: DMP, monoid: ClosedMonoid) -> Preference:
    """Preference induced by a closed submonoid: (x1, x2) is accepted iff
    the state-preference of the pair is a member of the monoid."""
    if monoid.ground != game.states:
        raise GroundSetMismatchError("monoid must live on the game's state set")
    pairs = [pair for pair, rho in _state_preferences(game) if monoid.contains(rho)]
    rel = BinaryRelation.from_index_pairs(game.strategies, pairs)
    return Preference(game.strategies, rel)


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
    try:
        image = tuple(
            target_order.ground.index(mapping[a]) for a in game.outcomes.ground.labels
        )
    except KeyError as exc:
        raise MorphismError(f"outcome map is not total: missing {exc.args[0]!r}") from None
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
