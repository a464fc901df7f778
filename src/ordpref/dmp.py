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
from functools import cached_property
from typing import Iterable, Mapping

from .monoids import ClosedMonoid
from .orders import OutcomeMap, PartialOrder, down_set, strict_part
# Not used here: kept as `dmp.pullback`, the name bench/replay.py counts
# pullback calls through.
from .orders import pullback  # noqa: F401
from .relations import BinaryRelation, GroundSet, GroundSetMismatchError


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

    def outcome(self, x: str, y: str) -> str:
        i = self.strategies.index(x)
        j = self.states.index(y)
        return self.outcomes.ground.labels[self.table[i][j]]

    def f_star(self, x: str) -> OutcomeMap:
        i = self.strategies.index(x)
        return OutcomeMap(self.states, self.outcomes.ground, self.table[i])

    @cached_property
    def _up(self) -> list[list[int]]:
        """Up-masks through the outcome order, built once per game."""
        return _up_masks(self, self.outcomes.leq)


@dataclass(frozen=True)
class Preference:
    """A preorder on the strategy set."""

    ground: GroundSet
    rel: BinaryRelation

    def __post_init__(self) -> None:
        if self.rel.ground != self.ground:
            raise ValueError("preference relation on wrong ground set")
        profile = self.rel.classify()
        if not profile.preorder:
            raise ValueError("preference must be a preorder (reflexive and transitive)")

    def holds(self, x1: str, x2: str) -> bool:
        return self.rel.holds(x1, x2)

    def maximal(self) -> tuple[str, ...]:
        """Strategies not strictly below any other in the preorder."""
        out = []
        for x in self.ground.labels:
            if not any(
                self.rel.holds(x, z) and not self.rel.holds(z, x)
                for z in self.ground.labels
            ):
                out.append(x)
        return tuple(out)

    def greatest(self) -> tuple[str, ...]:
        """Strategies at least as preferable as every other one."""
        return tuple(
            x
            for x in self.ground.labels
            if all(self.rel.holds(z, x) for z in self.ground.labels)
        )


# -- basic derived relations -------------------------------------------------


def _up_masks(game: DMP, leq: BinaryRelation) -> list[list[int]]:
    """up[k][a] is the bitmask of states y with a leq F(x_k, y).

    Row j of the state-preference relation of (x_i, x_k), read through
    `leq`, is then up[k][F(x_i, y_j)], so a pair costs one lookup per state.
    """
    return [
        [sum(1 << j for j, b in enumerate(row) if above >> b & 1) for above in leq.rows]
        for row in game.table
    ]


def _diagonal_preference(game: DMP, up: list[list[int]]) -> BinaryRelation:
    """(x1, x2) iff F(x1, y) is below F(x2, y) in every state y, for the
    order the up-masks were read from: the diagonal of the state-preference
    relation is full."""
    pairs = (
        (i, k)
        for i, row in enumerate(game.table)
        for k, up_k in enumerate(up)
        if all(up_k[a] >> j & 1 for j, a in enumerate(row))
    )
    return BinaryRelation.from_index_pairs(game.strategies, pairs)


def pareto(game: DMP) -> Preference:
    """(x1, x2) iff the x2 row dominates the x1 row in every state."""
    return Preference(game.strategies, _diagonal_preference(game, game._up))


def strict_pareto(game: DMP) -> BinaryRelation:
    """(x1, x2) iff the x2 row strictly dominates in every state."""
    return _diagonal_preference(game, _up_masks(game, strict_part(game.outcomes)))


def state_preference(game: DMP, x1: str, x2: str) -> BinaryRelation:
    """Relation on states: (y1, y2) iff F(x1, y1) <= F(x2, y2).

    Row y1 is the set of states where x2 reaches at least F(x1, y1), read
    off the game's up-masks; derive and the regularity check build every
    state-preference here.
    """
    up = game._up[game.strategies.index(x2)]
    row = game.table[game.strategies.index(x1)]
    return BinaryRelation(game.states, tuple(up[a] for a in row))


def derive(game: DMP, monoid: ClosedMonoid) -> Preference:
    """Preference induced by a closed submonoid: (x1, x2) is accepted iff
    the state-preference of the pair is a member of the monoid."""
    if monoid.ground != game.states:
        raise GroundSetMismatchError("monoid must live on the game's state set")
    labels = game.strategies.labels
    pairs = [
        (i, k)
        for i, x1 in enumerate(labels)
        for k, x2 in enumerate(labels)
        if monoid.contains(state_preference(game, x1, x2))
    ]
    rel = BinaryRelation.from_index_pairs(game.strategies, pairs)
    return Preference(game.strategies, rel)


# -- alpha-domination and characteristic sets ---------------------------------


@dataclass(frozen=True)
class AlphaReport:
    guaranteed: dict[str, frozenset[str]]
    preference: Preference
    greatest: tuple[str, ...]


def guaranteed_outcomes(game: DMP, x: str) -> frozenset[str]:
    """Outcomes guaranteed by a strategy: lower bounds of its table row."""
    row = [game.outcome(x, y) for y in game.states.labels]
    return down_set(game.outcomes, row, mode="bounds")


def alpha(game: DMP) -> AlphaReport:
    """Alpha-domination: compare guaranteed-outcome sets by inclusion.

    Not induced by any closed submonoid; kept because the anomaly corpus
    is built on it.
    """
    guaranteed = {x: guaranteed_outcomes(game, x) for x in game.strategies.labels}
    pairs = [
        (i, k)
        for i, x1 in enumerate(game.strategies.labels)
        for k, x2 in enumerate(game.strategies.labels)
        if guaranteed[x1] <= guaranteed[x2]
    ]
    pref = Preference(
        game.strategies, BinaryRelation.from_index_pairs(game.strategies, pairs)
    )
    return AlphaReport(guaranteed, pref, pref.greatest())


@dataclass(frozen=True)
class CharacteristicSets:
    lower: frozenset[str]
    upper: frozenset[str]
    has_generalized_value: bool


def characteristic_sets(game: DMP) -> CharacteristicSets:
    """Lower set: union of guaranteed sets.  Upper set: intersection over
    states of the outcomes beaten by some strategy there."""
    lower: frozenset[str] = frozenset()
    for x in game.strategies.labels:
        lower |= guaranteed_outcomes(game, x)
    upper = frozenset(game.outcomes.ground.labels)
    for y in game.states.labels:
        column = [game.outcome(x, y) for x in game.strategies.labels]
        upper &= down_set(game.outcomes, column, mode="union")
    if not lower <= upper:
        raise RuntimeError("lower characteristic set is not inside the upper one")
    return CharacteristicSets(lower, upper, lower == upper)


def saddle_points(game: DMP) -> tuple[tuple[str, str], ...]:
    """Situations (x0, y0) with F(x, y0) <= F(x0, y0) <= F(x0, y) for all x, y."""
    leq = game.outcomes
    out = []
    for x0 in game.strategies.labels:
        for y0 in game.states.labels:
            pivot = game.outcome(x0, y0)
            col_ok = all(
                leq.le(game.outcome(x, y0), pivot) for x in game.strategies.labels
            )
            row_ok = all(
                leq.le(pivot, game.outcome(x0, y)) for y in game.states.labels
            )
            if col_ok and row_ok:
                out.append((x0, y0))
    return tuple(out)


def dualize(game: DMP) -> DMP:
    """Swap the players: states become strategies, the order is inverted,
    and the table is transposed."""
    table = tuple(
        tuple(game.table[i][j] for i in range(game.strategies.size))
        for j in range(game.states.size)
    )
    return DMP(game.states, game.strategies, game.outcomes.inverse(), table)


# -- morphisms and the functor/regularity checks ------------------------------


@dataclass(frozen=True)
class Morphism:
    source: DMP
    target: DMP
    outcome_map: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "outcome_map", tuple(self.outcome_map))
        src, tgt = self.source, self.target
        if src.strategies != tgt.strategies or src.states != tgt.states:
            raise MorphismError("morphism endpoints must share strategies and states")
        if len(self.outcome_map) != src.outcomes.ground.size:
            raise MorphismError("outcome map must be total on the source outcomes")
        a_labels = src.outcomes.ground.labels
        b_labels = tgt.outcomes.ground.labels
        for i, a1 in enumerate(a_labels):
            for j, a2 in enumerate(a_labels):
                if src.outcomes.leq.holds_index(i, j) and not tgt.outcomes.leq.holds_index(
                    self.outcome_map[i], self.outcome_map[j]
                ):
                    raise MorphismError(
                        f"map is not isotone: {a1} <= {a2} but "
                        f"{b_labels[self.outcome_map[i]]} !<= {b_labels[self.outcome_map[j]]}"
                    )
        for i in range(src.strategies.size):
            for j in range(src.states.size):
                if tgt.table[i][j] != self.outcome_map[src.table[i][j]]:
                    raise MorphismError("target table is not the image of the source table")

    def apply(self, outcome_label: str) -> str:
        i = self.source.outcomes.ground.index(outcome_label)
        return self.target.outcomes.ground.labels[self.outcome_map[i]]


def apply_morphism(
    game: DMP, mapping: Mapping[str, str], target_order: PartialOrder
) -> tuple[Morphism, DMP]:
    """Push the game through an isotone outcome map, producing the image game."""
    try:
        outcome_map = tuple(
            target_order.ground.index(mapping[a]) for a in game.outcomes.ground.labels
        )
    except KeyError as exc:
        raise MorphismError(f"outcome map is not total: missing {exc.args[0]!r}") from None
    table = tuple(
        tuple(outcome_map[v] for v in row) for row in game.table
    )
    image = DMP(game.strategies, game.states, target_order, table)
    return Morphism(game, image, outcome_map), image


def check_functoriality(
    morphism: Morphism, monoid: ClosedMonoid
) -> tuple[bool, tuple[str, str] | None]:
    """Derived preference of the source must be included in the target's.
    Returns (holds, violating strategy pair or None)."""
    src_pref = derive(morphism.source, monoid)
    tgt_pref = derive(morphism.target, monoid)
    for x1, x2 in src_pref.rel.pairs():
        if not tgt_pref.holds(x1, x2):
            return False, (x1, x2)
    return True, None


@dataclass(frozen=True)
class RegularityResult:
    premise_holds: bool
    holds: bool


def check_regularity(
    game1: DMP,
    game2: DMP,
    pair1: tuple[str, str],
    pair2: tuple[str, str],
    monoid: ClosedMonoid,
) -> RegularityResult:
    """If the two pairs share a state-preference relation, their derived
    memberships must agree.  When the premise fails the implication is
    vacuous; the flag makes that visible instead of silently passing."""
    rho1 = state_preference(game1, *pair1)
    rho2 = state_preference(game2, *pair2)
    if rho1 != rho2:
        return RegularityResult(premise_holds=False, holds=True)
    in1 = derive(game1, monoid).holds(*pair1)
    in2 = derive(game2, monoid).holds(*pair2)
    return RegularityResult(premise_holds=True, holds=in1 == in2)


def is_suitable(game: DMP, pref: Preference) -> tuple[bool, tuple[str, str] | None]:
    """A preference is suitable when it never ranks a strictly
    Pareto-dominated strategy as at-least-as-good as its dominator.
    Returns (verdict, witness pair in the preference or None)."""
    if pref.ground != game.strategies:
        raise ValueError("preference must live on the game's strategy set")
    strict = strict_pareto(game)
    for x1, x2 in pref.rel.pairs():
        if strict.holds(x2, x1):
            return False, (x1, x2)
    return True, None
