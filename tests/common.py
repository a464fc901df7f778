"""Shared generators and brute-force oracles for the test suite."""

from __future__ import annotations

import random

from hypothesis import strategies as st

from ordpref.dmp import DMP, Preference
from ordpref.orders import OutcomeMap, PartialOrder, strict_part
from ordpref.relations import BinaryRelation, GroundSet, compose


def ground(n: int) -> GroundSet:
    return GroundSet(tuple(f"y{i + 1}" for i in range(n)))


def relation_strategy(g: GroundSet):
    full = (1 << g.size) - 1
    rows = st.tuples(*([st.integers(0, full)] * g.size))
    return rows.map(lambda r: BinaryRelation(g, r))


def relations_on(sizes=(1, 2, 3)):
    return st.sampled_from([ground(n) for n in sizes]).flatmap(relation_strategy)


def random_partial_order(rng: random.Random, g: GroundSet, density: float = 0.4) -> PartialOrder:
    """Random order built on a shuffled index sequence, so it is always acyclic."""
    perm = list(range(g.size))
    rng.shuffle(perm)
    pairs = [(i, i) for i in range(g.size)]
    for a in range(g.size):
        for b in range(a + 1, g.size):
            if rng.random() < density:
                pairs.append((perm[a], perm[b]))
    rel = BinaryRelation.from_index_pairs(g, pairs).transitive_closure()
    return PartialOrder(g, rel)


def random_dmp(rng: random.Random, nx: int = 2, ny: int = 2, na: int = 3) -> DMP:
    """Random game on strategies x1.., states y1.. and a random order on a0..."""
    strategies = GroundSet(tuple(f"x{i + 1}" for i in range(nx)))
    states = ground(ny)
    outcomes = random_partial_order(rng, GroundSet(tuple(f"a{i}" for i in range(na))))
    table = tuple(tuple(rng.randrange(na) for _ in range(ny)) for _ in range(nx))
    return DMP(strategies, states, outcomes, table)


# -- set-based oracles, independent of the bitmask implementation -------------


def pair_compose(first: set[tuple], then: set[tuple]) -> set[tuple]:
    """Plain-set relation chase: (a, c) iff some b links first and then."""
    return {(a, c) for a, b in first for b2, c in then if b == b2}


def pair_transitive_closure(pairs: set[tuple]) -> set[tuple]:
    out = set(pairs)
    while True:
        more = pair_compose(out, out) | out
        if more == out:
            return out
        out = more


def pareto_pairs(game: DMP, strict: bool = False) -> set[tuple[int, int]]:
    """Strategy index pairs (i, k) with F(x_i, y) <= F(x_k, y) in every state,
    or < in every state when `strict`."""
    le = set(game.outcomes.leq.index_pairs())
    if strict:
        le = {(a, b) for a, b in le if a != b}
    n = game.strategies.size
    return {
        (i, k)
        for i in range(n)
        for k in range(n)
        if all((a, b) in le for a, b in zip(game.table[i], game.table[k]))
    }


# -- reference implementations moved out of the package -----------------------


def compose_power(rel: BinaryRelation, k: int) -> BinaryRelation:
    """k-fold composition of `rel` with itself; k = 0 gives the identity."""
    if k < 0:
        raise ValueError("power must be non-negative")
    acc = BinaryRelation.identity(rel.ground)
    for _ in range(k):
        acc = compose(acc, rel)
    return acc


def pointwise_leq(phi: OutcomeMap, psi: OutcomeMap, order: PartialOrder) -> bool:
    """phi <= psi pointwise in the given outcome order."""
    return all(order.leq.holds_index(a, b) for a, b in zip(phi.values, psi.values))


def product_order(left: PartialOrder, right: PartialOrder) -> PartialOrder:
    """Componentwise order on the cartesian product, labels "(a,b)"."""
    labels = tuple(
        f"({a},{b})" for a in left.ground.labels for b in right.ground.labels
    )
    prod = GroundSet(labels)
    nb = right.ground.size
    pairs = []
    for i1 in range(left.ground.size):
        for j1 in range(nb):
            for i2 in range(left.ground.size):
                for j2 in range(nb):
                    if left.leq.holds_index(i1, i2) and right.leq.holds_index(j1, j2):
                        pairs.append((i1 * nb + j1, i2 * nb + j2))
    return PartialOrder(prod, BinaryRelation.from_index_pairs(prod, pairs))


def longest_chain(order: PartialOrder) -> int:
    """Number of elements in a longest chain of the order."""
    strict = strict_part(order)
    n = order.ground.size
    memo: dict[int, int] = {}

    def depth(i: int) -> int:
        if i not in memo:
            memo[i] = 1 + max(
                (depth(j) for j in range(n) if strict.holds_index(i, j)), default=0
            )
        return memo[i]

    return max(depth(i) for i in range(n))


def has_strict_chain(order: PartialOrder, k: int) -> bool:
    """True iff the order contains a strictly increasing chain of k elements."""
    if k <= 0:
        return True
    return longest_chain(order) >= k


def _quantifier_preference(game: DMP, accept) -> Preference:
    pairs = [
        (i, k)
        for i, x1 in enumerate(game.strategies.labels)
        for k, x2 in enumerate(game.strategies.labels)
        if accept(x1, x2)
    ]
    return Preference(
        game.strategies, BinaryRelation.from_index_pairs(game.strategies, pairs)
    )


def beta_explicit(game: DMP) -> Preference:
    """x1 <= x2 iff for every y1 some y2 has F(x1, y2) <= F(x2, y1)."""
    leq = game.outcomes
    ys = game.states.labels

    def accept(x1: str, x2: str) -> bool:
        return all(
            any(leq.le(game.outcome(x1, y2), game.outcome(x2, y1)) for y2 in ys)
            for y1 in ys
        )

    return _quantifier_preference(game, accept)


def dual_beta_explicit(game: DMP) -> Preference:
    """x1 <= x2 iff for every y1 some y2 has F(x1, y1) <= F(x2, y2)."""
    leq = game.outcomes
    ys = game.states.labels

    def accept(x1: str, x2: str) -> bool:
        return all(
            any(leq.le(game.outcome(x1, y1), game.outcome(x2, y2)) for y2 in ys)
            for y1 in ys
        )

    return _quantifier_preference(game, accept)


def beta_both_explicit(game: DMP) -> Preference:
    """Conjunction of beta and dual-beta domination."""
    leq = game.outcomes
    ys = game.states.labels

    def accept(x1: str, x2: str) -> bool:
        forward = all(
            any(leq.le(game.outcome(x1, y1), game.outcome(x2, y2)) for y2 in ys)
            for y1 in ys
        )
        backward = all(
            any(leq.le(game.outcome(x1, y1), game.outcome(x2, y2)) for y1 in ys)
            for y2 in ys
        )
        return forward and backward

    return _quantifier_preference(game, accept)
