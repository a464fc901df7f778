"""Shared generators and brute-force oracles for the test suite, and the
label-level and monoid-lattice operations that only the tests call."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Callable, Iterable

from hypothesis import strategies as st

from ordpref.dmp import DMP, Preference, derive, state_preference
from ordpref.monoids import ClosedMonoid, closure
from ordpref.orders import OutcomeMap, PartialOrder
from ordpref.relations import (
    BinaryRelation,
    GroundSet,
    GroundSetMismatchError,
    all_relations,
    compose,
)


def ground(n: int) -> GroundSet:
    return GroundSet(tuple(f"y{i + 1}" for i in range(n)))


def relation_strategy(g: GroundSet):
    bits = st.integers(0, (1 << g.size**2) - 1)
    return bits.map(lambda b: BinaryRelation(g, b))


def relations_on(sizes=(1, 2, 3)):
    return st.sampled_from([ground(n) for n in sizes]).flatmap(relation_strategy)


def render_dmp(game: DMP) -> str:
    """Game file text that `parse_dmp` reads back to `game`."""
    lines = [
        "outcomes: " + " ".join(game.outcomes.ground.labels),
        "order: " + " ".join(f"{u}<{v}" for u, v in strict_part(game.outcomes).pairs()),
        "strategies: " + " ".join(game.strategies.labels),
        "states: " + " ".join(game.states.labels),
    ]
    for x in game.strategies.labels:
        row = " ".join(outcome(game, x, y) for y in game.states.labels)
        lines.append(f"row {x}: {row}")
    return "\n".join(lines) + "\n"


def render_preference_reference(pref: Preference) -> str:
    """The preference matrix and pair lines of `render_preference`, built
    cell by cell: each label and each cell right-aligned to 3 columns."""
    labels = pref.ground.labels
    lines = ["    " + " ".join(f"{lab:>3}" for lab in labels)]
    for x1, row in zip(labels, pref.rel.rows):
        cells = " ".join(f"{row >> k & 1:>3}" for k in range(len(labels)))
        lines.append(f"{x1:>3} {cells}")
    for x1, x2 in pref.rel.pairs():
        lines.append(f"{x2} >= {x1}")
    return "\n".join(lines) + "\n"


def render_morphism(mapping: dict[str, str], target: PartialOrder) -> str:
    """Morphism file text: the target's outcomes and order, then the map."""
    lines = [
        "outcomes: " + " ".join(target.ground.labels),
        "order: " + " ".join(f"{u}<{v}" for u, v in strict_part(target).pairs()),
    ]
    lines += [f"map {a} -> {b}" for a, b in mapping.items()]
    return "\n".join(lines) + "\n"


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


# -- label-level operations on orders, games and relations -------------------


def outcome(game: DMP, x: str, y: str) -> str:
    """The label of the outcome F(x, y)."""
    return game.outcomes.ground.labels[
        game.table[game.strategies.index(x)][game.states.index(y)]
    ]


def le(order: PartialOrder, u: str, v: str) -> bool:
    return order.leq.holds(u, v)


def trivial_order(g: GroundSet) -> PartialOrder:
    """The discrete order: every element comparable only with itself."""
    return PartialOrder(g, BinaryRelation.identity(g))


def strict_part(order: PartialOrder) -> BinaryRelation:
    return order.leq.difference(BinaryRelation.identity(order.ground))


def outcome_map(domain: GroundSet, codomain: GroundSet, labels: Iterable[str]) -> OutcomeMap:
    """The map sending the i-th element of `domain` to the i-th label."""
    return OutcomeMap(domain, codomain, tuple(codomain.index(lab) for lab in labels))


def pr1(rel: BinaryRelation) -> frozenset[str]:
    """The first projection: elements with a non-empty row."""
    labs = rel.ground.labels
    return frozenset(labs[i] for i, r in enumerate(rel.rows) if r)


def pr2(rel: BinaryRelation) -> frozenset[str]:
    """The second projection: elements with a non-empty column."""
    labs = rel.ground.labels
    columns = reduce(or_, rel.rows)
    return frozenset(labs[j] for j in range(rel.ground.size) if columns >> j & 1)


def pr_diag(rel: BinaryRelation) -> frozenset[str]:
    """The diagonal projection: the fixed points of the relation."""
    labs = rel.ground.labels
    return frozenset(labs[i] for i, r in enumerate(rel.rows) if r >> i & 1)


def has_fixed_point(rel: BinaryRelation) -> bool:
    return rel.bits & BinaryRelation.identity(rel.ground).bits != 0


# -- monoid lattice operations -------------------------------------------------


def includes(a: ClosedMonoid, b: ClosedMonoid) -> bool:
    """Monoid inclusion: every member of `b` is a member of `a`."""
    return all(a.contains(m) for m in b.min_antichain)


def dual(m: ClosedMonoid) -> ClosedMonoid:
    """The monoid of the inverses of the members of `m`."""
    return ClosedMonoid(m.ground, pairwise_minimal(r.inverse() for r in m.min_antichain))


def is_self_dual(m: ClosedMonoid) -> bool:
    return m == dual(m)


def all_have_fixed_point(m: ClosedMonoid) -> bool:
    # Fixed points persist upward under inclusion, so checking the
    # minimal members decides the whole up-set.
    return all(has_fixed_point(r) for r in m.min_antichain)


def meet(a: ClosedMonoid, b: ClosedMonoid) -> ClosedMonoid:
    """Intersection of the two membership sets."""
    if a.ground != b.ground:
        raise GroundSetMismatchError("monoids on different ground sets")
    unions = [x.union(y) for x in a.min_antichain for y in b.min_antichain]
    return ClosedMonoid(a.ground, pairwise_minimal(unions))


def join(a: ClosedMonoid, b: ClosedMonoid) -> ClosedMonoid:
    """Least closed submonoid containing both."""
    if a.ground != b.ground:
        raise GroundSetMismatchError("monoids on different ground sets")
    return closure(a.ground, a.min_antichain + b.min_antichain)


# -- regularity and the representation of relations as pullbacks ---------------


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


def represent_relation(
    sigma: BinaryRelation,
) -> tuple[PartialOrder, OutcomeMap, OutcomeMap]:
    """Realize any relation on states as a pullback through a partial order.

    Two disjoint copies of the state set are ordered so that the only
    cross-copy comparabilities mirror `sigma`; the identification maps into
    the copies pull the order back to exactly `sigma`.
    """
    states = sigma.ground
    n = states.size
    labels = tuple(f"{y}.1" for y in states.labels) + tuple(
        f"{y}.2" for y in states.labels
    )
    outcome_set = GroundSet(labels)
    pairs = [(i, i) for i in range(2 * n)]
    for i, j in sigma.index_pairs():
        pairs.append((i, n + j))
    order = PartialOrder(
        outcome_set, BinaryRelation.from_index_pairs(outcome_set, pairs)
    )
    phi = OutcomeMap(states, outcome_set, tuple(range(n)))
    psi = OutcomeMap(states, outcome_set, tuple(range(n, 2 * n)))
    return order, phi, psi


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


# -- label-set oracles for alpha, characteristic sets and saddle points ------


def common_lower_bounds(order: PartialOrder, subset: list[str]) -> frozenset[str]:
    """{a | a <= s for every s in subset}."""
    return frozenset(
        a for a in order.ground.labels if all(le(order, a, s) for s in subset)
    )


def principal_ideals(order: PartialOrder, subset: list[str]) -> frozenset[str]:
    """{a | a <= s for some s in subset}: the union of the principal ideals."""
    return frozenset(
        a for a in order.ground.labels if any(le(order, a, s) for s in subset)
    )


def guaranteed_reference(game: DMP, x: str) -> frozenset[str]:
    """Common lower bounds of the outcomes of x's table row."""
    row = [outcome(game, x, y) for y in game.states.labels]
    return common_lower_bounds(game.outcomes, row)


def alpha_reference(
    game: DMP,
) -> tuple[dict[str, frozenset[str]], set[tuple[str, str]], tuple[str, ...]]:
    """Guaranteed sets, the alpha pairs (x1, x2) with the guaranteed set of x1
    inside that of x2, and the strategies every strategy is paired with."""
    xs = game.strategies.labels
    guaranteed = {x: guaranteed_reference(game, x) for x in xs}
    pairs = {(x1, x2) for x1 in xs for x2 in xs if guaranteed[x1] <= guaranteed[x2]}
    greatest = tuple(x for x in xs if all((other, x) in pairs for other in xs))
    return guaranteed, pairs, greatest


def characteristic_reference(game: DMP) -> tuple[frozenset[str], frozenset[str]]:
    """Lower set: union of the guaranteed sets.  Upper set: intersection over
    states of the principal ideals of the column's outcomes."""
    xs = game.strategies.labels
    lower = frozenset().union(*(guaranteed_reference(game, x) for x in xs))
    upper = frozenset(game.outcomes.ground.labels)
    for y in game.states.labels:
        upper &= principal_ideals(game.outcomes, [outcome(game, x, y) for x in xs])
    return lower, upper


def saddle_reference(game: DMP) -> tuple[tuple[str, str], ...]:
    """(x0, y0) with F(x, y0) <= F(x0, y0) <= F(x0, y) for all x, y."""
    xs, ys, order = game.strategies.labels, game.states.labels, game.outcomes
    return tuple(
        (x0, y0)
        for x0 in xs
        for y0 in ys
        if all(le(order, outcome(game, x, y0), outcome(game, x0, y0)) for x in xs)
        and all(le(order, outcome(game, x0, y0), outcome(game, x0, y)) for y in ys)
    )


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
            any(le(leq, outcome(game, x1, y2), outcome(game, x2, y1)) for y2 in ys)
            for y1 in ys
        )

    return _quantifier_preference(game, accept)


def dual_beta_explicit(game: DMP) -> Preference:
    """x1 <= x2 iff for every y1 some y2 has F(x1, y1) <= F(x2, y2)."""
    leq = game.outcomes
    ys = game.states.labels

    def accept(x1: str, x2: str) -> bool:
        return all(
            any(le(leq, outcome(game, x1, y1), outcome(game, x2, y2)) for y2 in ys)
            for y1 in ys
        )

    return _quantifier_preference(game, accept)


def beta_both_explicit(game: DMP) -> Preference:
    """Conjunction of beta and dual-beta domination."""
    leq = game.outcomes
    ys = game.states.labels

    def accept(x1: str, x2: str) -> bool:
        forward = all(
            any(le(leq, outcome(game, x1, y1), outcome(game, x2, y2)) for y2 in ys)
            for y1 in ys
        )
        backward = all(
            any(le(leq, outcome(game, x1, y1), outcome(game, x2, y2)) for y1 in ys)
            for y2 in ys
        )
        return forward and backward

    return _quantifier_preference(game, accept)


def surjective_antichain(g: GroundSet) -> tuple[BinaryRelation, ...]:
    """Minimal members of beta: the co-function graphs {(h(y), y)}, one
    per map h, listed by brute force."""
    n = g.size
    return pairwise_minimal(
        BinaryRelation.from_index_pairs(g, ((h[j], j) for j in range(n)))
        for h in itertools.product(range(n), repeat=n)
    )


def total_antichain(g: GroundSet) -> tuple[BinaryRelation, ...]:
    """Minimal members of dual beta: the function graphs {(y, h(y))}."""
    n = g.size
    return pairwise_minimal(
        BinaryRelation.from_index_pairs(g, ((i, h[i]) for i in range(n)))
        for h in itertools.product(range(n), repeat=n)
    )


def beta_both_antichain(g: GroundSet) -> tuple[BinaryRelation, ...]:
    """Minimal members of beta-both: the minimal unions of a co-function
    graph and a function graph (the meet of the two families)."""
    return pairwise_minimal(
        a.union(b) for a in surjective_antichain(g) for b in total_antichain(g)
    )


def pairwise_minimal(rels: Iterable[BinaryRelation]) -> tuple[BinaryRelation, ...]:
    """The inclusion-minimal relations, deduplicated, in row order: each
    one is tested against every other, independently of the package's
    minimizer."""
    unique = set(rels)
    return tuple(sorted(
        (r for r in unique if not any(m != r and m.is_subset(r) for m in unique)),
        key=lambda r: r.rows,
    ))


def closure_antichain(
    ground: GroundSet, generators: list[BinaryRelation]
) -> tuple[BinaryRelation, ...]:
    """Minimal antichain of the least closed submonoid containing the
    generators, in row order: every round composes all pairs of the current
    antichain and adds the products it does not cover, until a round adds
    none.  Minimal elements are picked pairwise."""
    antichain = pairwise_minimal(list(generators) + [BinaryRelation.identity(ground)])
    while True:
        fresh = []
        for a in antichain:
            for b in antichain:
                prod = compose(a, b)
                if not any(m.is_subset(prod) for m in antichain):
                    fresh.append(prod)
        if not fresh:
            return antichain
        antichain = pairwise_minimal(antichain + tuple(fresh))


def closed_family_masks(ground: GroundSet) -> list[int]:
    """The closed submonoids on a two-element state set as 16-bit masks over
    relation bits, sorted by (size, mask): every one of the 2^16 families
    is tested for the identity, up-closure and closure under composition."""
    assert ground.size == 2
    rels = list(all_relations(ground))
    identity = BinaryRelation.identity(ground).bits
    masks = []
    for family in range(1 << 16):
        members = [r for r in rels if family >> r.bits & 1]
        if (
            family >> identity & 1
            and all(family >> (a.bits | b.bits) & 1 for a in members for b in rels)
            and all(family >> compose(a, b).bits & 1 for a in members for b in members)
        ):
            masks.append(family)
    return sorted(masks, key=lambda m: (m.bit_count(), m))


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    axiom: int | None = None
    witness: tuple[BinaryRelation, ...] = ()
    message: str = ""


def validate_closed_predicate(
    ground: GroundSet, member: Callable[[BinaryRelation], bool]
) -> ValidationResult:
    """Exhaustively check the closed-submonoid axioms of a membership
    predicate; feasible only for ground sets of size <= 3.

    Axiom 1: closed under composition.  Axiom 2: contains the identity.
    Axiom 3: upward closed under inclusion.
    """
    if ground.size > 3:
        raise ValueError("predicate validation is limited to ground sets of size <= 3")
    members = [rel for rel in all_relations(ground) if member(rel)]
    identity = BinaryRelation.identity(ground)
    member_set = set(members)
    if identity not in member_set:
        return ValidationResult(False, axiom=2, witness=(identity,),
                                message="identity relation is not a member")
    for a in members:
        for b in members:
            prod = compose(a, b)
            if prod not in member_set:
                return ValidationResult(
                    False, axiom=1, witness=(a, b, prod),
                    message=f"composition escapes: {b}*{a} = {prod}",
                )
    for a in members:
        for rel in all_relations(ground):
            if a.is_subset(rel) and rel not in member_set:
                return ValidationResult(
                    False, axiom=3, witness=(a, rel),
                    message=f"up-closure fails: {a} is a member but {rel} is not",
                )
    return ValidationResult(True)
