"""Differential gate for the cell kernel behind state_preference, derive,
pareto, strict_pareto and the preference census, on seeded random games
with 1-8 states, up to 40 strategies and 1-12 outcomes.

The reference state preference is the pullback of the two strategies'
outcome maps, its definition.  The reference derived preference tests each
pair on its own: its state preference, then `contains`.  Every monoid form
is covered: the structural ones (pareto, universal, dictator, filter, beta,
dual beta, beta-both) and the antichain ones (`closure()`, atom,
idempotent); on 4-8 states the beta family is also checked against the
explicit quantifier forms.
"""

import random

from common import (
    beta_both_explicit,
    beta_explicit,
    dual_beta_explicit,
    pareto_pairs,
    random_dmp,
)

from ordpref.dmp import derive, pareto, state_preference, strict_pareto
from ordpref.lattice import MonoidLattice, preference_census
from ordpref.monoids import (
    atom_monoid,
    beta_both_monoid,
    closure,
    dictator_monoid,
    filter_monoid,
    idempotent_monoid,
    reflexive_monoid,
    surjective_monoid,
    total_monoid,
    universal_monoid,
)
from ordpref.orders import pullback
from ordpref.relations import BinaryRelation


def random_games(seed, count, max_states=8, max_strategies=40):
    rng = random.Random(seed)
    for _ in range(count):
        game = random_dmp(
            rng,
            nx=rng.randint(1, max_strategies),
            ny=rng.randint(1, max_states),
            na=rng.randint(1, 12),
        )
        yield rng, game


def random_relation(rng, states):
    full = (1 << states.size) - 1
    return BinaryRelation.from_rows(states, [rng.randint(0, full) for _ in states.labels])


def every_form(rng, states):
    """One monoid of each form on `states`: the structural ones, then the
    antichain ones."""
    ys = states.labels
    monoids = [
        reflexive_monoid(states),
        universal_monoid(states),
        dictator_monoid(states, rng.choice(ys)),
        filter_monoid(states, rng.sample(ys, rng.randint(1, len(ys)))),
        surjective_monoid(states),
        total_monoid(states),
        beta_both_monoid(states),
    ]
    gens = [random_relation(rng, states) for _ in range(2 if states.size <= 3 else 1)]
    monoids.append(closure(states, gens))
    identity = BinaryRelation.identity(states)
    preorder = random_relation(rng, states).union(identity).transitive_closure()
    monoids.append(idempotent_monoid(states, preorder))
    if len(ys) >= 2:
        monoids.append(atom_monoid(states, rng.choice(ys)))
    return monoids


def index_pairs(rel):
    return set(rel.index_pairs())


def pullback_rhos(game):
    labels = game.strategies.labels
    return {
        (i, k): pullback(game.f_star(x1), game.f_star(x2), game.outcomes)
        for i, x1 in enumerate(labels)
        for k, x2 in enumerate(labels)
    }


def per_pair(game, monoid):
    """The derived preference's pairs, each tested on its own."""
    labels = game.strategies.labels
    return {
        (i, k)
        for i, x1 in enumerate(labels)
        for k, x2 in enumerate(labels)
        if monoid.contains(state_preference(game, x1, x2))
    }


def census_of(game, monoids):
    """`preference_census` over `monoids`, as (pairs, indices) in order;
    the census reads only the lattice's ground set and elements."""
    lattice = MonoidLattice(game.states, tuple(monoids), (), (), (), 0, len(monoids) - 1)
    return [(index_pairs(pref.rel), idxs) for pref, idxs in preference_census(game, lattice)]


def grouped(preferences):
    """The census of a list of pair sets: each distinct one, in order of
    first appearance, with the indices that give it."""
    groups = {}
    for idx, pairs in enumerate(preferences):
        groups.setdefault(frozenset(pairs), []).append(idx)
    return [(set(pairs), tuple(idxs)) for pairs, idxs in groups.items()]


def test_state_preference_matches_pullback():
    for _, game in random_games(seed=404, count=60):
        labels = game.strategies.labels
        for (i, k), rho in pullback_rhos(game).items():
            assert state_preference(game, labels[i], labels[k]) == rho


def test_derive_matches_per_pair_pullback():
    for rng, game in random_games(seed=101, count=30):
        rhos = pullback_rhos(game)
        for monoid in every_form(rng, game.states):
            expected = {pair for pair, rho in rhos.items() if monoid.contains(rho)}
            assert index_pairs(derive(game, monoid).rel) == expected


def test_derive_and_census_match_per_pair_membership_on_every_form():
    games = list(random_games(seed=515, count=30, max_strategies=20))
    rng = random.Random(516)
    edge = [
        random_dmp(rng, nx=1, ny=rng.randint(1, 8), na=rng.randint(1, 6)) for _ in range(6)
    ] + [random_dmp(rng, nx=rng.randint(1, 20), ny=1, na=rng.randint(1, 6)) for _ in range(6)]
    games += [(rng, game) for game in edge]
    for rng, game in games:
        monoids = every_form(rng, game.states)
        expected = [per_pair(game, monoid) for monoid in monoids]
        for monoid, pairs in zip(monoids, expected):
            assert index_pairs(derive(game, monoid).rel) == pairs, monoid
        assert census_of(game, monoids) == grouped(expected)


def test_beta_family_matches_the_explicit_forms_on_four_to_eight_states():
    explicit = (beta_explicit, dual_beta_explicit, beta_both_explicit)
    builds = (surjective_monoid, total_monoid, beta_both_monoid)
    rng = random.Random(49)
    for _ in range(16):
        game = random_dmp(rng, nx=rng.randint(1, 25), ny=rng.randint(4, 8), na=rng.randint(1, 12))
        monoids = [build(game.states) for build in builds]
        expected = [index_pairs(form(game).rel) for form in explicit]
        for monoid, pairs in zip(monoids, expected):
            assert index_pairs(derive(game, monoid).rel) == pairs
        assert census_of(game, monoids) == grouped(expected)


def test_pareto_and_strict_pareto_match_set_oracle():
    for _, game in random_games(seed=202, count=200):
        assert index_pairs(pareto(game).rel) == pareto_pairs(game)
        assert index_pairs(strict_pareto(game)) == pareto_pairs(game, strict=True)
