"""Differential tests of the up-mask kernel behind state_preference, derive,
pareto and strict_pareto, on seeded random games with 1-8 states, up to 40
strategies and 1-12 outcomes.  The reference state-preference is the
pullback of the two strategies' outcome maps, its definition."""

import random

from common import pareto_pairs, random_dmp

from ordpref.dmp import derive, pareto, state_preference, strict_pareto
from ordpref.monoids import (
    atom_monoid,
    closure,
    dictator_monoid,
    filter_monoid,
    reflexive_monoid,
    universal_monoid,
)
from ordpref.orders import pullback
from ordpref.relations import BinaryRelation


def random_games(seed, count, max_states=8):
    rng = random.Random(seed)
    for _ in range(count):
        game = random_dmp(
            rng,
            nx=rng.randint(1, 40),
            ny=rng.randint(1, max_states),
            na=rng.randint(1, 12),
        )
        yield rng, game


def sample_monoids(rng, states):
    ys = states.labels
    monoids = [
        reflexive_monoid(states),
        universal_monoid(states),
        dictator_monoid(states, rng.choice(ys)),
        filter_monoid(states, rng.sample(ys, rng.randint(1, len(ys)))),
    ]
    if len(ys) >= 2:
        monoids.append(atom_monoid(states, rng.choice(ys)))
    full = (1 << states.size) - 1
    gens = [
        BinaryRelation.from_rows(states, [rng.randint(0, full) for _ in ys])
        for _ in range(2 if states.size <= 3 else 1)
    ]
    monoids.append(closure(states, gens))
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


def test_state_preference_matches_pullback():
    for _, game in random_games(seed=404, count=60):
        labels = game.strategies.labels
        for (i, k), rho in pullback_rhos(game).items():
            assert state_preference(game, labels[i], labels[k]) == rho


def test_derive_matches_per_pair_pullback():
    for rng, game in random_games(seed=101, count=30):
        rhos = pullback_rhos(game)
        for monoid in sample_monoids(rng, game.states):
            expected = {pair for pair, rho in rhos.items() if monoid.contains(rho)}
            assert index_pairs(derive(game, monoid).rel) == expected


def test_pareto_and_strict_pareto_match_set_oracle():
    for _, game in random_games(seed=202, count=200):
        assert index_pairs(pareto(game).rel) == pareto_pairs(game)
        assert index_pairs(strict_pareto(game)) == pareto_pairs(game, strict=True)
