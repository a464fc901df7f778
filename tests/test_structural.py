"""Differential gate for the structural membership of the canonical monoids.

On 1-3 states, `contains` is checked against the antichain scan for every
relation, and every built antichain against a brute-force oracle; on 4-8
states, `derive` under beta, dual beta and beta-both is checked against the
explicit quantifier forms.  Building the antichain fails fast above its
bound while membership keeps working, and `derive` never builds it.
"""

import itertools
import random
import time

import pytest

from common import (
    beta_both_antichain,
    beta_both_explicit,
    beta_explicit,
    dual_beta_explicit,
    ground,
    random_dmp,
    render_dmp,
    surjective_antichain,
    total_antichain,
)

from ordpref.cli import main
from ordpref.dmp import derive, state_preference
from ordpref.monoids import (
    ClosedMonoid,
    MonoidConstructionError,
    beta_both_monoid,
    dictator_monoid,
    filter_monoid,
    reflexive_monoid,
    surjective_monoid,
    total_monoid,
    universal_monoid,
)
from ordpref.relations import BinaryRelation, all_relations
from ordpref.textio import render_preference

EXPLICIT = {
    "beta": (surjective_monoid, beta_explicit),
    "dual-beta": (total_monoid, dual_beta_explicit),
    "beta-both": (beta_both_monoid, beta_both_explicit),
}


def diagonal(g, labels):
    return BinaryRelation.from_pairs(g, ((y, y) for y in labels))


def canonical_families(g):
    """Each structural monoid on `g` with its antichain from an oracle."""
    families = [
        (reflexive_monoid(g), (BinaryRelation.identity(g),)),
        (universal_monoid(g), (BinaryRelation(g, 0),)),
        (surjective_monoid(g), surjective_antichain(g)),
        (total_monoid(g), total_antichain(g)),
        (beta_both_monoid(g), beta_both_antichain(g)),
    ]
    families += [(dictator_monoid(g, y), (diagonal(g, [y]),)) for y in g.labels]
    for k in range(1, g.size + 1):
        for base in itertools.combinations(g.labels, k):
            families.append((filter_monoid(g, base), (diagonal(g, base),)))
    return families


@pytest.mark.parametrize("n", [1, 2, 3])
def test_contains_matches_the_antichain_scan_on_every_relation(n):
    g = ground(n)
    for monoid, antichain in canonical_families(g):
        scan = ClosedMonoid(g, antichain)
        for rel in all_relations(g):
            assert monoid.contains(rel) == scan.contains(rel), (monoid, rel)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_built_antichain_matches_its_oracle_and_validates(n):
    g = ground(n)
    for monoid, antichain in canonical_families(g):
        assert monoid.min_antichain == antichain, monoid
        assert ClosedMonoid(g, monoid.min_antichain) == monoid


def test_derive_matches_the_explicit_forms_on_four_to_eight_states():
    rng = random.Random(48)
    for _ in range(24):
        game = random_dmp(rng, nx=rng.randint(1, 25), ny=rng.randint(4, 8), na=rng.randint(1, 12))
        for build, explicit in EXPLICIT.values():
            assert derive(game, build(game.states)).rel == explicit(game).rel


@pytest.mark.parametrize("build", [surjective_monoid, total_monoid, beta_both_monoid])
def test_building_the_antichain_on_eight_states_fails_fast(build):
    g = ground(8)
    monoid = build(g)
    start = time.perf_counter()
    with pytest.raises(MonoidConstructionError, match="more than 3000 candidates"):
        monoid.min_antichain
    assert time.perf_counter() - start < 1.0
    assert monoid.contains(BinaryRelation.identity(g))
    assert not monoid.contains(BinaryRelation(g, 0))


@pytest.mark.parametrize("spec", sorted(EXPLICIT))
def test_cli_derive_on_eight_states(spec, tmp_path, capsys):
    game = random_dmp(random.Random(60), nx=60, ny=8, na=12)
    path = tmp_path / "game.dmp"
    path.write_text(render_dmp(game))
    start = time.perf_counter()
    assert main(["derive", "--dmp", str(path), "--monoid", spec]) == 0
    assert time.perf_counter() - start < 2.0
    out = capsys.readouterr().out
    expected = render_preference(EXPLICIT[spec][1](game))
    assert out.startswith(f"derived preference for monoid {spec}:\n{expected}maximal strategies: ")


def test_structural_monoids_are_immutable_and_test_membership_through_contains():
    g = ground(3)
    monoid = beta_both_monoid(g)
    with pytest.raises(AttributeError):
        monoid.ground = ground(2)
    game = random_dmp(random.Random(5), nx=4, ny=3, na=3)
    labels = game.strategies.labels
    expected = {
        (x1, x2)
        for x1 in labels
        for x2 in labels
        if monoid.contains(state_preference(game, x1, x2))
    }
    assert set(derive(game, monoid).rel.pairs()) == expected


def test_derive_never_builds_the_antichain():
    wide = random_dmp(random.Random(6), nx=12, ny=6, na=5)
    beta = surjective_monoid(wide.states)
    assert derive(wide, beta).rel == beta_explicit(wide).rel
    assert "min_antichain" not in beta.__dict__
