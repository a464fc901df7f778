"""End-to-end acceptance checks, one printed verdict line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import itertools
import random
import time

import pytest

from common import (
    beta_both_explicit,
    beta_explicit,
    compose_power,
    dual_beta_explicit,
    ground,
    longest_chain,
    random_dmp,
    random_partial_order,
)

from ordpref import fixtures
from ordpref.cli import main
from ordpref.dmp import (
    DMP,
    alpha,
    apply_morphism,
    characteristic_sets,
    check_functoriality,
    check_regularity,
    derive,
    dualize,
    is_suitable,
    pareto,
    saddle_points,
    strict_pareto,
)
from ordpref.lattice import enumerate_exhaustive, represent_relation
from ordpref.monoids import (
    beta_both_monoid,
    dictator_monoid,
    filter_monoid,
    idempotent_monoid,
    reflexive_monoid,
    surjective_monoid,
    total_monoid,
    universal_monoid,
)
from ordpref.orders import (
    from_comparabilities,
    pullback,
    strict_part,
)
from ordpref.relations import BinaryRelation, GroundSet, all_relations


def verdict(n: int, text: str) -> None:
    print(f"[PASS] criterion {n}: {text}")


# --- criterion 1: anomaly corpus, exact golden values ------------------------


def test_criterion_1_anomaly_corpus():
    # (a) value without saddle points, and duality failure
    g1 = fixtures.example1()
    assert "x1" in alpha(g1).greatest
    assert "y1" in alpha(dualize(g1)).greatest
    cs = characteristic_sets(g1)
    assert cs.has_generalized_value and cs.lower == cs.upper == {"0"}
    assert saddle_points(g1) == ()
    assert not characteristic_sets(dualize(g1)).has_generalized_value

    # (b) best strategy flips under an outcome-collapsing map
    g2 = fixtures.example2()
    mapping, target = fixtures.example2_morphism()
    _, image = apply_morphism(g2, mapping, target)
    assert alpha(g2).greatest == ("x1",)
    assert alpha(image).greatest == ("x2",)

    # (c) equal guaranteed sets despite strict domination
    g3 = fixtures.example3()
    a3 = alpha(g3)
    assert a3.guaranteed["x1"] == a3.guaranteed["x2"]
    assert strict_pareto(g3).holds("x1", "x2")
    assert not is_suitable(g3, a3.preference)[0]

    # (d) greatest strategy lost after adding never-realized outcomes
    g4, g4x = fixtures.example4(), fixtures.example4_extended()
    assert alpha(g4).greatest == ("x1",)
    a4x = alpha(g4x).preference
    assert not a4x.holds("x1", "x2") and not a4x.holds("x2", "x1")

    verdict(1, "all four anomaly fixtures reproduce their golden outcomes exactly")


# --- criterion 2: monoid membership matches the quantifier formulas ----------


def poset_catalog():
    def mk(labels, pairs):
        g = GroundSet(tuple(labels))
        return from_comparabilities(g, pairs)

    return {
        "chain2": mk("01", [("0", "1")]),
        "chain3": mk("012", [("0", "1"), ("1", "2")]),
        "antichain2": mk("ab", []),
        "antichain3": mk("abc", []),
        "vee": mk("0ab", [("0", "a"), ("0", "b")]),
        "wedge": mk("ab1", [("a", "1"), ("b", "1")]),
        "diamond": mk("0ab1", [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")]),
    }


def all_two_strategy_games(order, ny):
    states = ground(ny)
    X = GroundSet(("x1", "x2"))
    na = order.ground.size
    for row1 in itertools.product(range(na), repeat=ny):
        for row2 in itertools.product(range(na), repeat=ny):
            yield DMP(X, states, order, (row1, row2))


def test_criterion_2_formula_equivalences():
    checked = 0
    for order in poset_catalog().values():
        for ny in (1, 2, 3):
            states = ground(ny)
            monoids = [
                (reflexive_monoid(states), lambda g: pareto(g)),
                (surjective_monoid(states), beta_explicit),
                (total_monoid(states), dual_beta_explicit),
                (beta_both_monoid(states), beta_both_explicit),
            ]
            for game in all_two_strategy_games(order, ny):
                for monoid, explicit in monoids:
                    assert derive(game, monoid).rel == explicit(game).rel
                    checked += 1

    # membership through an idempotent generator: either pointwise domination
    # or domination across every generator pair
    states = ground(2)
    idempotents = [
        r for r in all_relations(states) if compose_power(r, 2) == r
    ]
    assert idempotents
    for sigma in idempotents:
        monoid = idempotent_monoid(states, sigma)
        for order in poset_catalog().values():
            for game in all_two_strategy_games(order, 2):
                got = derive(game, monoid)
                for x1, x2 in itertools.product(("x1", "x2"), repeat=2):
                    expected = pareto(game).holds(x1, x2) or all(
                        game.outcomes.le(game.outcome(x1, y1), game.outcome(x2, y2))
                        for y1, y2 in sigma.pairs()
                    )
                    assert got.holds(x1, x2) == expected
                    checked += 1

    verdict(2, f"derived preferences match the explicit formulas ({checked} checks, 0 mismatches)")


# --- criterion 3: preorder/Pareto/functoriality/regularity, randomized -------


def test_criterion_3_functor_properties():
    from test_dmp import random_isotone_morphism

    rng = random.Random(2026)
    cases = 0
    for _ in range(400):
        g = random_dmp(rng, nx=rng.randrange(2, 4), ny=rng.randrange(1, 4), na=4)
        states = g.states
        for monoid in (
            reflexive_monoid(states),
            surjective_monoid(states),
            total_monoid(states),
            dictator_monoid(states, states.labels[0]),
            universal_monoid(states),
        ):
            pref = derive(g, monoid)  # construction validates the preorder axioms
            assert pareto(g).rel.is_subset(pref.rel)
            cases += 1

    for _ in range(300):
        g = random_dmp(rng, nx=rng.randrange(2, 4), ny=rng.randrange(1, 4), na=4)
        morphism = random_isotone_morphism(rng, g)
        for monoid in (
            reflexive_monoid(g.states),
            surjective_monoid(g.states),
            dictator_monoid(g.states, g.states.labels[-1]),
        ):
            ok, witness = check_functoriality(morphism, monoid)
            assert ok, witness
            cases += 1

    states = ground(2)
    X2, X3 = GroundSet(("x1", "x2")), GroundSet(("u", "v", "w"))
    rels = list(all_relations(states))
    for _ in range(300):
        sigma = rng.choice(rels)
        order, phi, psi = represent_relation(sigma)
        g1 = DMP(X2, states, order, (phi.values, psi.values))
        extra = tuple(rng.randrange(order.ground.size) for _ in range(2))
        g2 = DMP(X3, states, order, (extra, phi.values, psi.values))
        monoid = rng.choice(
            [surjective_monoid(states), total_monoid(states), dictator_monoid(states, "y1")]
        )
        result = check_regularity(g1, g2, ("x1", "x2"), ("v", "w"), monoid)
        assert result.premise_holds and result.holds
        cases += 1

    verdict(3, f"preorder, Pareto-inclusion, morphism and regularity properties hold ({cases} cases, 0 counterexamples)")


# --- criterion 4: every relation arises as a pullback ------------------------


def test_criterion_4_representation_round_trip():
    total = 0
    for n in (2, 3):
        for sigma in all_relations(ground(n)):
            order, phi, psi = represent_relation(sigma)
            # PartialOrder validated the order axioms on construction
            assert pullback(phi, psi, order) == sigma
            total += 1
    assert total == 16 + 512
    verdict(4, "pullback round trip is exact for all 528 relations on 2 and 3 states")


# --- criterion 5: the two-state lattice ---------------------------------------


def test_criterion_5_two_state_lattice():
    states = ground(2)
    start = time.perf_counter()
    lattice = enumerate_exhaustive(states)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0

    assert len(lattice.elements) == 16  # pinned regression constant
    assert lattice.elements[lattice.least] == reflexive_monoid(states)
    assert lattice.elements[lattice.greatest] == universal_monoid(states)
    duals = {lattice.elements[i] for i in lattice.dual_atoms}
    assert duals == {
        surjective_monoid(states),
        total_monoid(states),
        dictator_monoid(states, "y1"),
        dictator_monoid(states, "y2"),
    }
    atom_indices = set(lattice.atoms)
    covering_least = {j for i, j in lattice.hasse_edges if i == lattice.least}
    assert atom_indices == covering_least and len(atom_indices) == 2

    verdict(5, f"16 closed submonoids with the expected bounds, atoms and dual atoms ({elapsed:.2f}s)")


# --- criterion 6: suitability guarantees --------------------------------------


def test_criterion_6_suitability():
    rng = random.Random(6060)
    checked = 0

    # every filter-based preference respects strict domination
    for _ in range(500):
        g = random_dmp(rng, nx=3, ny=rng.randrange(1, 4), na=4)
        labels = list(g.states.labels)
        base = rng.sample(labels, rng.randrange(1, len(labels) + 1))
        pref = derive(g, filter_monoid(g.states, base))
        assert is_suitable(g, pref)[0]
        checked += 1

    # on two states, every enumerated monoid except the largest one does too
    states = ground(2)
    lattice = enumerate_exhaustive(states)
    universal = universal_monoid(states)
    non_universal = [m for m in lattice.elements if m != universal]
    assert len(non_universal) == 15
    for _ in range(100):
        g = random_dmp(rng, nx=3, ny=2, na=4)
        for monoid in non_universal:
            assert is_suitable(g, derive(g, monoid))[0]
            checked += 1

    # strict-part powers die out at the longest chain, so no finite poset can
    # feed an unboundedly long strict descent through a state preference
    for _ in range(100):
        order = random_partial_order(rng, ground(rng.randrange(2, 6)), density=0.5)
        k = longest_chain(order)
        strict = strict_part(order)
        assert compose_power(strict, k) == BinaryRelation.empty(order.ground)
        if k > 1:
            assert compose_power(strict, k - 1) != BinaryRelation.empty(order.ground)
        checked += 1

    verdict(6, f"filter and non-universal preferences stay suitable; strict chains terminate ({checked} checks)")


# --- criterion 7: CLI contract -------------------------------------------------


def test_criterion_7_cli_contract(tmp_path, capsys):
    assert main(["anomalies"]) == 0
    out = capsys.readouterr().out
    assert "4/4 scenarios passed" in out

    dot1, dot2 = tmp_path / "a.dot", tmp_path / "b.dot"
    assert main(["lattice", "--states", "2", "--dot", str(dot1)]) == 0
    assert main(["lattice", "--states", "2", "--dot", str(dot2)]) == 0
    capsys.readouterr()
    assert dot1.read_bytes() == dot2.read_bytes()

    cyclic = tmp_path / "cyclic.dmp"
    cyclic.write_text(
        "outcomes: a b\norder: a<b b<a\nstrategies: x1\nstates: y1\nrow x1: a\n"
    )
    assert main(["validate", "--dmp", str(cyclic)]) == 2
    assert "error:" in capsys.readouterr().err

    verdict(7, "anomalies exit 0 at 4/4, DOT output is byte-identical, cyclic order rejected with exit 2")
