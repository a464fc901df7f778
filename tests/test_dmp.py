import itertools
import random

import pytest

from common import (
    all_have_fixed_point,
    alpha_reference,
    beta_both_explicit,
    beta_explicit,
    characteristic_reference,
    check_regularity,
    dual_beta_explicit,
    ground,
    guaranteed_reference,
    includes,
    le,
    outcome,
    random_dmp,
    random_partial_order,
    represent_relation,
    saddle_reference,
    strict_part,
    trivial_order,
)

from ordpref import dmp, fixtures
from ordpref.dmp import (
    DMP,
    MorphismError,
    Preference,
    alpha,
    apply_morphism,
    characteristic_sets,
    check_functoriality,
    derive,
    dualize,
    is_suitable,
    pareto,
    saddle_points,
    state_preference,
    strict_pareto,
)
from ordpref.lattice import enumerate_exhaustive
from ordpref.monoids import (
    beta_both_monoid,
    dictator_monoid,
    filter_monoid,
    reflexive_monoid,
    surjective_monoid,
    total_monoid,
    universal_monoid,
)
from ordpref.orders import from_comparabilities
from ordpref.relations import BinaryRelation, GroundSet, all_relations


class TestFStar:
    def test_example1_rows(self):
        g = fixtures.example1()
        labels = g.outcomes.ground.labels
        assert tuple(labels[v] for v in g.f_star("x1").values) == ("b", "c", "0")
        assert tuple(labels[v] for v in g.f_star("x2").values) == ("0", "a", "1")

    def test_unknown_strategy(self):
        with pytest.raises(KeyError):
            fixtures.example1().f_star("x9")


class TestPareto:
    def test_example1_is_diagonal_only(self):
        g = fixtures.example1()
        assert pareto(g).rel == BinaryRelation.identity(g.strategies)

    def test_example3_strict_domination(self):
        g = fixtures.example3()
        assert strict_pareto(g).holds("x1", "x2")
        assert not strict_pareto(g).holds("x2", "x1")

    def test_single_strategy(self):
        X = GroundSet(("x1",))
        g = DMP(X, ground(2), fixtures.five_lattice(), ((0, 4),))
        assert pareto(g).rel == BinaryRelation.identity(X)


class TestStatePreference:
    def test_contains_diagonal_for_equal_strategies(self):
        g = fixtures.example1()
        for x in g.strategies.labels:
            rho = state_preference(g, x, x)
            assert BinaryRelation.identity(g.states).is_subset(rho)

    def test_example1_cells(self):
        g = fixtures.example1()
        rho = state_preference(g, "x1", "x2")
        expected = {
            (y1, y2)
            for y1 in g.states.labels
            for y2 in g.states.labels
            if le(g.outcomes, outcome(g, "x1", y1), outcome(g, "x2", y2))
        }
        assert set(rho.pairs()) == expected
        assert rho.holds("y3", "y1")  # 0 <= 0
        assert rho.holds("y1", "y3")  # b <= 1

    def test_trivial_outcome_order_reduces_to_equality(self):
        X, Y = GroundSet(("x1", "x2")), ground(2)
        A = trivial_order(GroundSet(("a", "b", "c")))
        g = DMP(X, Y, A, ((0, 1), (1, 2)))
        rho = state_preference(g, "x1", "x2")
        expected = {
            (y1, y2)
            for y1 in Y.labels
            for y2 in Y.labels
            if outcome(g, "x1", y1) == outcome(g, "x2", y2)
        }
        assert set(rho.pairs()) == expected


class TestDerive:
    def test_reflexive_monoid_gives_pareto(self):
        rng = random.Random(3)
        for _ in range(30):
            g = random_dmp(rng, ny=rng.randrange(1, 4))
            monoid = reflexive_monoid(g.states)
            assert derive(g, monoid).rel == pareto(g).rel

    def test_universal_monoid_gives_complete_relation(self):
        g = fixtures.example1()
        assert derive(g, universal_monoid(g.states)).rel == BinaryRelation.full(
            g.strategies
        )

    def test_explicit_beta_forms_agree(self):
        monoids = {
            n: (surjective_monoid(ground(n)), total_monoid(ground(n)), beta_both_monoid(ground(n)))
            for n in (1, 2, 3)
        }
        rng = random.Random(5)
        for _ in range(40):
            g = random_dmp(
                rng, nx=rng.randint(1, 40), ny=rng.randrange(1, 4), na=rng.randint(1, 12)
            )
            beta, dual_beta, beta_both = monoids[g.states.size]
            assert derive(g, beta).rel == beta_explicit(g).rel
            assert derive(g, dual_beta).rel == dual_beta_explicit(g).rel
            assert derive(g, beta_both).rel == beta_both_explicit(g).rel

    def test_example1_beta_both_ways(self):
        g = fixtures.example1()
        assert derive(g, surjective_monoid(g.states)).rel == beta_explicit(g).rel

    def test_single_state_collapses_to_pareto(self):
        rng = random.Random(11)
        for _ in range(10):
            g = random_dmp(rng, ny=1)
            p = pareto(g).rel
            assert beta_explicit(g).rel == p
            assert dual_beta_explicit(g).rel == p
            assert beta_both_explicit(g).rel == p

    def test_monotone_in_the_monoid(self):
        g = fixtures.example4()
        lattice = enumerate_exhaustive(g.states)
        prefs = [derive(g, m) for m in lattice.elements]
        for i, a in enumerate(lattice.elements):
            for j, b in enumerate(lattice.elements):
                if includes(b, a):
                    assert prefs[i].rel.is_subset(prefs[j].rel)

    def test_always_contains_pareto_and_is_preorder(self):
        rng = random.Random(17)
        for _ in range(40):
            g = random_dmp(rng, nx=3, ny=2)
            for monoid in (
                surjective_monoid(g.states),
                dictator_monoid(g.states, "y1"),
                universal_monoid(g.states),
            ):
                pref = derive(g, monoid)  # Preference validates preorder-ness
                assert pareto(g).rel.is_subset(pref.rel)


class TestAlphaAndValue:
    def test_example1(self):
        report = alpha(fixtures.example1())
        assert report.guaranteed["x1"] == report.guaranteed["x2"] == {"0"}
        assert "x1" in report.greatest

    def test_example4_base_and_extension(self):
        base = alpha(fixtures.example4())
        assert base.guaranteed["x1"] == {"0", "b"}
        assert base.guaranteed["x2"] == base.guaranteed["x3"] == {"0"}
        assert base.greatest == ("x1",)
        ext = alpha(fixtures.example4_extended())
        assert not ext.preference.holds("x1", "x2")
        assert not ext.preference.holds("x2", "x1")

    def test_example1_characteristics(self):
        cs = characteristic_sets(fixtures.example1())
        assert cs.lower == cs.upper == {"0"}
        dual_cs = characteristic_sets(dualize(fixtures.example1()))
        assert dual_cs.lower == {"b", "1"}
        assert dual_cs.upper == frozenset("0abc1")
        assert not dual_cs.has_generalized_value

    def test_lower_inside_upper_randomized(self):
        rng = random.Random(23)
        for _ in range(60):
            g = random_dmp(rng, nx=3, ny=2, na=4)
            cs = characteristic_sets(g)  # checks lower <= upper internally
            assert cs.lower <= cs.upper

    def test_broken_invariant_raises(self, monkeypatch):
        # Not reachable on a valid game; forcing it shows the check is a
        # real raise, which `python -O` does not strip.
        everything = (1 << fixtures.five_lattice().ground.size) - 1
        monkeypatch.setattr(
            dmp, "_floors", lambda game: [everything] * game.strategies.size
        )
        with pytest.raises(RuntimeError, match="lower characteristic set"):
            characteristic_sets(fixtures.example1())

    def test_constant_game(self):
        g = DMP(GroundSet(("x1", "x2")), ground(2), fixtures.five_lattice(), ((2, 2), (2, 2)))
        cs = characteristic_sets(g)
        assert cs.has_generalized_value
        assert cs.lower == {"0", "b"}

    def test_guaranteed_are_common_lower_bounds(self):
        # row x1 of example 1 is (b, c, 0) in the five-element lattice
        assert alpha(fixtures.example1()).guaranteed["x1"] == {"0"}

    def test_guaranteed_below_top_is_everything(self):
        g = DMP(GroundSet(("x1",)), ground(2), fixtures.five_lattice(), ((4, 4),))
        assert alpha(g).guaranteed["x1"] == {"0", "a", "b", "c", "1"}

    def test_upper_set_is_union_of_principal_ideals(self):
        # one state whose column is (b, 0): the outcomes below b or below 0
        g = DMP(GroundSet(("x1", "x2")), ground(1), fixtures.five_lattice(), ((2,), (0,)))
        assert characteristic_sets(g).upper == {"0", "b"}


class TestSaddlePoints:
    def test_example1_has_none(self):
        assert saddle_points(fixtures.example1()) == ()

    def test_constant_game_all_situations(self):
        g = DMP(GroundSet(("x1", "x2")), ground(2), fixtures.five_lattice(), ((1, 1), (1, 1)))
        assert len(saddle_points(g)) == 4

    def test_chain_valued_game(self):
        A = GroundSet(("0", "1"))
        order = from_comparabilities(A, [("0", "1")])
        g = DMP(GroundSet(("x1", "x2")), ground(2), order, ((1, 1), (0, 0)))
        assert saddle_points(g) == (("x1", "y1"), ("x1", "y2"))


def alpha_games():
    """Seeded random games (1-6 strategies, 1-5 states, 1-10 outcomes), every
    fixture and the image of example 2, each also dualized."""
    rng = random.Random(71)
    games = [
        random_dmp(rng, nx=rng.randint(1, 6), ny=rng.randint(1, 5), na=rng.randint(1, 10))
        for _ in range(200)
    ]
    games += [
        fixtures.example1(),
        fixtures.example2(),
        fixtures.example3(),
        fixtures.example4(),
        fixtures.example4_extended(),
        apply_morphism(fixtures.example2(), *fixtures.example2_morphism())[1],
    ]
    return games + [dualize(g) for g in games]


class TestAgainstLabelSets:
    """Alpha, characteristic sets and saddle points read the order's bit
    rows; the references in `common` compute them on label sets."""

    @pytest.fixture(scope="class")
    def games(self):
        return alpha_games()

    def test_guaranteed_outcomes(self, games):
        for g in games:
            for x in g.strategies.labels:
                assert alpha(g).guaranteed[x] == guaranteed_reference(g, x)

    def test_alpha(self, games):
        for g in games:
            guaranteed, pairs, greatest = alpha_reference(g)
            report = alpha(g)
            assert report.guaranteed == guaranteed
            assert set(report.preference.rel.pairs()) == pairs
            assert report.greatest == greatest

    def test_characteristic_sets(self, games):
        for g in games:
            lower, upper = characteristic_reference(g)
            assert characteristic_sets(g) == dmp.CharacteristicSets(
                lower, upper, lower == upper
            )

    def test_saddle_points(self, games):
        found = 0
        for g in games:
            points = saddle_points(g)
            assert points == saddle_reference(g)
            found += len(points)
        assert found  # the corpus is not vacuous


class TestDualize:
    def test_example1_dual_shape(self):
        d = dualize(fixtures.example1())
        assert d.strategies.labels == ("y1", "y2", "y3")
        assert d.states.labels == ("x1", "x2")
        assert alpha(d).greatest == ("y1",)

    def test_involution(self):
        g = fixtures.example4()
        assert dualize(dualize(g)) == g

    def test_dual_lower_set_is_dual_characteristic(self):
        g = fixtures.example1()
        assert characteristic_sets(dualize(g)).lower == {"b", "1"}


class TestMorphisms:
    def test_example2_convolution(self):
        g = fixtures.example2()
        mapping, target = fixtures.example2_morphism()
        morphism, image = apply_morphism(g, mapping, target)
        assert outcome(image, "x1", "y1") == "3"
        assert outcome(image, "x1", "y2") == "4"
        assert outcome(image, "x2", "y1") == "4"
        assert outcome(image, "x2", "y2") == "5"
        ok, witness = check_functoriality(morphism, reflexive_monoid(g.states))
        assert ok and witness is None

    def test_identity_morphism(self):
        g = fixtures.example1()
        mapping = {a: a for a in g.outcomes.ground.labels}
        _, image = apply_morphism(g, mapping, g.outcomes)
        assert image == g

    def test_constant_map_to_point(self):
        g = fixtures.example1()
        point = trivial_order(GroundSet(("z",)))
        mapping = {a: "z" for a in g.outcomes.ground.labels}
        _, image = apply_morphism(g, mapping, point)
        assert pareto(image).rel == BinaryRelation.full(g.strategies)

    def test_non_isotone_map_is_rejected(self):
        g = fixtures.example1()
        chain = from_comparabilities(GroundSet(("lo", "hi")), [("lo", "hi")])
        mapping = {"0": "hi", "a": "lo", "b": "lo", "c": "lo", "1": "lo"}
        with pytest.raises(MorphismError, match="isotone"):
            apply_morphism(g, mapping, chain)

    def test_partial_map_and_unknown_image_get_their_own_messages(self):
        g = fixtures.example1()
        chain = from_comparabilities(GroundSet(("lo", "hi")), [("lo", "hi")])
        partial = {"0": "lo", "a": "lo", "b": "lo", "1": "hi"}
        with pytest.raises(MorphismError) as exc:
            apply_morphism(g, partial, chain)
        assert str(exc.value) == "outcome map is not total: missing 'c'"
        unknown = {a: "zz" for a in g.outcomes.ground.labels}
        with pytest.raises(MorphismError) as exc:
            apply_morphism(g, unknown, chain)
        assert str(exc.value) == "image 'zz' of '0' is not a target outcome"

    def test_first_isotony_violation_is_reported(self):
        # pairs are checked in row order of the source order, so the first
        # one the map breaks is 0 <= a
        g = fixtures.example1()
        chain = from_comparabilities(GroundSet(("lo", "hi")), [("lo", "hi")])
        mapping = {"0": "hi", "a": "lo", "b": "lo", "c": "lo", "1": "lo"}
        with pytest.raises(MorphismError) as exc:
            apply_morphism(g, mapping, chain)
        assert str(exc.value) == "map is not isotone: 0 <= a but hi !<= lo"

    def test_isotony_check_matches_all_pairs_scan(self):
        rng = random.Random(37)
        for _ in range(150):
            g = random_dmp(rng, nx=2, ny=2, na=rng.randint(1, 6))
            target = random_partial_order(
                rng, GroundSet(tuple(f"b{i}" for i in range(rng.randint(1, 5))))
            )
            mapping = {a: rng.choice(target.ground.labels) for a in g.outcomes.ground.labels}
            labels = g.outcomes.ground.labels
            broken = [
                f"map is not isotone: {u} <= {v} but {mapping[u]} !<= {mapping[v]}"
                for u in labels
                for v in labels
                if le(g.outcomes, u, v) and not le(target, mapping[u], mapping[v])
            ]
            if broken:
                with pytest.raises(MorphismError) as exc:
                    apply_morphism(g, mapping, target)
                assert str(exc.value) == broken[0]
            else:
                apply_morphism(g, mapping, target)

    def test_functoriality_randomized(self):
        rng = random.Random(31)
        for _ in range(100):
            g = random_dmp(rng, nx=rng.randrange(2, 4), ny=rng.randrange(1, 4), na=4)
            morphism = random_isotone_morphism(rng, g)
            for monoid in (
                reflexive_monoid(g.states),
                surjective_monoid(g.states),
                dictator_monoid(g.states, "y1"),
            ):
                ok, witness = check_functoriality(morphism, monoid)
                assert ok, witness


def random_isotone_morphism(rng, game):
    """Collapse outcomes onto a chain through a linear extension."""
    order = game.outcomes
    strict = strict_part(order)
    labels = list(order.ground.labels)
    # topological sort of the strict part
    placed, result = set(), []
    while labels:
        for lab in labels:
            if all(u in placed for u, v in strict.pairs() if v == lab):
                placed.add(lab)
                result.append(lab)
                labels.remove(lab)
                break
    ranks = {}
    rank = 0
    for lab in result:
        ranks[lab] = rank
        if rng.random() < 0.7:
            rank += 1
    chain_ground = GroundSet(tuple(f"c{i}" for i in range(max(ranks.values()) + 1)))
    chain = from_comparabilities(
        chain_ground,
        [(f"c{i}", f"c{i + 1}") for i in range(chain_ground.size - 1)],
    )
    mapping = {lab: f"c{ranks[lab]}" for lab in order.ground.labels}
    morphism, _ = apply_morphism(game, mapping, chain)
    return morphism


class TestRegularity:
    def test_same_game_same_pair(self):
        g = fixtures.example1()
        result = check_regularity(g, g, ("x1", "x2"), ("x1", "x2"), surjective_monoid(g.states))
        assert result.premise_holds and result.holds

    def test_shared_state_preference_instances(self):
        rng = random.Random(41)
        states = ground(2)
        X = GroundSet(("x1", "x2"))
        for rel in all_relations(states):
            order, phi, psi = represent_relation(rel)
            g1 = DMP(X, states, order, (phi.values, psi.values))
            # second game: same representation plus a shuffled extra strategy
            X3 = GroundSet(("u", "v", "w"))
            extra = tuple(rng.randrange(order.ground.size) for _ in range(2))
            g2 = DMP(X3, states, order, (extra, phi.values, psi.values))
            for monoid in (surjective_monoid(states), dictator_monoid(states, "y2")):
                result = check_regularity(g1, g2, ("x1", "x2"), ("v", "w"), monoid)
                assert result.premise_holds and result.holds

    def test_failed_premise_is_flagged(self):
        g = fixtures.example1()
        result = check_regularity(g, g, ("x1", "x2"), ("x2", "x1"), reflexive_monoid(g.states))
        assert not result.premise_holds and result.holds


class TestSuitability:
    def test_example3_alpha_is_unsuitable(self):
        g = fixtures.example3()
        ok, witness = is_suitable(g, alpha(g).preference)
        assert not ok
        assert witness == ("x2", "x1")

    def test_dictator_preferences_are_suitable(self):
        rng = random.Random(43)
        for _ in range(30):
            g = random_dmp(rng, nx=3, ny=2, na=4)
            pref = derive(g, dictator_monoid(g.states, "y2"))
            assert is_suitable(g, pref)[0]

    def test_every_non_universal_monoid_is_suitable_on_finite_outcomes(self):
        rng = random.Random(47)
        states = ground(2)
        lattice = enumerate_exhaustive(states)
        universal = universal_monoid(states)
        for _ in range(15):
            g = random_dmp(rng, nx=3, ny=2, na=4)
            for monoid in lattice.elements:
                if monoid == universal:
                    continue
                assert is_suitable(g, derive(g, monoid))[0]

    def test_fixed_point_monoids_are_suitable(self):
        rng = random.Random(53)
        states = ground(2)
        monoids = [
            m for m in enumerate_exhaustive(states).elements if all_have_fixed_point(m)
        ]
        assert monoids
        for _ in range(15):
            g = random_dmp(rng, nx=3, ny=2, na=4)
            for monoid in monoids:
                assert is_suitable(g, derive(g, monoid))[0]


class TestPreference:
    def test_rejects_non_preorder(self):
        X = GroundSet(("x1", "x2"))
        with pytest.raises(ValueError):
            Preference(X, BinaryRelation.from_pairs(X, [("x1", "x2")]))

    def test_maximal_and_greatest(self):
        X = GroundSet(("x1", "x2", "x3"))
        rel = BinaryRelation.from_pairs(
            X, [(x, x) for x in X.labels] + [("x2", "x1"), ("x3", "x1")]
        )
        pref = Preference(X, rel)
        assert pref.greatest() == ("x1",)
        assert pref.maximal() == ("x1",)

    def test_maximal_and_greatest_match_the_transpose(self):
        rng = random.Random(43)
        seen = set()
        for _ in range(300):
            n = rng.randint(1, 8)
            X = GroundSet(tuple(f"x{i + 1}" for i in range(n)))
            pairs = [(i, i) for i in range(n)]
            pairs += [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))]
            rel = BinaryRelation.from_index_pairs(X, pairs).transitive_closure()
            pref = Preference(X, rel)
            strict = rel.difference(rel.inverse())
            full = (1 << n) - 1
            maximal = tuple(x for x, row in zip(X.labels, strict.rows) if not row)
            greatest = tuple(x for x, col in zip(X.labels, rel.inverse().rows) if col == full)
            assert pref.maximal() == maximal
            assert pref.greatest() == greatest
            seen.add((len(maximal) > 1, bool(greatest)))
        assert len(seen) >= 3  # several maximal, a greatest one, and neither
