import pytest

from common import (
    closed_family_masks,
    dual,
    ground,
    includes,
    longest_chain,
    represent_relation,
)

from ordpref.dmp import DMP, derive, pareto, state_preference
from ordpref.fixtures import five_lattice
from ordpref.lattice import (
    MonoidLattice,
    canonical_names,
    element_labels,
    enumerate_exhaustive,
    enumerate_generated,
    export_dot,
    preference_census,
)
from ordpref.monoids import (
    atom_monoid,
    beta_both_monoid,
    closure,
    dictator_monoid,
    reflexive_monoid,
    surjective_monoid,
    total_monoid,
    universal_monoid,
)
from ordpref.orders import pullback
from ordpref.relations import BinaryRelation, GroundSet, all_relations

Y2 = ground(2)
Y3 = ground(3)


@pytest.fixture(scope="module")
def lattice() -> MonoidLattice:
    return enumerate_exhaustive(Y2)


class TestExhaustiveEnumeration:
    def test_element_count_is_pinned(self, lattice):
        assert len(lattice.elements) == 16

    def test_member_sets_match_the_oracle(self, lattice):
        rels = list(all_relations(Y2))
        masks = [
            sum(1 << r.bits for r in rels if monoid.contains(r))
            for monoid in lattice.elements
        ]
        assert masks == closed_family_masks(Y2)

    def test_rejects_other_sizes(self):
        with pytest.raises(ValueError):
            enumerate_exhaustive(Y3)

    def test_bounds(self, lattice):
        assert lattice.elements[lattice.least] == reflexive_monoid(Y2)
        assert lattice.elements[lattice.greatest] == universal_monoid(Y2)

    def test_all_canonical_monoids_appear(self, lattice):
        elements = set(lattice.elements)
        for _, monoid in canonical_names(Y2):
            assert monoid in elements

    def test_dual_atoms_are_the_four_maximal_monoids(self, lattice):
        got = {lattice.elements[i] for i in lattice.dual_atoms}
        assert got == {
            surjective_monoid(Y2),
            total_monoid(Y2),
            dictator_monoid(Y2, "y1"),
            dictator_monoid(Y2, "y2"),
        }

    def test_atoms_cover_the_least_element(self, lattice):
        got = {lattice.elements[i] for i in lattice.atoms}
        assert got == {atom_monoid(Y2, "y1"), atom_monoid(Y2, "y2")}
        assert got == {atom_monoid(Y2, y) for y in Y2.labels}

    def test_hasse_edges_are_cover_relations(self, lattice):
        n = len(lattice.elements)
        inclusion = [
            [includes(lattice.elements[j], lattice.elements[i]) for j in range(n)]
            for i in range(n)
        ]
        for i, j in lattice.hasse_edges:
            assert i != j and inclusion[i][j]
            for k in range(n):
                if k not in (i, j):
                    assert not (inclusion[i][k] and inclusion[k][j])

    def test_every_element_is_closed(self, lattice):
        # ClosedMonoid validates its axioms on construction; spot-check
        # membership structure anyway
        for monoid in lattice.elements:
            assert monoid.contains(BinaryRelation.full(Y2))
            assert monoid.contains(BinaryRelation.identity(Y2))

    def test_dual_permutes_the_lattice(self, lattice):
        elements = set(lattice.elements)
        assert {dual(m) for m in lattice.elements} == elements


class TestGeneratedEnumeration:
    def test_single_generator_closures_recover_all_sixteen(self, lattice):
        got = enumerate_generated(Y2, max_generators=2)
        assert set(got) == set(lattice.elements)

    def test_limit_guard(self):
        with pytest.raises(ValueError):
            enumerate_generated(Y3, max_generators=2)

    def test_three_state_pool(self):
        pool = [r for _, m in canonical_names(Y3) for r in m.min_antichain]
        got = {closure(Y3, [r]) for r in pool}
        for name, monoid in canonical_names(Y3):
            if name.startswith(("dictator", "atom")) or name == "pareto":
                assert monoid in got


class TestCensus:
    def game(self):
        order = five_lattice()
        return DMP(
            GroundSet(("x1", "x2")), Y2, order, ((2, 3), (0, 1))
        )

    def test_groups_partition_the_lattice(self, lattice):
        census = preference_census(self.game(), lattice)
        seen = [i for _, idxs in census for i in idxs]
        assert sorted(seen) == list(range(16))

    def test_pareto_group_contains_least(self, lattice):
        g = self.game()
        census = preference_census(g, lattice)
        for pref, idxs in census:
            if lattice.least in idxs:
                assert pref.rel == pareto(g).rel

    def test_wrong_state_set_rejected(self, lattice):
        g = DMP(GroundSet(("x1",)), Y3, five_lattice(), ((0, 1, 2),))
        with pytest.raises(Exception):
            preference_census(g, lattice)

    def test_census_respects_inclusion(self, lattice):
        census = preference_census(self.game(), lattice)
        rel_of = {}
        for pref, idxs in census:
            for i in idxs:
                rel_of[i] = pref.rel
        for i, j in lattice.hasse_edges:
            assert rel_of[i].is_subset(rel_of[j])


class TestRepresentation:
    @pytest.mark.parametrize("g", [Y2, Y3])
    def test_round_trip_every_relation(self, g):
        for sigma in all_relations(g):
            order, phi, psi = represent_relation(sigma)
            assert pullback(phi, psi, order) == sigma

    def test_round_trip_through_a_game(self):
        sigma = BinaryRelation.from_pairs(Y2, [("y1", "y2")])
        order, phi, psi = represent_relation(sigma)
        game = DMP(GroundSet(("x1", "x2")), Y2, order, (phi.values, psi.values))
        assert state_preference(game, "x1", "x2") == sigma

    def test_order_is_at_most_two_levels(self):
        order, _, _ = represent_relation(BinaryRelation.full(Y3))
        assert longest_chain(order) == 2


class TestNaming:
    def test_all_sixteen_get_distinct_labels(self, lattice):
        labels = element_labels(lattice)
        assert len(labels) == len(set(labels)) == 16

    def test_canonical_labels_present(self, lattice):
        labels = set(element_labels(lattice))
        assert {
            "pareto", "universal", "beta", "dual-beta", "beta-both",
            "dictator:y1", "dictator:y2", "atom:y1", "atom:y2",
        } <= labels


class TestDot:
    def test_deterministic(self, lattice):
        assert export_dot(lattice) == export_dot(lattice)

    def test_structure(self, lattice):
        dot = export_dot(lattice)
        assert dot.startswith("digraph closed_submonoids {")
        assert dot.endswith("}\n")
        assert '"pareto"' in dot and '"universal"' in dot
        assert dot.count("->") == len(lattice.hasse_edges)

    def test_custom_labels(self, lattice):
        labels = [f"m{i}" for i in range(16)]
        dot = export_dot(lattice, labels)
        assert '"m0";' in dot
