import itertools

import random

import pytest

from common import (
    compose_power,
    ground,
    has_strict_chain,
    longest_chain,
    pair_compose,
    pointwise_leq,
    product_order,
    random_partial_order,
)

from ordpref.fixtures import five_lattice
from ordpref.orders import (
    OrderValidationError,
    OutcomeMap,
    PartialOrder,
    down_set,
    from_comparabilities,
    pullback,
    strict_part,
)
from ordpref.relations import BinaryRelation, GroundSet, all_relations

Y2 = ground(2)
AB = GroundSet(("a", "b"))


def chain(*labels):
    g = GroundSet(labels)
    return from_comparabilities(g, list(zip(labels, labels[1:])))


class TestFromComparabilities:
    def test_five_lattice(self):
        order = five_lattice()
        assert order.le("0", "1")
        for u, v in itertools.permutations(("a", "b", "c"), 2):
            assert not order.le(u, v)

    def test_empty_pairs_give_trivial_order(self):
        order = from_comparabilities(AB, [])
        assert order.leq == BinaryRelation.identity(AB)

    def test_cycle_is_rejected(self):
        with pytest.raises(OrderValidationError, match="antisymmetric"):
            from_comparabilities(AB, [("a", "b"), ("b", "a")])


class TestStrictPart:
    def test_chain(self):
        assert strict_part(chain("a", "b")).pairs() == (("a", "b"),)

    def test_trivial(self):
        assert strict_part(PartialOrder.trivial(AB)).pairs() == ()

    def test_five_lattice_has_seven_strict_pairs(self):
        pairs = set(strict_part(five_lattice()).pairs())
        assert pairs == {
            ("0", "a"), ("0", "b"), ("0", "c"),
            ("a", "1"), ("b", "1"), ("c", "1"), ("0", "1"),
        }


class TestPointwiseLeq:
    def test_reflexive(self):
        order = chain("a", "b")
        phi = OutcomeMap.from_labels(Y2, order.ground, ("a", "b"))
        assert pointwise_leq(phi, phi, order)

    def test_one_coordinate_rises(self):
        order = chain("a", "b")
        phi = OutcomeMap.from_labels(Y2, order.ground, ("a", "a"))
        psi = OutcomeMap.from_labels(Y2, order.ground, ("a", "b"))
        assert pointwise_leq(phi, psi, order)

    def test_crossed_maps_fail(self):
        order = chain("a", "b")
        phi = OutcomeMap.from_labels(Y2, order.ground, ("a", "b"))
        psi = OutcomeMap.from_labels(Y2, order.ground, ("b", "a"))
        assert not pointwise_leq(phi, psi, order)


def all_orders(g: GroundSet):
    return [
        PartialOrder(g, r) for r in all_relations(g) if r.classify().partial_order
    ]


def pullback_pairs_oracle(phi, psi, order):
    # relational-composition form: graph(phi), then order, then graph(psi)^-1
    graph_phi = {(y, phi.apply(y)) for y in phi.domain.labels}
    graph_psi_inv = {(psi.apply(y), y) for y in psi.domain.labels}
    return pair_compose(pair_compose(graph_phi, set(order.leq.pairs())), graph_psi_inv)


class TestPullback:
    def test_same_map_is_reflexive(self):
        order = five_lattice()
        phi = OutcomeMap.from_labels(Y2, order.ground, ("b", "c"))
        assert BinaryRelation.identity(Y2).is_subset(pullback(phi, phi, order))

    def test_crossed_chain(self):
        order = chain("a", "b")
        phi = OutcomeMap.from_labels(Y2, order.ground, ("a", "b"))
        psi = OutcomeMap.from_labels(Y2, order.ground, ("b", "a"))
        assert set(pullback(phi, psi, order).pairs()) == {
            ("y1", "y1"), ("y1", "y2"), ("y2", "y1"),
        }

    @pytest.mark.parametrize("ny,na", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_matches_composition_form_exhaustively(self, ny, na):
        gy = ground(ny)
        ga = GroundSet(tuple(f"a{i}" for i in range(na)))
        for order in all_orders(ga):
            for vals1 in itertools.product(range(na), repeat=ny):
                phi = OutcomeMap(gy, ga, vals1)
                for vals2 in itertools.product(range(na), repeat=ny):
                    psi = OutcomeMap(gy, ga, vals2)
                    got = set(pullback(phi, psi, order).pairs())
                    assert got == pullback_pairs_oracle(phi, psi, order)

    def test_pointwise_iff_diagonal_inside_pullback(self):
        gy = ground(2)
        order = five_lattice()
        ga = order.ground
        delta = BinaryRelation.identity(gy)
        for vals1 in itertools.product(range(5), repeat=2):
            for vals2 in itertools.product(range(5), repeat=2):
                phi, psi = OutcomeMap(gy, ga, vals1), OutcomeMap(gy, ga, vals2)
                assert pointwise_leq(phi, psi, order) == delta.is_subset(
                    pullback(phi, psi, order)
                )


class TestProductOrder:
    def test_two_chains(self):
        prod = product_order(chain("a", "b"), chain("c", "d"))
        assert prod.le("(a,c)", "(b,d)")
        assert prod.le("(a,c)", "(a,d)") and prod.le("(a,c)", "(b,c)")
        assert not prod.le("(a,d)", "(b,c)") and not prod.le("(b,c)", "(a,d)")

    def test_product_with_trivial_is_disjoint_copies(self):
        w = chain("a", "b")
        prod = product_order(w, PartialOrder.trivial(Y2))
        assert prod.le("(a,y1)", "(b,y1)")
        assert not prod.le("(a,y1)", "(b,y2)")

    def test_plane_points(self):
        pts = GroundSet(("p11", "p21", "p12", "p31", "p13"))
        coords = {"p11": (1, 1), "p21": (2, 1), "p12": (1, 2), "p31": (3, 1), "p13": (1, 3)}
        pairs = [
            (u, v)
            for u in pts.labels
            for v in pts.labels
            if coords[u][0] <= coords[v][0] and coords[u][1] <= coords[v][1]
        ]
        order = PartialOrder(pts, BinaryRelation.from_pairs(pts, pairs))
        assert order.lt("p21", "p31") and order.lt("p12", "p13")
        for v in ("p21", "p12", "p31", "p13"):
            assert order.lt("p11", v)

    def test_axioms_random(self):
        # PartialOrder validates its axioms on construction; any successful
        # product construction is itself the assertion.
        rng = random.Random(7)
        for _ in range(25):
            left = random_partial_order(rng, GroundSet(("a", "b", "c")))
            right = random_partial_order(rng, Y2)
            product_order(left, right)


class TestDownSet:
    def test_lower_bounds_in_five_lattice(self):
        assert down_set(five_lattice(), {"b", "c", "0"}, mode="bounds") == {"0"}

    def test_lower_bounds_of_top(self):
        assert down_set(five_lattice(), {"1"}, mode="bounds") == {"0", "a", "b", "c", "1"}

    def test_union_mode(self):
        assert down_set(five_lattice(), {"b", "0"}, mode="union") == {"0", "b"}

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            down_set(five_lattice(), {"0"}, mode="either")


class TestChains:
    def test_trivial_order(self):
        assert longest_chain(PartialOrder.trivial(ground(4))) == 1

    def test_five_lattice(self):
        assert longest_chain(five_lattice()) == 3

    def test_linear_chain(self):
        assert longest_chain(chain("a", "b", "c", "d")) == 4
        assert has_strict_chain(chain("a", "b", "c", "d"), 4)
        assert not has_strict_chain(chain("a", "b", "c", "d"), 5)

    def test_strict_powers_track_chains(self):
        # k-fold strict composition is non-empty iff a (k+1)-element chain exists
        rng = random.Random(99)
        for size in (2, 3, 4, 5):
            order = random_partial_order(rng, ground(size), density=0.5)
            strict = strict_part(order)
            for k in range(1, size + 2):
                power = compose_power(strict, k - 1)
                nonempty = any(power.rows) if k > 1 else True
                assert nonempty == has_strict_chain(order, k)
