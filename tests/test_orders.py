import itertools

import random

import pytest

from common import (
    compose_power,
    ground,
    has_strict_chain,
    le,
    longest_chain,
    outcome_map,
    pair_compose,
    pointwise_leq,
    product_order,
    random_partial_order,
    strict_part,
    trivial_order,
)

from ordpref.fixtures import five_lattice
from ordpref.orders import (
    OrderValidationError,
    OutcomeMap,
    PartialOrder,
    from_comparabilities,
    pullback,
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
        assert le(order, "0", "1")
        for u, v in itertools.permutations(("a", "b", "c"), 2):
            assert not le(order, u, v)

    def test_empty_pairs_give_trivial_order(self):
        order = from_comparabilities(AB, [])
        assert order.leq == BinaryRelation.identity(AB)

    def test_cycle_is_rejected(self):
        with pytest.raises(OrderValidationError, match="antisymmetric"):
            from_comparabilities(AB, [("a", "b"), ("b", "a")])


def validation_message(rel: BinaryRelation) -> str | None:
    """The error PartialOrder must raise on `rel`, from its profile and the
    first symmetric off-diagonal pair in row order; None for an order."""
    profile = rel.classify()
    if not profile.reflexive:
        return "order must be reflexive"
    if not profile.transitive:
        return "order must be transitive"
    for u, v in rel.pairs():
        if u != v and rel.holds(v, u):
            return f"order must be antisymmetric; cycle between {u!r} and {v!r}"
    return None


class TestValidation:
    def test_messages(self):
        abc = GroundSet(("a", "b", "c"))
        cases = [
            (BinaryRelation(AB, 0), "order must be reflexive"),
            (
                BinaryRelation.from_pairs(
                    abc, [(x, x) for x in abc.labels] + [("a", "b"), ("b", "c")]
                ),
                "order must be transitive",
            ),
            (
                BinaryRelation.full(abc),
                "order must be antisymmetric; cycle between 'a' and 'b'",
            ),
        ]
        for rel, message in cases:
            with pytest.raises(OrderValidationError) as exc:
                PartialOrder(rel.ground, rel)
            assert str(exc.value) == message

    def test_every_relation_on_three_elements(self):
        # one pass over all 512 relations, plus random ones on four
        rng = random.Random(5)
        g4 = ground(4)
        rels = list(all_relations(ground(3)))
        rels += [BinaryRelation(g4, rng.getrandbits(16)) for _ in range(300)]
        rels += [random_partial_order(rng, g4).leq for _ in range(50)]
        rels += [
            BinaryRelation.from_index_pairs(g4, [(i, i) for i in range(4)] + [(0, 2), (2, 0)])
        ]
        for rel in rels:
            message = validation_message(rel)
            if message is None:
                assert PartialOrder(rel.ground, rel).leq == rel
            else:
                with pytest.raises(OrderValidationError) as exc:
                    PartialOrder(rel.ground, rel)
                assert str(exc.value) == message


class TestStrictPart:
    def test_chain(self):
        assert strict_part(chain("a", "b")).pairs() == (("a", "b"),)

    def test_trivial(self):
        assert strict_part(trivial_order(AB)).pairs() == ()

    def test_five_lattice_has_seven_strict_pairs(self):
        pairs = set(strict_part(five_lattice()).pairs())
        assert pairs == {
            ("0", "a"), ("0", "b"), ("0", "c"),
            ("a", "1"), ("b", "1"), ("c", "1"), ("0", "1"),
        }


class TestPointwiseLeq:
    def test_reflexive(self):
        order = chain("a", "b")
        phi = outcome_map(Y2, order.ground, ("a", "b"))
        assert pointwise_leq(phi, phi, order)

    def test_one_coordinate_rises(self):
        order = chain("a", "b")
        phi = outcome_map(Y2, order.ground, ("a", "a"))
        psi = outcome_map(Y2, order.ground, ("a", "b"))
        assert pointwise_leq(phi, psi, order)

    def test_crossed_maps_fail(self):
        order = chain("a", "b")
        phi = outcome_map(Y2, order.ground, ("a", "b"))
        psi = outcome_map(Y2, order.ground, ("b", "a"))
        assert not pointwise_leq(phi, psi, order)


def all_orders(g: GroundSet):
    return [
        PartialOrder(g, r) for r in all_relations(g) if r.classify().partial_order
    ]


def pullback_pairs_oracle(phi, psi, order):
    # relational-composition form: graph(phi), then order, then graph(psi)^-1
    graph_phi = {(y, phi.codomain.labels[v]) for y, v in zip(phi.domain.labels, phi.values)}
    graph_psi_inv = {(psi.codomain.labels[v], y) for y, v in zip(psi.domain.labels, psi.values)}
    return pair_compose(pair_compose(graph_phi, set(order.leq.pairs())), graph_psi_inv)


class TestPullback:
    def test_same_map_is_reflexive(self):
        order = five_lattice()
        phi = outcome_map(Y2, order.ground, ("b", "c"))
        assert BinaryRelation.identity(Y2).is_subset(pullback(phi, phi, order))

    def test_crossed_chain(self):
        order = chain("a", "b")
        phi = outcome_map(Y2, order.ground, ("a", "b"))
        psi = outcome_map(Y2, order.ground, ("b", "a"))
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
        assert le(prod, "(a,c)", "(b,d)")
        assert le(prod, "(a,c)", "(a,d)") and le(prod, "(a,c)", "(b,c)")
        assert not le(prod, "(a,d)", "(b,c)") and not le(prod, "(b,c)", "(a,d)")

    def test_product_with_trivial_is_disjoint_copies(self):
        w = chain("a", "b")
        prod = product_order(w, trivial_order(Y2))
        assert le(prod, "(a,y1)", "(b,y1)")
        assert not le(prod, "(a,y1)", "(b,y2)")

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
        for u, v in (("p21", "p31"), ("p12", "p13")):
            assert u != v and le(order, u, v)
        for v in ("p21", "p12", "p31", "p13"):
            assert v != "p11" and le(order, "p11", v)

    def test_axioms_random(self):
        # PartialOrder validates its axioms on construction; any successful
        # product construction is itself the assertion.
        rng = random.Random(7)
        for _ in range(25):
            left = random_partial_order(rng, GroundSet(("a", "b", "c")))
            right = random_partial_order(rng, Y2)
            product_order(left, right)


class TestChains:
    def test_trivial_order(self):
        assert longest_chain(trivial_order(ground(4))) == 1

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
