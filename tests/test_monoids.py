import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from common import (
    all_have_fixed_point,
    closure_antichain,
    dual,
    ground,
    includes,
    is_self_dual,
    join,
    meet,
    relation_strategy,
    validate_closed_predicate,
)

from ordpref.monoids import (
    MAX_CLOSURE_MEMBERS,
    ClosedMonoid,
    MonoidConstructionError,
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
from ordpref.relations import BinaryRelation, all_relations, compose

Y2 = ground(2)
Y3 = ground(3)
Y4 = ground(4)


def rel(g, *pairs):
    return BinaryRelation.from_pairs(g, pairs)


SWAP = rel(Y2, ("y1", "y2"), ("y2", "y1"))


def all_maps_generators(g):
    """A cycle through every state, the swap of y1 and y2 and the collapse
    of y2 onto y1: together they generate every map on the states."""
    n = g.size
    fixed = [(i, i) for i in range(2, n)]
    return [
        BinaryRelation.from_index_pairs(g, [(i, (i + 1) % n) for i in range(n)]),
        BinaryRelation.from_index_pairs(g, [(0, 1), (1, 0)] + fixed),
        BinaryRelation.from_index_pairs(g, [(0, 0), (1, 0)] + fixed),
    ]


class TestClosure:
    def test_no_generators_gives_reflexive_monoid(self):
        assert closure(Y2, []) == reflexive_monoid(Y2)

    def test_empty_relation_generates_everything(self):
        assert closure(Y2, [BinaryRelation(Y2, 0)]) == universal_monoid(Y2)

    def test_swap_generates_two_element_antichain(self):
        monoid = closure(Y2, [SWAP])
        assert set(monoid.min_antichain) == {BinaryRelation.identity(Y2), SWAP}

    @settings(max_examples=60)
    @given(st.lists(relation_strategy(Y3), max_size=3))
    def test_closure_operator_laws(self, gens):
        closed = closure(Y3, gens)
        for g in gens:
            assert closed.contains(g)  # extensive
        again = closure(Y3, closed.min_antichain)
        assert again == closed  # idempotent

    @settings(max_examples=40)
    @given(st.lists(relation_strategy(Y2), max_size=2), relation_strategy(Y2))
    def test_closure_monotone(self, gens, extra):
        small = closure(Y2, gens)
        big = closure(Y2, gens + [extra])
        assert includes(big, small)


class TestClosureAgainstOracle:
    """`closure()` gives the same antichain, in the same order, as the
    round-by-round closure of all antichain pairs in tests/common.py."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_single_generator(self, n):
        g = ground(n)
        for gen in all_relations(g):
            assert closure(g, [gen]).min_antichain == closure_antichain(g, [gen])

    @pytest.mark.parametrize("seed", range(100))
    def test_seeded_generator_sets_on_four_states(self, seed):
        rng = random.Random(seed)
        gens = []
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.5:  # a map graph: members stay incomparable
                pairs = [(i, rng.randrange(4)) for i in range(4)]
                gens.append(BinaryRelation.from_index_pairs(Y4, pairs))
            else:
                density = rng.choice([0.2, 0.3, 0.4])
                cells = [c for c in range(16) if rng.random() < density]
                gens.append(BinaryRelation(Y4, sum(1 << c for c in cells)))
        assert closure(Y4, gens).min_antichain == closure_antichain(Y4, gens)


class TestClosureBound:
    def test_all_maps_on_four_states_build(self):
        assert closure(Y4, all_maps_generators(Y4)) == total_monoid(Y4)

    def test_all_maps_on_five_states_are_refused_fast(self):
        start = time.perf_counter()
        with pytest.raises(
            MonoidConstructionError, match=f"more than {MAX_CLOSURE_MEMBERS} relations"
        ):
            closure(ground(5), all_maps_generators(ground(5)))
        assert time.perf_counter() - start < 1.0


class TestContains:
    def test_reflexive_membership(self):
        monoid = reflexive_monoid(Y2)
        assert monoid.contains(BinaryRelation.identity(Y2))
        assert not monoid.contains(rel(Y2, ("y1", "y2")))

    def test_surjective_membership(self):
        monoid = surjective_monoid(Y2)
        # pr2 of {(y1,y1),(y1,y2)} covers both states
        assert monoid.contains(rel(Y2, ("y1", "y1"), ("y1", "y2")))
        assert not monoid.contains(rel(Y2, ("y1", "y1"), ("y2", "y1")))

    @settings(max_examples=60)
    @given(relation_strategy(Y2), relation_strategy(Y2))
    def test_upward_closed(self, a, b):
        monoid = surjective_monoid(Y2)
        if monoid.contains(a):
            assert monoid.contains(a.union(b))


class TestCanonical:
    def test_surjective_antichain_at_two_states(self):
        expected = {
            rel(Y2, ("y1", "y1"), ("y2", "y2")),
            rel(Y2, ("y2", "y1"), ("y1", "y2")),
            rel(Y2, ("y1", "y1"), ("y1", "y2")),
            rel(Y2, ("y2", "y1"), ("y2", "y2")),
        }
        assert set(surjective_monoid(Y2).min_antichain) == expected

    def test_dictator_antichain(self):
        assert dictator_monoid(Y2, "y1").min_antichain == (rel(Y2, ("y1", "y1")),)

    def test_beta_both_minimal_elements_are_permutations(self):
        expected = {BinaryRelation.identity(Y2), SWAP}
        assert set(beta_both_monoid(Y2).min_antichain) == expected

    def test_idempotent_requires_idempotent_generator(self):
        with pytest.raises(ValueError, match="idempotent"):
            idempotent_monoid(Y2, rel(Y2, ("y1", "y2")))

    def test_filter_requires_nonempty_base(self):
        with pytest.raises(ValueError):
            filter_monoid(Y2, [])

    def test_atom_generator_squares_to_full(self):
        monoid = atom_monoid(Y2, "y1")
        near_full = max(monoid.min_antichain, key=lambda r: r.bits.bit_count())
        assert compose(near_full, near_full) == BinaryRelation.full(Y2)

    @pytest.mark.parametrize("g", [Y2, Y3])
    def test_all_canonical_families_validate(self, g):
        monoids = [
            reflexive_monoid(g),
            universal_monoid(g),
            surjective_monoid(g),
            total_monoid(g),
            beta_both_monoid(g),
            dictator_monoid(g, "y1"),
            filter_monoid(g, g.labels),
            atom_monoid(g, "y2"),
        ]
        for m in monoids:
            result = validate_closed_predicate(g, m.contains)
            assert result.ok, result.message


class TestMeetJoin:
    def test_meet_of_surjective_and_total(self):
        assert meet(surjective_monoid(Y2), total_monoid(Y2)) == beta_both_monoid(Y2)

    def test_join_with_least_absorbs(self):
        for m in (surjective_monoid(Y2), dictator_monoid(Y2, "y2"), universal_monoid(Y2)):
            assert join(reflexive_monoid(Y2), m) == m

    def test_meet_of_the_two_dictators_is_reflexive(self):
        got = meet(dictator_monoid(Y2, "y1"), dictator_monoid(Y2, "y2"))
        assert got == reflexive_monoid(Y2)

    def test_lattice_laws_on_canonical_monoids(self):
        pool = [
            reflexive_monoid(Y2),
            surjective_monoid(Y2),
            total_monoid(Y2),
            dictator_monoid(Y2, "y1"),
            atom_monoid(Y2, "y2"),
            universal_monoid(Y2),
        ]
        for a, b in itertools.product(pool, repeat=2):
            assert meet(a, b) == meet(b, a)
            assert join(a, b) == join(b, a)
            assert join(a, meet(a, b)) == a  # absorption
            assert meet(a, join(a, b)) == a


class TestDual:
    def test_dual_of_surjective_is_total(self):
        assert dual(surjective_monoid(Y3)) == total_monoid(Y3)

    def test_reflexive_self_dual(self):
        assert is_self_dual(reflexive_monoid(Y2))

    def test_atom_self_dual(self):
        assert is_self_dual(atom_monoid(Y2, "y1"))

    @settings(max_examples=30)
    @given(st.lists(relation_strategy(Y2), max_size=2))
    def test_dual_is_involution_and_order_isomorphism(self, gens):
        m = closure(Y2, gens)
        assert dual(dual(m)) == m
        n = surjective_monoid(Y2)
        assert includes(m, n) == includes(dual(m), dual(n))


class TestFixedPoints:
    def test_filter_monoids(self):
        assert all_have_fixed_point(dictator_monoid(Y2, "y1"))
        assert all_have_fixed_point(filter_monoid(Y3, ["y1", "y3"]))

    def test_universal(self):
        assert not all_have_fixed_point(universal_monoid(Y2))

    def test_surjective_at_two_states(self):
        # the swap graph is a minimal member without a fixed point
        assert not all_have_fixed_point(surjective_monoid(Y2))


class TestValidation:
    def test_reflexive_monoid_is_valid(self):
        result = validate_closed_predicate(Y2, reflexive_monoid(Y2).contains)
        assert result.ok

    def test_missing_identity_is_axiom_2(self):
        gen = rel(Y2, ("y1", "y2"))
        result = validate_closed_predicate(Y2, lambda r: gen.is_subset(r))
        assert not result.ok and result.axiom == 2

    def test_escaping_composition_is_axiom_1(self):
        gen = rel(Y2, ("y1", "y2"))
        delta = BinaryRelation.identity(Y2)

        def member(r):
            return gen.is_subset(r) or delta.is_subset(r)

        # {(y1,y2)} composed with itself is empty, which is not a member
        result = validate_closed_predicate(Y2, member)
        assert not result.ok and result.axiom == 1

    def test_antichain_mode_accepts_canonical(self):
        m = surjective_monoid(Y3)
        assert ClosedMonoid(Y3, m.min_antichain) == m

    def test_antichain_mode_rejects_non_monoid(self):
        with pytest.raises(MonoidConstructionError):
            ClosedMonoid(Y2, (rel(Y2, ("y1", "y2")),))

    def test_constructor_rejects_comparable_antichain(self):
        with pytest.raises(MonoidConstructionError):
            ClosedMonoid(Y2, (BinaryRelation(Y2, 0), BinaryRelation.identity(Y2)))

    @pytest.mark.parametrize(
        "n, bits, message",
        [
            (2, (1, 2, 9),
             "not an antichain: {(y1,y1)} and {(y1,y1), (y2,y2)} are comparable"),
            (2, (2, 12), "identity relation is not a member"),
            (2, (9, 2), "not composition-closed: {(y1,y2)}*{(y1,y2)} = {} escapes"),
            (3, (273, 243, 133),
             "not composition-closed: {(y1,y1), (y1,y2), (y2,y2), (y2,y3), (y3,y1), "
             "(y3,y2)}*{(y1,y1), (y1,y3), (y3,y2)} = {(y1,y1), (y1,y2), (y3,y2), "
             "(y3,y3)} escapes"),
        ],
    )
    def test_rejection_messages(self, n, bits, message):
        g = ground(n)
        with pytest.raises(MonoidConstructionError) as info:
            ClosedMonoid(g, tuple(BinaryRelation(g, b) for b in bits))
        assert str(info.value) == message
