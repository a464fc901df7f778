import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from common import (
    ground,
    has_fixed_point,
    pair_compose,
    pair_transitive_closure,
    pr1,
    pr2,
    pr_diag,
    relation_strategy,
)

from ordpref.relations import (
    BinaryRelation,
    GroundSet,
    GroundSetMismatchError,
    all_relations,
    compose,
)

Y2 = ground(2)
Y3 = ground(3)


def rel(g, *pairs):
    return BinaryRelation.from_pairs(g, pairs)


class TestCompose:
    def test_single_path_chase(self):
        first = rel(Y2, ("y1", "y2"))
        then = rel(Y2, ("y2", "y1"))
        assert compose(first, then) == rel(Y2, ("y1", "y1"))

    def test_identity_is_neutral(self):
        delta = BinaryRelation.identity(Y3)
        for r in itertools.islice(all_relations(Y3), 0, 512, 7):
            assert compose(delta, r) == r
            assert compose(r, delta) == r

    def test_swap_squared_is_identity(self):
        swap = rel(Y2, ("y1", "y2"), ("y2", "y1"))
        # oracle: enumerate all pair chains by hand
        expected = pair_compose(set(swap.pairs()), set(swap.pairs()))
        assert set(compose(swap, swap).pairs()) == expected
        assert compose(swap, swap) == BinaryRelation.identity(Y2)

    def test_ground_mismatch(self):
        with pytest.raises(GroundSetMismatchError):
            compose(BinaryRelation(Y2, 0), BinaryRelation(Y3, 0))

    def test_associativity_exhaustive_n2(self):
        rels = list(all_relations(Y2))
        for a in rels:
            for b in rels:
                ab = compose(a, b)
                for c in rels:
                    assert compose(ab, c) == compose(a, compose(b, c))

    @given(relation_strategy(Y3), relation_strategy(Y3), relation_strategy(Y3))
    def test_associativity_sampled_n3(self, a, b, c):
        assert compose(compose(a, b), c) == compose(a, compose(b, c))

    @given(relation_strategy(Y3), relation_strategy(Y3))
    def test_matches_pair_oracle(self, a, b):
        assert set(compose(a, b).pairs()) == pair_compose(set(a.pairs()), set(b.pairs()))

    @given(
        relation_strategy(Y3),
        relation_strategy(Y3),
        relation_strategy(Y3),
        relation_strategy(Y3),
    )
    def test_monotone_in_both_arguments(self, a, b, c, d):
        a2, c2 = a.union(b), c.union(d)
        assert compose(a, c).is_subset(compose(a2, c2))


class TestInverse:
    def test_transpose(self):
        assert rel(Y2, ("y1", "y2")).inverse() == rel(Y2, ("y2", "y1"))

    def test_identity_fixed(self):
        delta = BinaryRelation.identity(Y2)
        assert delta.inverse() == delta

    def test_cellwise_transpose(self):
        r = rel(Y2, ("y1", "y1"), ("y1", "y2"), ("y2", "y2"))
        assert set(r.inverse().pairs()) == {(b, a) for a, b in r.pairs()}

    @given(relation_strategy(Y3))
    def test_involution(self, r):
        assert r.inverse().inverse() == r

    @given(relation_strategy(Y3), relation_strategy(Y3))
    def test_antihomomorphism(self, a, b):
        assert compose(a, b).inverse() == compose(b.inverse(), a.inverse())


class TestBooleanOps:
    def test_union(self):
        assert rel(Y2, ("y1", "y2")).union(rel(Y2, ("y2", "y1"))) == rel(
            Y2, ("y1", "y2"), ("y2", "y1")
        )

    def test_subset(self):
        delta = BinaryRelation.identity(Y2)
        assert delta.is_subset(delta.union(rel(Y2, ("y1", "y2"))))

    def test_intersection(self):
        a = rel(Y2, ("y1", "y1"), ("y1", "y2"))
        b = rel(Y2, ("y1", "y2"), ("y2", "y2"))
        assert a.intersection(b) == rel(Y2, ("y1", "y2"))

    def test_equality_over_label_identical_grounds(self):
        other = GroundSet(("y1", "y2"))
        assert rel(Y2, ("y1", "y2")) == rel(other, ("y1", "y2"))


def _cells(r):
    """Index pairs read straight off the layout: (i, j) is bit n*i + j."""
    n = r.ground.size
    return {divmod(k, n) for k in range(n * n) if r.bits >> k & 1}


same_ground_pairs = st.sampled_from([ground(n) for n in (1, 2, 3, 4)]).flatmap(
    lambda g: st.tuples(relation_strategy(g), relation_strategy(g))
)


class TestAgainstPairSets:
    """Every operation on the packed integer against plain pair sets."""

    @staticmethod
    def check(a, b):
        n = a.ground.size
        pa, pb = set(a.pairs()), set(b.pairs())
        assert set(a.union(b).pairs()) == pa | pb
        assert set(a.intersection(b).pairs()) == pa & pb
        assert set(a.difference(b).pairs()) == pa - pb
        assert a.is_subset(b) == (pa <= pb)
        assert set(a.inverse().pairs()) == {(v, u) for u, v in pa}
        assert set(compose(a, b).pairs()) == pair_compose(pa, pb)
        assert set(a.transitive_closure().pairs()) == pair_transitive_closure(pa)
        assert a.bits.bit_count() == len(pa)
        index_pairs = a.index_pairs()
        assert set(index_pairs) == _cells(a)
        assert list(index_pairs) == sorted(index_pairs)
        labs = a.ground.labels
        assert pa == {(labs[i], labs[j]) for i, j in index_pairs}
        for i in range(n):
            for j in range(n):
                assert a.holds_index(i, j) == ((i, j) in index_pairs)
        assert BinaryRelation.from_index_pairs(a.ground, index_pairs) == a
        assert BinaryRelation.from_rows(a.ground, a.rows) == a

    @given(same_ground_pairs)
    def test_one_to_four_states(self, pair):
        self.check(*pair)

    def test_five_to_eight_states_seeded(self):
        rng = random.Random(20261018)
        for _ in range(60):
            g = ground(rng.randint(5, 8))
            self.check(*(BinaryRelation(g, rng.getrandbits(g.size**2)) for _ in "ab"))

    def test_out_of_range_bits_and_rows_are_rejected(self):
        with pytest.raises(ValueError):
            BinaryRelation(Y2, 1 << 4)
        with pytest.raises(ValueError):
            BinaryRelation(Y2, -1)
        with pytest.raises(ValueError):
            BinaryRelation.from_rows(Y2, (1, 4))
        with pytest.raises(ValueError):
            BinaryRelation.from_rows(Y2, (1,))
        with pytest.raises(IndexError):
            BinaryRelation.full(Y2).holds_index(0, 2)


class TestProjections:
    def test_mixed(self):
        r = rel(Y2, ("y1", "y2"), ("y2", "y2"))
        assert pr1(r) == {"y1", "y2"}
        assert pr2(r) == {"y2"}
        assert pr_diag(r) == {"y2"}

    def test_identity(self):
        r = BinaryRelation.identity(Y2)
        assert pr1(r) == pr2(r) == pr_diag(r) == {"y1", "y2"}

    def test_empty(self):
        r = BinaryRelation(Y2, 0)
        assert pr1(r) == pr2(r) == pr_diag(r) == frozenset()


class TestClassify:
    def test_identity_profile(self):
        p = BinaryRelation.identity(Y2).classify()
        assert p.reflexive and p.transitive and p.idempotent
        assert p.surjective and p.total and p.partial_order

    def test_swap_profile(self):
        p = rel(Y2, ("y1", "y2"), ("y2", "y1")).classify()
        assert p.surjective and p.total
        assert not p.reflexive and not p.transitive

    def test_idempotent_not_total(self):
        # second projection covers both states, first covers only y1
        r = rel(Y2, ("y1", "y1"), ("y1", "y2"))
        assert set(pair_compose(set(r.pairs()), set(r.pairs()))) == set(r.pairs())
        p = r.classify()
        assert p.surjective and p.idempotent and not p.total


class TestTransitiveClosure:
    def test_two_step_chain(self):
        r = rel(Y3, ("y1", "y2"), ("y2", "y3"))
        assert r.transitive_closure() == rel(
            Y3, ("y1", "y2"), ("y2", "y3"), ("y1", "y3")
        )

    def test_cycle(self):
        r = rel(Y2, ("y1", "y2"), ("y2", "y1"))
        assert r.transitive_closure() == BinaryRelation.full(Y2)

    @given(relation_strategy(Y3))
    def test_matches_pair_oracle(self, r):
        assert set(r.transitive_closure().pairs()) == pair_transitive_closure(
            set(r.pairs())
        )

    @pytest.mark.parametrize("g", [Y2, Y3])
    def test_exhaustive_least_transitive_superset(self, g):
        transitive = [t for t in all_relations(g) if t.is_transitive()]
        for r in all_relations(g):
            closed = r.transitive_closure()
            assert r.is_subset(closed) and closed.is_transitive()
            for t in transitive:
                if r.is_subset(t):
                    assert closed.is_subset(t)


class TestFixedPoint:
    def test_identity(self):
        assert has_fixed_point(BinaryRelation.identity(Y2))

    def test_swap(self):
        assert not has_fixed_point(rel(Y2, ("y1", "y2"), ("y2", "y1")))

    def test_partial_diagonal(self):
        assert has_fixed_point(rel(Y2, ("y1", "y2"), ("y2", "y2")))


class TestGroundSet:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            GroundSet(("y1", "y1"))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            GroundSet(())

    def test_index_roundtrip(self):
        for i, lab in enumerate(Y3.labels):
            assert Y3.index(lab) == i
