"""Unit tests for the rank algebra."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.core.rank import INFINITY, ZERO, Rank
from repro.exceptions import PolicyError

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
rank_values = st.one_of(
    finite_floats,
    st.lists(finite_floats, min_size=1, max_size=4).map(tuple),
)


class TestConstruction:
    def test_scalar_from_int(self):
        assert Rank(3).scalar() == 3.0

    def test_scalar_from_float(self):
        assert Rank(0.5).scalar() == 0.5

    def test_tuple_rank(self):
        assert Rank((1, 2, 3)).values == (1.0, 2.0, 3.0)

    def test_copy_constructor(self):
        original = Rank((1, 2))
        assert Rank(original) == original

    def test_nested_ranks_flatten(self):
        nested = Rank.tuple_of([Rank(1), Rank((2, 3))])
        assert nested.values == (1.0, 2.0, 3.0)

    def test_empty_sequence_rejected(self):
        with pytest.raises(PolicyError):
            Rank(())

    def test_nan_rejected(self):
        with pytest.raises(PolicyError):
            Rank(float("nan"))

    def test_non_numeric_rejected(self):
        with pytest.raises(PolicyError):
            Rank(("a",))

    def test_scalar_of_tuple_raises(self):
        with pytest.raises(PolicyError):
            Rank((1, 2)).scalar()


class TestComparison:
    def test_scalar_ordering(self):
        assert Rank(1) < Rank(2)
        assert Rank(2) > Rank(1)
        assert Rank(2) == Rank(2.0)

    def test_lexicographic_ordering(self):
        assert Rank((1, 5)) < Rank((2, 0))
        assert Rank((1, 1)) < Rank((1, 2))
        assert Rank((2, 0)) > Rank((1, 99))

    def test_infinity_is_worst(self):
        assert Rank(5) < INFINITY
        assert INFINITY > Rank((100, 100))
        assert not (INFINITY < INFINITY)

    def test_padding_makes_short_and_long_comparable(self):
        assert Rank(1) == Rank((1, 0))
        assert Rank((1,)) < Rank((1, 1))

    def test_comparison_with_plain_numbers(self):
        assert Rank(1) < 2
        assert Rank(3) == 3

    def test_hash_consistency_with_padding(self):
        assert hash(Rank(1)) == hash(Rank((1, 0)))
        assert Rank(1) in {Rank((1, 0.0))}

    def test_infinite_flags(self):
        assert INFINITY.is_infinite
        assert not INFINITY.is_finite
        assert ZERO.is_finite


class TestArithmetic:
    def test_addition(self):
        assert (Rank(1) + Rank(2)).scalar() == 3.0

    def test_addition_with_number(self):
        assert (Rank(1) + 2).scalar() == 3.0
        assert (2 + Rank(1)).scalar() == 3.0

    def test_addition_absorbs_infinity(self):
        assert (INFINITY + Rank(5)).is_infinite
        assert (Rank(5) + INFINITY).is_infinite

    def test_tuple_addition_componentwise(self):
        assert (Rank((1, 2)) + Rank((3, 4))).values == (4.0, 6.0)

    def test_subtraction(self):
        assert (Rank(5) - Rank(2)).scalar() == 3.0

    def test_subtracting_infinity_raises(self):
        with pytest.raises(PolicyError):
            Rank(5) - INFINITY

    def test_scaling(self):
        assert (Rank((1, 2)) * 3).values == (3.0, 6.0)
        assert (3 * Rank(2)).scalar() == 6.0

    def test_scaling_by_non_number_raises(self):
        with pytest.raises(PolicyError):
            Rank(1) * "x"

    def test_combine_min_max(self):
        assert Rank(1).combine_min(Rank(2)) == Rank(1)
        assert Rank(1).combine_max(Rank(2)) == Rank(2)

    def test_tuple_of(self):
        assert Rank.tuple_of([1, Rank(2), (3, 4)]).values == (1.0, 2.0, 3.0, 4.0)

    def test_tuple_of_empty_raises(self):
        with pytest.raises(PolicyError):
            Rank.tuple_of([])


class TestRepr:
    def test_scalar_str(self):
        assert str(Rank(3)) == "3"
        assert str(Rank(0.5)) == "0.5"

    def test_infinity_str(self):
        assert str(INFINITY) == "inf"

    def test_tuple_str(self):
        assert str(Rank((1, 0.5))) == "(1, 0.5)"

    def test_repr_roundtrip_info(self):
        assert "Rank" in repr(Rank((1, 2)))


class TestProperties:
    """Property-based tests of the algebraic laws the protocol relies on."""

    @given(rank_values, rank_values)
    def test_ordering_is_total(self, a, b):
        ra, rb = Rank(a), Rank(b)
        assert (ra < rb) or (rb < ra) or (ra == rb)

    @given(rank_values, rank_values, rank_values)
    def test_ordering_is_transitive(self, a, b, c):
        ra, rb, rc = Rank(a), Rank(b), Rank(c)
        if ra <= rb and rb <= rc:
            assert ra <= rc

    @given(rank_values)
    def test_equality_reflexive_and_hash_consistent(self, a):
        ra, rb = Rank(a), Rank(a)
        assert ra == rb
        assert hash(ra) == hash(rb)

    @given(finite_floats, finite_floats)
    def test_scalar_ordering_matches_float_ordering(self, a, b):
        assert (Rank(a) < Rank(b)) == (a < b)

    @given(rank_values, st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
    def test_adding_nonnegative_never_improves(self, a, delta):
        ra = Rank(a)
        assert ra + Rank(delta) >= ra

    @given(rank_values)
    def test_infinity_dominates_everything(self, a):
        assert Rank(a) <= INFINITY

    @given(rank_values, rank_values)
    def test_combine_min_is_commutative(self, a, b):
        assert Rank(a).combine_min(Rank(b)) == Rank(b).combine_min(Rank(a))


#: Rank components with the edge values the comparison fast path must keep:
#: both infinities and a negative zero, which equals 0.0 (and so pads like it).
edge_components = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, math.inf, -math.inf]),
    st.floats(allow_nan=False))


def _padded(a, b):
    n = max(len(a), len(b))
    return a + (0.0,) * (n - len(a)), b + (0.0,) * (n - len(b))


@st.composite
def rank_pairs(draw):
    """Two component tuples, of equal length half the time."""
    first = tuple(draw(st.lists(edge_components, min_size=1, max_size=4)))
    if draw(st.booleans()):
        size = len(first)
    else:
        size = draw(st.integers(min_value=1, max_value=4))
    second = tuple(draw(st.lists(edge_components, min_size=size, max_size=size)))
    return first, second


class TestComparisonMatchesPaddedTuples:
    """``<``, ``==`` and ``<=`` agree with comparing zero-padded tuples."""

    @given(rank_pairs())
    def test_comparisons(self, pair):
        a, b = pair
        ra, rb = Rank(a), Rank(b)
        pa, pb = _padded(a, b)
        assert (ra < rb) == (pa < pb)
        assert (ra == rb) == (pa == pb)
        assert (ra <= rb) == (pa <= pb)
        assert (rb < ra) == (pb < pa)
        assert (ra != rb) == (pa != pb)

    def test_negative_zero_and_padding(self):
        assert Rank((1.0, -0.0)) == Rank((1.0,))
        assert not Rank((1.0, -0.0)) < Rank((1.0, 0.0))
        assert Rank((-0.0,)) == Rank((0.0, 0.0))
        assert Rank((-math.inf, 2.0)) < Rank((-math.inf, math.inf))
