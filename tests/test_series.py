import pytest
from hypothesis import given, strategies as st

from fiberprod import series as se
from fiberprod.errors import NotAUnit
from fiberprod.series import Polynomial, RationalFunction, TruncatedSeries


def S(*coeffs):
    return TruncatedSeries(tuple(coeffs))


def brute_convolution(a, b, order):
    # independent oracle for mul: plain double loop
    return tuple(
        sum(a[i] * b[n - i] for i in range(n + 1)) for n in range(order + 1)
    )


def ref_mul(a, b):
    """Schoolbook product to the shorter order."""
    return brute_convolution(a, b, min(len(a), len(b)) - 1)


def ref_invert(b):
    """Schoolbook inverse of a series with constant term 1 or -1: solve
    b * c = 1 one coefficient at a time."""
    c = []
    for m in range(len(b)):
        rest = sum(b[i] * c[m - i] for i in range(1, m + 1))
        c.append(((1 if m == 0 else 0) - rest) * b[0])
    return tuple(c)


class TestAdd:
    def test_componentwise(self):
        assert se.add(S(1, 1), S(1, 1)) == S(2, 2)

    def test_identity(self):
        assert se.add(S(1, 2, 2), S(0, 0, 0)) == S(1, 2, 2)

    def test_truncates_to_min_order(self):
        assert se.add(S(1, 2, 2, 2), S(1, 1)) == S(2, 3)


class TestMul:
    def test_binomial(self):
        assert se.mul(S(1, 1), S(1, 1)) == S(1, 2)
        assert se.mul(S(1, 1, 0), S(1, 1, 0)) == S(1, 2, 1)

    def test_against_brute_convolution(self):
        a, b = S(1, 2, 2), S(1, 1, 1)
        expected = brute_convolution(a.coeffs, b.coeffs, 2)
        assert expected == (1, 3, 5)
        assert se.mul(a, b).coeffs == expected


class TestInvert:
    def test_geometric(self):
        assert se.invert(S(1, -1, 0, 0)) == S(1, 1, 1, 1)

    def test_even_geometric(self):
        assert se.invert(S(1, 0, -2, 0, 0)) == S(1, 0, 2, 0, 4)

    def test_non_unit(self):
        with pytest.raises(NotAUnit):
            se.invert(S(2, 1))


class TestDivide:
    def test_long_division(self):
        assert se.divide(S(1, 2, 1, 0, 0), S(1, 0, -1, 0, 0)) == S(1, 2, 2, 2, 2)

    def test_negative_constant_term(self):
        assert se.divide(S(1, 0, 0), S(-1, 1, 0)) == S(-1, -1, -1)

    def test_truncates_to_the_shorter_order(self):
        assert se.divide(S(1, 0, 0, 0), S(1, -1)) == S(1, 1)
        assert se.divide(S(3), S(1, 5, 7)) == S(3)

    def test_invert_is_one_over(self):
        a = S(1, -3, 0, 2, 0, 0)
        assert se.invert(a) == se.divide(TruncatedSeries.one(a.order), a)

    @pytest.mark.parametrize("b0", [0, 2, -3])
    def test_non_unit_constant_term(self, b0):
        with pytest.raises(NotAUnit):
            se.divide(S(1, 1), S(b0, 1))
        with pytest.raises(NotAUnit):
            se.invert(S(b0, 1))


class TestRelation:
    def test_four_outcomes(self):
        assert se.relation(S(1, 2, 2), S(1, 2, 2)) == ("equal", None)
        assert se.relation(S(1, 3, 5), S(1, 2, 5)) == ("formula-dominates", 1)
        assert se.relation(S(1, 2, 2), S(1, 2, 4)) == ("oracle-dominates", 2)
        assert se.relation(S(1, 3, 1), S(1, 2, 2)) == ("incomparable", 1)

    def test_unequal_orders_compare_to_the_shorter(self):
        assert se.relation(S(1, 2), S(1, 2, 0, 9)) == ("equal", None)
        assert se.relation(S(1, 2, 2, 0), S(1, 1)) == ("formula-dominates", 1)
        assert se.relation(S(1, 1, 7), S(1, 2, 2, 9)) == ("incomparable", 1)
        assert se.relation(S(1, 2, 3, 0), S(1, 2, 4)) == ("oracle-dominates", 2)


class TestExpand:
    def test_long_division(self):
        f = RationalFunction(Polynomial((1, 2, 1)), Polynomial((1, 0, -1)))
        assert se.expand(f, 5) == S(1, 2, 2, 2, 2, 2)

    def test_unit_denominator_pads(self):
        f = RationalFunction(Polynomial((3, 1)), Polynomial((1,)))
        assert se.expand(f, 4) == S(3, 1, 0, 0, 0)

    def test_geometric(self):
        f = RationalFunction(Polynomial((1,)), Polynomial((1, -1)))
        assert se.expand(f, 3) == S(1, 1, 1, 1)


class TestRationalFunction:
    def test_sign_normalization(self):
        f = RationalFunction(Polynomial((1, 1)), Polynomial((-1, 1)))
        assert f.denominator[0] == 1
        assert f.numerator.coeffs == (-1, -1)

    def test_zero_constant_rejected(self):
        with pytest.raises(NotAUnit):
            RationalFunction(Polynomial((1,)), Polynomial((0, 1)))

    def test_non_unit_constant_rejected(self):
        with pytest.raises(NotAUnit):
            RationalFunction(Polynomial((1,)), Polynomial((2, 1)))

    def test_json_round_trip(self):
        f = RationalFunction(Polynomial((1, 2)), Polynomial((1, 0, -1)))
        assert RationalFunction.from_json(f.to_json()) == f


def test_series_json_round_trip_big_integers():
    s = S(1, 10 ** 30, -(2 ** 100))
    assert TruncatedSeries.from_json(s.to_json()) == s
    assert all(isinstance(c, str) for c in s.to_json())


coeffs = st.lists(st.integers(-9, 9), min_size=4, max_size=8)
unit_series = coeffs.map(lambda c: TruncatedSeries(tuple([1] + c[1:])))
any_series = coeffs.map(lambda c: TruncatedSeries(tuple(c)))
nonneg_series = st.lists(st.integers(0, 9), min_size=4, max_size=8).map(
    lambda c: TruncatedSeries(tuple(c))
)


def _same_order(*ss):
    n = min(s.order for s in ss)
    return [s.truncate(n) for s in ss]


@given(unit_series)
def test_mul_invert_is_one(a):
    assert se.mul(a, se.invert(a)) == TruncatedSeries.one(a.order)


@given(any_series, any_series, any_series)
def test_ring_axioms(a, b, c):
    a, b, c = _same_order(a, b, c)
    assert se.mul(a, b) == se.mul(b, a)
    assert se.mul(se.mul(a, b), c) == se.mul(a, se.mul(b, c))
    assert se.mul(a, se.add(b, c)) == se.add(se.mul(a, b), se.mul(a, c))


def dominates(a, b):
    """a >= b coefficientwise, read off the one comparison."""
    return se.relation(a, b)[0] in ("equal", "formula-dominates")


@given(any_series, any_series, any_series)
def test_dominance_partial_order(a, b, c):
    a, b, c = _same_order(a, b, c)
    assert se.relation(a, a) == ("equal", None)
    if dominates(a, b) and dominates(b, a):
        assert a == b
    # build a chain by construction to exercise transitivity
    ab = se.add(a, TruncatedSeries(tuple(abs(x) for x in b.coeffs)))
    abc = se.add(ab, TruncatedSeries(tuple(abs(x) for x in c.coeffs)))
    assert dominates(ab, a)
    assert dominates(abc, ab)
    assert dominates(abc, a)
    # the relation reads the same pair from both ends
    mirror = {"equal": "equal", "formula-dominates": "oracle-dominates",
              "oracle-dominates": "formula-dominates", "incomparable": "incomparable"}
    rel, first = se.relation(a, b)
    assert se.relation(b, a) == (mirror[rel], first)


@given(any_series, any_series, any_series, nonneg_series)
def test_dominance_preserved_by_arithmetic(a, b, c, w):
    a, b, c, w = _same_order(a, b, c, w)
    big = se.add(a, TruncatedSeries(tuple(abs(x) for x in b.coeffs)))
    assert dominates(big, a)
    assert dominates(se.add(big, c), se.add(a, c))
    assert dominates(se.mul(big, w), se.mul(a, w))


@given(
    st.lists(st.integers(-5, 5), min_size=1, max_size=4),
    st.lists(st.integers(-5, 5), min_size=0, max_size=3),
    st.integers(0, 8),
)
def test_expand_remultiplies_to_numerator(num, den_tail, order):
    f = RationalFunction(Polynomial(tuple(num)), Polynomial(tuple([1] + den_tail)))
    s = se.expand(f, order)
    assert se.mul(s, f.denominator.as_series(order)) == f.numerator.as_series(order)


small = st.integers(-9, 9)
# orders 0..12, unequal, with b_0 = +-1 and often a zero tail, so that the
# trimmed denominator is shorter than the order
numerators = st.lists(small, min_size=1, max_size=13).map(lambda c: TruncatedSeries(tuple(c)))
denominators = st.tuples(
    st.sampled_from((1, -1)), st.lists(small, max_size=6), st.integers(0, 8)
).map(lambda t: TruncatedSeries((t[0],) + tuple(t[1]) + (0,) * t[2]))


@given(numerators, denominators)
def test_divide_matches_schoolbook(a, b):
    assert se.divide(a, b).coeffs == ref_mul(a.coeffs, ref_invert(b.coeffs))


@given(numerators, denominators)
def test_divide_remultiplies_to_the_numerator(a, b):
    n = min(a.order, b.order)
    q = se.divide(a, b)
    assert q.order == n
    assert se.mul(q, b) == a.truncate(n)


@given(numerators, numerators)
def test_mul_matches_schoolbook(a, b):
    assert se.mul(a, b).coeffs == ref_mul(a.coeffs, b.coeffs)


@given(denominators)
def test_invert_matches_schoolbook(b):
    assert se.invert(b).coeffs == ref_invert(b.coeffs)
