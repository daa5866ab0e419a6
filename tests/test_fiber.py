import pytest
from hypothesis import given, strategies as st

from fiberprod import fiber, series as se
from fiberprod.errors import (
    InvalidBetti,
    InvalidDenominator,
    OrderMismatch,
    TrivialFiberProduct,
)
from fiberprod.fiber import BettiSequence, PoincareInputs
from fiberprod.series import TruncatedSeries


def S(*coeffs):
    return TruncatedSeries(tuple(coeffs))


class TestLargeCompose:
    def test_product(self):
        assert fiber.large_compose(S(1, 1), S(1, 1)) == S(1, 2)

    def test_identity_map(self):
        p = S(1, 4, 9)
        assert fiber.large_compose(p, S(1, 0, 0)) == p

    def test_matches_convolution(self):
        assert fiber.large_compose(S(1, 2, 2), S(1, 1, 1)) == se.mul(
            S(1, 2, 2), S(1, 1, 1)
        )


class TestFiberSeries:
    def test_residue_field_over_two_lines(self):
        p = S(1, 1, 0, 0, 0, 0)
        assert fiber.fiber_series(PoincareInputs(p, p, p), 5) == S(1, 2, 2, 2, 2, 2)

    def test_free_module(self):
        free = S(1, 0, 0, 0)
        p = S(1, 1, 0, 0)
        assert fiber.fiber_series(PoincareInputs(free, p, p), 3) == S(1, 1, 1, 1)

    def test_trivial_fiber_product(self):
        with pytest.raises(TrivialFiberProduct):
            PoincareInputs(S(1, 1), S(1, 1), S(1, 0))

    def test_order_zero_quotient_is_an_order_mismatch(self):
        # an order-0 series is too short to show coefficient 1; that is the
        # truncation's fault, not a trivial fiber product
        with pytest.raises(OrderMismatch, match="p_T_over_R has order 0"):
            PoincareInputs(S(1), S(1), S(1))
        with pytest.raises(OrderMismatch, match="p_T_over_S has order 0"):
            PoincareInputs(S(1), S(1, 1), S(1))

    def test_order_beyond_inputs_is_an_error(self):
        p = S(1, 1, 0)
        with pytest.raises(OrderMismatch):
            fiber.fiber_series(PoincareInputs(p, p, p), 5)


class TestAmalgamatedSeries:
    def test_line_duplication(self):
        p = S(1, 1, 0, 0, 0)
        assert fiber.amalgamated_series(p, p, 4) == S(1, 2, 2, 2, 2)

    def test_free_module(self):
        assert fiber.amalgamated_series(
            S(1, 0, 0, 0), S(1, 1, 0, 0), 3
        ) == S(1, 1, 1, 1)

    def test_free_quotient_rejected(self):
        with pytest.raises(TrivialFiberProduct):
            fiber.amalgamated_series(S(1, 1), S(1, 0), 1)


class TestBettiB:
    def test_hand_values(self):
        assert fiber.betti_b(BettiSequence((1, 2, 0)), BettiSequence((1, 1, 1)), 2) == S(1, 0, -2)
        assert fiber.betti_b(BettiSequence((1, 1, 0)), BettiSequence((1, 1, 0)), 2) == S(1, 0, -1)

    def test_invalid_beta0(self):
        with pytest.raises(InvalidBetti):
            fiber.betti_b(BettiSequence((2, 1)), BettiSequence((1, 1)), 1)


class TestBettiBigB:
    def test_recurrence_by_hand(self):
        assert fiber.betti_B(S(1, 0, -2, 0, 0)) == S(1, 0, 2, 0, 4)
        assert fiber.betti_B(S(1, 0, 0, 0)) == S(1, 0, 0, 0)
        assert fiber.betti_B(S(1, 0, -1, 0, 0)) == S(1, 0, 1, 0, 1)

    def test_matches_series_inversion(self):
        b = S(1, 0, -2, -1, 0, -3)
        assert fiber.betti_B(b) == se.invert(b)

    def test_positive_tail_rejected(self):
        with pytest.raises(InvalidDenominator):
            fiber.betti_B(S(1, 1))


class TestBettiBound:
    def test_closed_forms_worked_example(self):
        bound = fiber.betti_bound(
            BettiSequence((1, 2, 2)),
            BettiSequence((1, 2, 0)),
            BettiSequence((1, 1, 1)),
            2,
        )
        assert bound[0] == 1
        assert bound[1] == 1 * 1 + 2 == 3
        assert bound[2] == 1 * 2 * 1 + 1 * 1 + 2 * 1 + 2 == 7

    def test_index_zero(self):
        bound = fiber.betti_bound(
            BettiSequence((1, 0, 0)),
            BettiSequence((1, 1, 0)),
            BettiSequence((1, 1, 0)),
            0,
        )
        assert bound[0] == 1


class TestEdimBound:
    def test_large_exact(self):
        assert fiber.edim_bound(1, 1) == 2

    def test_plain_bound(self):
        assert fiber.edim_bound(2, 1) == 3

    def test_field_rejected(self):
        with pytest.raises(TrivialFiberProduct):
            fiber.edim_bound(0, 1)


# --- randomized properties --------------------------------------------------

betti_tail = st.lists(st.integers(0, 5), min_size=5, max_size=5)
quotient_betti = st.lists(st.integers(0, 5), min_size=4, max_size=4).map(
    lambda tail: BettiSequence(tuple([1, 1 + tail[0]] + tail[1:]))
)
module_betti = betti_tail.map(lambda t: BettiSequence(tuple([1 + t[0]] + t[1:])))


def series_of(b):
    return b.as_series()


@given(quotient_betti, quotient_betti)
def test_recurrence_equals_inversion(x, y):
    b = fiber.betti_b(x, y, min(len(x), len(y)) - 1)
    assert fiber.betti_B(b) == se.invert(b)


@given(quotient_betti, quotient_betti)
def test_denominator_sign_pattern(x, y):
    b = fiber.betti_b(x, y, min(len(x), len(y)) - 1)
    assert b[0] == 1 and b[1] == 0
    assert all(b[i] <= 0 for i in range(2, b.order + 1))


@given(module_betti, quotient_betti, quotient_betti)
def test_fiber_series_matches_closed_forms(m, x, y):
    order = min(len(m), len(x), len(y)) - 1
    inputs = PoincareInputs(series_of(m), series_of(x), series_of(y))
    out = fiber.fiber_series(inputs, order)
    assert out.is_nonnegative()
    bound = fiber.betti_bound(m, x, y, min(order, 2))
    assert out[0] == bound[0] == m[0]
    assert out[1] == bound[1] == m[0] * y[1] + m[1]
    if order >= 2:
        assert out[2] == bound[2] == (
            m[0] * x[1] * y[1] + m[0] * y[2] + m[1] * y[1] + m[2]
        )


@given(quotient_betti, quotient_betti)
def test_denominator_symmetric_under_swap(x, y):
    order = min(len(x), len(y)) - 1
    assert fiber.betti_b(x, y, order) == fiber.betti_b(y, x, order)


@given(quotient_betti)
def test_self_product_reduces_to_duplication(p):
    # gluing R with itself over R/I: M = R/I, both quotient series equal
    ps = series_of(p)
    order = ps.order
    via_fiber = fiber.fiber_series(PoincareInputs(ps, ps, ps), order)
    via_dup = fiber.amalgamated_series(ps, ps, order)
    assert via_fiber == via_dup
    assert via_dup.is_nonnegative()
