"""Poincare-series formulas for fiber products and amalgamated duplications.

The closed form for a fiber product built from surjections onto a common
quotient T is

    p_M * p_T_over_S / (p_T_over_R + p_T_over_S - p_T_over_R * p_T_over_S).

For a large fiber product this is the exact Poincare series of M over the
product ring; in general it is a claimed coefficientwise bound.  Which of the
two a value is stays with the caller, which knows what it asserted.  The
Betti-number machinery (the b_i / B_i recurrence and the low-index closed
forms) lives here as well.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import series as se
from .errors import (
    InvalidBetti,
    InvalidDenominator,
    OrderMismatch,
    TrivialFiberProduct,
    ValidationError,
    ZeroModule,
)
from .series import TruncatedSeries


def _check_module_series(p: TruncatedSeries, name: str) -> None:
    if not p.is_nonnegative():
        raise ValidationError(f"{name} has a negative coefficient")
    if p[0] < 1:
        raise ZeroModule(f"{name} has constant term {p[0]}, expected >= 1")


def _check_quotient_series(p: TruncatedSeries, name: str) -> None:
    if not p.is_nonnegative():
        raise ValidationError(f"{name} has a negative coefficient")
    if p[0] != 1:
        raise InvalidBetti(f"{name} must have constant term 1 (cyclic module), got {p[0]}")
    if p.order < 1:
        raise OrderMismatch(
            f"{name} has order {p.order}; nontriviality needs coefficient 1, so order >= 1"
        )
    if p[1] < 1:
        raise TrivialFiberProduct(
            f"{name} needs coefficient 1 >= 1: a free common quotient makes the "
            "fiber product trivial"
        )


@dataclass(frozen=True)
class PoincareInputs:
    """Series data for one fiber-product scenario.

    p_M_over_R: series of the module M over R.
    p_T_over_R, p_T_over_S: series of the common quotient T over R and S.
    """

    p_M_over_R: TruncatedSeries
    p_T_over_R: TruncatedSeries
    p_T_over_S: TruncatedSeries

    def __post_init__(self):
        _check_module_series(self.p_M_over_R, "p_M_over_R")
        _check_quotient_series(self.p_T_over_R, "p_T_over_R")
        _check_quotient_series(self.p_T_over_S, "p_T_over_S")


@dataclass(frozen=True)
class BettiSequence:
    """Nonnegative integers beta_0, beta_1, ..."""

    values: tuple

    def __post_init__(self):
        values = tuple(map(int, self.values))
        if not values:
            raise InvalidBetti("a Betti sequence needs at least beta_0")
        if any(v < 0 for v in values):
            raise InvalidBetti("Betti numbers are nonnegative")
        object.__setattr__(self, "values", values)

    def __getitem__(self, i: int) -> int:
        return self.values[i]

    def __len__(self) -> int:
        return len(self.values)

    def as_series(self) -> TruncatedSeries:
        return TruncatedSeries(self.values)

    def to_json(self) -> list:
        return se.decimal_strings(self.values)


def large_compose(p_M_over_S: TruncatedSeries, p_S_over_A: TruncatedSeries) -> TruncatedSeries:
    """Series of M over A through a large surjection A -> S: the product of
    the series of M over S and of S over A."""
    if not p_M_over_S.is_nonnegative() or not p_S_over_A.is_nonnegative():
        raise ValidationError("large_compose expects nonnegative coefficients")
    return se.mul(p_M_over_S, p_S_over_A)


def _denominator(r: TruncatedSeries, s: TruncatedSeries) -> TruncatedSeries:
    """r + s - r * s, unchecked."""
    return se.sub(se.add(r, s), se.mul(r, s))


def fiber_series(inputs: PoincareInputs, order: int) -> TruncatedSeries:
    """Evaluate the closed-form series for M over the fiber product.

    Requesting an order beyond what the inputs support is an error: padding
    would fabricate Betti data.  The inputs were checked when they were built.
    """
    supported = min(inputs.p_M_over_R.order, inputs.p_T_over_R.order, inputs.p_T_over_S.order)
    if order > supported:
        raise OrderMismatch(f"order {order} exceeds the supported input order {supported}")
    num = se.mul(inputs.p_M_over_R, inputs.p_T_over_S)
    den = _denominator(inputs.p_T_over_R, inputs.p_T_over_S)
    return se.divide(num, den).truncate(order)


def amalgamated_series(
    p_M_over_R: TruncatedSeries, p_RmodI_over_R: TruncatedSeries, order: int
) -> TruncatedSeries:
    """p_M_over_R / (2 - p_RmodI_over_R), the duplication-along-an-ideal case.

    Exact: the duplication is the fiber product of R with itself over R/I,
    which is always large.
    """
    _check_module_series(p_M_over_R, "p_M_over_R")
    _check_quotient_series(p_RmodI_over_R, "p_RmodI_over_R")
    n = min(p_M_over_R.order, p_RmodI_over_R.order)
    if order > n:
        raise OrderMismatch(f"order {order} exceeds the supported input order {n}")
    two = TruncatedSeries((2,) + (0,) * p_RmodI_over_R.order)
    den = se.sub(two, p_RmodI_over_R)
    return se.divide(p_M_over_R, den).truncate(order)


def betti_b(
    beta_T_over_R: BettiSequence, beta_T_over_S: BettiSequence, order: int
) -> TruncatedSeries:
    """Denominator coefficients b_i = beta_i^R(T) + beta_i^S(T) - conv_i."""
    for name, b in (("beta_T_over_R", beta_T_over_R), ("beta_T_over_S", beta_T_over_S)):
        if b[0] != 1:
            raise InvalidBetti(f"{name} must start with beta_0 = 1, got {b[0]}")
    n = min(len(beta_T_over_R), len(beta_T_over_S)) - 1
    if order > n:
        raise OrderMismatch(f"order {order} exceeds the supported input order {n}")
    return _denominator(
        beta_T_over_R.as_series().truncate(order), beta_T_over_S.as_series().truncate(order)
    )


def betti_B(b: TruncatedSeries) -> TruncatedSeries:
    """Inverse coefficients via the recurrence B_n = sum |b_i| B_{n-i}.

    The determinant expression for B_i in the source material is equivalent;
    only the O(n^2) recurrence is implemented.
    """
    if b[0] != 1:
        raise InvalidDenominator(f"b_0 must be 1, got {b[0]}")
    if any(b[i] > 0 for i in range(1, b.order + 1)):
        raise InvalidDenominator("b_i must be <= 0 for i >= 1")
    out = [1]
    for m in range(1, b.order + 1):
        out.append(sum(-b[i] * out[m - i] for i in range(1, m + 1)))
    return TruncatedSeries(tuple(out))


def betti_bound(
    beta_M_over_R: BettiSequence,
    beta_T_over_R: BettiSequence,
    beta_T_over_S: BettiSequence,
    n: int,
) -> BettiSequence:
    """Bound sequence a * B to index n, where a is the convolution of
    beta(M over R) with beta(T over S) and B = 1 / b."""
    if beta_M_over_R[0] < 1:
        raise InvalidBetti("beta_0 of M must be >= 1 for a nonzero module")
    limit = min(len(beta_M_over_R), len(beta_T_over_R), len(beta_T_over_S)) - 1
    if n > limit:
        raise OrderMismatch(f"index {n} exceeds the supported input length {limit}")
    b = betti_b(beta_T_over_R, beta_T_over_S, n)
    m = beta_M_over_R.as_series().truncate(n)
    a = se.mul(m, beta_T_over_S.as_series().truncate(n))
    return BettiSequence(se.divide(a, b).coeffs)


def edim_bound(edim_R: int, beta1_T_over_S: int) -> int:
    """beta_1^S(T) + edim(R); an equality for large fiber products."""
    if edim_R < 1:
        raise TrivialFiberProduct(
            "edim 0 means R is a field, which forces a trivial fiber product"
        )
    if beta1_T_over_S < 1:
        raise TrivialFiberProduct("beta_1^S(T) = 0 makes the fiber product trivial")
    return beta1_T_over_S + edim_R
