"""Exact truncated formal power series and rational functions over the integers.

All coefficients are Python ints (arbitrary precision).  A series is a finite
prefix of a formal power series in one indeterminate t; binary operations
truncate to the minimum order of their operands.  Everything here is immutable
and every operation is a pure function.

Every quotient is one `divide`, whose inner sums, like those of `mul`, run
in C over a reversed operand (`sum(map(operator.mul, ...))`); a denominator
of degree d costs O(n*d) coefficient products at order n, not O(n^2).
"""

from __future__ import annotations

import operator
import sys
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

from .errors import BudgetExceeded, NotAUnit, OrderMismatch, ValidationError

DEFAULT_ORDER = 16


def decimal_strings(values: Sequence[int]) -> list:
    """The decimal string of each value.  A value with more digits than the
    interpreter converts (`sys.get_int_max_str_digits`) is a budget exit
    naming its index."""
    out = []
    for i, v in enumerate(values):
        try:
            out.append(str(v))
        except ValueError:
            raise BudgetExceeded(
                f"result coefficient {i} has more than "
                f"{sys.get_int_max_str_digits()} decimal digits, too many to print"
            ) from None
    return out


@dataclass(frozen=True)
class TruncatedSeries:
    """Coefficients of t^0 .. t^order, stored densely."""

    coeffs: tuple

    def __post_init__(self):
        coeffs = tuple(map(int, self.coeffs))
        if not coeffs:
            raise ValidationError("a truncated series needs at least the t^0 coefficient")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i]

    def __len__(self) -> int:
        return len(self.coeffs)

    def is_nonnegative(self) -> bool:
        return all(c >= 0 for c in self.coeffs)

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise OrderMismatch(
                f"cannot truncate an order-{self.order} series to order {order}"
            )
        return TruncatedSeries(self.coeffs[: order + 1])

    def to_json(self) -> list:
        return decimal_strings(self.coeffs)

    @classmethod
    def from_json(cls, data: Sequence) -> "TruncatedSeries":
        return cls(tuple(int(c) for c in data))

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls((1,) + (0,) * order)


def add(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    n = min(a.order, b.order)
    return TruncatedSeries(tuple(a[i] + b[i] for i in range(n + 1)))


def sub(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    n = min(a.order, b.order)
    return TruncatedSeries(tuple(a[i] - b[i] for i in range(n + 1)))


def mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    n = min(a.order, b.order)
    x, rb = a.coeffs, b.coeffs[n::-1]
    # c_m = sum_i a_i b_{m-i}: b_m .. b_0 is the suffix rb[n - m:], and map
    # stops at the end of it
    return TruncatedSeries(tuple(sum(map(operator.mul, x, rb[n - m:])) for m in range(n + 1)))


def divide(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """a / b to the shorter order, for b with constant term 1 or -1, by
    q_m = b_0 (a_m - sum_{i>=1} b_i q_{m-i})."""
    b0 = b[0]
    if b0 not in (1, -1):
        raise NotAUnit(f"constant term {b0} is not invertible over the integers")
    n = min(a.order, b.order)
    tail = list(b.coeffs[1 : n + 1])
    while tail and tail[-1] == 0:
        tail.pop()
    q = []
    for am in a.coeffs[: n + 1]:
        # b_1 q_{m-1} + b_2 q_{m-2} + ...; map stops at the shorter operand
        s = sum(map(operator.mul, tail, reversed(q)))
        q.append(am - s if b0 == 1 else s - am)
    return TruncatedSeries(tuple(q))


def invert(a: TruncatedSeries) -> TruncatedSeries:
    return divide(TruncatedSeries.one(a.order), a)


def relation(a: TruncatedSeries, b: TruncatedSeries) -> Tuple[str, Optional[int]]:
    """Coefficientwise relation of a (formula) against b (oracle) up to the
    shorter order, with the first index where they differ."""
    pairs = list(zip(a.coeffs, b.coeffs))  # zip stops at the shorter order
    first = next((i for i, (x, y) in enumerate(pairs) if x != y), None)
    if first is None:
        return "equal", None
    if all(x >= y for x, y in pairs):
        return "formula-dominates", first
    if all(x <= y for x, y in pairs):
        return "oracle-dominates", first
    return "incomparable", first


def _trim(coeffs: Iterable[int]) -> tuple:
    out = [int(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


@dataclass(frozen=True)
class Polynomial:
    """Dense integer polynomial, constant term first, trailing zeros trimmed."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _trim(self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else -1

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if i < len(self.coeffs) else 0

    def as_series(self, order: int) -> TruncatedSeries:
        return TruncatedSeries(tuple(self[i] for i in range(order + 1)))

    def negate(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def to_json(self) -> list:
        return decimal_strings(self.coeffs)

    @classmethod
    def from_json(cls, data: Sequence) -> "Polynomial":
        return cls(tuple(int(c) for c in data))


@dataclass(frozen=True)
class RationalFunction:
    """Integer-polynomial fraction, normalized so the denominator has
    constant term exactly 1 (sign is divided out at construction)."""

    numerator: Polynomial
    denominator: Polynomial

    def __post_init__(self):
        den = self.denominator
        c0 = den[0]
        if c0 == 0:
            raise NotAUnit("denominator constant term 0 is not allowed")
        if c0 == -1:
            object.__setattr__(self, "numerator", self.numerator.negate())
            object.__setattr__(self, "denominator", den.negate())
        elif c0 != 1:
            raise NotAUnit(f"denominator constant term must be +-1, got {c0}")

    def to_json(self) -> dict:
        return {"num": self.numerator.to_json(), "den": self.denominator.to_json()}

    @classmethod
    def from_json(cls, data: dict) -> "RationalFunction":
        return cls(Polynomial.from_json(data["num"]), Polynomial.from_json(data["den"]))


def expand(f: RationalFunction, order: int) -> TruncatedSeries:
    if order < 0:
        raise ValidationError("expansion order must be nonnegative")
    return divide(f.numerator.as_series(order), f.denominator.as_series(order))
