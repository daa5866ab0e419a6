"""Exact truncated formal power series and rational functions over the integers.

All coefficients are Python ints (arbitrary precision).  A series is a finite
prefix of a formal power series in one indeterminate t; binary operations
truncate to the minimum order of their operands.  Everything here is immutable
and every operation is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

from .errors import NotAUnit, OrderMismatch, ValidationError

DEFAULT_ORDER = 16


@dataclass(frozen=True)
class TruncatedSeries:
    """Coefficients of t^0 .. t^order, stored densely."""

    coeffs: tuple

    def __post_init__(self):
        coeffs = tuple(int(c) for c in self.coeffs)
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
        return [str(c) for c in self.coeffs]

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
    out = [0] * (n + 1)
    for i in range(n + 1):
        ai = a[i]
        if ai == 0:
            continue
        for j in range(n + 1 - i):
            out[i + j] += ai * b[j]
    return TruncatedSeries(tuple(out))


def invert(a: TruncatedSeries) -> TruncatedSeries:
    c0 = a[0]
    if c0 not in (1, -1):
        raise NotAUnit(f"constant term {c0} is not invertible over the integers")
    n = a.order
    inv = [0] * (n + 1)
    inv[0] = c0
    for m in range(1, n + 1):
        s = sum(a[i] * inv[m - i] for i in range(1, m + 1))
        inv[m] = -c0 * s
    return TruncatedSeries(tuple(inv))


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
        return [str(c) for c in self.coeffs]

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
    num = f.numerator.as_series(order)
    den = f.denominator.as_series(order)
    return mul(num, invert(den))
