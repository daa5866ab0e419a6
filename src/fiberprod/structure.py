"""Dimension/depth rules and structural classifiers for fiber product rings.

All operations here are driven by user- or oracle-supplied numeric invariants;
nothing is computed from ring presentations.  Rules fire in a fixed order and
every result names the rule that produced it, so the output can be audited
against the statement it encodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Tuple

from .errors import IndexOutOfRange, TrivialFiberProduct, ValidationError
from .fiber import BettiSequence


@dataclass(frozen=True)
class RingInvariants:
    """dim/depth/edim plus optional tri-state structural flags
    (True / False / None = unknown)."""

    dim: int
    depth: int
    edim: int
    is_regular: Optional[bool] = None
    is_cohen_macaulay: Optional[bool] = None
    is_hypersurface: Optional[bool] = None
    is_complete_intersection: Optional[bool] = None

    def __post_init__(self):
        if not (0 <= self.depth <= self.dim <= self.edim):
            raise ValidationError(
                f"need depth <= dim <= edim, got depth={self.depth} dim={self.dim} "
                f"edim={self.edim}"
            )
        if self.is_regular and self.edim != self.dim:
            raise ValidationError("a regular ring has edim = dim")
        if (
            self.is_hypersurface
            and self.is_cohen_macaulay
            and self.edim - self.depth > 1
        ):
            raise ValidationError("a CM hypersurface has edim - depth <= 1")

    @classmethod
    def from_json(cls, data: dict) -> "RingInvariants":
        return cls(
            dim=int(data["dim"]),
            depth=int(data["depth"]),
            edim=int(data["edim"]),
            is_regular=data.get("is_regular"),
            is_cohen_macaulay=data.get("is_cohen_macaulay"),
            is_hypersurface=data.get("is_hypersurface"),
            is_complete_intersection=data.get("is_complete_intersection"),
        )


@dataclass(frozen=True)
class FiberData:
    """Numeric invariants of one fiber-product scenario.

    The grade fields are the grades, inside R, S and T, of the extension of
    the maximal ideal of the product ring.  They are deliberately independent
    inputs rather than being derived from the depths.
    """

    R: RingInvariants
    S: RingInvariants
    T: RingInvariants
    grade_mR: int
    grade_mS: int
    grade_mT: int
    beta1_T_over_R: int = 1
    beta1_T_over_S: int = 1
    beta2_T_over_S: int = 0
    T_is_residue_field: bool = False
    gamma_mR_in_ker: bool = False
    is_large: bool = False

    def __post_init__(self):
        for name, grade, ring in (
            ("grade_mR", self.grade_mR, self.R),
            ("grade_mS", self.grade_mS, self.S),
            ("grade_mT", self.grade_mT, self.T),
        ):
            if grade < 0:
                raise ValidationError(f"{name} must be nonnegative")
            if grade > ring.depth:
                raise ValidationError(
                    f"{name}={grade} exceeds the depth {ring.depth} of the ring"
                )
        if self.beta1_T_over_R < 1 or self.beta1_T_over_S < 1:
            raise TrivialFiberProduct(
                "beta_1 of T over both R and S must be >= 1 for a nontrivial "
                "fiber product"
            )
        if self.beta2_T_over_S < 0:
            raise ValidationError("beta2_T_over_S must be nonnegative")
        if self.T_is_residue_field and (self.T.dim != 0 or self.T.depth != 0):
            raise ValidationError("the residue field has dim = depth = 0")

    @classmethod
    def from_json(cls, data: dict) -> "FiberData":
        return cls(
            R=RingInvariants.from_json(data["R"]),
            S=RingInvariants.from_json(data["S"]),
            T=RingInvariants.from_json(data["T"]),
            grade_mR=int(data["grade_mR"]),
            grade_mS=int(data["grade_mS"]),
            grade_mT=int(data["grade_mT"]),
            beta1_T_over_R=int(data.get("beta1_T_over_R", 1)),
            beta1_T_over_S=int(data.get("beta1_T_over_S", 1)),
            beta2_T_over_S=int(data.get("beta2_T_over_S", 0)),
            T_is_residue_field=bool(data.get("T_is_residue_field", False)),
            gamma_mR_in_ker=bool(data.get("gamma_mR_in_ker", False)),
            is_large=bool(data.get("is_large", False)),
        )


class DepthKind(Enum):
    EXACT = "Exact"
    LOWER_BOUND = "LowerBound"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class DepthResult:
    kind: DepthKind
    value: Optional[int]
    rule: str

    def __post_init__(self):
        if self.kind is DepthKind.UNKNOWN:
            if self.value is not None:
                raise ValidationError("Unknown carries no value")
        elif self.value is None or self.value < 0:
            raise ValidationError("Exact/LowerBound carry a value >= 0")

    def to_json(self) -> dict:
        return {"kind": self.kind.value, "value": self.value, "rule": self.rule}


def dim_fiber(dim_R: int, dim_S: int) -> int:
    """Krull dimension of the product ring: the maximum of the two factors."""
    return max(dim_R, dim_S)


def depth_rule(data: FiberData) -> DepthResult:
    """Depth of the fiber product, by case analysis; first match wins.

    (a) T = k: exact, min(depth R, depth S, 1).
    (b) both factor grades exceed grade_mT = n: exact n + 1.
    (c) grade_mT > 0 and some factor has depth 0: exact 0.
    (d) dim T = 0 with the torsion-kernel hypothesis: exact
        min(grade_mR, grade_mS, 1) -- except the asymmetric case
        grade_mR > 0, grade_mS = 0, which is deliberately not certified.
    (e) otherwise: the general lower bound min(depth R, depth S, depth T + 1).
    """
    R, S, T = data.R, data.S, data.T
    if data.T_is_residue_field:
        return DepthResult(DepthKind.EXACT, min(R.depth, S.depth, 1), "Lescot")
    n = data.grade_mT
    if data.grade_mR > n and data.grade_mS > n:
        return DepthResult(DepthKind.EXACT, n + 1, "Thm-4(i)")
    if n > 0 and (R.depth == 0 or S.depth == 0):
        return DepthResult(DepthKind.EXACT, 0, "Thm-4(iii)")
    if (
        T.dim == 0
        and data.gamma_mR_in_ker
        and not (data.grade_mR > 0 and data.grade_mS == 0)
    ):
        return DepthResult(
            DepthKind.EXACT,
            min(data.grade_mR, data.grade_mS, 1),
            "Cor-Lescot-general",
        )
    return DepthResult(
        DepthKind.LOWER_BOUND,
        min(R.depth, S.depth, T.depth + 1),
        "Fact-lower-bound",
    )


@dataclass(frozen=True)
class Predicate:
    """Tri-state structural verdict plus the rule and its logical direction."""

    value: Optional[bool]
    rule: str
    direction: str  # "iff" | "only-if" | "if"

    def to_json(self) -> dict:
        return {"value": self.value, "rule": self.rule, "direction": self.direction}


@dataclass(frozen=True)
class StructureReport:
    regular: Predicate
    hypersurface: Predicate
    cohen_macaulay: Predicate
    complete_intersection: Predicate

    def to_json(self) -> dict:
        return {name: pred.to_json() for name, pred in self.rows()}

    def rows(self) -> List[Tuple[str, Predicate]]:
        return [
            ("regular", self.regular),
            ("hypersurface", self.hypersurface),
            ("cohen_macaulay", self.cohen_macaulay),
            ("complete_intersection", self.complete_intersection),
        ]


def _tri_and(*values: Optional[bool]) -> Optional[bool]:
    if any(v is False for v in values):
        return False
    if all(v is True for v in values):
        return True
    return None


def classify(data: FiberData) -> StructureReport:
    """Structural verdicts for the product ring.

    regular is always False.  The other three are one-directional statements
    and stay undetermined (None) whenever their hypotheses do not apply.
    """
    R, S = data.R, data.S
    n = data.grade_mT
    dim_prod = dim_fiber(R.dim, S.dim)

    regular = Predicate(False, "Thm-struct(i)", "only-if")

    # Cohen-Macaulayness first; the hypersurface iff below needs it.
    if data.grade_mR > n and data.grade_mS > n:
        cm_value = _tri_and(
            R.is_cohen_macaulay,
            S.is_cohen_macaulay,
            True if (R.dim == S.dim == n + 1) else False,
        )
        cohen_macaulay = Predicate(cm_value, "Thm-struct(iv)", "iff")
    elif n > 0 and (R.depth == 0 or S.depth == 0) and dim_prod > 0:
        cohen_macaulay = Predicate(False, "Thm-struct(iii)", "only-if")
    else:
        cohen_macaulay = Predicate(None, "none", "if")

    if R.is_regular is False or data.beta1_T_over_S != 1:
        hypersurface = Predicate(False, "Thm-struct(ii)", "only-if")
    elif data.is_large and cohen_macaulay.value is True:
        hyp = _tri_and(R.is_regular, data.beta1_T_over_S == 1)
        hypersurface = Predicate(hyp, "Prop-large(ii)", "iff")
    else:
        hypersurface = Predicate(None, "Thm-struct(ii)", "only-if")

    if data.is_large and R.is_complete_intersection is True:
        num = data.beta1_T_over_S ** 2 + data.beta1_T_over_S
        den = data.beta1_T_over_R * data.beta1_T_over_S + data.beta2_T_over_S
        if den > 0 and num == 2 * den:
            complete_intersection = Predicate(True, "Prop-large(i)", "if")
        else:
            complete_intersection = Predicate(None, "Prop-large(i)", "if")
    else:
        complete_intersection = Predicate(None, "none", "if")

    return StructureReport(regular, hypersurface, cohen_macaulay, complete_intersection)


@dataclass(frozen=True)
class BoundCheck:
    index: int
    betti: int
    required: int
    passed: bool


def beh_check(betti: BettiSequence, d: int, i_max: int) -> List[BoundCheck]:
    """Binomial lower bounds beta_i >= C(d, i) for 1 <= i <= i_max."""
    if d < 0:
        raise ValidationError("d must be nonnegative")
    if i_max > len(betti) - 1:
        raise IndexOutOfRange(
            f"i_max={i_max} exceeds the supplied Betti data (length {len(betti)})"
        )
    out = []
    for i in range(1, i_max + 1):
        req = math.comb(d, i)
        out.append(BoundCheck(i, betti[i], req, betti[i] >= req))
    return out


@dataclass(frozen=True)
class TotalRankCheck:
    achieved: int
    required: int
    passed: bool


def tr_check(betti: BettiSequence, d: int, i_max: int) -> TotalRankCheck:
    """Total-rank lower bound: sum of beta_0..beta_{i_max} against 2^d."""
    if d < 0:
        raise ValidationError("d must be nonnegative")
    if i_max > len(betti) - 1:
        raise IndexOutOfRange(
            f"i_max={i_max} exceeds the supplied Betti data (length {len(betti)})"
        )
    total = sum(betti[i] for i in range(i_max + 1))
    return TotalRankCheck(total, 2 ** d, total >= 2 ** d)


@dataclass(frozen=True)
class TateCheck:
    passed: bool
    first_failure: Optional[int] = None


def tate_hypersurface_check(betti: BettiSequence, d: int) -> TateCheck:
    """Hypersurface stabilization: beta_i = 2^d for every represented i >= d."""
    if d < 0:
        raise ValidationError("d must be nonnegative")
    target = 2 ** d
    for i in range(d, len(betti)):
        if betti[i] != target:
            return TateCheck(False, i)
    return TateCheck(True)
