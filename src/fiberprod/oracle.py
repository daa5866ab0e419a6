"""Brute-force ground truth over monomial quotient algebras.

Graded minimal free resolutions of cyclic modules A/J over A = P/I (P a
polynomial ring over GF(p), I and J monomial ideals) by exact row reduction,
one multidegree block at a time.  Output: graded Betti tables, truncated
Poincare series, Krull dimension and depth of monomial quotients, and the
same-ambient fiber product presentation P/(I intersect J).

The public interface takes and returns monomials as exponent tuples.  Inside
``resolve`` each exponent vector is one packed int (``_Packing``): a product
is one addition, a quotient by a divisor one subtraction, and divisibility one
masked subtraction.  The monomial order everywhere is graded lexicographic
(within a degree: descending lex on exponent tuples, which is descending
order on the packed ints), fixed so that outputs are deterministic.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import (
    BudgetExceeded,
    InternalInconsistency,
    TrivialFiberProduct,
    ValidationError,
)
from .series import TruncatedSeries, invert

DEFAULT_CHAR = 32003
# Characteristics are capped so that primality testing stays instant.
MAX_CHAR = 2**31 - 1

Monomial = Tuple[int, ...]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in range(2, int(n ** 0.5) + 1):
        if n % q == 0:
            return False
    return True


def divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


def lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def _minimalize(gens: Sequence[Monomial]) -> frozenset:
    gens = set(gens)
    out = set()
    for g in gens:
        if not any(h != g and divides(h, g) for h in gens):
            out.add(g)
    return frozenset(out)


@dataclass(frozen=True)
class MonomialIdeal:
    """Minimal generating set of a monomial ideal; the zero ideal is empty."""

    num_vars: int
    generators: frozenset

    def __post_init__(self):
        if self.num_vars < 1:
            raise ValidationError("need at least one variable")
        gens = frozenset(tuple(int(e) for e in g) for g in self.generators)
        for g in gens:
            if len(g) != self.num_vars:
                raise ValidationError(f"exponent vector {g} has wrong length")
            if any(e < 0 for e in g):
                raise ValidationError(f"negative exponent in {g}")
            if sum(g) == 0:
                raise ValidationError("the unit ideal is not allowed")
        object.__setattr__(self, "generators", _minimalize(gens))

    @classmethod
    def of(cls, num_vars: int, gens: Sequence[Sequence[int]]) -> "MonomialIdeal":
        return cls(num_vars, frozenset(tuple(g) for g in gens))

    @classmethod
    def zero(cls, num_vars: int) -> "MonomialIdeal":
        return cls(num_vars, frozenset())

    def is_zero(self) -> bool:
        return not self.generators

    def contains_monomial(self, m: Monomial) -> bool:
        return any(divides(g, m) for g in self.generators)

    def contains_ideal(self, other: "MonomialIdeal") -> bool:
        return all(self.contains_monomial(g) for g in other.generators)

    def sorted_generators(self) -> List[Monomial]:
        return sorted(self.generators, key=lambda g: (sum(g), tuple(-e for e in g)))

    def max_degree(self) -> int:
        return max((sum(g) for g in self.generators), default=0)


def monomials_of_degree(num_vars: int, degree: int) -> List[Monomial]:
    """All exponent vectors of the given total degree, descending lex."""
    if num_vars == 1:
        return [(degree,)]
    out = []
    for e in range(degree, -1, -1):
        for rest in monomials_of_degree(num_vars - 1, degree - e):
            out.append((e,) + rest)
    return out


def kbasis(ideal: MonomialIdeal, degree: int) -> List[Monomial]:
    """Standard monomials (a k-basis of the degree-d piece of P/I)."""
    if degree < 0:
        raise ValidationError("degree must be nonnegative")
    return [
        m
        for m in monomials_of_degree(ideal.num_vars, degree)
        if not ideal.contains_monomial(m)
    ]


class _Packing:
    """Exponent vectors in n variables with every exponent <= top, packed into
    one int each.  Variable 0 takes the highest field, and each field holds an
    exponent under one guard bit, so within one total degree integer order is
    descending lex order when sorted in reverse.  g divides m iff no field of
    (m with the guard bits set) - g borrows from its guard bit."""

    def __init__(self, num_vars: int, top: int):
        width = top.bit_length() + 1
        self.shifts = [(num_vars - 1 - v) * width for v in range(num_vars)]
        self.units = [1 << s for s in self.shifts]
        self.guard = sum(u << (width - 1) for u in self.units)
        self.mask = (1 << width) - 1

    def pack(self, m: Monomial) -> int:
        return sum(e << s for e, s in zip(m, self.shifts))

    def unpack(self, m: int) -> Monomial:
        return tuple(m >> s & self.mask for s in self.shifts)


def _standard_step(previous: List[int], packing: _Packing, ideal: List[int]) -> List[int]:
    """Standard monomials of P/I in degree d, descending, from those in degree
    d - 1: they form an order ideal, so each is a standard monomial of degree
    d - 1 times a variable.  ``ideal`` holds I's packed generators."""
    guard = packing.guard
    candidates = {m + u for m in previous for u in packing.units}
    return sorted((c for c in candidates
                   if not any(((c | guard) - g) & guard == guard for g in ideal)),
                  reverse=True)


# ---------------------------------------------------------------------------
# Monomial string parsing ("x^2*y" style) for the JSON interfaces.

_FACTOR_RE = re.compile(r"^([A-Za-z_][A-Za-z_0-9]*)(?:\^(\d+))?$")


def parse_monomial(text: str, variables: Sequence[str]) -> Monomial:
    index = {v: i for i, v in enumerate(variables)}
    exps = [0] * len(variables)
    for factor in text.replace(" ", "").split("*"):
        m = _FACTOR_RE.match(factor)
        if not m:
            raise ValidationError(f"cannot parse monomial factor {factor!r}")
        name, power = m.group(1), int(m.group(2) or 1)
        if name not in index:
            raise ValidationError(f"unknown variable {name!r} in {text!r}")
        exps[index[name]] += power
    return tuple(exps)


def format_monomial(m: Monomial, variables: Sequence[str]) -> str:
    parts = []
    for e, v in zip(m, variables):
        if e == 1:
            parts.append(v)
        elif e > 1:
            parts.append(f"{v}^{e}")
    return "*".join(parts) if parts else "1"


def ideal_from_json(
    gens: Sequence, variables: Sequence[str]
) -> MonomialIdeal:
    """Generators given either as monomial strings or exponent arrays."""
    parsed = []
    for g in gens:
        if isinstance(g, str):
            parsed.append(parse_monomial(g, variables))
        else:
            parsed.append(tuple(int(e) for e in g))
    return MonomialIdeal.of(len(variables), parsed)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuotientPresentation:
    """A = P/ideal over GF(char), with the cyclic module A/module_ideal."""

    num_vars: int
    char: int
    ideal: MonomialIdeal
    module_ideal: MonomialIdeal

    def __post_init__(self):
        if self.char > MAX_CHAR:
            raise ValidationError(f"characteristic {self.char} exceeds {MAX_CHAR}")
        if not _is_prime(self.char):
            raise ValidationError(f"characteristic {self.char} is not prime")
        if self.ideal.num_vars != self.num_vars or self.module_ideal.num_vars != self.num_vars:
            raise ValidationError("ideal and module must live in the same ring")
        if not self.module_ideal.is_zero() and not self.module_ideal.contains_ideal(self.ideal):
            raise ValidationError(
                "module ideal must contain the ring ideal so that A/J is well defined"
            )

    @classmethod
    def residue_field(
        cls, ideal: MonomialIdeal, char: int = DEFAULT_CHAR
    ) -> "QuotientPresentation":
        n = ideal.num_vars
        variables = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
        return cls(n, char, ideal, MonomialIdeal.of(n, variables))


@dataclass
class GradedBettiTable:
    """beta_{i,j} entries plus, per homological degree, a completeness flag
    and the rule that bounded its scan (see ``_cutoffs``)."""

    entries: Dict[Tuple[int, int], int]
    max_hom: int
    complete: List[bool]
    reasons: List[str]

    def totals(self) -> List[int]:
        out = [0] * (self.max_hom + 1)
        for (i, _), v in self.entries.items():
            out[i] += v
        return out

    def is_complete_through(self) -> bool:
        return all(self.complete)

    def to_json(self) -> dict:
        betti = sorted((i, j, v) for (i, j), v in self.entries.items() if v)
        return {
            "betti": [[i, j, str(v)] for i, j, v in betti],
            "total": [str(t) for t in self.totals()],
            "complete": list(self.complete),
        }

    def to_text(self) -> str:
        lines = ["  i    j    beta"]
        for (i, j), v in sorted(self.entries.items()):
            if v:
                lines.append(f"{i:3d}  {j:3d}  {v:6d}")
        flags = " ".join("ok" if c else "??" for c in self.complete)
        lines.append(f"totals: {self.totals()}")
        lines.append(f"complete: {flags}")
        lines.append(f"cutoffs: {' '.join(self.reasons)}")
        return "\n".join(lines)


# --- exact linear algebra over GF(p) ---------------------------------------

# A sparse vector over GF(p): {coordinate: nonzero coefficient}.
Vector = Dict[int, int]


def _echelon(
    vectors: Iterable[Vector], p: int, stop: Optional[int] = None
) -> Tuple[List[int], List[Vector]]:
    """Gaussian elimination over GF(p) on a list of sparse vectors.

    Returns (pivots, kernel): the indices of the vectors independent of all
    earlier ones, in order, and one relation per dependent vector, written
    over the vector indices.  Deterministic: vector i is reduced against the
    echelon rows of vectors 0..i-1 by smallest leading coordinate.

    With a positive ``stop`` the call is rank-only: it tracks no relations,
    returns an empty kernel, and returns as soon as it has ``stop`` pivots
    (the first ``stop`` pivots of a full run).
    """
    rows: Dict[int, Tuple[Vector, Vector]] = {}  # lead -> (row, combination)
    pivots: List[int] = []
    kernel: List[Vector] = []
    for idx, vec in enumerate(vectors):
        v = {c: x % p for c, x in vec.items() if x % p}
        comb = {} if stop else {idx: 1}
        while v:
            lead = min(v)
            if lead not in rows:
                inv = pow(v[lead], p - 2, p)
                rows[lead] = ({c: x * inv % p for c, x in v.items()},
                              {c: x * inv % p for c, x in comb.items()})
                pivots.append(idx)
                if len(pivots) == stop:
                    return pivots, kernel
                break
            f = v[lead]
            for target, source in zip((v, comb), rows[lead]):
                for c, y in source.items():
                    x = (target.get(c, 0) - f * y) % p
                    if x:
                        target[c] = x
                    else:
                        target.pop(c, None)
        else:
            if not stop:
                kernel.append(comb)
    return pivots, kernel


# --- resolution machinery ---------------------------------------------------


@dataclass
class _FreeModule:
    """Multigraded free module with a differential into the previous one.

    Generator g has packed multidegree degrees[g] of total degree totals[g];
    its image is the sparse map columns[g] = {k: c}, meaning
    c * x^(degrees[g] - alpha_k) on generator k of the previous module (a
    multihomogeneous image has one monomial per component)."""

    degrees: List[int]
    totals: List[int]
    columns: List[Vector]


def _is_residue_field(pres: QuotientPresentation) -> bool:
    """J is the maximal ideal: n minimal generators, all linear."""
    J = pres.module_ideal
    return len(J.generators) == pres.num_vars and J.max_degree() == 1


def _taylor(ideal: MonomialIdeal) -> List[int]:
    """Degree bounds on t_j^P(P/L), L = ``ideal``, for 0 <= j <= min(n, #gens):
    the Taylor resolution of P/L is free, its j-th module sits in the lcm
    degrees of j generators, and the minimal resolution is a summand of it,
    so t_j <= min(j m, deg lcm(L)), m the largest generator degree.  It has
    length #gens, and Hilbert's syzygy theorem caps pd_P at n."""
    m = ideal.max_degree()
    top = sum(map(max, zip(*ideal.generators))) if ideal.generators else 0
    length = min(ideal.num_vars, len(ideal.generators))
    return [0] + [min(j * m, top) for j in range(1, length + 1)]


def _cutoffs(pres: QuotientPresentation, max_hom: int) -> List[Tuple[int, str]]:
    """Per hom degree i <= max_hom, a proven bound on t_i, the largest internal
    degree of a generator of F_i, and the rule that gives it; -1 when F_i = 0.

    - ``generators`` (i <= 1): F_0 = A and F_1 = J/I are written down, so t_1
      is the largest degree of a minimal generator of J outside I.
    - ``eagon`` (always): the Eagon resolution of M = P/J over A = P/I has
      i-th module the sum of Tor^P_{j_0}(M) (x) Tor^P_{j_1}(A) (x) ... over
      j_0 + sum (j_k + 1) = i, j_k >= 1, and the minimal resolution is a
      summand of it (Serre's inequality; Gulliksen-Levin, Homology of local
      rings, 1969; Avramov, Infinite free resolutions, 1998), so t_i is at
      most the largest sum of the Taylor bounds on those factors.  With I = 0
      this is the Taylor bound, and -1 past pd_P(M).
    - ``backelin`` (J the maximal ideal): a monomial I generated in degree
      <= m gives rate(A) <= m - 1 (J. Backelin, On the rates of growth of the
      homologies of Veronese subrings, LNM 1183, 1986), so
      t_i <= max(i, 1 + (m - 1)(i - 1)).
    - ``koszul`` (I generated in degree <= 2): A is Koszul (Froberg,
      Determination of a class of Poincare series, 1975), so
      reg_A(M) <= reg_P(M) (Avramov-Eisenbud, Regularity of modules over a
      Koszul algebra, 1992) and t_i <= i + max_j (tM_j - j), tM the Taylor
      bounds on M over P.

    From i = 2 on the smallest bound that applies wins; a tie goes to the
    first of eagon, backelin, koszul, so a special rule is named only where
    it is strictly tighter than the general one.
    """
    I, J = pres.ideal, pres.module_ideal
    tM, tA = _taylor(J), _taylor(I)
    # tails[i]: bound on the degree of Tor^P_{j_1}(A) (x) ... in hom degree
    # i = sum (j_k + 1), -1 where no such product exists
    tails = [0]
    for i in range(1, max_hom + 1):
        tails.append(max((tA[j] + tails[i - j - 1] for j in range(1, min(len(tA), i))
                          if tails[i - j - 1] >= 0), default=-1))
    reg = max(t - j for j, t in enumerate(tM))
    out = [(0, "generators"),
           (max((sum(g) for g in J.generators if not I.contains_monomial(g)), default=0),
            "generators")]
    for i in range(2, max_hom + 1):
        rules = [(max((tM[j] + tails[i - j] for j in range(min(len(tM), i + 1))
                       if tails[i - j] >= 0), default=-1), "eagon")]
        if _is_residue_field(pres):
            rules.append((max(i, 1 + (I.max_degree() - 1) * (i - 1)), "backelin"))
        if I.max_degree() <= 2:
            rules.append((i + reg, "koszul"))
        out.append(min(rules, key=lambda rule: rule[0]))
    return out[: max_hom + 1]


def resolve(
    pres: QuotientPresentation,
    max_hom: int,
    max_internal: Optional[int] = None,
) -> GradedBettiTable:
    """Graded Betti numbers of the cyclic module, degree by degree.

    Step i finds the generators of F_{i+1}, the minimal generators of
    ker(d_i).  The total degree d is the outer loop and the step the inner
    one (La Scala and Stillman, Strategies for computing minimal free
    resolutions, 1998): at degree d, step i reads F_i through d, which step
    i - 1 has just completed, and F_{i+1} below d.  Every map is Z^n-graded,
    so the kernel at degree d is computed one multidegree block beta
    (|beta| = d) at a time: columns (beta - alpha_j, j) of F_i, rows
    (beta - alpha_k, k) of F_{i-1}, both with a standard monomial.  A new
    generator is a kernel vector outside the span of the multiples of the
    generators found at lower degrees.
    Rank first, with one rule for every block of every scanned degree:
    exactness gives each block's kernel dimension without elimination, in a
    chain through the steps of one degree; a block of dimension 0 is skipped,
    and a block whose multiples reach that rank (a rank-only ``_echelon``)
    holds no new generator.  Only the other blocks build their images and
    eliminate the kernel, and every such elimination is audited against the
    chain.  Step i scans d up to its bound from ``_cutoffs``; every bound is
    proven.
    After the scan the (i, j) entries are counted from the multidegrees of
    each F_i, and step i is complete when step i - 1 is and either F_{i-1} = 0
    (nothing left to resolve) or ``max_internal`` reaches the bound on t_i;
    an incomplete step is flagged, and no exception is raised here.
    Before returning, the table is checked against the Hilbert function of
    A/J (and, for k over a quadratic A, against Froberg's 1/H_A(-z)); a
    failed check raises ``InternalInconsistency``.
    """
    if max_hom < 0:
        raise ValidationError("max_hom must be nonnegative")
    cutoffs = _cutoffs(pres, max_hom)
    if max_internal is None:
        # the bounds need not grow with i, so the largest covers every step
        max_internal = max(max_hom, *(bound for bound, _ in cutoffs))
    if max_internal < max_hom:
        raise ValidationError("max_internal must be at least max_hom")
    p = pres.char
    # every multidegree below has total degree <= max_internal, so no exponent
    # exceeds top, and neither does one of I's generators or J's
    top = max([max_internal] + [e for g in pres.ideal.generators | pres.module_ideal.generators
                                for e in g])
    packing = _Packing(pres.num_vars, top)
    ideal = [packing.pack(g) for g in pres.ideal.generators]

    # standard monomials of A = P/I by degree, built as an order ideal, and
    # all of them as one set; lives for this call only
    standard: List[List[int]] = [[0]]
    is_standard = {0}

    def standard_of(degree: int) -> List[int]:
        while len(standard) <= degree:
            standard.append(_standard_step(standard[-1], packing, ideal))
            is_standard.update(standard[-1])
        return standard[degree]

    def spread(module: _FreeModule, degree: int) -> Dict[int, List[int]]:
        """Multidegrees beta of total degree d that generator g reaches by a
        standard monomial, beta - alpha_g: beta -> [g, ...]."""
        out: Dict[int, List[int]] = {}
        for g, (alpha, total) in enumerate(zip(module.degrees, module.totals)):
            if total <= degree:
                for m in standard_of(degree - total):
                    out.setdefault(alpha + m, []).append(g)
        return out

    # F_1 = J/I needs no scan: its generators are the minimal generators of J
    # outside I, each mapping onto the generator of F_0 = A; graded-lex order
    # fixes the column order of every later step.  F_2, ..., F_max_hom fill up
    # degree by degree.
    first = [
        g for g in pres.module_ideal.sorted_generators()
        if not pres.ideal.contains_monomial(g) and sum(g) <= max_internal
    ]
    modules = [_FreeModule([0], [0], []),
               _FreeModule([packing.pack(g) for g in first], [sum(g) for g in first],
                           [{0: 1} for _ in first])]
    modules += [_FreeModule([], [], []) for _ in range(2, max_hom + 1)]

    # step i finds the generators of F_{i+1} up to bounds[i + 1]; reach[i + 1]
    # is the largest degree that step i or a later one scans
    bounds = [min(max_internal, bound) for bound, _ in cutoffs]
    reach = list(itertools.accumulate(reversed(bounds), max))[::-1]

    for d in range(2, max(reach[2:], default=1) + 1):
        standard_of(d)  # the row tests look up standard monomials of degree <= d
        # exactness, one step after the other: dim ker(d_i)_beta =
        # dim F_{i,beta} - ranks[beta], ranks[beta] = dim im(d_i)_beta, with
        # im(d_i) = ker(d_{i-1}) and dim im(d_1)_beta = [beta standard in A]
        # wherever F_1 reaches beta (then beta is in J).  Valid because F_i
        # holds every generator of degree <= d: step i - 1 has just scanned
        # d, or provably finds nothing there (d <= max_internal throughout).
        ranks = dict.fromkeys(standard[d], 1)
        blocks = spread(modules[1], d)
        for i in range(1, max_hom):
            # generators of F_{i+1} = minimal generators of ker(d_i)
            prev, current, new = modules[i - 1], modules[i], modules[i + 1]
            # no later step scans d, or F_i has no generator below d: then
            # ker(d_i) is 0 in degree d (the resolution is minimal), and so is
            # every later module
            if d > reach[i + 1] or not current.totals or current.totals[0] >= d:
                break
            dims = {beta: len(cols) - ranks.get(beta, 0) for beta, cols in blocks.items()}
            # multiples of generators found in lower degrees, by block; with the
            # generators found here they are step i + 1's blocks
            multiples = spread(new, d)
            for beta, cols in blocks.items() if d <= bounds[i + 1] else ():
                dim = dims[beta]
                if not dim:
                    continue
                position = {j: c for c, j in enumerate(cols)}
                span = [
                    {position[j]: c for j, c in new.columns[g].items() if j in position}
                    for g in multiples.get(beta, ())
                ]
                if span and len(_echelon(span, p, stop=dim)[0]) == dim:
                    continue
                row_ok: Dict[int, bool] = {}
                images = []
                for j in cols:
                    image = {}
                    for k, c in current.columns[j].items():
                        if k not in row_ok:
                            row_ok[k] = beta - prev.degrees[k] in is_standard
                        if row_ok[k]:
                            image[k] = c
                    images.append(image)
                pivots, kernel = _echelon(images, p)
                # exactness audit: the kernel has the dimension the chain gave
                if len(kernel) != dim:
                    raise InternalInconsistency(
                        f"exactness audit failed at multidegree {packing.unpack(beta)}: "
                        f"kernel of dimension {len(kernel)}, ledger {dim}"
                    )
                # rank-nullity audit: rank + dim ker = number of columns
                if len(pivots) + len(kernel) != len(images):
                    raise InternalInconsistency(
                        f"rank-nullity audit failed at multidegree {packing.unpack(beta)}: "
                        f"{len(pivots)} + {len(kernel)} != {len(images)}"
                    )
                if span:
                    pivots, _ = _echelon(span + kernel, p)
                    # the multiples lie in the kernel, so they add no rank to it
                    if len(pivots) != dim:
                        raise InternalInconsistency(
                            f"exactness audit failed at multidegree {packing.unpack(beta)}: "
                            f"multiples and kernel span dimension {len(pivots)}, ledger {dim}"
                        )
                    kernel = [kernel[idx - len(span)] for idx in pivots if idx >= len(span)]
                for vec in kernel:
                    multiples.setdefault(beta, []).append(len(new.degrees))
                    new.degrees.append(beta)
                    new.totals.append(d)
                    new.columns.append({cols[c]: x for c, x in vec.items()})
            ranks, blocks = dims, multiples

    # at max_hom 0, F_1 was written down but lies outside the table
    modules = modules[: max_hom + 1]
    entries = Counter((i, total) for i, module in enumerate(modules) for total in module.totals)
    # step i is complete once F_{i-1} has no kernel to scan or the scan reached
    # its proven bound, and every step before it is complete
    complete = [True]
    for i in range(1, max_hom + 1):
        complete.append(complete[-1] and (not modules[i - 1].degrees
                                          or max_internal >= cutoffs[i][0]))
    table = GradedBettiTable(entries, max_hom, complete, [r for _, r in cutoffs])
    _certify(pres, table, [[packing.unpack(m) for m in standard_of(d)]
                           for d in range(max_hom + 1)])
    return table


def _certify(
    pres: QuotientPresentation, table: GradedBettiTable, standard: List[List[Monomial]]
) -> None:
    """Check a table against the Hilbert function of A; raise
    ``InternalInconsistency`` if it fails.  ``standard[d]`` is the standard
    monomial basis of A in degree d, for d <= max_hom.

    A generator of internal degree j has homological degree at most j, and
    every generator of degree j <= max_hom <= max_internal was scanned for,
    so for d <= max_hom the Euler characteristic of the resolution in degree d
    is exact even under a budget:
    sum_{i,j} (-1)^i beta_{i,j} H_A(d - j) = H_{A/J}(d).  For k over a Koszul
    A (monomials of degree <= 2, Froberg 1975) the totals are also the
    coefficients of 1/H_A(-z).
    """
    hilbert = [len(basis) for basis in standard]
    for d, basis in enumerate(standard):
        euler = sum((-1) ** i * v * hilbert[d - j]
                    for (i, j), v in table.entries.items() if j <= d)
        quotient = sum(1 for m in basis if not pres.module_ideal.contains_monomial(m))
        if euler != quotient:
            raise InternalInconsistency(
                f"Euler characteristic {euler} of the resolution in degree {d} "
                f"differs from the Hilbert function {quotient} of A/J"
            )
    if _is_residue_field(pres) and pres.ideal.max_degree() <= 2:
        froberg = invert(TruncatedSeries(tuple((-1) ** d * h for d, h in enumerate(hilbert))))
        if table.totals() != list(froberg.coeffs):
            raise InternalInconsistency(
                f"totals {table.totals()} of k over a Koszul ring differ from "
                f"1/H_A(-z) = {list(froberg.coeffs)}"
            )


def poincare_truncation(
    pres: QuotientPresentation,
    max_hom: int,
    max_internal: Optional[int] = None,
) -> TruncatedSeries:
    """Column sums of the graded Betti table as a truncated series.

    Refuses to emit coefficients for homological degrees whose scan was
    incomplete.
    """
    table = resolve(pres, max_hom, max_internal)
    if not table.is_complete_through():
        raise BudgetExceeded(
            "internal-degree budget exhausted before the table was complete",
            partial=table,
        )
    return TruncatedSeries(tuple(table.totals()))


def dim_monomial(ideal: MonomialIdeal) -> int:
    """Krull dimension of P/I: num_vars minus the minimum number of variables
    meeting the support of every generator (exhaustive search)."""
    n = ideal.num_vars
    supports = [frozenset(i for i, e in enumerate(g) if e) for g in ideal.generators]
    if not supports:
        return n
    for size in range(n + 1):
        for cover in itertools.combinations(range(n), size):
            cs = set(cover)
            if all(s & cs for s in supports):
                return n - size
    raise RuntimeError("unreachable: the full variable set covers everything")


def depth_monomial(ideal: MonomialIdeal, char: int = DEFAULT_CHAR) -> int:
    """Depth of P/I via projective dimension over the ambient polynomial
    ring (depth = num_vars - pd; pd <= num_vars so the scan terminates)."""
    n = ideal.num_vars
    if ideal.is_zero():
        return n
    pres = QuotientPresentation(n, char, MonomialIdeal.zero(n), ideal)
    series = poincare_truncation(pres, n)
    pd = max(i for i in range(n + 1) if series[i])
    return n - pd


def fiber_presentation(
    I: MonomialIdeal, J: MonomialIdeal
) -> Tuple[MonomialIdeal, MonomialIdeal]:
    """Same-ambient fiber product data: P/(I cap J) presents the product of
    P/I and P/J over P/(I + J); returns (intersection, sum)."""
    if I.num_vars != J.num_vars:
        raise ValidationError("ideals must live in the same polynomial ring")
    if I.is_zero() or J.is_zero():
        raise TrivialFiberProduct("both ideals must be nonzero")
    if I.contains_ideal(J) or J.contains_ideal(I):
        raise TrivialFiberProduct(
            "containment between the ideals collapses the fiber product"
        )
    intersection = MonomialIdeal.of(
        I.num_vars,
        [lcm(g, h) for g in I.generators for h in J.generators],
    )
    total = MonomialIdeal(I.num_vars, I.generators | J.generators)
    return intersection, total
