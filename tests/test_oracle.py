import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from fiberprod import oracle, series as se
from fiberprod.errors import BudgetExceeded, TrivialFiberProduct, ValidationError
from fiberprod.oracle import (
    DEFAULT_CHAR,
    MonomialIdeal,
    QuotientPresentation,
    depth_monomial,
    dim_monomial,
    fiber_presentation,
    kbasis,
    parse_monomial,
    poincare_truncation,
    resolve,
)
from fiberprod.series import Polynomial, RationalFunction, TruncatedSeries


def ideal(gens, variables):
    return oracle.ideal_from_json(gens, variables)


XY = ["x", "y"]
XYZ = ["x", "y", "z"]


class TestMonomialIdeal:
    def test_minimalization(self):
        I = ideal(["x", "x^2", "x*y"], XY)
        assert I.generators == frozenset({(1, 0)})

    def test_unit_rejected(self):
        with pytest.raises(ValidationError):
            MonomialIdeal.of(2, [(0, 0)])

    def test_membership(self):
        I = ideal(["x*y^2"], XY)
        assert I.contains_monomial((1, 3))
        assert not I.contains_monomial((3, 1))


class TestParsing:
    def test_round_trip(self):
        m = parse_monomial("x^2*y", XY)
        assert m == (2, 1)
        assert oracle.format_monomial(m, XY) == "x^2*y"

    def test_unknown_variable(self):
        with pytest.raises(ValidationError):
            parse_monomial("w", XY)

    def test_exponent_arrays(self):
        assert ideal([[1, 2]], XY).generators == frozenset({(1, 2)})


class TestKbasis:
    def test_principal_cubics(self):
        I = ideal(["x*y^2"], XY)
        assert kbasis(I, 3) == [(3, 0), (2, 1), (0, 3)]

    def test_zero_ideal(self):
        assert kbasis(MonomialIdeal.zero(2), 2) == [(2, 0), (1, 1), (0, 2)]

    def test_irrelevant_ideal(self):
        assert kbasis(ideal(["x", "y"], XY), 1) == []


class TestResolve:
    def test_koszul(self):
        pres = QuotientPresentation.residue_field(MonomialIdeal.zero(3))
        table = resolve(pres, 3)
        assert table.totals() == [1, 3, 3, 1]
        assert all(table.complete)
        # Koszul is linear: beta_{i,i} only
        assert all(i == j for (i, j), v in table.entries.items() if v)

    def test_nodal_curve(self):
        pres = QuotientPresentation.residue_field(ideal(["x*y"], XY))
        table = resolve(pres, 6)
        assert table.totals() == [1, 2, 2, 2, 2, 2, 2]

    def test_cusp_like_hypersurface(self):
        pres = QuotientPresentation.residue_field(ideal(["x*y^2"], XY))
        table = resolve(pres, 5)
        assert table.totals() == [1, 2, 2, 2, 2, 2]

    def test_budget_flagging(self):
        # the Backelin bound max(6, 1 + 2 * 5) = 11 lies above the budget;
        # the true t_6 is 9
        pres = QuotientPresentation.residue_field(ideal(["x*y^2"], XY))
        table = resolve(pres, 6, max_internal=6)
        assert not table.is_complete_through()
        with pytest.raises(BudgetExceeded):
            poincare_truncation(pres, 6, max_internal=6)

    def test_module_ideal_must_contain_ring_ideal(self):
        with pytest.raises(ValidationError):
            QuotientPresentation(2, DEFAULT_CHAR, ideal(["x*y"], XY),
                                 ideal(["x^2"], XY))


class TestFirstSyzygy:
    """F_1 = J/I is seeded from the minimal generators of J outside I."""

    def test_zero_first_syzygy_is_complete_under_any_budget(self):
        # A = k[x]/(x^2), J = (x^2): J/I = 0, so the budget drops nothing
        # and the empty steps after it are complete
        x = ["x"]
        pres = QuotientPresentation(1, DEFAULT_CHAR, ideal(["x^2"], x), ideal(["x^2"], x))
        table = resolve(pres, 2, max_internal=4)
        assert table.entries == {(0, 0): 1}
        assert table.complete == [True, True, True]

    def test_step_emptied_by_the_budget_is_incomplete(self):
        # A = k[x]/(x^4), J = (x^3): the budget drops x^3, so F_1 comes out
        # empty and beta_2 reads 0, although the full resolution has
        # beta_2 = 1 (at x^4); neither step may be flagged complete
        x = ["x"]
        pres = QuotientPresentation(1, DEFAULT_CHAR, ideal(["x^4"], x), ideal(["x^3"], x))
        table = resolve(pres, 2, max_internal=2)
        assert table.totals() == [1, 0, 0]
        assert table.complete == [True, False, False]
        assert resolve(pres, 2).totals() == [1, 1, 1]

    def test_generator_above_budget_is_dropped(self):
        pres = QuotientPresentation(2, DEFAULT_CHAR, ideal(["x^2"], XY),
                                    ideal(["x", "y^3"], XY))
        table = resolve(pres, 2, max_internal=2)
        assert table.entries == {(0, 0): 1, (1, 1): 1, (2, 2): 1}
        assert table.complete == [True, False, False]
        # within the budget y^3 is kept and hom 1 is complete, but hom 2
        # stops short of its Koszul bound 2 + reg_P(P/(x, y^3)) = 4
        table = resolve(pres, 2, max_internal=3)
        assert table.entries == {(0, 0): 1, (1, 1): 1, (1, 3): 1, (2, 2): 1}
        assert table.complete == [True, True, False]

    def test_module_generator_inside_ring_ideal_is_skipped(self):
        # J = (xy, y^2) over A = k[x,y]/(xy): xy is zero in A, so F_1 = A(-2)
        pres = QuotientPresentation(2, DEFAULT_CHAR, ideal(["x*y"], XY),
                                    ideal(["x*y", "y^2"], XY))
        table = resolve(pres, 4)
        assert table.entries == {(0, 0): 1, (1, 2): 1, (2, 3): 1, (3, 4): 1, (4, 5): 1}
        assert all(table.complete)


class TestCutoff:
    """Each rule of ``oracle._cutoffs`` on a case it decides."""

    def test_generators_bound_hom_1_by_J_outside_I(self):
        # xy lies in I, so only y^2 counts
        pres = QuotientPresentation(2, DEFAULT_CHAR, ideal(["x*y"], XY),
                                    ideal(["x*y", "y^2"], XY))
        assert oracle._cutoffs(pres, 1) == [(0, "generators"), (2, "generators")]

    def test_backelin_bound_is_reached_exactly(self):
        # k over k[x,y]/(x^2, y^2): t_3 = 3 = max(3, 1 + 1 * 2), a generator at
        # the bound itself, where eagon gives 2 + 2 = 4; at hom 2 both give 2
        # and the tie goes to eagon.  Scanning through the bound proves the
        # step complete.
        pres = QuotientPresentation.residue_field(ideal(["x^2", "y^2"], XY))
        assert oracle._cutoffs(pres, 3)[2:] == [(2, "eagon"), (3, "backelin")]
        table = resolve(pres, 3, max_internal=3)
        assert table.entries[(3, 3)] == 4
        assert table.complete == [True] * 4
        assert table.reasons == ["generators", "generators", "eagon", "backelin"]

    def test_eagon_ends_the_scan_past_the_projective_dimension(self):
        # P/(x^2, xy, y^3) over P itself: the Taylor bounds 3 and 5 = deg x^2 y^3
        # at hom 1 and 2, and no term at hom 3 > n, so F_3 = 0 unscanned
        pres = QuotientPresentation(2, DEFAULT_CHAR, MonomialIdeal.zero(2),
                                    ideal(["x^2", "x*y", "y^3"], XY))
        assert oracle._cutoffs(pres, 3)[2:] == [(5, "eagon"), (-1, "eagon")]
        table = resolve(pres, 3)
        assert table.entries == {(0, 0): 1, (1, 2): 2, (1, 3): 1, (2, 3): 1, (2, 4): 1}
        assert all(table.complete)

    def test_koszul_bound_from_the_ambient_regularity(self):
        # A = k[x,y]/(x^2, y^2), M = A/(x, y^2): reg_P(P/(x, y^2)) <= 1 by
        # Taylor gives t_4 <= 5, where eagon gives 2 + (2 + 2) = 6
        pres = QuotientPresentation(2, DEFAULT_CHAR, ideal(["x^2", "y^2"], XY),
                                    ideal(["x", "y^2"], XY))
        assert oracle._cutoffs(pres, 4)[4] == (5, "koszul")
        table = resolve(pres, 4)
        assert all(table.complete)
        assert all(j <= i + 1 for (i, j) in table.entries)

    def test_eagon_bounds_a_cubic_ring_over_a_module_other_than_k(self):
        # A = k[x,y]/(x^3), M = A/(x^2, y): no special rule applies; Taylor
        # gives tM = 0, 2, 3 and tA_1 = 3, so t_2 <= max(0 + 3, 3 + 0) = 3 and
        # t_3 <= 2 + 3 = 5, both reached
        pres = QuotientPresentation(2, DEFAULT_CHAR, ideal(["x^3"], XY),
                                    ideal(["x^2", "y"], XY))
        assert oracle._cutoffs(pres, 3)[2:] == [(3, "eagon"), (5, "eagon")]
        table = resolve(pres, 3)
        assert table.entries == {(0, 0): 1, (1, 1): 1, (1, 2): 1, (2, 3): 2, (3, 4): 1, (3, 5): 1}
        assert all(table.complete)


def _random_presentation(rng):
    n = rng.randint(1, 3)

    def monomial(top):
        while True:
            m = tuple(rng.randint(0, top) for _ in range(n))
            if sum(m):
                return m

    rule = rng.choice(["backelin", "polynomial", "koszul", "eagon"])
    if rule == "polynomial":
        I = MonomialIdeal.zero(n)
    else:
        gens = [monomial(2) for _ in range(rng.randint(1, 3))]
        if rule == "koszul":
            gens = [g for g in gens if sum(g) <= 2] or [(1,) * min(n, 2) + (0,) * (n - 2)]
        if rule == "eagon":
            gens = [g for g in gens if sum(g) >= 3] or [(3,) + (0,) * (n - 1)]
        I = MonomialIdeal.of(n, gens)
    if rule == "backelin":
        return QuotientPresentation.residue_field(I), rng.randint(1, 4), rule
    extra = {monomial(2) for _ in range(rng.randint(1, 2))}
    if rule == "eagon":
        # with a cubic relation and a module other than k, eagon alone applies
        extra = {m for m in extra if sum(m) >= 2} or {(0,) * (n - 1) + (2,)}
    J = MonomialIdeal(n, I.generators | extra)
    return QuotientPresentation(n, DEFAULT_CHAR, I, J), rng.randint(1, 4), rule


def test_wider_heuristic_scan_finds_nothing_above_the_proven_bounds(monkeypatch):
    """Every table equals the one scanned to D (i + 1) + 1, D the largest
    generator degree, a bound wider than every proven one."""
    rng = random.Random(20261018)
    cases = [_random_presentation(rng) for _ in range(240)]
    proven = [resolve(pres, max_hom) for pres, max_hom, _ in cases]
    assert {r for table, (_, _, rule) in zip(proven, cases) if rule == "eagon"
            for r in table.reasons[2:]} == {"eagon"}

    def wide(pres, max_hom):
        d = max(pres.ideal.max_degree(), pres.module_ideal.max_degree(), 1)
        return [(d * (i + 1) + 1, "wide") for i in range(max_hom + 1)]

    monkeypatch.setattr(oracle, "_cutoffs", wide)
    assert ([resolve(pres, max_hom).to_json() for pres, max_hom, _ in cases]
            == [table.to_json() for table in proven])


class TestPoincareTruncation:
    def test_koszul_two_vars(self):
        pres = QuotientPresentation.residue_field(MonomialIdeal.zero(2))
        assert poincare_truncation(pres, 3) == TruncatedSeries((1, 2, 1, 0))

    def test_nodal(self):
        pres = QuotientPresentation.residue_field(ideal(["x*y"], XY))
        assert poincare_truncation(pres, 8).coeffs == (1, 2) + (2,) * 7


class TestDimension:
    def test_principal(self):
        assert dim_monomial(ideal(["x*y^2"], XY)) == 1

    def test_complete_intersection(self):
        assert dim_monomial(ideal(["x*y", "z^2"], XYZ)) == 1

    def test_zero_ideal(self):
        assert dim_monomial(MonomialIdeal.zero(4)) == 4


class TestDepth:
    def test_principal(self):
        assert depth_monomial(ideal(["x*y^2"], XY)) == 1

    def test_regular_sequence(self):
        assert depth_monomial(ideal(["x*y", "z^2"], XYZ)) == 1

    def test_depth_zero(self):
        assert depth_monomial(ideal(["x^2", "x*y"], XY)) == 0


class TestFiberPresentation:
    def test_paper_configuration(self):
        inter, total = fiber_presentation(ideal(["y^2"], XY), ideal(["x^2", "x*y"], XY))
        assert inter.generators == frozenset({(1, 2)})
        assert total.generators == frozenset({(2, 0), (1, 1), (0, 2)})

    def test_containment_rejected(self):
        with pytest.raises(TrivialFiberProduct):
            fiber_presentation(ideal(["x"], XY), ideal(["x", "y"], XY))

    def test_disjoint_complete_intersections(self):
        inter, total = fiber_presentation(
            ideal(["x", "z^2"], XYZ), ideal(["y", "z^2"], XYZ)
        )
        assert inter.generators == frozenset({(1, 1, 0), (0, 0, 2)})
        assert total.generators == frozenset({(1, 0, 0), (0, 1, 0), (0, 0, 2)})


class TestDeterminism:
    def test_dual_prime(self):
        for p in (32003, 65537):
            pres = QuotientPresentation.residue_field(ideal(["x*y^2"], XY), char=p)
            assert poincare_truncation(pres, 6).coeffs == (1, 2, 2, 2, 2, 2, 2)


# --- randomized properties --------------------------------------------------

exponents = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
proper_gens = st.lists(
    exponents.filter(lambda e: 0 < sum(e)), min_size=1, max_size=3
)


@settings(deadline=None, max_examples=40)
@given(proper_gens)
def test_depth_at_most_dim(gens):
    I = MonomialIdeal.of(3, gens)
    assert depth_monomial(I) <= dim_monomial(I)


@settings(deadline=None, max_examples=40)
@given(proper_gens, proper_gens)
def test_fiber_presentation_divisibility(gens_i, gens_j):
    I = MonomialIdeal.of(3, gens_i)
    J = MonomialIdeal.of(3, gens_j)
    if I.contains_ideal(J) or J.contains_ideal(I):
        return
    inter, total = fiber_presentation(I, J)
    for g in inter.generators:
        assert I.contains_monomial(g) and J.contains_monomial(g)
    assert total.contains_ideal(I) and total.contains_ideal(J)


@settings(deadline=None, max_examples=20)
@given(st.integers(2, 3), st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(lambda e: sum(e) >= 2))
def test_hypersurface_periodicity(num_vars, exps):
    gen = exps + (0,) * (num_vars - 2)
    I = MonomialIdeal.of(num_vars, [gen])
    order = 6
    actual = poincare_truncation(QuotientPresentation.residue_field(I), order)
    f = RationalFunction(
        Polynomial(tuple(math.comb(num_vars, i) for i in range(num_vars + 1))),
        Polynomial((1, 0, -1)),
    )
    assert actual == se.expand(f, order)
