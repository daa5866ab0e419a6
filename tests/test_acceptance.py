"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.
"""

import json
import math
import random
import time
from pathlib import Path

import pytest

from fiberprod import cli, fiber, oracle, series as se, structure
from fiberprod.fiber import BettiSequence, PoincareInputs
from fiberprod.oracle import MonomialIdeal, QuotientPresentation
from fiberprod.series import Polynomial, RationalFunction, TruncatedSeries
from fiberprod.structure import DepthKind, FiberData, RingInvariants

GOLDEN = Path(__file__).parent / "golden" / "ex-paper-4x.json"


def report(n, description):
    print(f"ACCEPTANCE {n}: PASS - {description}")


def ideal(gens, variables):
    return oracle.ideal_from_json(gens, variables)


def test_criterion_1_large_equality_two_lines():
    start = time.monotonic()
    doc = cli.load_corpus_scenario("lescot-xy")
    out = cli.run_verify(doc["payload"], order=10)
    elapsed = time.monotonic() - start
    expected = (1,) + (2,) * 10
    assert out.relation == "equal"
    assert out.formula_series.coeffs == expected
    assert out.oracle_series.coeffs == expected
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    report(1, "large/Lescot equality through order 10, within the time budget")


def test_criterion_2_amalgamated_duplication():
    p = TruncatedSeries((1, 1) + (0,) * 9)
    formula = fiber.amalgamated_series(p, p, 10)
    pres = QuotientPresentation.residue_field(ideal(["x*y"], ["x", "y"]))
    observed = oracle.poincare_truncation(pres, 10)
    assert formula == observed
    report(2, "duplication formula matches the oracle exactly through order 10")


def test_criterion_3_paper_example_fidelity():
    variables = ["x", "y"]
    I = ideal(["y^2"], variables)
    J = ideal(["x^2", "x*y"], variables)
    intersection, _total = oracle.fiber_presentation(I, J)
    assert oracle.dim_monomial(intersection) == 1
    assert oracle.depth_monomial(intersection) == 1
    assert oracle.depth_monomial(J) == 0
    # edim of the product ring = beta_1 of its residue field
    pres = QuotientPresentation.residue_field(intersection)
    edim = oracle.poincare_truncation(pres, 1)[1]
    assert edim == 2
    assert edim - oracle.depth_monomial(intersection) == 1  # hypersurface
    data = FiberData(
        R=RingInvariants(1, 1, 2, is_cohen_macaulay=True),
        S=RingInvariants(1, 0, 2, is_cohen_macaulay=False),
        T=RingInvariants(0, 0, 2),
        grade_mR=1, grade_mS=0, grade_mT=0,
    )
    assert structure.classify(data).regular.value is False
    report(3, "1-dimensional depth-1 product, depth-0 factor, never regular")


def test_criterion_4_depth_rule_matches_oracle():
    variables = ["x", "y", "z"]
    I = ideal(["x", "z^2"], variables)
    J = ideal(["y", "z^2"], variables)
    data = FiberData(
        R=RingInvariants(1, 1, 2),
        S=RingInvariants(1, 1, 2),
        T=RingInvariants(0, 0, 1),
        grade_mR=1, grade_mS=1, grade_mT=0,
    )
    predicted = structure.depth_rule(data)
    assert predicted.kind is DepthKind.EXACT and predicted.value == 1
    assert predicted.rule == "Thm-4(i)"
    intersection, _ = oracle.fiber_presentation(I, J)
    assert intersection.generators == frozenset({(1, 1, 0), (0, 0, 2)})
    assert oracle.depth_monomial(intersection) == 1
    report(4, "grade-based exact depth rule agrees with the oracle")


def _random_quotient_betti(rng, length):
    vals = [1, rng.randint(1, 5)] + [rng.randint(0, 5) for _ in range(length - 2)]
    return BettiSequence(tuple(vals))


def _random_module_betti(rng, length):
    vals = [rng.randint(1, 5)] + [rng.randint(0, 5) for _ in range(length - 1)]
    return BettiSequence(tuple(vals))


def test_criterion_5_recurrence_vs_closed_forms():
    rng = random.Random(20260824)
    for _ in range(100):
        length = rng.randint(3, 6)
        m = _random_module_betti(rng, length)
        x = _random_quotient_betti(rng, length)
        y = _random_quotient_betti(rng, length)
        bound = fiber.betti_bound(m, x, y, 2)
        assert bound[0] == m[0]
        assert bound[1] == m[0] * y[1] + m[1]
        assert bound[2] == m[0] * x[1] * y[1] + m[0] * y[2] + m[1] * y[1] + m[2]
        # pad with zero Betti numbers to reach order 8 for the inversion check
        xp = BettiSequence(x.values + (0,) * (9 - length))
        yp = BettiSequence(y.values + (0,) * (9 - length))
        b = fiber.betti_b(xp, yp, 8)
        assert fiber.betti_B(b) == se.invert(b)
    report(5, "closed forms (indices 0-2) and recurrence-vs-inversion, 100 random inputs")


def test_criterion_6_nonnegativity():
    rng = random.Random(20260824)
    for _ in range(100):
        length = rng.randint(3, 6)
        m = _random_module_betti(rng, length)
        x = _random_quotient_betti(rng, length)
        y = _random_quotient_betti(rng, length)
        b = fiber.betti_b(x, y, length - 1)
        assert fiber.betti_B(b).is_nonnegative()
        inputs = PoincareInputs(m.as_series(), x.as_series(), y.as_series())
        assert fiber.fiber_series(inputs, length - 1).is_nonnegative()
    report(6, "B_i >= 0 and nonnegative closed-form series, 100 random inputs")


def test_criterion_7_koszul_equality_floor():
    for n in (3, 4):
        pres = QuotientPresentation.residue_field(MonomialIdeal.zero(n))
        betti = BettiSequence(oracle.poincare_truncation(pres, n).coeffs)
        assert betti.values == tuple(math.comb(n, i) for i in range(n + 1))
        for check in structure.beh_check(betti, n, n):
            assert check.passed and check.betti == check.required
        tr = structure.tr_check(betti, n, n)
        assert tr.passed and tr.achieved == tr.required == 2 ** n
    report(7, "Koszul Betti numbers meet the binomial and total-rank floors exactly")


def test_criterion_8_hypersurface_periodicity():
    expected = se.expand(
        RationalFunction(Polynomial((1, 2, 1)), Polynomial((1, 0, -1))), 8
    )
    for gens in (["x*y"], ["x^2"], ["x*y^2"]):
        pres = QuotientPresentation.residue_field(ideal(gens, ["x", "y"]))
        observed = oracle.poincare_truncation(pres, 8)
        assert observed == expected
        tate = structure.tate_hypersurface_check(
            BettiSequence(observed.coeffs), 1
        )
        assert tate.passed
    report(8, "principal-ideal series match the rational closed form; stabilization holds")


def test_criterion_9_dominance_reporting_golden():
    doc = cli.load_corpus_scenario("ex-paper-4x")
    out = cli.run_verify(doc["payload"])
    relation, first = se.relation(out.formula_series, out.oracle_series)
    assert (relation, first) == (out.relation, out.first_divergence)
    golden = json.loads(GOLDEN.read_text())["result"]
    assert out.to_json() == golden
    assert golden["relation"] == "formula-dominates"
    assert golden["first_divergence"] == 1
    report(9, "exploratory report is self-consistent and matches the golden file")


def test_criterion_10_determinism_and_dual_prime():
    baseline = {}
    for sid in cli.corpus_ids():
        doc = cli.load_corpus_scenario(sid)
        for p in (32003, 65537):
            out = cli.run_verify(doc["payload"], char=p)
            if sid not in baseline:
                baseline[sid] = out.to_json()
            else:
                assert out.to_json() == baseline[sid], (sid, p)
    report(10, "corpus reports identical across characteristics")
