"""The multigraded oracle against tables recorded with the earlier dense
per-degree elimination, plus invariants of a single resolve call."""

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fiberprod import cli, oracle
from fiberprod.errors import InternalInconsistency
from fiberprod.oracle import MonomialIdeal, QuotientPresentation, kbasis, resolve

GOLDEN = Path(__file__).parent / "golden"

X4 = ["x1", "x2", "x3", "x4"]
X4_IDEAL = ["x1*x2", "x3*x4", "x1^2", "x4^3"]
XYZ = ["x", "y", "z"]
XYZ_IDEAL = ["x^2", "y^2", "z^2", "x*y"]

# golden file -> (variables, ring ideal, module ideal or None for k, max_hom
# [, max_internal])
CASES = {
    "resolve-x4-h3": (X4, X4_IDEAL, None, 3),
    "resolve-x4-h4": (X4, X4_IDEAL, None, 4),
    "resolve-x4-h5": (X4, X4_IDEAL, None, 5),
    # budgeted: hom 4 and 5 cut short, complete T T T T F F
    "resolve-x4-h5-budget6": (X4, X4_IDEAL, None, 5, 6),
    "resolve-xyz-h6": (XYZ, XYZ_IDEAL, None, 6),
    # T over R in the ci-xy-z2 corpus scenario
    "resolve-ci-xy-z2-T-over-R-h6": (XYZ, ["x", "z^2"], ["x", "y", "z^2"], 6),
    "resolve-xyz-module-x-yz-h5": (XYZ, XYZ_IDEAL, ["x", "y*z", "y^2", "z^2"], 5),
    # P/I over the polynomial ring P
    "resolve-x4-over-P-h4": (X4, [], X4_IDEAL, 4),
    # budgeted: complete T T F F F
    "resolve-x4-over-P-h4-budget5": (X4, [], X4_IDEAL, 4, 5),
    # the packed field width: a ring generator's exponent above the budget,
    # one variable, a budget far above every exponent
    "resolve-xy-x9-h4-budget5": (["x", "y"], ["x^9", "x*y", "y^3"], None, 4, 5),
    "resolve-x-x4-h5": (["x"], ["x^4"], None, 5),
    "resolve-xyz-h4-internal100": (XYZ, XYZ_IDEAL, None, 4, 100),
}


def presentation(name, char):
    variables, ring, module = CASES[name][:3]
    ideal = oracle.ideal_from_json(ring, variables)
    if module is None:
        return QuotientPresentation.residue_field(ideal, char=char)
    return QuotientPresentation(len(variables), char, ideal,
                                oracle.ideal_from_json(module, variables))


@pytest.mark.parametrize("char", [32003, 65537])
@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_tables_byte_identical(name, char):
    table = resolve(presentation(name, char), *CASES[name][3:])
    text = json.dumps(table.to_json(), indent=2) + "\n"
    assert text == (GOLDEN / f"{name}.json").read_text()


@pytest.mark.parametrize("name", sorted(CASES))
def test_euler_hilbert_identity(name):
    """sum_{i,j} (-1)^i beta_{i,j} H_A(d - j) = H_{A/J}(d) for d <= max_hom."""
    pres = presentation(name, oracle.DEFAULT_CHAR)
    max_hom = CASES[name][3]
    table = resolve(pres, *CASES[name][3:])
    quotient = pres.ideal if pres.module_ideal.is_zero() else pres.module_ideal
    for d in range(max_hom + 1):
        lhs = sum(
            (-1) ** i * beta * len(kbasis(pres.ideal, d - j))
            for (i, j), beta in table.entries.items()
            if j <= d
        )
        assert lhs == len(kbasis(quotient, d)), (name, d)


def test_identical_calls_make_identical_counts(monkeypatch):
    """Memoised lookups and the kernel dimensions from exactness live inside
    one resolve call: nothing carries over."""
    counts = {"standard": 0, "contains": 0, "kernel": 0, "rank": 0}
    real_standard = oracle._standard_step
    real_contains = MonomialIdeal.contains_monomial
    real_echelon = oracle._echelon

    def counting_standard(*args):
        counts["standard"] += 1
        return real_standard(*args)

    def counting_contains(self, m):
        counts["contains"] += 1
        return real_contains(self, m)

    def counting_echelon(vectors, p, stop=None):
        counts["rank" if stop else "kernel"] += 1
        return real_echelon(vectors, p, stop=stop)

    monkeypatch.setattr(oracle, "_standard_step", counting_standard)
    monkeypatch.setattr(MonomialIdeal, "contains_monomial", counting_contains)
    monkeypatch.setattr(oracle, "_echelon", counting_echelon)
    seen = []
    for _ in range(2):
        counts.update(standard=0, contains=0, kernel=0, rank=0)
        resolve(presentation("resolve-x4-h3", oracle.DEFAULT_CHAR), 3)
        seen.append(dict(counts))
    assert seen[0] == seen[1]
    assert all(seen[0].values())


def test_rank_first_bounds_the_kernel_eliminations(monkeypatch):
    """Most blocks are settled by the ledger or by the rank of their span, from
    the first scanned degree of each step on; eliminating every block's kernel
    took 1,360 calls on x4 at hom 5."""
    stops = []
    real = oracle._echelon

    def counting(vectors, p, stop=None):
        stops.append(stop)
        return real(vectors, p, stop=stop)

    monkeypatch.setattr(oracle, "_echelon", counting)
    for name, limit in (("resolve-x4-h5", 100), ("resolve-x4-over-P-h4", 20)):
        stops.clear()
        resolve(presentation(name, oracle.DEFAULT_CHAR), CASES[name][3])
        assert stops.count(None) <= limit, name


def test_rank_nullity_audit_exits_3(monkeypatch, tmp_path, capsys):
    real = oracle._echelon

    def wrong_rank(vectors, p):
        pivots, kernel = real(vectors, p)
        return pivots + [len(vectors)], kernel

    monkeypatch.setattr(oracle, "_echelon", wrong_rank)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"vars": ["x", "y"], "ideal": ["x*y"],
                                "module": ["x", "y"], "max_hom": 2}))
    assert cli.run(["resolve", "--scenario", str(path)]) == 3
    assert "internal inconsistency" in capsys.readouterr().err


@pytest.mark.parametrize("corrupt, message", [
    ("kernel", "kernel of dimension"),
    ("span", "multiples and kernel span dimension"),
])
def test_exactness_audit_exits_3(corrupt, message, monkeypatch, tmp_path, capsys):
    # after a rank-only call that falls short, the same block runs the kernel
    # elimination and then span + kernel; drop a kernel vector from the first
    # or add a pivot to the second
    real = oracle._echelon
    since_short = [None]

    def corrupted(vectors, p, stop=None):
        if stop:
            pivots, kernel = real(vectors, p, stop=stop)
            since_short[0] = 0 if len(pivots) < stop else None
            return pivots, kernel
        pivots, kernel = real(vectors, p)
        if since_short[0] is not None:
            since_short[0] += 1
        if corrupt == "kernel" and since_short[0] == 1:
            return pivots, kernel[1:]
        if corrupt == "span" and since_short[0] == 2:
            return pivots + [len(pivots)], kernel
        return pivots, kernel

    monkeypatch.setattr(oracle, "_echelon", corrupted)
    variables, ring, _, _ = CASES["resolve-x4-h4"]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"vars": variables, "ideal": ring, "module": variables,
                                "max_hom": 4}))
    assert cli.run(["resolve", "--scenario", str(path)]) == 3
    err = capsys.readouterr().err
    assert "exactness audit" in err and message in err


def test_exactness_audit_covers_the_first_scanned_degree(monkeypatch, tmp_path, capsys):
    # k over k[x]/(x^3) at hom 3: the second kernel elimination with a nonempty
    # kernel is the block x^4, the first scanned degree of step 2, whose kernel
    # vector is the one generator of F_3.  Turning that vector into a pivot
    # keeps rank + nullity, and degree 4 lies above max_hom, where no
    # certificate looks; only the ledger sees the missing generator.
    real = oracle._echelon
    nonempty = [0]

    def corrupted(vectors, p, stop=None):
        pivots, kernel = real(vectors, p, stop=stop)
        if stop is None and kernel:
            nonempty[0] += 1
            if nonempty[0] == 2:
                return sorted(pivots + [max(kernel[0])]), kernel[1:]
        return pivots, kernel

    monkeypatch.setattr(oracle, "_echelon", corrupted)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"vars": ["x"], "ideal": ["x^3"], "module": ["x"],
                                "max_hom": 3}))
    assert cli.run(["resolve", "--scenario", str(path)]) == 3
    assert "exactness audit" in capsys.readouterr().err


def test_euler_certificate_exits_3_on_a_wrong_bound(monkeypatch, tmp_path, capsys):
    # k over k[x]/(x^3) has t_2 = 3; a "proven" bound of i stops the scan
    # below it, and the Euler characteristic in degree 3 exposes the gap
    monkeypatch.setattr(oracle, "_cutoffs",
                        lambda pres, max_hom: [(i, "backelin") for i in range(max_hom + 1)])
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"vars": ["x"], "ideal": ["x^3"], "module": ["x"],
                                "max_hom": 3}))
    assert cli.run(["resolve", "--scenario", str(path)]) == 3
    assert "Euler characteristic" in capsys.readouterr().err


def test_froberg_certificate_rejects_a_table_that_passes_euler():
    # k over k[x]/(x^2): adding beta_{1,2} = 1 and a second beta_{2,2} keeps
    # every Euler characteristic but breaks the totals 1, 1, 1, 1
    pres = QuotientPresentation.residue_field(MonomialIdeal.of(1, [(2,)]))
    entries = {(0, 0): 1, (1, 1): 1, (1, 2): 1, (2, 2): 2, (3, 3): 1}
    table = oracle.GradedBettiTable(entries, 3, [True] * 4, ["generators"] * 4)
    with pytest.raises(InternalInconsistency, match="1/H_A"):
        oracle._certify(pres, table, [kbasis(pres.ideal, d) for d in range(4)])


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.lists(st.integers(0, 4), min_size=n, max_size=n)
                         .filter(any), max_size=5))))
def test_standard_step_builds_kbasis(ring):
    """The order-ideal builder, unpacked, lists the standard monomials of
    every degree in kbasis order."""
    n, gens = ring
    ideal = MonomialIdeal.of(n, gens)
    packing = oracle._Packing(n, max([8] + [e for g in gens for e in g]))
    packed = [packing.pack(g) for g in ideal.generators]
    basis = [0]
    for d in range(9):
        assert [packing.unpack(m) for m in basis] == kbasis(ideal, d)
        basis = oracle._standard_step(basis, packing, packed)


@st.composite
def relabeled_cases(draw):
    """A quotient in 2-4 variables by 1-4 monomials of degree 2-3, with the
    module k or A/J, J containing I, hom 2-5, a budget about a third of the
    time, and a permutation of the variables."""
    n = draw(st.integers(2, 4))

    def monomials(low, size):
        # monomials of degree low-3, each as the variables it multiplies
        factors = st.lists(st.integers(0, n - 1), min_size=low, max_size=3)
        return st.lists(factors.map(lambda f: tuple(f.count(v) for v in range(n))),
                        min_size=1, max_size=size)

    # a linear ring generator only drops a variable, which n already varies
    ring = draw(monomials(2, 4))
    module = draw(st.none() | monomials(1, 3).map(ring.__add__))
    max_hom = draw(st.integers(2, 5))
    max_internal = max_hom + draw(st.integers(0, 2)) if draw(st.integers(0, 2)) == 0 else None
    return (n, draw(st.sampled_from([2, 3, 32003])), ring, module, max_hom, max_internal,
            draw(st.permutations(range(n))))


@settings(deadline=None, max_examples=40)
@given(relabeled_cases())
def test_resolve_is_invariant_under_relabeling(case):
    """Permuting the variables permutes every multidegree, so the table, its
    flags and its cutoff rules stay the same, while each degree meets its
    blocks, and finds its generators, in another order."""
    n, char, ring, module, max_hom, max_internal, perm = case

    def table(relabel):
        ideal = MonomialIdeal.of(n, [relabel(g) for g in ring])
        if module is None:
            pres = QuotientPresentation.residue_field(ideal, char=char)
        else:
            pres = QuotientPresentation(n, char, ideal,
                                        MonomialIdeal.of(n, [relabel(g) for g in module]))
        out = resolve(pres, max_hom, max_internal)
        return out.to_json(), out.reasons

    assert table(lambda g: g) == table(lambda g: tuple(g[v] for v in perm))


def random_vectors(rng, p, nrows):
    return [
        {r: rng.randrange(1, p) for r in range(nrows) if rng.random() < 0.5}
        for _ in range(rng.randint(0, 6))
    ]


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32), st.sampled_from([2, 3, 32003]))
def test_echelon_pivots_and_kernel(seed, p):
    rng = random.Random(seed)
    nrows = rng.randint(0, 5)
    vectors = random_vectors(rng, p, nrows)
    pivots, kernel = oracle._echelon(vectors, p)
    assert len(pivots) + len(kernel) == len(vectors)
    assert len(pivots) <= nrows
    for relation in kernel:
        assert max(relation) not in pivots and relation[max(relation)] == 1
        for r in range(nrows):
            total = sum(c * vectors[i].get(r, 0) for i, c in relation.items())
            assert total % p == 0


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32), st.sampled_from([2, 3, 32003]))
def test_echelon_stop_returns_the_first_pivots(seed, p):
    rng = random.Random(seed)
    vectors = random_vectors(rng, p, rng.randint(0, 5))
    pivots, kernel = oracle._echelon(vectors, p)
    assert oracle._echelon(vectors, p, stop=None) == (pivots, kernel)
    # without a stop each relation is the unique one writing a dependent
    # vector over the pivots before it
    for relation in kernel:
        assert set(relation) - {max(relation)} <= {q for q in pivots if q < max(relation)}
    for r in range(1, len(vectors) + 2):
        rest = iter(vectors)
        assert oracle._echelon(rest, p, stop=r) == (pivots[:r], [])
        # nothing past the r-th pivot is read
        unread = len(vectors) - pivots[r - 1] - 1 if r <= len(pivots) else 0
        assert len(list(rest)) == unread
