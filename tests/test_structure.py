import pytest
from hypothesis import given, strategies as st

from fiberprod import structure
from fiberprod.errors import IndexOutOfRange, TrivialFiberProduct, ValidationError
from fiberprod.fiber import BettiSequence
from fiberprod.structure import (
    DepthKind,
    FiberData,
    RingInvariants,
    beh_check,
    classify,
    depth_rule,
    dim_fiber,
    tate_hypersurface_check,
    tr_check,
)


def ring(dim, depth, edim, **flags):
    return RingInvariants(dim=dim, depth=depth, edim=edim, **flags)


K = ring(0, 0, 0)  # the residue field


def make_data(R, S, T, gR, gS, gT, **kw):
    return FiberData(R=R, S=S, T=T, grade_mR=gR, grade_mS=gS, grade_mT=gT, **kw)


class TestRingInvariants:
    def test_chain_violation(self):
        with pytest.raises(ValidationError):
            ring(2, 3, 2)

    def test_regular_needs_edim_eq_dim(self):
        with pytest.raises(ValidationError):
            ring(1, 1, 2, is_regular=True)


class TestFiberData:
    def test_grade_bounded_by_depth(self):
        with pytest.raises(ValidationError):
            make_data(ring(1, 0, 1), ring(1, 1, 1), K, 1, 0, 0)

    def test_nontriviality(self):
        with pytest.raises(TrivialFiberProduct):
            make_data(ring(1, 1, 1), ring(1, 1, 1), K, 0, 0, 0, beta1_T_over_S=0)


class TestDimFiber:
    def test_paper_scale(self):
        assert dim_fiber(1, 1) == 1

    def test_zero(self):
        assert dim_fiber(0, 0) == 0

    def test_max(self):
        assert dim_fiber(2, 5) == 5


class TestDepthRule:
    def test_lescot(self):
        data = make_data(ring(1, 1, 1), ring(1, 0, 1), K, 1, 0, 0,
                         T_is_residue_field=True)
        out = depth_rule(data)
        assert out.kind is DepthKind.EXACT and out.value == 0
        assert out.rule == "Lescot"

    def test_grade_rule(self):
        data = make_data(
            ring(1, 1, 2), ring(1, 1, 2), ring(0, 0, 1), 1, 1, 0
        )
        out = depth_rule(data)
        assert out.kind is DepthKind.EXACT and out.value == 1
        assert out.rule == "Thm-4(i)"

    def test_depth_zero_factor(self):
        data = make_data(ring(2, 1, 2), ring(1, 0, 2), ring(1, 1, 1), 1, 0, 1)
        out = depth_rule(data)
        assert out.kind is DepthKind.EXACT and out.value == 0
        assert out.rule == "Thm-4(iii)"

    def test_asymmetric_branch_declined(self):
        # the uncertified asymmetric case: only a lower bound comes back
        data = make_data(
            ring(1, 1, 2), ring(1, 0, 2), ring(0, 0, 2), 1, 0, 0,
            gamma_mR_in_ker=True,
        )
        out = depth_rule(data)
        assert out.kind is DepthKind.LOWER_BOUND
        assert out.rule == "Fact-lower-bound"

    def test_generalized_lescot(self):
        data = make_data(
            ring(1, 0, 2), ring(1, 1, 2), ring(0, 0, 2), 0, 1, 0,
            gamma_mR_in_ker=True,
        )
        out = depth_rule(data)
        assert out.kind is DepthKind.EXACT and out.value == 0
        assert out.rule == "Cor-Lescot-general"


class TestClassify:
    def test_never_regular(self):
        data = make_data(ring(1, 1, 1), ring(1, 1, 1), K, 1, 1, 0)
        assert classify(data).regular.value is False

    def test_hypersurface_contrapositive(self):
        data = make_data(ring(1, 1, 1), ring(1, 1, 1), K, 1, 1, 0,
                         beta1_T_over_S=2)
        assert classify(data).hypersurface.value is False

    def test_cohen_macaulay_dimension_one(self):
        data = make_data(
            ring(1, 1, 1, is_cohen_macaulay=True),
            ring(1, 1, 1, is_cohen_macaulay=True),
            ring(0, 0, 1),
            1, 1, 0,
        )
        report = classify(data)
        assert report.cohen_macaulay.value is True
        assert report.cohen_macaulay.direction == "iff"

    def test_cohen_macaulay_denied_by_depth_zero(self):
        data = make_data(ring(2, 1, 2), ring(1, 0, 2), ring(1, 1, 1), 1, 0, 1)
        assert classify(data).cohen_macaulay.value is False

    def test_complete_intersection_quotient(self):
        # beta1_S = 1: (1 + 1) / (beta1_R * 1 + beta2_S) = 2 needs denominator 1
        data = make_data(
            ring(1, 1, 1, is_complete_intersection=True),
            ring(1, 1, 1),
            K,
            1, 1, 0,
            beta1_T_over_R=1, beta1_T_over_S=1, beta2_T_over_S=0,
            is_large=True,
        )
        assert classify(data).complete_intersection.value is True


class TestBoundChecks:
    def test_beh_pass(self):
        checks = beh_check(BettiSequence((1, 2, 2)), 1, 1)
        assert checks[0].passed and checks[0].required == 1

    def test_beh_fail(self):
        checks = beh_check(BettiSequence((1, 0)), 1, 1)
        assert not checks[0].passed

    def test_beh_koszul_equality(self):
        for check in beh_check(BettiSequence((1, 3, 3, 1)), 3, 3):
            assert check.passed and check.betti == check.required

    def test_beh_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            beh_check(BettiSequence((1, 2)), 1, 5)

    def test_tr(self):
        assert tr_check(BettiSequence((1, 2)), 1, 1).passed
        out = tr_check(BettiSequence((1, 1)), 2, 1)
        assert not out.passed and out.achieved == 2 and out.required == 4
        out = tr_check(BettiSequence((1, 3, 3, 1)), 3, 3)
        assert out.passed and out.achieved == 8

    def test_tate(self):
        assert tate_hypersurface_check(BettiSequence((1, 2, 2, 2)), 1).passed
        out = tate_hypersurface_check(BettiSequence((1, 2, 3)), 1)
        assert not out.passed and out.first_failure == 2
        assert tate_hypersurface_check(BettiSequence((1,)), 0).passed


# --- randomized properties --------------------------------------------------

dims = st.integers(0, 3)
flags = st.sampled_from([None, True, False])


@st.composite
def rings(draw, min_dim=0):
    depth = draw(st.integers(0, 3))
    dim = draw(st.integers(max(depth, min_dim), 4))
    edim = draw(st.integers(dim, 5))
    is_regular = True if edim == dim and draw(st.booleans()) else None
    return RingInvariants(dim=dim, depth=depth, edim=edim, is_regular=is_regular,
                          is_cohen_macaulay=draw(flags))


@st.composite
def fiber_datas(draw):
    R = draw(rings())
    S = draw(rings())
    t_is_k = draw(st.booleans())
    T = K if t_is_k else draw(rings())
    return FiberData(
        R=R, S=S, T=T,
        grade_mR=draw(st.integers(0, R.depth)),
        grade_mS=draw(st.integers(0, S.depth)),
        grade_mT=draw(st.integers(0, T.depth)),
        beta1_T_over_R=draw(st.integers(1, 3)),
        beta1_T_over_S=draw(st.integers(1, 3)),
        beta2_T_over_S=draw(st.integers(0, 3)),
        T_is_residue_field=t_is_k and T.dim == 0,
        gamma_mR_in_ker=draw(st.booleans()),
        is_large=draw(st.booleans()),
    )


@given(fiber_datas())
def test_exact_depth_never_exceeds_dimension(data):
    out = depth_rule(data)
    if out.kind is DepthKind.EXACT:
        assert out.value <= dim_fiber(data.R.dim, data.S.dim)


@given(fiber_datas())
def test_classify_never_regular(data):
    assert classify(data).regular.value is False


@given(rings(), rings(), st.booleans())
def test_lescot_agrees_with_generalized_rule(R, S, gamma):
    # with T = k the grades equal the depths and the kernel hypothesis holds
    data = FiberData(R=R, S=S, T=K, grade_mR=R.depth, grade_mS=S.depth,
                     grade_mT=0, T_is_residue_field=True, gamma_mR_in_ker=True)
    out = depth_rule(data)
    assert out.kind is DepthKind.EXACT
    if not (R.depth > 0 and S.depth == 0):
        # where the generalized rule would also fire, the values coincide
        assert out.value == min(R.depth, S.depth, 1)
