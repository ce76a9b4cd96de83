from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from grperiod.assembler import (
    Correction,
    WorkBudgetError,
    class_numerator,
    correction_C,
    degree_numerator,
    estimate_points,
    period_series,
    unit_coefficient,
    z_scaling_report,
)
from grperiod.ring import GradedPoly
from grperiod.summands import SummandContext, TwistRangeError
from grperiod.targets import (
    BlowUpSpec,
    CurveClass,
    example3_normalized_model,
    example3_verbatim_model,
    normalize_blowup,
)

# Regularised quantum periods of the worked blow-ups, frozen from the
# independent closed-form sums in grperiod.validation.
P4_112_REGULARISED = (1, 0, 0, 12, 0, 120, 540, 0, 20160, 33600, 113400, 2772000, 2425500)
P6_122_REGULARISED = (1, 0, 0, 0, 0, 480, 0, 5040, 0, 0, 4082400, 0, 119750400, 0, 681080400)
BLPT_P2_REGULARISED = (1, 0, 2, 6, 6, 60, 110, 420, 1750)
VERBATIM_REGULARISED = (1, 0, 0, 0, 0, 0, 0, 0, 5040, 0, 0, -184800, 0, 0, 6306300)
NORMALIZED_P6_1112_REGULARISED = (
    1, 0, 0, 0, 48, 0, 0, 5040, 15120, 0, 0, 9979200, 7392000, 0, 681080400, 15135120000,
)


def test_degree_zero_numerator_is_weyl_denominator(p4_112):
    target, twist = p4_112
    num = degree_numerator(target, twist, 0)
    omega = GradedPoly.generator(1, 3, 1) - GradedPoly.generator(2, 3, 1)
    assert num == omega


def test_unit_coefficients_p4(p4_112):
    target, twist = p4_112
    assert unit_coefficient(target, twist, 0) == 1
    assert unit_coefficient(target, twist, 3) == 2
    assert unit_coefficient(target, twist, 4) == 0


def test_unit_coefficients_p6(p6_122):
    target, twist = p6_122
    assert unit_coefficient(target, twist, 7) == 1
    assert unit_coefficient(target, twist, 6) == 0


def test_correction_vanishes_for_p4(p4_112):
    corr = correction_C(*p4_112)
    assert corr.entries == ((CurveClass(D=1, k=(0,)), Fraction(0)),)
    assert corr.total == 0


def test_correction_vanishes_for_p6(p6_122):
    corr = correction_C(*p6_122)
    assert corr.entries == ((CurveClass(D=1, k=(-2,)), Fraction(0)),)


def test_correction_counts_exceptional_lines(blpt_p2):
    corr = correction_C(*blpt_p2)
    assert corr.entries == ((CurveClass(D=0, k=(1,)), Fraction(1)),)
    assert corr.total == 1


def test_period_p4(p4_112):
    ps = period_series(*p4_112, dmax=12)
    assert ps.regularised == tuple(Fraction(v) for v in P4_112_REGULARISED)
    assert ps.coefficients[3] == 2
    assert ps.degree_max() == 12


def test_period_p6(p6_122):
    ps = period_series(*p6_122, dmax=14)
    assert ps.regularised == tuple(Fraction(v) for v in P6_122_REGULARISED)


def test_period_blpt_p2(blpt_p2):
    ps = period_series(*blpt_p2, dmax=8)
    assert ps.regularised == tuple(Fraction(v) for v in BLPT_P2_REGULARISED)
    # raw degree-1 coefficient equals the correction, so G_1 = 0 while the
    # uncorrected unit coefficient is 1
    target, twist = blpt_p2
    assert unit_coefficient(target, twist, 1) == 1
    assert ps.coefficients[1] == 0


def test_degree_one_coefficient_always_zero(p4_112, p6_122, blpt_p2):
    for model in (p4_112, p6_122, blpt_p2):
        ps = period_series(*model, dmax=1)
        assert ps.coefficients[1] == 0


def test_period_dmax_zero(p4_112):
    ps = period_series(*p4_112, dmax=0)
    assert ps.coefficients == (Fraction(1),)
    assert ps.regularised == (Fraction(1),)


def test_period_rejects_negative_dmax(p4_112):
    with pytest.raises(ValueError):
        period_series(*p4_112, dmax=-1)


def test_factor_caches_do_not_leak_between_calls(p4_112, p6_122):
    # Caches live on one call's contexts: a later call at another model or
    # another z must not see an earlier call's factors.  P^4(1,1,2) has no
    # degree-one correction, so at z = 2 each coefficient scales by 2^(1-d).
    p4_at_two = tuple(Fraction(v) * Fraction(2) ** (1 - d) for d, v in enumerate(P4_112_REGULARISED))
    runs = (
        (p4_112, 1, P4_112_REGULARISED),
        (p6_122, 1, P6_122_REGULARISED),
        (p4_112, 2, p4_at_two),
    )
    for model, z, expected in runs:
        ps = period_series(*model, dmax=len(expected) - 1, z=z)
        assert ps.regularised == tuple(Fraction(v) for v in expected)


def test_pinned_reference_series():
    target, twist, divisor = example3_verbatim_model()
    ps = period_series(target, twist, 14, divisor=divisor, skip_nonconvex=True)
    assert ps.regularised == tuple(Fraction(v) for v in VERBATIM_REGULARISED)


def test_normalized_p6_1112_series():
    target, twist, divisor = example3_normalized_model()
    ps = period_series(target, twist, 15, divisor=divisor)
    assert ps.regularised == tuple(
        Fraction(v) for v in NORMALIZED_P6_1112_REGULARISED
    )


def test_nonconvex_points_error_unless_skipped():
    target, twist, divisor = example3_verbatim_model()
    ctx = SummandContext.for_target(target, twist)
    cls = CurveClass(D=1, k=(-1,))
    with pytest.raises(TwistRangeError):
        class_numerator(cls, ctx)
    class_numerator(cls, ctx, skip_nonconvex=True)  # does not raise


def test_z_scaling_row(p4_112):
    target, twist = p4_112
    rows = z_scaling_report(target, twist, [3, 4], 2)
    assert rows[0].value_at_z == Fraction(1, 2)
    assert rows[0].expected_ratio == Fraction(1, 4)
    assert all(row.ok for row in rows)


def test_budget_guard(p4_112):
    target, twist = p4_112
    assert estimate_points(target, twist, 8) > 1
    with pytest.raises(WorkBudgetError):
        period_series(target, twist, 8, budget=1)
    period_series(target, twist, 8, budget=None)  # opt out


def test_numerator_is_weyl_alternating(p4_112):
    target, twist = p4_112
    num = degree_numerator(target, twist, 3)
    swapped_terms = {}
    for expo, coeff in num.terms.items():
        swapped = (expo[0], expo[2], expo[1])
        swapped_terms[swapped] = coeff
    assert GradedPoly(num.nvars, num.cap, swapped_terms) == -num


@settings(deadline=None, max_examples=8)
@given(st.integers(min_value=-1, max_value=3))
def test_twist_level_never_changes_the_period(k):
    target, twist = normalize_blowup(BlowUpSpec(4, (1, 1, 2)), twist_k=k)
    ps = period_series(target, twist, 4)
    assert ps.regularised == (1, 0, 0, 12, 0)


@settings(deadline=None, max_examples=6)
@given(st.integers(min_value=1, max_value=3))
def test_twist_level_never_changes_the_period_p6(k):
    target, twist = normalize_blowup(BlowUpSpec(6, (1, 2, 2)), twist_k=k)
    ps = period_series(target, twist, 5)
    assert ps.regularised == (1, 0, 0, 0, 0, 480)


def test_correction_is_a_fraction_sum():
    corr = Correction(
        entries=(
            (CurveClass(D=0, k=(1,)), Fraction(1)),
            (CurveClass(D=1, k=(0,)), Fraction(2)),
        )
    )
    assert corr.total == 3
