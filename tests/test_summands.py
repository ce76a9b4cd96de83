from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from grperiod.ring import GradedPoly, poly_mul, unit_inverse
from grperiod.summands import (
    LambdaSeries,
    SingularFactorError,
    SummandContext,
    TwistRangeError,
    base_j_factor,
    brown_summand,
    factor_ratio,
    flag_factor,
    modification_factor,
    oh_summand,
    twist_factor,
    twist_uppers,
    weyl_block,
)
from grperiod.targets import CurveClass, FlagTarget, TwistSpec


def gen(i, nvars, cap):
    return GradedPoly.generator(i, nvars, cap)


def const(c, nvars, cap):
    return GradedPoly.constant(c, nvars, cap)


def test_factor_ratio_positive_upper():
    h = gen(0, 1, 2)
    got = factor_ratio(h, 2, 1)
    assert got == GradedPoly(
        1, 2, {(0,): Fraction(1, 2), (1,): Fraction(-3, 4), (2,): Fraction(7, 8)}
    )


def test_factor_ratio_negative_upper_keeps_nilpotent_factor():
    nvars, cap = 3, 1
    cls = gen(1, nvars, cap) - gen(0, nvars, cap)
    assert factor_ratio(cls, -1, 1) == cls


def test_factor_ratio_zero_upper_is_one():
    h = gen(0, 1, 2)
    assert factor_ratio(h, 0, 1) == const(1, 1, 2)


def test_factor_ratio_singular_cases():
    h = gen(0, 1, 2)
    with pytest.raises(SingularFactorError):
        factor_ratio(h - 1, 1, 1)
    with pytest.raises(SingularFactorError):
        factor_ratio(h, 1, 0)


@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=4),
    st.sampled_from([Fraction(1), Fraction(2), Fraction(1, 2)]),
)
def test_factor_ratio_inverts_the_shift_product(shift, upper, z):
    cls = gen(0, 1, 2) + shift
    prod = const(1, 1, 2)
    for m in range(1, upper + 1):
        prod = poly_mul(prod, cls + m * z)
    assert poly_mul(factor_ratio(cls, upper, z), prod) == const(1, 1, 2)


def p4_ctx(p4_112, cap=None, z=1):
    target, twist = p4_112
    return SummandContext.for_target(target, twist, z=z, cap=cap)


def test_context_rejects_zero_z(p4_112):
    target, twist = p4_112
    with pytest.raises(SingularFactorError):
        SummandContext.for_target(target, twist, z=0)


def test_context_default_cap_is_weyl_degree(p4_112):
    ctx = p4_ctx(p4_112)
    assert ctx.cap == 1


def test_base_factor_p4_degree1():
    target = FlagTarget(base_dim=4, e_degrees=(0, 0, -1), ranks=(2,))
    ctx = SummandContext.for_target(target, cap=1)
    assert base_j_factor(1, ctx) == const(1, 3, 1) - gen(0, 3, 1).scale(5)


def test_base_factor_constant_term_only():
    target = FlagTarget(base_dim=1, e_degrees=(0,), ranks=(1,))
    ctx = SummandContext.for_target(target, cap=0)
    assert base_j_factor(2, ctx) == const(Fraction(1, 4), 2, 0)


def test_flag_factor_by_hand(p4_112):
    # e = (0, 0, -1), d = (1, 0), D = 1: the only surviving slots at cap 1
    # are 1/(h1 + 1)^2 and the nilpotent (h2 - h) from the negative range.
    ctx = p4_ctx(p4_112)
    got = flag_factor((1, 0), CurveClass(D=1, k=(1,)), ctx)
    assert got == gen(2, 3, 1) - gen(0, 3, 1)


def test_flag_factor_against_slotwise_product(p4_112):
    ctx = p4_ctx(p4_112, cap=1, z=2)
    d, cls = (0, 1), CurveClass(D=2, k=(1,))
    expected = ctx.one()
    h = ctx.h()
    for idx, i in enumerate((1, 2)):
        for e in (0, 0, -1):
            expected = poly_mul(
                expected,
                factor_ratio(ctx.root(i) + h.scale(e), d[idx] + e * cls.D, ctx.z),
            )
    assert flag_factor(d, cls, ctx) == expected


def test_weyl_block_value_and_sign(p4_112):
    ctx = p4_ctx(p4_112)
    num, sign = weyl_block((3, 1), ctx)
    assert num == gen(1, 3, 1) - gen(2, 3, 1) + const(2, 3, 1)
    assert sign == 1
    num, sign = weyl_block((0, 1), ctx)
    assert num == gen(1, 3, 1) - gen(2, 3, 1) - const(1, 3, 1)
    assert sign == -1


def test_weyl_sign_is_exact_int(p4_112):
    _, sign = weyl_block((0, 1), p4_ctx(p4_112))
    assert isinstance(sign, int)


def test_twist_uppers(p4_112, p6_122):
    _, twist = p4_112
    assert twist_uppers(twist, CurveClass(D=1, k=(1,)), (1, 0)) == [2, 1]
    _, twist2 = p6_122
    assert twist_uppers(twist2, CurveClass(D=1, k=(-2,)), (-1, -1)) == [1, 1]


def test_twist_factor_p4(p4_112):
    ctx = p4_ctx(p4_112)
    got = twist_factor((1, 0), CurveClass(D=1, k=(1,)), ctx)
    h, h1, h2 = (gen(i, 3, 1) for i in range(3))
    expected = poly_mul(poly_mul(h1 + h + 1, h1 + h + 2), h2 + h + 1)
    assert got == expected


def test_twist_factor_p6(p6_122):
    target, twist = p6_122
    ctx = SummandContext.for_target(target, twist)
    got = twist_factor((-1, -1), CurveClass(D=1, k=(-2,)), ctx)
    h, h1, h2 = (gen(i, 3, 1) for i in range(3))
    expected = poly_mul(h1 + h.scale(2) + 1, h2 + h.scale(2) + 1)
    assert got == expected


def test_twist_factor_refuses_negative_range(p4_112):
    ctx = p4_ctx(p4_112)
    with pytest.raises(TwistRangeError):
        twist_factor((-1, 0), CurveClass(D=0, k=(-1,)), ctx)


def test_empty_twist_contributes_one(p4_112):
    target, _ = p4_112
    ctx = SummandContext.for_target(target)
    assert twist_factor((1, 0), CurveClass(D=1, k=(1,)), ctx) == ctx.one()


def test_oh_summand_has_leading_z(p4_112):
    # d = (0, 0) at D = 0: base and twist are 1, the Weyl numerator is
    # h1 - h2 with sign +1, so the summand is exactly z * (h1 - h2).
    ctx = p4_ctx(p4_112, z=3)
    cls = CurveClass(D=0, k=(0,))
    assert oh_summand((0, 0), cls, ctx) == (
        gen(1, 3, 1) - gen(2, 3, 1)
    ).scale(3)


def _standard_rows(r):
    return tuple(tuple(1 if i == s else 0 for i in range(r)) for s in range(r))


@st.composite
def one_step_points(draw):
    """A one-step target, a lattice point on it, z, cap and a twist case."""
    r = draw(st.integers(min_value=1, max_value=3))
    e = draw(st.lists(st.integers(min_value=-2, max_value=2), min_size=r, max_size=r + 2))
    target = FlagTarget(
        base_dim=draw(st.integers(min_value=1, max_value=4)), e_degrees=tuple(e), ranks=(r,)
    )
    d = tuple(draw(st.lists(st.integers(min_value=-3, max_value=3), min_size=r, max_size=r)))
    cls = CurveClass(D=draw(st.integers(min_value=0, max_value=3)), k=(sum(d),))
    rho = draw(st.integers(min_value=-1, max_value=2))
    rows = st.lists(
        st.lists(st.integers(min_value=-1, max_value=2), min_size=1, max_size=r + 1).map(tuple),
        min_size=1,
        max_size=r + 1,
    )
    twist = draw(
        st.one_of(
            st.none(),
            st.just(TwistSpec((), rho)),
            st.just(TwistSpec(_standard_rows(r), rho)),
            rows.map(lambda w: TwistSpec(tuple(w), rho)),
        )
    )
    z = draw(st.sampled_from([Fraction(1), Fraction(2), Fraction(3, 2), Fraction(-1, 2)]))
    cap = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=4)))
    return SummandContext.for_target(target, twist, z=z, cap=cap), d, cls


def _outcome(fn, d, cls, ctx):
    try:
        return fn(d, cls, ctx)
    except TwistRangeError:
        return TwistRangeError


@settings(deadline=None, max_examples=150)
@given(one_step_points())
def test_oh_summand_equals_reference_product(reference_summand, case):
    ctx, d, cls = case
    assert _outcome(oh_summand, d, cls, ctx) == _outcome(reference_summand, d, cls, ctx)


@pytest.mark.parametrize(
    "rows",
    [
        ((1, 1), (0, 2)),  # one general row, one row on the second root only
        ((1, 0), (0, 1), (1, 1)),  # more rows than roots
        ((2,),),  # a short row
        ((0, 1, 5),),  # a long row: entries past the rank are ignored
        ((0, 0),),  # a row on no root
    ],
)
@pytest.mark.parametrize("z", [Fraction(1), Fraction(-1, 2)])
def test_oh_summand_nonstandard_rows(reference_summand, rows, z):
    target = FlagTarget(base_dim=4, e_degrees=(0, 1, -1), ranks=(2,))
    ctx = SummandContext.for_target(target, TwistSpec(rows, 1), z=z, cap=2)
    for d in ((0, 0), (2, 1), (1, 3), (-1, 2)):
        for D in (0, 1, 2):
            cls = CurveClass(D=D, k=(sum(d),))
            got = _outcome(oh_summand, d, cls, ctx)
            assert got == _outcome(reference_summand, d, cls, ctx), (d, D)


def test_oh_summand_rejects_multi_step():
    target = FlagTarget(base_dim=3, e_degrees=(0, 0, 0), ranks=(1, 1))
    ctx = SummandContext.for_target(target, cap=1)
    with pytest.raises(NotImplementedError):
        oh_summand((0, 0), CurveClass(D=0, k=(0, 0)), ctx)


def test_context_caches_repeat_parts(p4_112):
    ctx = p4_ctx(p4_112, z=2)
    cls = CurveClass(D=2, k=(1,))
    first = oh_summand((1, 0), cls, ctx)
    assert ctx.root_factor(0, 1, 2) is ctx.root_factor(0, 1, 2)
    assert oh_summand((1, 0), cls, ctx) == first == oh_summand((1, 0), cls, p4_ctx(p4_112, z=2))


def test_slot_series_matches_factor_ratio(p4_112):
    ctx = p4_ctx(p4_112, cap=3, z=Fraction(3, 2))
    h = GradedPoly.generator(0, 1, 3)
    for upper in (3, -2, 1, 0, -4, 5):
        series = GradedPoly(1, 3, {(k,): c for k, c in enumerate(ctx.slot_series(upper))})
        assert series == factor_ratio(h, upper, ctx.z)


@given(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
)
def test_rank_one_summand_agrees_with_projective_form(blpt_p2, D, k):
    target, twist = blpt_p2
    ctx = SummandContext.for_target(target, twist)
    cls = CurveClass(D=D, k=(k,))
    assert oh_summand((k,), cls, ctx) == brown_summand((k,), cls, ctx)


def test_brown_summand_rejects_higher_rank(p4_112):
    ctx = p4_ctx(p4_112)
    with pytest.raises(ValueError):
        brown_summand((0, 0), CurveClass(D=0, k=(0,)), ctx)


def test_modification_factor_linear():
    f = gen(0, 1, 1)
    series = modification_factor(f, 1, 1)
    assert series.coefficient(1) == const(1, 1, 1)
    assert series.coefficient(0) == f + 1
    assert series.coefficient(-1).is_zero()


def test_modification_factor_trivial_range():
    f = gen(0, 1, 1)
    series = modification_factor(f, 0, 1)
    assert series.coefficient(0) == const(1, 1, 1)
    assert series.max_power() == 0


def test_modification_factor_inverse_expansion():
    f = gen(0, 1, 2)
    series = modification_factor(f, -1, 1, lam_min=-4)
    # 1/(lambda + f): alternating geometric tail in 1/lambda.
    assert series.coefficient(-1) == const(1, 1, 2)
    assert series.coefficient(-2) == -f
    assert series.coefficient(-3) == poly_mul(f, f)
    assert series.lo <= -4


def test_modification_factor_negative_product_is_exact_to_lo():
    f = gen(0, 1, 1) + 1
    direct = modification_factor(f, -2, 1, lam_min=-5)
    # multiply back by the two moved factors and check we recover 1 on the
    # exact window.
    back = direct.mul(modification_factor(f - 1, 1, 1, lam_min=-5).scale(1))
    # (f - 1) + lambda + z reproduces the m = 0 factor lambda + f; the m = -1
    # factor is lambda + f - 1.
    back = back.mul(
        LambdaSeries(1, 1, -5, {1: const(1, 1, 1), 0: f - 1})
    )
    for p in range(back.lo, 0):
        assert back.coefficient(p).is_zero(), p
    assert back.coefficient(0) == const(1, 1, 1)


def test_lambda_series_mul_tracks_exactness():
    one = const(1, 1, 1)
    a = LambdaSeries(1, 1, -3, {0: one, -1: one})
    b = LambdaSeries(1, 1, -2, {1: one})
    prod = a.mul(b)
    assert prod.lo == max(-3 + 1, -2 + 0)
    assert prod.coefficient(1) == one
    assert prod.coefficient(0) == one
