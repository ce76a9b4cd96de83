import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from grperiod import summands
from grperiod.ring import GradedPoly, poly_mul, unit_inverse
from grperiod.summands import (
    SingularFactorError,
    SummandContext,
    TwistRangeError,
    base_j_factor,
    factor_ratio,
    flag_factor,
    oh_summand,
    twist_factor,
    twist_uppers,
    weyl_block,
    weyl_sign,
)
from grperiod.assembler import class_points
from grperiod.targets import (
    BlowUpSpec,
    CurveClass,
    FlagTarget,
    TwistSpec,
    class_enumeration,
    lattice_range,
    normalize_blowup,
)


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
    return SummandContext(target, twist, z=z, cap=cap)


def test_context_rejects_zero_z(p4_112):
    target, twist = p4_112
    with pytest.raises(SingularFactorError):
        SummandContext(target, twist, z=0)


def test_context_default_cap_is_weyl_degree(p4_112):
    ctx = p4_ctx(p4_112)
    assert ctx.cap == 1


def test_base_factor_p4_degree1():
    target = FlagTarget(base_dim=4, e_degrees=(0, 0, -1), rank=2)
    ctx = SummandContext(target, cap=1)
    assert base_j_factor(1, ctx) == const(1, 3, 1) - gen(0, 3, 1).scale(5)


def test_base_factor_constant_term_only():
    target = FlagTarget(base_dim=1, e_degrees=(0,), rank=1)
    ctx = SummandContext(target, cap=0)
    assert base_j_factor(2, ctx) == const(Fraction(1, 4), 2, 0)


def test_flag_factor_by_hand(p4_112):
    # e = (0, 0, -1), d = (1, 0), D = 1: the only surviving slots at cap 1
    # are 1/(h1 + 1)^2 and the nilpotent (h2 - h) from the negative range.
    ctx = p4_ctx(p4_112)
    got = flag_factor((1, 0), CurveClass(D=1, k=1), ctx)
    assert got == gen(2, 3, 1) - gen(0, 3, 1)


def test_flag_factor_against_slotwise_product(p4_112):
    ctx = p4_ctx(p4_112, cap=1, z=2)
    d, cls = (0, 1), CurveClass(D=2, k=1)
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


@given(st.lists(st.integers(-40, 40), min_size=1, max_size=6))
def test_weyl_sign_is_the_pairwise_sign(d):
    # (-1)^((r - 1) sum(d)), which oh_summand uses on every path, against
    # the pairwise exponent that weyl_block sums
    d = tuple(d)
    pairwise = sum(d[a] - d[b] for a, b in itertools.combinations(range(len(d)), 2))
    assert weyl_sign(d) == (-1) ** (pairwise % 2)


def test_weyl_sign_matches_weyl_block(p4_112):
    ctx = p4_ctx(p4_112)
    for d in itertools.product(range(-2, 3), repeat=2):
        assert weyl_sign(d) == weyl_block(d, ctx)[1]


def test_twist_uppers(p4_112, p6_122):
    _, twist = p4_112
    assert twist_uppers(twist, CurveClass(D=1, k=1), (1, 0)) == [2, 1]
    _, twist2 = p6_122
    assert twist_uppers(twist2, CurveClass(D=1, k=-2), (-1, -1)) == [1, 1]


def test_twist_factor_p4(p4_112):
    ctx = p4_ctx(p4_112)
    got = twist_factor((1, 0), CurveClass(D=1, k=1), ctx)
    h, h1, h2 = (gen(i, 3, 1) for i in range(3))
    expected = poly_mul(poly_mul(h1 + h + 1, h1 + h + 2), h2 + h + 1)
    assert got == expected


def test_twist_factor_p6(p6_122):
    target, twist = p6_122
    ctx = SummandContext(target, twist)
    got = twist_factor((-1, -1), CurveClass(D=1, k=-2), ctx)
    h, h1, h2 = (gen(i, 3, 1) for i in range(3))
    expected = poly_mul(h1 + h.scale(2) + 1, h2 + h.scale(2) + 1)
    assert got == expected


def test_twist_factor_refuses_negative_range(p4_112):
    ctx = p4_ctx(p4_112)
    with pytest.raises(TwistRangeError):
        twist_factor((-1, 0), CurveClass(D=0, k=-1), ctx)


def test_empty_twist_contributes_one(p4_112):
    target, _ = p4_112
    ctx = SummandContext(target)
    assert twist_factor((1, 0), CurveClass(D=1, k=1), ctx) == ctx.one()


def test_oh_summand_has_leading_z(p4_112):
    # d = (0, 0) at D = 0: base and twist are 1, the Weyl numerator is
    # h1 - h2 with sign +1, so the summand is exactly z * (h1 - h2).
    ctx = p4_ctx(p4_112, z=3)
    cls = CurveClass(D=0, k=0)
    assert graded_oh_summand((0, 0), cls, ctx) == (
        gen(1, 3, 1) - gen(2, 3, 1)
    ).scale(3)


def graded_oh_summand(d, cls, ctx):
    """oh_summand as a GradedPoly, for comparison with the GradedPoly helpers."""
    return ctx.kernel.to_graded(oh_summand(d, cls, ctx))


def _standard_rows(r):
    return tuple(tuple(1 if i == s else 0 for i in range(r)) for s in range(r))


@st.composite
def one_step_points(draw):
    """A one-step target, a lattice point on it, z, cap and a twist case."""
    r = draw(st.integers(min_value=1, max_value=3))
    e = draw(st.lists(st.integers(min_value=-2, max_value=2), min_size=r, max_size=r + 2))
    target = FlagTarget(
        base_dim=draw(st.integers(min_value=1, max_value=4)), e_degrees=tuple(e), rank=r
    )
    d = tuple(draw(st.lists(st.integers(min_value=-3, max_value=3), min_size=r, max_size=r)))
    cls = CurveClass(D=draw(st.integers(min_value=0, max_value=3)), k=sum(d))
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
    return SummandContext(target, twist, z=z, cap=cap), d, cls


def _outcome(fn, d, cls, ctx):
    try:
        return fn(d, cls, ctx)
    except TwistRangeError:
        return TwistRangeError


@settings(deadline=None, max_examples=150)
@given(one_step_points())
def test_oh_summand_equals_reference_product(reference_summand, case):
    ctx, d, cls = case
    assert _outcome(graded_oh_summand, d, cls, ctx) == _outcome(reference_summand, d, cls, ctx)


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
    target = FlagTarget(base_dim=4, e_degrees=(0, 1, -1), rank=2)
    ctx = SummandContext(target, TwistSpec(rows, 1), z=z, cap=2)
    for d in ((0, 0), (2, 1), (1, 3), (-1, 2)):
        for D in (0, 1, 2):
            cls = CurveClass(D=D, k=sum(d))
            got = _outcome(graded_oh_summand, d, cls, ctx)
            assert got == _outcome(reference_summand, d, cls, ctx), (d, D)


def test_context_caches_repeat_parts(p4_112):
    ctx = p4_ctx(p4_112, z=2)
    cls = CurveClass(D=2, k=1)
    first = oh_summand((1, 0), cls, ctx)
    rows = ctx.local_rows[0]
    assert ctx.local_rows == (rows, rows)
    assert ctx.root_poly(rows, 1, 2) is ctx.root_poly(rows, 1, 2)
    assert ctx.root_factor(0, 1, 2) is ctx.root_factor(0, 1, 2)
    assert ctx.weyl_factor(0, 1, 1) is ctx.weyl_factor(0, 1, 1)
    assert oh_summand((1, 0), cls, ctx) == first == oh_summand((1, 0), cls, p4_ctx(p4_112, z=2))
    # both roots carry one standard twist row, so they share the univariate
    # builds: (1, 0) builds d = 1 and d = 0 once each, and (0, 1) reuses them
    builds = dict(ctx._roots)
    assert set(builds) == {(rows, 1, 2), (rows, 0, 2)}
    oh_summand((0, 1), cls, ctx)
    assert ctx._roots == builds


def test_row_factor_is_the_product_of_its_linear_forms():
    # three general rows; the uppers come out of order, so a factor is built
    # from the nearest cached limit below it, or from 1
    target = FlagTarget(base_dim=4, e_degrees=(0, 1, -1), rank=3)
    rows = ((1, 1, 0), (2, -1, 1), (0, 0, 0))
    z = Fraction(3, 2)
    ctx = SummandContext(target, TwistSpec(rows, 1), z=z)
    assert ctx.general_rows == (0, 1, 2)
    nvars, cap = target.nvars, ctx.cap
    for s, row in enumerate(rows):
        line = const(0, nvars, cap)
        for i, f in enumerate(row, 1):
            line = line + gen(i, nvars, cap).scale(f)
        for upper in (3, 0, 5, 1):
            expected = const(1, nvars, cap)
            for m in range(1, upper + 1):
                expected = poly_mul(expected, line + m * z)
            assert ctx.kernel.to_graded(ctx.row_factor(s, upper)) == expected, (row, upper)
        with pytest.raises(TwistRangeError, match="upper limit -1"):
            ctx.row_factor(s, -1)
    assert {u for _, u in ctx._rows} == {1, 2, 3, 4, 5}
    for terms, _ in ctx._rows.values():
        keys = [k for k, _ in terms]
        assert keys == sorted(keys)


@pytest.mark.parametrize(
    "e_degrees, rows, count",
    [
        pytest.param((0, 1, -1), ((1, 0, 0), (0, 2, 0), (0, 0, 1), (1, 1, 0)), 90, id="r3"),
        pytest.param(
            (0, 1, -1, 0, 2),
            ((1, 0, 0, 0), (0, 2, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 0, 0)),
            12,
            id="r4",
        ),
    ],
)
def test_shared_parts_across_points_classes_and_degrees(reference_summand, e_degrees, rows, count):
    # twist rows that differ per root, plus one general row over two roots;
    # the r = 4 reference takes about 0.15 s a point, so it checks fewer
    r = len(rows[0])
    target = FlagTarget(base_dim=4, e_degrees=e_degrees, rank=r)
    twist = TwistSpec(rows, 1)
    z = Fraction(3, 2)
    ctx = SummandContext(target, twist, z=z)
    points = [
        (d, CurveClass(D=D, k=sum(d)))
        for d in itertools.product(range(-1, 3), repeat=r)
        for D in (0, 1, 2)
    ]
    random.Random(5).shuffle(points)
    for d, cls in points[:count]:
        fresh = SummandContext(target, twist, z=z)
        got = _outcome(graded_oh_summand, d, cls, ctx)
        assert got == _outcome(reference_summand, d, cls, fresh), (d, cls.D)


@pytest.mark.parametrize("orbit, length", [(True, 4), (False, 7)])
def test_factor_series_are_as_long_as_their_path_reads(orbit, length):
    # P^8 in (1,1,1,1,2): r = 4 and cap 6; the orbit tables read x^0..x^3
    target, twist = normalize_blowup(BlowUpSpec(8, (1, 1, 1, 1, 2)))
    ctx = SummandContext(target, twist, orbit=orbit)
    assert (target.rank, ctx.cap) == (4, 6)
    assert len(ctx.slot_series(3)[0]) == len(ctx.twist_series(3)[0]) == length


def test_slot_series_matches_factor_ratio(p4_112):
    ctx = p4_ctx(p4_112, cap=3, z=Fraction(3, 2))
    h = GradedPoly.generator(0, 1, 3)
    for upper in (3, -2, 1, 0, -4, 5):
        nums, den = ctx.slot_series(upper)
        series = GradedPoly(1, 3, {(k,): Fraction(c, den) for k, c in enumerate(nums)})
        assert series == factor_ratio(h, upper, ctx.z)


@pytest.mark.parametrize("orbit", [False, True])
@pytest.mark.parametrize(
    "z", [Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-1, 2), Fraction(-3, 2)]
)
def test_factor_series_are_reduced_integers_over_a_positive_denominator(orbit, z):
    # P^8 in (1,1,1,1,2): 7 coefficients on the packed context, 4 on the
    # orbit one; z < 0 puts negative factors into the division recurrence
    target, twist = normalize_blowup(BlowUpSpec(8, (1, 1, 1, 1, 2)))
    ctx = SummandContext(target, twist, z=z, orbit=orbit)
    length = ctx.length
    for upper in range(-6, 9):
        ctx.slot_series(upper)
        if upper >= 0:
            ctx.twist_series(upper)
            ctx.base_constant(upper)
    l = GradedPoly.generator(0, 1, length - 1)
    twists = {0: const(1, 1, length - 1)}
    for m in range(1, 9):
        twists[m] = poly_mul(twists[m - 1], l + m * z)
    caches = [(ctx._slots, lambda u: factor_ratio(l, u, z)), (ctx._twists, twists.get)]
    assert set(ctx._slots) == set(range(-6, 9)) and set(ctx._twists) == set(range(9))
    for cache, reference in caches:
        for upper, (nums, den) in cache.items():
            assert len(nums) == length and den > 0 and math.gcd(den, *nums) == 1, upper
            got = GradedPoly(1, length - 1, {(k,): Fraction(c, den) for k, c in enumerate(nums)})
            assert got == reference(upper), upper
    assert set(ctx._base_constants) == set(range(9))
    for D, (num, den) in ctx._base_constants.items():
        assert den > 0 and math.gcd(num, den) == 1, D
        expected = factor_ratio(l, D, z).constant_term() ** (target.base_dim + 1)
        assert Fraction(num, den) == expected, D


R1_FANO = [(3, (1, 2)), (2, (1, 1)), (4, (4, 4))]
# (base_dim, degrees, orbit): the packed cases keep pytest's default ids, and
# the non-Fano P^3 (3,4) is summed only in the packed kernel
R1_CASES = [
    pytest.param(n, c, False, id=f"{n}-degrees{i}")
    for i, (n, c) in enumerate(R1_FANO + [(3, (3, 4))])
] + [pytest.param(n, c, True, id=f"{n}-degrees{i}-orbit") for i, (n, c) in enumerate(R1_FANO)]
CAP0_Z = [Fraction(1), Fraction(2), Fraction(-1, 2)]


@pytest.mark.parametrize("base_dim, degrees, orbit", R1_CASES)
@pytest.mark.parametrize("z", CAP0_Z)
def test_cap0_summand_equals_reference_on_listed_points(
    reference_summand, base_dim, degrees, orbit, z
):
    # r = 1: the default cap is 0, so every summand is one constant; an
    # orbit context returns it as (numerator, den)
    target, twist = normalize_blowup(BlowUpSpec(base_dim, degrees))
    ctx = SummandContext(target, twist, z=z, orbit=orbit)
    assert ctx.cap == 0
    listed = [
        (d, cls)
        for x_deg in range(16)
        for cls in class_enumeration(target, twist, x_deg)
        for d in class_points(cls, ctx)
    ]
    assert any(cls.D == 0 for _, cls in listed) and any(cls.D > 0 for _, cls in listed)
    for d, cls in listed:
        expected = reference_summand(d, cls, ctx)
        if orbit:
            num, den = oh_summand(d, cls, ctx)
            assert Fraction(num, den) == expected.constant_term(), (d, cls)
            continue
        terms, den = oh_summand(d, cls, ctx)
        assert terms == [] or (len(terms) == 1 and terms[0][0] == 0 and terms[0][1] != 0)
        assert den > 0
        assert ctx.kernel.to_graded((terms, den)) == expected, (d, cls)


@pytest.mark.parametrize("base_dim, degrees, orbit", R1_CASES)
@pytest.mark.parametrize("z", CAP0_Z)
def test_cap0_summand_below_the_floor_is_zero(reference_summand, base_dim, degrees, orbit, z):
    # points below the floor whose twist range is nonnegative: a slot ratio
    # keeps its nilpotent factor, whose constant term is 0
    target, twist = normalize_blowup(BlowUpSpec(base_dim, degrees))
    ctx = SummandContext(target, twist, z=z, orbit=orbit)
    checked = 0
    for D in range(4):
        for di in range(-twist.rho * D, min(-e * D for e in target.e_degrees)):
            cls = CurveClass(D=D, k=di)
            assert not oh_summand((di,), cls, ctx)[0]
            assert reference_summand((di,), cls, ctx).is_zero()
            checked += 1
    assert checked


def test_cap0_zero_slot_still_reads_every_twist_row():
    # a zero slot constant does not stop a negative twist range from raising,
    # on a local row (r = 1, packed or orbit) or on a general row read after
    # the slots
    target, twist = normalize_blowup(BlowUpSpec(3, (1, 2)))
    for orbit in (False, True):
        ctx = SummandContext(target, twist, orbit=orbit)
        assert ctx.slot_series(-1)[0][0] == 0
        with pytest.raises(TwistRangeError):
            oh_summand((-1,), CurveClass(D=0, k=-1), ctx)
    target = FlagTarget(base_dim=2, e_degrees=(0, 0), rank=2)
    ctx = SummandContext(target, TwistSpec(((1, 1),), 0), cap=0)
    with pytest.raises(TwistRangeError):
        oh_summand((-1, 0), CurveClass(D=0, k=-1), ctx)


@pytest.mark.parametrize("z", CAP0_Z)
def test_cap0_summand_at_higher_rank_has_the_weyl_constants(reference_summand, z):
    # cap 0 below the Weyl degree: each Weyl factor contributes (d_a - d_b) z
    target = FlagTarget(base_dim=4, e_degrees=(0, 1, -1), rank=3)
    twist = TwistSpec(((1, 0, 0), (0, 2, 0), (0, 0, 1), (1, 1, 0)), 1)
    ctx = SummandContext(target, twist, z=z, cap=0)
    nonzero = 0
    for d in itertools.product(range(-1, 4), repeat=3):
        for D in (0, 1, 2):
            cls = CurveClass(D=D, k=sum(d))
            got = _outcome(graded_oh_summand, d, cls, ctx)
            assert got == _outcome(reference_summand, d, cls, ctx), (d, D)
            nonzero += got is not TwistRangeError and not got.is_zero()
    assert nonzero


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_staircase_is_the_packed_summand_at_the_staircase_monomial(r):
    # P^(2r) in (1^r, 2) at D = 0 and 1: every point lattice_range yields
    # under the cap, each of its orderings among them; z = 1/2 puts a
    # denominator in the Weyl shifts.  The orbit context's scalar is the
    # packed summand's coefficient at x_1^(r-1) ... x_(r-1)
    target, twist = normalize_blowup(BlowUpSpec(2 * r, (1,) * r + (2,)))
    orbit = SummandContext(target, twist, z=Fraction(1, 2), orbit=True)
    packed = SummandContext(target, twist, z=Fraction(1, 2))
    delta = (0,) + tuple(range(r - 1, -1, -1))
    nonzero = 0
    for D in (0, 1):
        for k in range(-1, r + 1):
            cls = CurveClass(D=D, k=k)
            points = set(lattice_range(target, cls, orbit.cap))
            assert all(p in points for d in points for p in itertools.permutations(d))
            for d in points:
                num, den = oh_summand(d, cls, orbit)
                graded = packed.kernel.to_graded(oh_summand(d, cls, packed))
                assert Fraction(num, den) == graded.coefficient(delta), (d, D)
                nonzero += num != 0
    assert nonzero
