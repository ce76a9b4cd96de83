import itertools
import math
import re
import traceback
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from grperiod import assembler
from grperiod.assembler import (
    Correction,
    CorrectionError,
    NotFanoError,
    OracleMismatchError,
    PeriodSeries,
    WorkBudgetError,
    _pascal,
    class_numerator,
    class_points,
    correction_C,
    corrected_series,
    degree_numerator,
    estimate_points,
    fano_degrees,
    period_series,
    sums_by_orbits,
    unit_coefficient,
    unit_from_numerator,
    unit_series,
    z_scaling_failures,
)
from grperiod.ring import GradedPoly, NotDivisibleError, PackedRing, vandermonde_divide
from grperiod.summands import SummandContext, TwistRangeError, oh_summand
from grperiod.targets import (
    BlowUpSpec,
    CurveClass,
    DivisorData,
    FlagTarget,
    GradingError,
    TwistSpec,
    all_weyl_pairs,
    class_enumeration,
    class_rows,
    example3_normalized_model,
    example3_verbatim_model,
    normalize_blowup,
    standard_basis,
)
from grperiod.validation import _regularise, oracle_blowup, oracle_blowup_raw, oracle_pinned_verbatim

# Regularised series of the worked models.  The first three are frozen from
# the independent closed-form sums in grperiod.validation; VERBATIM_REGULARISED
# is checked against oracle_pinned_verbatim and NORMALIZED_P6_1112_REGULARISED
# against oracle_blowup below.
P4_112_REGULARISED = (1, 0, 0, 12, 0, 120, 540, 0, 20160, 33600, 113400, 2772000, 2425500)
P6_122_REGULARISED = (1, 0, 0, 0, 0, 480, 0, 5040, 0, 0, 4082400, 0, 119750400, 0, 681080400)
BLPT_P2_REGULARISED = (1, 0, 2, 6, 6, 60, 110, 420, 1750)
VERBATIM_REGULARISED = (1, 0, 0, 0, 0, 0, 0, 0, 5040, 0, 0, -184800, 0, 0, 6306300)
NORMALIZED_P6_1112_REGULARISED = (
    1, 0, 0, 0, 48, 0, 0, 5040, 15120, 0, 0, 9979200, 7392000, 0, 681080400, 15135120000,
)


def test_degree_zero_numerator_is_weyl_denominator(p4_112):
    target, twist = p4_112
    num = PackedRing(3, 1).to_graded(degree_numerator(target, twist, 0))
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
    assert corr.entries == ((CurveClass(D=1, k=0), Fraction(0)),)
    assert corr.total == 0


def test_correction_vanishes_for_p6(p6_122):
    corr = correction_C(*p6_122)
    assert corr.entries == ((CurveClass(D=1, k=-2), Fraction(0)),)


def test_correction_counts_exceptional_lines(blpt_p2):
    corr = correction_C(*blpt_p2)
    assert corr.entries == ((CurveClass(D=0, k=1), Fraction(1)),)
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


def test_no_twist_gives_the_product_period_of_p2_times_p1():
    # Gr(1, O + O) over P^2 with no twist rows is P^2 x P^1, whose period
    # is n! sum_{3a + 2b = n} 1 / (a!^3 b!^2); no twist reads as no rows
    f = math.factorial
    expected = tuple(
        f(n) * sum(
            Fraction(1, f(a) ** 3 * f(b) ** 2)
            for a in range(n // 3 + 1)
            for b in range(n // 2 + 1)
            if 3 * a + 2 * b == n
        )
        for n in range(13)
    )
    assert expected[:9] == (1, 0, 2, 6, 6, 120, 110, 1260, 5110)
    target = FlagTarget(2, (0, 0), 1)
    ps = period_series(target, None, 12)
    assert ps.regularised == expected
    assert period_series(target, TwistSpec((), 0), 12) == ps


@pytest.mark.parametrize("rows", [((1, 0, 7), (0, 1, 9)), ((1,), (0, 1))], ids=["long", "short"])
@pytest.mark.parametrize("divisor", [None, DivisorData(3, 2)], ids=["-K", "3h + 2det"])
def test_wrong_length_twist_rows_are_refused(rows, divisor):
    # under an explicit grading too: class_rows checks the rows, not only anticanonical
    target, twist = FlagTarget(4, (0, 0, -1), 2), TwistSpec(rows, 1)
    with pytest.raises(ValueError, match="length does not match rank"):
        period_series(target, twist, 6, divisor=divisor)
    with pytest.raises(ValueError, match="length does not match rank"):
        estimate_points(target, twist, 6, divisor)


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


def test_pinned_reference_series_equals_oracle():
    assert oracle_pinned_verbatim(14) == VERBATIM_REGULARISED


def test_normalized_p6_1112_series():
    target, twist, divisor = example3_normalized_model()
    ps = period_series(target, twist, 15, divisor=divisor)
    assert ps.regularised == tuple(
        Fraction(v) for v in NORMALIZED_P6_1112_REGULARISED
    )


def test_normalized_p6_1112_series_equals_oracle():
    assert oracle_blowup(6, (1, 1, 1, 2), 15) == NORMALIZED_P6_1112_REGULARISED


def test_nonconvex_points_error_unless_skipped():
    target, twist, divisor = example3_verbatim_model()
    ctx = SummandContext(target, twist)
    cls = CurveClass(D=1, k=-1)
    with pytest.raises(TwistRangeError):
        class_numerator(cls, ctx)
    class_numerator(cls, ctx, skip_nonconvex=True)  # does not raise


def test_z_scaling_row(p4_112, monkeypatch):
    target, twist = p4_112
    assert unit_coefficient(target, twist, 3, 2) == Fraction(1, 2)
    assert unit_coefficient(target, twist, 3, 1) * Fraction(1, 4) == Fraction(1, 2)
    assert z_scaling_failures(target, twist, [3, 4], 2) == []
    # a unit that ignores z scales correctly only at degree one
    monkeypatch.setattr("grperiod.assembler.unit_coefficient", lambda *args: Fraction(1))
    assert z_scaling_failures(target, twist, [0, 1, 2], 2) == [0, 2]


@pytest.mark.parametrize("z", [Fraction(2), Fraction(1, 2), Fraction(-1), Fraction(-3, 2)], ids=str)
@pytest.mark.parametrize(
    "base_dim, degrees", [(2, (1, 1)), (3, (1, 2)), (4, (4, 4))], ids=["P2-11", "P3-12", "P4-44"]
)
def test_period_is_z_homogeneous_when_the_correction_is_not_zero(base_dim, degrees, z):
    # C != 0 in each model, so the correction must be e^(-Cx/z) at z != 1
    model = normalize_blowup(BlowUpSpec(base_dim, degrees))
    at_one = period_series(*model, 8)
    at_z = period_series(*model, 8, z=z)
    assert at_one.correction.total != 0
    for field in ("regularised", "coefficients"):
        expected = tuple(v * z ** (1 - d) for d, v in enumerate(getattr(at_one, field)))
        assert getattr(at_z, field) == expected, field


def test_budget_guard(p4_112):
    target, twist = p4_112
    assert estimate_points(target, twist, 8) > 1
    with pytest.raises(WorkBudgetError):
        period_series(target, twist, 8, budget=1)
    period_series(target, twist, 8, budget=None)  # opt out


def test_budget_error_names_the_estimate_per_degree(p4_112):
    target, twist = p4_112
    per_degree = [estimate_points(target, twist, 0)] + [
        estimate_points(target, twist, d) - estimate_points(target, twist, d - 1)
        for d in range(1, 9)
    ]
    with pytest.raises(WorkBudgetError) as exc:
        period_series(target, twist, 8, budget=1)
    listed = ", ".join(f"{d}: {n}" for d, n in enumerate(per_degree))
    assert f"estimated {sum(per_degree)} lattice points" in str(exc.value)
    assert f"(per degree {listed})" in str(exc.value)


def test_budget_refusal_stops_listing_points_past_the_budget():
    # highrank through x^11 lists 21 points; over a budget of 5 the refusal
    # still counts every one of them, but the listing it raises from holds
    # no more than the budget and one class's points
    model = normalize_blowup(BlowUpSpec(8, (1, 1, 1, 1, 2)))
    with pytest.raises(WorkBudgetError) as caught:
        period_series(*model, 11, budget=5)
    assert str(caught.value) == (
        "estimated 21 lattice points exceeds budget 5 (per degree 0: 1, 1: 0, 2: 0, "
        "3: 0, 4: 4, 5: 1, 6: 0, 7: 0, 8: 10, 9: 4, 10: 1, 11: 0)"
    )
    frames = (frame for frame, _ in traceback.walk_tb(caught.tb))
    listed = next(f.f_locals["listed"] for f in frames if f.f_code.co_name == "_listed")
    ctx = SummandContext(*model, orbit=True)
    largest = max(len(class_points(cls, ctx)) for x in range(12) for cls in _classes(*model, x))
    assert largest == 10
    assert sum(map(len, listed)) <= 5 + largest


def test_budget_counts_the_points_that_are_summed():
    # through x^20 the pinned model sums 123 points on the orbit path; with
    # nonconvex points kept (rho = 1 < max e_j = 2) it stays on the packed
    # path, and the generator yields 615
    target, twist, divisor = example3_verbatim_model()
    period_series(target, twist, 20, divisor=divisor, skip_nonconvex=True, budget=123)
    with pytest.raises(WorkBudgetError, match="estimated 123 lattice points"):
        period_series(target, twist, 20, divisor=divisor, skip_nonconvex=True, budget=122)
    assert estimate_points(target, twist, 20, divisor) == 615
    # the orbit path lists and evaluates every point whose root i forces at
    # most r - 1 - i slots: 21 of the 45 points the packed path lists
    model = normalize_blowup(BlowUpSpec(8, (1, 1, 1, 1, 2)))
    assert estimate_points(*model, 11) == 21
    for orbit, points in ((True, 21), (False, 45)):
        rows = class_rows(*model, 11, None, orbit)
        counts, listed = assembler._listed(SummandContext(*model, orbit=orbit), rows, 11, False)
        assert sum(map(len, listed)) == sum(counts) == points


def _classes(target, twist, x_deg, divisor=None, orbit=False):
    """The classes of degree x_deg: those of class_rows from x_deg to x_deg."""
    rows = class_rows(target, twist, x_deg, divisor, orbit, x_deg)
    return [CurveClass(D, k) for D, ks, _ in rows for k in ks]


def _per_point_pairs(ctx, dmax, divisor=None, skip=False):
    """Each degree's (point, class) pairs through x^dmax, listed class by class."""
    return [
        [
            (d, cls)
            for cls in _classes(ctx.target, ctx.twist, x_deg, divisor, ctx.orbit)
            for d in class_points(cls, ctx, skip)
        ]
        for x_deg in range(dmax + 1)
    ]


def test_rank_one_budget_counts_the_classes_of_the_rows():
    # deep-r1's model through x^60: the rows hold 651 classes, each one
    # point, counted per degree as the points are listed class by class
    model = normalize_blowup(BlowUpSpec(3, (1, 2)))
    listed = _per_point_pairs(SummandContext(*model, orbit=True), 60)
    per_degree = ", ".join(f"{d}: {len(pairs)}" for d, pairs in enumerate(listed))
    assert estimate_points(*model, 60) == 651
    with pytest.raises(WorkBudgetError) as exc:
        period_series(*model, 60, budget=650)
    message = f"estimated 651 lattice points exceeds budget 650 (per degree {per_degree})"
    assert message in str(exc.value)
    period_series(*model, 60, budget=651)
    # estimate_points counts what the budget counts on every r = 1 row model
    # whose nonconvex points are kept
    kept = [m for m in _r1_row_models() if not m[3]]
    assert len(kept) == 61
    for target, twist, divisor, _, dmax, label in kept:
        with pytest.raises(WorkBudgetError) as exc:
            unit_series(target, twist, dmax, divisor=divisor, budget=0)
        estimate = estimate_points(target, twist, dmax, divisor)
        assert f"estimated {estimate} lattice points" in str(exc.value), label


@pytest.mark.parametrize(
    "base_dim, degrees",
    [(4, (1, 1, 2)), (6, (1, 1, 1, 2)), (8, (1, 1, 1, 1, 2)), (10, (1, 1, 1, 1, 1, 2))],
    ids=["p4-112", "p6-1112", "p8-11112", "p10-111112"],
)
def test_raw_series_is_the_unit_coefficients(base_dim, degrees):
    # the orbit path of period_series, whose staircase determinants are
    # r x r, against the per-point units in the full ring
    model = normalize_blowup(BlowUpSpec(base_dim, degrees))
    assert fano_degrees(*model) == degrees
    ps = period_series(*model, 8, z=Fraction(1, 2))
    assert ps.raw == tuple(unit_coefficient(*model, d, Fraction(1, 2)) for d in range(9))


@pytest.mark.parametrize("r, dmax", [(6, 14), (7, 16)])
def test_orbit_path_equals_the_oracle_at_ranks_6_and_7(r, dmax):
    # one 6 x 6 or 7 x 7 staircase determinant per listed point;
    # period_series raises OracleMismatchError on the first degree that
    # differs
    degrees = (1,) * r + (2,)
    ps = period_series(*normalize_blowup(BlowUpSpec(2 * r, degrees)), dmax)
    assert ps.regularised == oracle_blowup(2 * r, degrees, dmax)
    assert any(ps.raw[r + 1 :])


def test_orbit_path_is_chosen_from_the_model():
    # standard twist rows, and no negative twist range kept: nonconvex
    # points skipped, or rho >= max e_j; the grading and the Fano test play
    # no part
    target, twist = normalize_blowup(BlowUpSpec(6, (1, 1, 1, 2)), twist_k=2)
    for skip in (False, True):
        assert sums_by_orbits(target, twist, skip)
        assert sums_by_orbits(*normalize_blowup(BlowUpSpec(3, (1, 2))), skip)  # r = 1
        assert sums_by_orbits(*normalize_blowup(BlowUpSpec(6, (1, 1, 1, 3)), 1), skip)  # not Fano
        assert sums_by_orbits(FlagTarget(6, (1, 1, 1, 0, 0), 3), twist, skip)  # rank E != r + 1
        assert not sums_by_orbits(target, None, skip)
        general = TwistSpec(((1, 0, 0), (0, 1, 0), (1, 0, 1)), rho=1)
        assert not sums_by_orbits(target, general, skip)
        assert not sums_by_orbits(target, TwistSpec(((2, 0, 0), (0, 2, 0), (0, 0, 2)), 2), skip)
    # the pinned model: e = (0, 0, 0, 2) and rho = 1, so only with nonconvex
    # points skipped, as its period is taken
    pinned, pinned_twist, _ = example3_verbatim_model()
    assert sums_by_orbits(pinned, pinned_twist, True)
    assert not sums_by_orbits(pinned, pinned_twist, False)
    assert sums_by_orbits(pinned, TwistSpec(pinned_twist.weight_vectors, 2), False)


def _units_through_x6(target, twist, divisor, skip, orbit):
    """The units unit_series sums through x^6 on an orbit or a packed context, or the error raised.

    _unit over _listed's pairs, or at r = 1 on an orbit context, where
    _listed lists none, _row_units over the rows.
    """
    ctx = SummandContext(target, twist, orbit=orbit)
    try:
        rows = list(class_rows(target, twist, 6, divisor, orbit, twist_floor=orbit and skip))
        listed = assembler._listed(ctx, rows, 6, skip)[1]
        if listed is None:
            return assembler._row_units(rows, ctx, 6)
        return [assembler._unit(pairs, ctx) for pairs in listed]
    except (GradingError, TwistRangeError, NotDivisibleError) as exc:
        return type(exc)


def test_orbit_and_packed_paths_agree_on_the_models_summed_by_orbits():
    # every model of a box that the rule sends to orbits: P^3, r <= 3, rank
    # E = r + 1, e_j in [-2, 2] in increasing order (at r = 3 only e_0 = -2,
    # to keep to a few seconds), rho in [-1, 2], the gradings -K, 4h + det
    # and 2h + r det, nonconvex points kept and skipped.  Both paths give the
    # same units, or raise the same exception
    seen, compared = set(), 0
    for r in (1, 2, 3):
        for e_degrees in itertools.product(range(-2, 3), repeat=r + 1):
            if list(e_degrees) != sorted(e_degrees) or (r == 3 and e_degrees[0] != -2):
                continue
            target = FlagTarget(3, e_degrees, r)
            gradings = (None, DivisorData(4, 1), DivisorData(2, r))
            for rho, divisor, skip in itertools.product(range(-1, 3), gradings, (False, True)):
                twist = TwistSpec(standard_basis(r), rho)
                if not sums_by_orbits(target, twist, skip):
                    continue
                got = _units_through_x6(target, twist, divisor, skip, orbit=True)
                assert got == _units_through_x6(target, twist, divisor, skip, orbit=False), (
                    e_degrees, rho, divisor, skip
                )
                seen.add(got if isinstance(got, type) else list)
                compared += 1
    assert list in seen and GradingError in seen and compared > 1000


R1_ROW_Z = (1, 2, Fraction(1, 2), Fraction(-3, 2))


def _r1_row_models():
    """r = 1 models on the row path: (target, twist, divisor, skip, dmax, label)."""
    specs = [
        (base_dim, degrees)
        for base_dim in range(2, 9)
        for degrees in itertools.combinations_with_replacement(range(1, 5), 2)
        if base_dim + 1 > max(degrees)  # Fano
    ]
    for spec in specs + [(3, (3, 4))]:  # P^3 in (3,4) is not Fano
        yield (*normalize_blowup(BlowUpSpec(*spec)), None, False, 30, spec)
    # rho = 0 with nonconvex points skipped; on the first, k >= -rho D cuts the rows
    for target in (FlagTarget(3, (2, 1), 1), FlagTarget(4, (0, -1, 1), 1)):
        yield target, TwistSpec(standard_basis(1), 0), None, True, 20, target
    yield (*normalize_blowup(BlowUpSpec(3, (1, 2))), DivisorData(2, 1), False, 20, "2h + det")


def test_rank_one_rows_give_the_per_point_units():
    # each degree's unit from the rows of its base degrees equals _unit over
    # its points, listed class by class, on the same orbit context
    models = list(_r1_row_models())
    assert len(models) == 63
    for target, twist, divisor, skip, dmax, label in models:
        assert sums_by_orbits(target, twist, skip) and target.rank == 1, label
        for z in R1_ROW_Z:
            ctx = SummandContext(target, twist, z, orbit=True)
            rows = class_rows(target, twist, dmax, divisor, True, twist_floor=skip)
            expected = [assembler._unit(p, ctx) for p in _per_point_pairs(ctx, dmax, divisor, skip)]
            assert assembler._row_units(rows, ctx, dmax) == expected, (label, z)
            assert any(expected[1:]), (label, z)


@pytest.mark.parametrize("base_dim, degrees, dmax", [(3, (1, 2), 60), (5, (2, 3), 40)])
def test_long_rank_one_rows_give_the_per_point_units(base_dim, degrees, dmax):
    # rows of up to 61 classes on P^3 in (1,2) and 41 on P^5 in (2,3), each
    # scalar after a row's first reached by the term ratio, against _unit
    # over the points on a context of its own
    model = normalize_blowup(BlowUpSpec(base_dim, degrees))
    for z in R1_ROW_Z:
        ctx = SummandContext(*model, z, orbit=True)
        rows = class_rows(*model, dmax, None, True)
        point_ctx = SummandContext(*model, z, orbit=True)
        expected = [assembler._unit(p, point_ctx) for p in _per_point_pairs(point_ctx, dmax)]
        assert assembler._row_units(rows, ctx, dmax) == expected, z


def test_rank_one_row_scalars_are_the_summands_at_their_points():
    # P^3 in (1,2) through x^60: the rows list the points of the classes, and
    # each row scalar times z is oh_summand at its point on the orbit
    # context and the constant term of the packed summand; the scalars of a
    # row share one denominator
    model = normalize_blowup(BlowUpSpec(3, (1, 2)))
    ctx = SummandContext(*model, Fraction(-3, 2), orbit=True)
    packed = SummandContext(*model, Fraction(-3, 2))
    points = []
    for D, ks, degrees in class_rows(*model, 60, None, True):
        row = ctx.constants(D, ks)
        assert len(row) == len(ks) and len({den for _, den in row}) == 1
        for k, x_deg, (num, den) in zip(ks, degrees, row):
            cls = CurveClass(D, k)
            points.append((x_deg, (k,), cls))
            assert Fraction(*oh_summand((k,), cls, ctx)) == Fraction(num * ctx.p, den * ctx.q)
            terms, q = oh_summand((k,), cls, packed)
            assert Fraction(num * ctx.p, den * ctx.q) == Fraction(dict(terms).get(0, 0), q)
    listed = _per_point_pairs(ctx, 60)
    assert sorted(points) == sorted(
        (x_deg, d, cls) for x_deg, pairs in enumerate(listed) for d, cls in pairs
    )
    assert len(points) == 651


def test_negative_twist_ranges_kept_stay_on_the_packed_path():
    # rho = 1 < max e_j = 2 with nonconvex points kept: a point of degree 7
    # has a negative twist range, which the orbit floor would drop
    target = FlagTarget(3, (-2, -2, -2, 2), 3)
    twist = TwistSpec(standard_basis(3), 1)
    assert not sums_by_orbits(target, twist, False)
    with pytest.raises(TwistRangeError):
        unit_series(target, twist, 7, divisor=DivisorData(4, 1))


NON_FANO = [(3, (3, 4)), (3, (2, 4)), (3, (2, 5)), (4, (1, 5)), (4, (1, 3, 3))]


@pytest.mark.parametrize("base_dim, degrees", NON_FANO)
def test_non_fano_blowups_are_refused(base_dim, degrees):
    # N + 1 <= r max c: the units are still computed, but no period is made
    model = normalize_blowup(BlowUpSpec(base_dim, degrees))
    assert sums_by_orbits(*model, False)
    message = f"P\\^{base_dim} blown up in degrees {re.escape(str(degrees))} is not Fano"
    with pytest.raises(NotFanoError, match=message):
        fano_degrees(*model)
    with pytest.raises(NotFanoError, match=message):
        period_series(*model, 4)
    raw, correction = unit_series(*model, 4)
    assert raw == [unit_coefficient(*model, d) for d in range(5)]
    assert raw[0] == 1


# Units u_0..u_10 at z = 1 of the non-Fano P^4 blown up in (2,2,3), r = 2,
# which is summed by S_2 orbits, with no oracle to check it
P4_223_UNITS = (
    1, 12, 270, 5612, Fraction(202845, 2), Fraction(7987943, 5), Fraction(221749587, 10),
    Fraction(1920802998, 7), Fraction(3426238610239, 1120), Fraction(46883696467859, 1512),
    Fraction(2903106762014257, 10080),
)


def test_non_fano_rank2_units_are_pinned():
    model = normalize_blowup(BlowUpSpec(4, (2, 2, 3)))
    assert sums_by_orbits(*model, False)
    raw, correction = unit_series(*model, 10)
    assert tuple(raw) == P4_223_UNITS
    assert correction == Correction(((CurveClass(D=1, k=-1), Fraction(12)),))


# Units u_0..u_12 at z = 1 of the rank-4 target model Gr(4, O^4 + O(1)) over
# P^5 with F = S^v(1) + det(S^v)(1), nonconvex points skipped: its fifth twist
# row (1,1,1,1) is general, so every summand multiplies in that row's factor
R4_GENERAL_ROW_UNITS = (1, 0, 0, 0, 0, 1, 0, 0, 0, 0, Fraction(1, 32), 0, 0)


def test_rank4_general_row_units_are_pinned():
    target = FlagTarget(5, (0, 0, 0, 0, 1), 4)
    twist = TwistSpec(standard_basis(4) + ((1, 1, 1, 1),), 1)
    assert SummandContext(target, twist).general_rows == (4,)
    raw, correction = unit_series(target, twist, 12, skip_nonconvex=True)
    assert tuple(raw) == R4_GENERAL_ROW_UNITS
    assert correction == Correction(())


def test_dp7_packed_general_row_period_is_the_toric_sum():
    # dP7 in P^3 x P^2 = Gr(2, O^3) over P^3, cut by F = S^v(1) + det(S^v)(1):
    # its general row (1,1) keeps it on the packed path, and the grading
    # h + det(S^v) is -K; its toric sum shares no code with the engine
    target = FlagTarget(3, (0, 0, 0), 2)
    twist = TwistSpec(((1, 0), (0, 1), (1, 1)), 1)
    assert not sums_by_orbits(target, twist, False)
    raw = [Fraction(0)] * 21
    for a in range(11):
        for b in range(21 - 2 * a):
            den = math.factorial(a) ** 3 * math.factorial(a + b) * math.factorial(b)
            raw[2 * a + b] += Fraction(math.factorial(2 * a + b), den)
    one = period_series(target, twist, 20).regularised
    assert one == _regularise(raw)
    assert one[:7] == (1, 0, 4, 6, 36, 120, 490)
    z = Fraction(-3, 2)
    neg = period_series(target, twist, 20, z=z).regularised
    assert neg == tuple(v * z ** (1 - d) for d, v in enumerate(one))


# CI's rank-4 config: its general row keeps it on the packed path
RANK4_GENERAL_ROW_MODEL = (
    FlagTarget(5, (0, 0, 0, 0, 1), 4),
    TwistSpec(standard_basis(4) + ((1, 1, 1, 1),), 1),
)


# Target models (r = 2, 3) with standard, per-root, general and unbalanced
# twist rows, each with the gradings it enumerates under (None is -K; an
# unbalanced twist has none)
G11, G32, G83 = DivisorData(1, 1), DivisorData(3, 2), DivisorData(8, 3)
H_ZERO_MODELS = {
    "standard r2": (
        FlagTarget(4, (0, 0, -1), 2),
        TwistSpec(standard_basis(2), 1),
        (None, G11, G83),
    ),
    "per-root r2": (FlagTarget(4, (0, 1, -1), 2), TwistSpec(((2, 0), (0, 1)), 1), (G11, G32, G83)),
    "general r2": (
        FlagTarget(5, (0, -1, 1), 2),
        TwistSpec(((1, 0), (1, -1)), -1),
        (G11, G32, G83),
    ),
    "unbalanced r2": (
        FlagTarget(4, (0, 0, -1), 2),
        TwistSpec(((1, 0), (1, 0)), 1),
        (G11, G32, G83),
    ),
    "standard r3": (FlagTarget(6, (0, 0, 0, 2), 3), TwistSpec(standard_basis(3), 1), (None, G83)),
    "per-root r3": (
        FlagTarget(5, (0, 0, 1, -1), 3),
        TwistSpec(((1, 0, 0), (0, 2, 0), (0, 0, 1)), 1),
        (G32, G83),
    ),
    "general r3": (
        FlagTarget(5, (0, 0, 1, -1), 3),
        TwistSpec(((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)), 1),
        (G32, G83),
    ),
}


def _outcome(fn):
    try:
        return fn()
    except (NotDivisibleError, TwistRangeError) as exc:
        return type(exc)


@pytest.mark.parametrize("name", H_ZERO_MODELS)
def test_unit_at_h_zero_fails_exactly_where_the_full_ring_quotient_fails(
    name, full_reference_summand
):
    # the engine evaluates every summand at h = 0; the reference sums the
    # full-ring summands and divides by Delta one linear factor at a time
    target, twist, gradings = H_ZERO_MODELS[name]
    ctx = SummandContext(target, twist)
    seen = set()
    for divisor in gradings:
        for skip in (False, True):
            for x_deg in range(7):

                def engine():
                    num = degree_numerator(
                        target, twist, x_deg, divisor=divisor, skip_nonconvex=skip
                    )
                    return unit_from_numerator(num, target)

                def reference():
                    total = GradedPoly(target.nvars, target.omega_degree)
                    for cls in class_enumeration(target, twist, x_deg, divisor):
                        for d in class_points(cls, ctx, skip):
                            total = total + full_reference_summand(d, cls, ctx)
                    return vandermonde_divide(total, all_weyl_pairs(target)).constant_term()

                got = _outcome(engine)
                assert got == _outcome(reference), (divisor, skip, x_deg)
                seen.add(got if isinstance(got, type) else Fraction)
    assert Fraction in seen and (name.startswith("standard") or NotDivisibleError in seen)


def test_blowup_shape_is_one_test_for_both_paths():
    target, twist = normalize_blowup(BlowUpSpec(6, (1, 1, 1, 2)))
    assert fano_degrees(target, twist) == (1, 1, 1, 2)
    assert sums_by_orbits(target, twist, False)
    assert fano_degrees(*normalize_blowup(BlowUpSpec(3, (1, 2)))) == (1, 2)  # r = 1
    assert sums_by_orbits(*normalize_blowup(BlowUpSpec(3, (1, 2))), False)
    # other shapes are neither refused nor summed by orbits
    assert fano_degrees(*example3_verbatim_model()) is None  # not the -K grading
    assert fano_degrees(target, twist, DivisorData(1, 4)) is None
    assert fano_degrees(FlagTarget(6, (1, 1, 1, 0, 0), 3), twist) is None
    non_fano = normalize_blowup(BlowUpSpec(6, (1, 1, 1, 3)), 1)
    assert fano_degrees(*non_fano[:1], TwistSpec(((1, 0, 0), (0, 1, 0), (1, 0, 1)), 1)) is None
    # the pinned model is not blow-up-shaped, so it keeps its period
    pinned, pinned_twist, pinned_divisor = example3_verbatim_model()
    ps = period_series(pinned, pinned_twist, 8, divisor=pinned_divisor, skip_nonconvex=True)
    assert ps.regularised == VERBATIM_REGULARISED[:9]


def test_wrong_weyl_sign_is_caught_by_the_oracle_check(monkeypatch):
    # root shifts -d_a z, so Weyl factors x_a - x_b - (d_a - d_b) z: every
    # aggregate is still a multiple of Delta, so the per-point path returns
    # a wrong unit silently
    model = normalize_blowup(BlowUpSpec(8, (1, 1, 1, 1, 2)))
    original = SummandContext.shift
    monkeypatch.setattr(SummandContext, "shift", lambda self, d: original(self, -d))
    assert unit_coefficient(*model, 4) != oracle_blowup_raw(8, (1, 1, 1, 1, 2), 4)[4]
    with pytest.raises(OracleMismatchError, match="degree 4"):
        period_series(*model, 10)


def test_wrong_twist_limit_is_caught_by_the_oracle_check(monkeypatch):
    # root factors built with the twist rows one step too long: the orbit
    # path builds its root tables from the context's shared cache, so the
    # staircase determinants carry the error and the oracle check sees it
    model = normalize_blowup(BlowUpSpec(8, (1, 1, 1, 1, 2)))
    original = SummandContext.twist_series
    monkeypatch.setattr(
        SummandContext, "twist_series", lambda self, upper: original(self, upper + 1)
    )
    assert unit_coefficient(*model, 4) != oracle_blowup_raw(8, (1, 1, 1, 1, 2), 4)[4]
    with pytest.raises(OracleMismatchError, match="degree 4"):
        period_series(*model, 10)


def test_r1_units_are_checked_against_the_oracle(monkeypatch):
    # at r = 1 Delta = 1, so the c * Delta check is empty; the units must be
    # e^x times the Euler-sequence sum, and a base constant with N copies of
    # the slot ratio in place of N + 1 breaks that from D = 1 (degree 3) on
    # where z != 1, while every degree-one class, at D = 0, keeps its value
    model = normalize_blowup(BlowUpSpec(3, (1, 2)))
    raw = period_series(*model, 12, z=Fraction(-1, 2)).raw
    expected = oracle_blowup_raw(3, (1, 2), 12)
    for d, u in enumerate(raw):
        e = sum(expected[d - t] / math.factorial(t) for t in range(d + 1))
        assert u * Fraction(-1, 2) ** (d - 1) == e

    def short_base_constant(self, D):
        nums, den = self.slot_series(D)
        return nums[0] ** self.target.base_dim, den**self.target.base_dim

    monkeypatch.setattr(SummandContext, "base_constant", short_base_constant)
    with pytest.raises(OracleMismatchError, match="degree 3:"):
        period_series(*model, 12, z=2)


NON_FANO_R1 = [
    (base_dim, degrees)
    for base_dim in range(2, 9)
    for degrees in itertools.combinations_with_replacement(range(1, 6), 2)
    if min(degrees) < base_dim + 1 <= max(degrees)
]


def test_non_fano_r1_units_are_e_to_the_x_times_the_euler_sequence_sum():
    # N + 1 <= max c: no period and no run-time check, but the Euler-sequence
    # sum is finite in each degree where N + 1 > min c, and the units are e^x
    # times it, as on a Fano blow-up
    assert len(NON_FANO_R1) == 16
    for base_dim, degrees in NON_FANO_R1:
        model = normalize_blowup(BlowUpSpec(base_dim, degrees))
        expected = oracle_blowup_raw(base_dim, degrees, 10)
        for z in (1, Fraction(-3, 2)):
            raw, _ = unit_series(*model, 10, z)
            assert any(raw[2:]), (base_dim, degrees)
            for d, u in enumerate(raw):
                e = sum(expected[d - t] / math.factorial(t) for t in range(d + 1))
                assert u * z ** (d - 1) == e, (base_dim, degrees, z, d)


def test_r1_oracle_mismatch_names_the_e_to_the_x_product(monkeypatch):
    # at r = 1 the expected units are e^x times the Euler-sequence sum, and
    # the message says so; at r >= 2 they are the sum itself.  Doubled
    # scalars: the r = 1 rows' (constants) and the r >= 2 points' (_lcm_sum)
    constants = SummandContext.constants
    monkeypatch.setattr(
        SummandContext,
        "constants",
        lambda self, D, ks: [(2 * n, d) for n, d in constants(self, D, ks)],
    )
    with pytest.raises(
        OracleMismatchError,
        match=re.escape(
            "degree 0: the engine gives 2, e^x times the Euler-sequence sum for "
            "P^3 blown up in degrees (1, 2) gives 1"
        ),
    ):
        period_series(*normalize_blowup(BlowUpSpec(3, (1, 2))), 4)
    lcm_sum = assembler._lcm_sum
    monkeypatch.setattr(assembler, "_lcm_sum", lambda parts: 2 * lcm_sum(parts))
    with pytest.raises(
        OracleMismatchError,
        match=re.escape(
            "degree 0: the engine gives 2, the Euler-sequence sum for "
            "P^4 blown up in degrees (1, 1, 2) gives 1"
        ),
    ):
        period_series(*normalize_blowup(BlowUpSpec(4, (1, 1, 2))), 4)


PERTURBED_BLOWUPS = [(3, (1, 2)), (2, (2, 2)), (8, (1, 1, 1, 1, 2)), (4, (1, 1, 2)), (3, (3, 3))]


@pytest.mark.parametrize("base_dim, degrees", PERTURBED_BLOWUPS)
def test_period_check_fails_where_the_units_differ(base_dim, degrees):
    # the check compares periods from degree 2 on; a unit moved at degree d
    # must still be named at d, with the units the engine and e^x S (r = 1)
    # or S give there, whether S_1 is zero or not (dP5, P^3 in (3,3))
    model = normalize_blowup(BlowUpSpec(base_dim, degrees))
    S = oracle_blowup_raw(base_dim, degrees, 12)
    r1 = len(degrees) == 2
    source = ("e^x times " if r1 else "") + "the Euler-sequence sum"
    for z in (Fraction(1), Fraction(2), Fraction(-3, 2)):
        raw, _ = unit_series(*model, 12, z)
        for d, delta in itertools.product(range(13), (Fraction(1), Fraction(-1, 7))):
            moved = list(raw)
            moved[d] += delta
            regularised = corrected_series(moved, moved[1] / z)
            with pytest.raises(OracleMismatchError) as caught:
                assembler._check_against_oracle(moved, regularised, base_dim, degrees, z)
            ts = range(d + 1) if r1 else [0]
            want = sum(S[d - t] / math.factorial(t) for t in ts)
            assert str(caught.value) == (
                f"degree {d}: the engine gives {moved[d] * z ** (d - 1)}, {source} "
                f"for P^{base_dim} blown up in degrees {degrees} gives {want}"
            ), (z, d, delta)


def test_faulty_correction_is_caught_by_the_period_check(monkeypatch):
    # e^(-2 C x) in place of e^(-C x) leaves every unit right, so only a check
    # of the period itself sees it; the message names the periods
    model = normalize_blowup(BlowUpSpec(3, (1, 2)))
    raw, _ = unit_series(*model, 8)
    engine = corrected_series(raw, 2 * raw[1])[2]
    original = corrected_series
    monkeypatch.setattr(assembler, "corrected_series", lambda raw, C: original(raw, 2 * C))
    with pytest.raises(OracleMismatchError) as caught:
        period_series(*model, 8)
    assert str(caught.value) == (
        f"degree 2: the units agree, but the engine's regularised period gives {engine}, "
        "that of e^x times the Euler-sequence sum for P^3 blown up in degrees (1, 2) gives "
        f"{oracle_blowup(3, (1, 2), 8)[2]}"
    )
    with pytest.raises(OracleMismatchError, match="the units agree, but the engine's regularised period"):
        period_series(*normalize_blowup(BlowUpSpec(4, (4, 4))), 8)


def test_fano_blowup_builds_one_triangle_unless_s1_is_nonzero(monkeypatch):
    # the output's triangle is also the check's; the sum's own period needs
    # a second only when S_1 != 0 (P^4 in (4,4): S_1 = 24)
    calls = []
    original = assembler._pascal

    def counted(raw, C):
        calls.append(C)
        return original(raw, C)

    monkeypatch.setattr(assembler, "_pascal", counted)
    period_series(*normalize_blowup(BlowUpSpec(3, (1, 2))), 60)
    assert len(calls) == 1
    calls.clear()
    period_series(*normalize_blowup(BlowUpSpec(4, (4, 4))), 12)
    assert calls == [25, 24]


def test_z_dependent_degree_one_unit_raises_correction_error(monkeypatch):
    # twist rows one step too long: a degree-one class's orbit unit then
    # depends on z, which correction_C compares at z = 1 and z = 2
    original = SummandContext.twist_series
    monkeypatch.setattr(
        SummandContext, "twist_series", lambda self, upper: original(self, upper + 1)
    )
    with pytest.raises(CorrectionError, match="degree-one coefficient .* depends on z"):
        period_series(*normalize_blowup(BlowUpSpec(3, (1, 2))), 6)


def test_correction_is_tied_to_the_checked_unit(monkeypatch):
    # doubling every n_beta doubles C = 25 on P^4 in (4,4) while the
    # orbit-summed u_1, which the oracle checks, stays 25
    model = normalize_blowup(BlowUpSpec(4, (4, 4)))
    raw, correction = unit_series(*model, 2)
    assert correction.total == raw[1] == 25
    original = correction_C

    def doubled(*args, **kwargs):
        entries = original(*args, **kwargs).entries
        return Correction(tuple((cls, 2 * n) for cls, n in entries))

    monkeypatch.setattr("grperiod.assembler.correction_C", doubled)
    with pytest.raises(CorrectionError, match="degree one: .* sum to 50, the unit u_1 is 25"):
        period_series(*model, 6)


def test_fano_blowups_never_build_the_weyl_denominator(monkeypatch):
    # every unit of a standard-row model summed by orbits, its degree-one
    # counts included, is an orbit scalar: Fano blow-ups, non-Fano ones and
    # the pinned model multiply nothing out in the packed ring of the roots
    calls = []
    for name in ("product", "weyl_unit"):
        original = getattr(PackedRing, name)

        def counted(self, *args, _original=original, _name=name):
            calls.append(_name)
            return _original(self, *args)

        monkeypatch.setattr(PackedRing, name, counted)
    for base_dim, degrees in ((4, (4, 4)), (4, (1, 1, 2)), (8, (1, 1, 1, 1, 2))):
        period_series(*normalize_blowup(BlowUpSpec(base_dim, degrees)), 10)
        assert calls == [], (base_dim, degrees)
    for base_dim, degrees in ((3, (3, 4)), (4, (2, 2, 3))):
        unit_series(*normalize_blowup(BlowUpSpec(base_dim, degrees)), 8)
        assert calls == [], (base_dim, degrees)
    target, twist, divisor = example3_verbatim_model()
    period_series(target, twist, 20, divisor=divisor, skip_nonconvex=True)
    assert calls == []
    unit_series(*RANK4_GENERAL_ROW_MODEL, 10, skip_nonconvex=True)
    assert "product" in calls and "weyl_unit" in calls  # the packed path is counted


def test_no_weyl_denominator_outlives_its_call(monkeypatch):
    # each period_series call reads its units on its own context's kernel, so
    # Delta is built once per call and never taken from an earlier one
    built = []
    original = PackedRing._weyl_denominator

    def counted(self, *args):
        built.append((self.nvars, self.cap))
        return original(self, *args)

    monkeypatch.setattr(PackedRing, "_weyl_denominator", counted)
    for _ in range(2):
        period_series(*RANK4_GENERAL_ROW_MODEL, 9, skip_nonconvex=True)
    assert built == [(5, 6), (5, 6)]


def test_period_series_enumerates_each_degree_once(p4_112, monkeypatch):
    target, twist = p4_112
    walks, walked, degrees = [], [], []

    def walk(*args, **kwargs):
        walks.append(args)
        for D, ks, x_degs in class_rows(*args, **kwargs):
            walked.extend((x_deg, CurveClass(D, k)) for x_deg, k in zip(x_degs, ks))
            yield D, ks, x_degs

    def counted(target, twist, x_deg, divisor=None):
        degrees.append(x_deg)
        return class_enumeration(target, twist, x_deg, divisor)

    monkeypatch.setattr("grperiod.assembler.class_rows", walk)
    monkeypatch.setattr("grperiod.assembler.class_enumeration", counted)
    period_series(target, twist, 8)
    # one class_rows walk lists each class of degrees 0..8 once, for the
    # budget estimate and the sum, and correction_C enumerates degree 1
    expected = [
        (x_deg, cls)
        for x_deg in range(9)
        for cls in _classes(target, twist, x_deg, orbit=True)
    ]
    assert len(walks) == 1
    assert len(walked) == len(set(walked)) == len(expected)
    assert sorted(walked, key=lambda item: item[0]) == expected
    assert degrees == [1]


def test_numerator_is_weyl_alternating(p4_112):
    target, twist = p4_112
    num = PackedRing(3, 1).to_graded(degree_numerator(target, twist, 3))
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
            (CurveClass(D=0, k=1), Fraction(1)),
            (CurveClass(D=1, k=0), Fraction(2)),
        )
    )
    assert corr.total == 3


def _fraction_correction(raw, C):
    """e^(-C x) * sum u_d x^d term by term in Fractions, and d! times it."""
    exp_terms = [Fraction(1)]
    for t in range(1, len(raw)):
        exp_terms.append(exp_terms[-1] * -C / t)
    coeffs = [
        sum((exp_terms[t] * raw[d - t] for t in range(d + 1)), Fraction(0))
        for d in range(len(raw))
    ]
    return tuple(coeffs), tuple(math.factorial(d) * c for d, c in enumerate(coeffs))


def _corrected(raw, C):
    """corrected_series' regularised period and the coefficients PeriodSeries derives from it."""
    ps = PeriodSeries(tuple(raw), corrected_series(raw, C), Correction(()))
    return ps.coefficients, ps.regularised


rationals = st.fractions(max_denominator=10**6).filter(lambda f: abs(f) < 10**9)


@settings(max_examples=200)
@given(
    st.lists(rationals, min_size=1, max_size=14),
    st.one_of(st.just(Fraction(0)), st.integers(-5, -1).map(Fraction), rationals),
)
def test_corrected_series_matches_fraction_convolution(raw, C):
    assert _corrected(raw, C) == _fraction_correction(raw, C)


@pytest.mark.parametrize("C", [Fraction(1), Fraction(-1), Fraction(3, 7), Fraction(0)])
def test_corrected_series_matches_fraction_convolution_at_depth(C):
    # deep-r1's own units through x^60, far past the property test's 14 terms
    raw, _ = unit_series(*normalize_blowup(BlowUpSpec(3, (1, 2))), 60)
    assert _corrected(raw, C) == _fraction_correction(raw, C)


@pytest.mark.parametrize("C", [Fraction(-1), Fraction(3)])
def test_pascal_rows_match_fraction_convolution_at_depth(C):
    # the integer rows that corrected_series and the r = 1 oracle check
    # share: d! G_d through x^60 for the e^x product (C = -1) and dP5's C = 3
    raw, _ = unit_series(*normalize_blowup(BlowUpSpec(3, (1, 2))), 60)
    rows = _pascal(raw, C)
    assert len(rows) == 61
    assert tuple(Fraction(num, den) for num, den in rows) == _fraction_correction(raw, C)[1]
