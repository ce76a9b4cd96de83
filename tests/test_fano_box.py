"""Twist levels on a box of Fano blow-ups, against the Euler-sequence oracle.

The box holds every blow-up of P^N, N <= 8, in degrees c_0 <= ... <= c_r
from {1, 2, 3} with 1 <= r <= 3, r + 1 <= N and N + 1 > r * max(c): 95
specs.  Every twist level k presents the same blow-up, so each k must give
the oracle's series or raise GradingError; none may give a wrong series.
At the default k every unit coefficient must also be z-homogeneous, and
the per-point units must equal the oracle's, and the per-point degree-one
counts the orbit-summed ones: period_series checks its own orbit sums
against the oracle, so this keeps the per-point path compared.
"""

import math
import re
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from grperiod import assembler, summands, targets
from grperiod.assembler import (
    CorrectionError,
    _listed,
    class_numerator,
    class_points,
    correction_C,
    period_series,
    unit_coefficient,
    unit_from_numerator,
    z_scaling_failures,
)
from grperiod.summands import SummandContext
from grperiod.targets import (
    BlowUpSpec,
    CurveClass,
    DivisorData,
    GradingError,
    _fiber_rate,
    anticanonical,
    class_enumeration,
    class_rows,
    example3_verbatim_model,
    lattice_range,
    normalize_blowup,
)
from grperiod.validation import oracle_blowup, oracle_blowup_raw

DMAX = 10
FANO_BOX = [
    (N, c)
    for N in range(2, 9)
    for r in range(1, 4)
    for c in combinations_with_replacement((1, 2, 3), r + 1)
    if r + 1 <= N and N + 1 > r * max(c)
]


def _period(base_dim, degrees, twist_k=None):
    return period_series(*normalize_blowup(BlowUpSpec(base_dim, degrees), twist_k), DMAX).regularised


def test_every_twist_level_equals_the_oracle_or_raises():
    assert len(FANO_BOX) == 95
    for base_dim, degrees in FANO_BOX:
        expected = oracle_blowup(base_dim, degrees, DMAX)
        for k in range(-1, max(degrees) + 3):
            try:
                got = _period(base_dim, degrees, k)
            except GradingError:
                continue
            assert got == expected, (base_dim, degrees, k)


def test_default_twist_level_in_either_centre_order_equals_the_oracle():
    for base_dim, degrees in FANO_BOX:
        expected = oracle_blowup(base_dim, degrees, DMAX)
        assert _period(base_dim, degrees) == expected, (base_dim, degrees)
        assert _period(base_dim, degrees[::-1]) == expected, (base_dim, degrees)


def test_default_twist_level_is_z_homogeneous():
    # at z = 1/2 and -3/2 the Weyl shifts d z have denominators, which at z = 2 they do not
    for base_dim, degrees in FANO_BOX:
        model = normalize_blowup(BlowUpSpec(base_dim, degrees))
        assert z_scaling_failures(*model, range(9), 2) == [], (base_dim, degrees)
        at_one = period_series(*model, 8).regularised
        for z in (Fraction(2), Fraction(1, 2), Fraction(-3, 2)):
            scaled = tuple(v * z ** (1 - d) for d, v in enumerate(at_one))
            assert period_series(*model, 8, z=z).regularised == scaled, (base_dim, degrees, z)


def test_default_twist_level_per_point_units_equal_the_oracle():
    # At r = 1 the units carry one more degree-one class than the sum, a
    # factor e^x that the correction removes: u_d = sum_t raw_(d-t) / t!.
    for base_dim, degrees in FANO_BOX:
        model = normalize_blowup(BlowUpSpec(base_dim, degrees))
        units = tuple(unit_coefficient(*model, d) for d in range(DMAX + 1))
        raw = oracle_blowup_raw(base_dim, degrees, DMAX)
        if len(degrees) == 2:
            raw = tuple(
                sum(Fraction(raw[d - t], math.factorial(t)) for t in range(d + 1))
                for d in range(DMAX + 1)
            )
        assert units == raw, (base_dim, degrees)


def test_default_twist_level_orbit_counts_equal_the_packed_counts():
    # correction_C reads each degree-one class by S_r orbits here; the
    # per-class packed sum, with its c * Delta check, is the reference
    for base_dim, degrees in FANO_BOX:
        target, twist = normalize_blowup(BlowUpSpec(base_dim, degrees))
        ctx = SummandContext(target, twist)
        expected = tuple(
            (cls, unit_from_numerator(class_numerator(cls, ctx), target))
            for cls in class_enumeration(target, twist, 1)
        )
        assert correction_C(target, twist).entries == expected, (base_dim, degrees)


def _run_contexts(monkeypatch, *args, **kwargs):
    """The SummandContexts one period_series(*args, **kwargs) call makes, in order."""
    made = []

    class Recorded(SummandContext):
        def __init__(self, *a, **k):
            super().__init__(*a, **k)
            made.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(assembler, "SummandContext", Recorded)
        period_series(*args, **kwargs)
    return made


def _series_product(parts, length):
    """The product of (nums, den) series as Fractions, truncated to length."""
    out = [Fraction(1)] + [Fraction(0)] * (length - 1)
    for nums, den in parts:
        out = [sum(out[i] * Fraction(nums[k - i], den) for i in range(k + 1)) for k in range(length)]
    return out


def test_root_poly_equals_the_product_of_its_slot_and_twist_series(monkeypatch):
    # each distinct e_j's slots enter root_poly as one cached power, so the
    # e_j = 0 powers are shared by every D; every factor a run reads must
    # still be one slot_series per e_j times its twist series, here on the
    # Fano box, the pinned configuration, P^9 in (1,1,3,3), e = (1,1,-1,-1),
    # and P^10 in (1,1,2,2,2), e = (1,1,0,0,0), whose powers of two slots
    # and of three meet at D = 0
    pinned, pinned_twist, pinned_divisor = example3_verbatim_model()
    runs = [((*normalize_blowup(BlowUpSpec(N, c)), 8), {}) for N, c in FANO_BOX]
    runs.append(((pinned, pinned_twist, 20), {"divisor": pinned_divisor, "skip_nonconvex": True}))
    p9 = normalize_blowup(BlowUpSpec(9, (1, 1, 3, 3)))
    assert p9[0].e_degrees == (1, 1, -1, -1)
    p10 = normalize_blowup(BlowUpSpec(10, (1, 1, 2, 2, 2)))
    assert p10[0].e_degrees == (1, 1, 0, 0, 0)
    runs += [((*p9, 24), {}), ((*p10, 24), {})]
    checked = 0
    for z in (Fraction(1), Fraction(1, 2), Fraction(-3, 2)):
        for args, kwargs in runs:
            target, twist = args[:2]
            for ctx in _run_contexts(monkeypatch, *args, z=z, **kwargs):
                fresh = SummandContext(target, twist, ctx.z, orbit=ctx.orbit)
                for (rows, da, D), (nums, den) in ctx._roots.items():
                    parts = [fresh.slot_series(da + e * D) for e in target.e_degrees]
                    for f in rows:
                        tw, q = fresh.twist_series(f * da + twist.rho * D)
                        parts.append(([c * f**k for k, c in enumerate(tw)], q))
                    got = [Fraction(n, den) for n in nums]
                    assert got == _series_product(parts, ctx.length), (target, z, da, D)
                    checked += 1
                # a power is cached by (multiplicity, upper): the e_j = 0 slots
                # of every D share the one power at d_a
                counts = {e: target.e_degrees.count(e) for e in target.e_degrees}
                uppers = {(counts[e], da + e * D) for _, da, D in ctx._roots for e in counts}
                assert set(ctx._powers) == uppers, (target, z)
    assert checked > 0


def test_period_series_reads_the_correction_on_its_own_context(monkeypatch):
    # period_series reads the degree-one counts on its own context at z and
    # one more at 2 z; they must be correction_C's, made apart at z = 1 and 2
    for base_dim, degrees in FANO_BOX:
        model = normalize_blowup(BlowUpSpec(base_dim, degrees))
        expected = correction_C(*model)
        for z in (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-3, 2)):
            assert period_series(*model, 2, z=z).correction == expected, (base_dim, degrees, z)
    # a degree-one unit made to depend on z still raises CorrectionError
    model = normalize_blowup(BlowUpSpec(3, (1, 2)))
    ((cls, n),) = correction_C(*model).entries
    assert n == 1
    original = assembler.oh_summand

    def skewed(d, point_cls, ctx):
        num, den = original(d, point_cls, ctx)
        return (num * ctx.p, den * ctx.q) if point_cls == cls else (num, den)

    with monkeypatch.context() as patch:
        patch.setattr(assembler, "oh_summand", skewed)
        with pytest.raises(CorrectionError, match="degree-one coefficient .* depends on z"):
            period_series(*model, 4)
    # one pinned-sparse call splits the twist rows, picks its path and reads
    # its Fano degrees once each, and, with no degree-one class, builds no
    # context beside its own
    calls = []

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for module, name in (
        (summands, "split_twist_rows"),
        (targets, "split_twist_rows"),
        (assembler, "sums_by_orbits"),
        (assembler, "fano_degrees"),
    ):
        counted(module, name)
    pinned, pinned_twist, pinned_divisor = example3_verbatim_model()
    made = _run_contexts(monkeypatch, pinned, pinned_twist, 20, divisor=pinned_divisor, skip_nonconvex=True)
    assert sorted(calls) == ["fano_degrees", "split_twist_rows", "sums_by_orbits"]
    assert len(made) == 1


def test_orbit_floor_drops_only_points_whose_staircase_is_zero():
    # lattice_range(..., orbit=True) keeps a point only when its root i
    # forces at most r - 1 - i slots; every point that this drops, and the
    # cap alone keeps, must read 0 off the staircase
    dropped = 0
    for base_dim, degrees in FANO_BOX:
        target, twist = normalize_blowup(BlowUpSpec(base_dim, degrees))
        ctx = SummandContext(target, twist, orbit=True)
        r = target.rank
        for x_deg in range(13):
            for cls in class_enumeration(target, twist, x_deg):
                for d in lattice_range(target, cls, ctx.cap):
                    forced = [sum(di + e * cls.D < 0 for e in target.e_degrees) for di in d]
                    if all(f <= r - 1 - i for i, f in enumerate(forced)):
                        continue
                    assert ctx.staircase(d, cls.D)[0] == 0, (base_dim, degrees, cls, d)
                    dropped += 1
    assert dropped == 499


def _orbit_class_floor(target, cls):
    """D times the sum of the r largest -e_j: below it, the orbit path lists no class."""
    return cls.D * sum(sorted(-e for e in target.e_degrees)[-target.rank :])


def test_orbit_class_skip_drops_no_point():
    # class_enumeration(orbit=True) leaves out every class below the sum of
    # lattice_range's per-root orbit floors, and so do the rows _listed
    # reads, so it never asks for their points; each of them has no point
    skipped = 0
    for base_dim, degrees in FANO_BOX:
        target, twist = normalize_blowup(BlowUpSpec(base_dim, degrees))
        ctx = SummandContext(target, twist, orbit=True)
        unskipped = []
        for x_deg in range(13):
            pairs, above = [], []
            for cls in class_enumeration(target, twist, x_deg):
                points = class_points(cls, ctx)
                if cls.k < _orbit_class_floor(target, cls):
                    assert points == [], (base_dim, degrees, cls)
                    skipped += 1
                else:
                    above.append(cls)
                pairs.extend((d, cls) for d in points)
            unskipped.append(pairs)
            assert class_enumeration(target, twist, x_deg, orbit=True) == above, (base_dim, degrees)
        counts, listed = _listed(ctx, class_rows(target, twist, 12, None, True), 12, False)
        assert counts == list(map(len, unskipped)), (base_dim, degrees)
        # at r = 1 each class is its one point, summed by rows: no pairs are listed
        assert listed == (None if target.rank == 1 else unskipped), (base_dim, degrees)
    assert skipped > 0


def test_orbit_class_skip_calls_class_points_only_above_the_floor(monkeypatch):
    # P^3 in (1,2) through x^60, deep-r1's model: 961 classes, 651 listed
    target, twist = normalize_blowup(BlowUpSpec(3, (1, 2)))
    classes = [cls for x_deg in range(61) for cls in class_enumeration(target, twist, x_deg)]
    assert len(classes) == 961
    assert sum(cls.k >= _orbit_class_floor(target, cls) for cls in classes) == 651
    calls = []

    def counted(cls, ctx, skip_nonconvex=False):
        calls.append(cls)
        return class_points(cls, ctx, skip_nonconvex)

    monkeypatch.setattr(assembler, "class_points", counted)
    rows = class_rows(target, twist, 60, None, True)
    counts, _ = _listed(SummandContext(target, twist, orbit=True), rows, 60, False)
    # at r = 1 each listed class is its one point, counted with no class_points call
    assert sum(counts) == 651 and calls == []
    period_series(target, twist, 60)
    # the units are summed by rows of classes, whose budget count is 651
    # (test_assembler); correction_C reads its one degree-one class at z = 1 and 2
    assert len(calls) == 2
    # at r = 2, P^4 in (1,1,2) through x^30: 91 of 256 classes, each asked once
    target, twist = normalize_blowup(BlowUpSpec(4, (1, 1, 2)))
    classes = [cls for x_deg in range(31) for cls in class_enumeration(target, twist, x_deg)]
    above = [cls for cls in classes if cls.k >= _orbit_class_floor(target, cls)]
    assert (len(classes), len(above)) == (256, 91)
    calls.clear()
    rows = class_rows(target, twist, 30, None, True)
    _listed(SummandContext(target, twist, orbit=True), rows, 30, False)
    assert sorted(calls, key=lambda c: (c.D, c.k)) == sorted(above, key=lambda c: (c.D, c.k))


def test_p4_122_at_twist_level_3_raises():
    # every e_j = 3 - c_j > 0 there, and that level used to give all zeros
    with pytest.raises(GradingError, match="every e_j > 0"):
        _period(4, (1, 2, 2), 3)


def _enumeration_reference(target, divisor, x_deg, orbit):
    """The classes of one degree by increasing D, read degree by degree.

    D runs up to x_deg // slope, slope = a + b * _fiber_rate, and k is at
    least D times r lattice floors, or the r largest -e_j with orbit.
    """
    a, b = divisor.a, divisor.b
    slope = a + b * _fiber_rate(target, divisor)
    floors = sorted(-e for e in target.e_degrees)
    k_rate = sum(floors[-target.rank :]) if orbit else target.rank * floors[0]
    out = []
    for D in range(x_deg // slope + 1):
        k, rest = divmod(x_deg - a * D, b)
        if not rest and k >= k_rate * D:
            out.append(CurveClass(D=D, k=k))
    return out


def _walk_models():
    """The Fano box at its default twist level and the pinned model, each under
    its own grading, 4h + det and 2h + r det."""
    models = [normalize_blowup(BlowUpSpec(base_dim, degrees)) for base_dim, degrees in FANO_BOX]
    pinned, pinned_twist, pinned_divisor = example3_verbatim_model()
    models.append((pinned, pinned_twist))
    for target, twist in models:
        own = pinned_divisor if target == pinned else anticanonical(target, twist)[1]
        for divisor in (own, DivisorData(4, 1), DivisorData(2, target.rank)):
            yield target, twist, divisor


def test_class_walk_lists_each_degree_as_class_enumeration_does():
    # one class_rows walk over degrees 0..12, base degree D first, must give
    # each degree's classes in class_enumeration's order, and a grading that
    # _fiber_rate refuses must raise its GradingError from both
    walked = refused = 0
    for target, twist, divisor in _walk_models():
        try:
            _fiber_rate(target, divisor)
        except GradingError as exc:
            message = re.escape(str(exc))
            for orbit in (False, True):
                with pytest.raises(GradingError, match=message):
                    list(class_rows(target, twist, 12, divisor, orbit))
                with pytest.raises(GradingError, match=message):
                    class_enumeration(target, twist, 3, divisor, orbit)
            refused += 1
            continue
        for orbit in (False, True):
            per_degree = [[] for _ in range(13)]
            base_degrees = []
            for D, ks, degrees in class_rows(target, twist, 12, divisor, orbit):
                for x_deg, k in zip(degrees, ks):
                    cls = CurveClass(D, k)
                    assert divisor.pairing(cls) == x_deg
                    per_degree[x_deg].append(cls)
                    base_degrees.append(cls.D)
            assert base_degrees == sorted(base_degrees)
            for x_deg, classes in enumerate(per_degree):
                key = (target, divisor, x_deg, orbit)
                assert classes == class_enumeration(target, twist, x_deg, divisor, orbit), key
                assert classes == _enumeration_reference(target, divisor, x_deg, orbit), key
            walked += sum(map(len, per_degree))
    assert walked > 0 and refused > 0


def test_every_row_holds_a_class():
    # class_rows ends D where rate * D passes dmax, so through x^12 no row it
    # yields is empty, and each row's classes are the reference's at their
    # degrees
    rows = 0
    for target, twist, divisor in _walk_models():
        try:
            _fiber_rate(target, divisor)
        except GradingError:
            continue
        for orbit in (False, True):
            for D, ks, degrees in class_rows(target, twist, 12, divisor, orbit):
                key = (target, divisor, orbit, D)
                assert ks, key
                for x_deg, k in zip(degrees, ks):
                    reference = _enumeration_reference(target, divisor, x_deg, orbit)
                    assert CurveClass(D, k) in reference, key
                rows += 1
    assert rows > 0
    # the rows unit_series walks on the benchmark's workloads, and on P^24
    # blown up in (1^12, 2) through x^70, whose classes all have D <= 5
    pinned, pinned_twist, pinned_divisor = example3_verbatim_model()
    walks = {
        "highrank": (*normalize_blowup(BlowUpSpec(8, (1, 1, 1, 1, 2))), 11, None, False),
        "pinned-sparse": (pinned, pinned_twist, 20, pinned_divisor, True),
        "deep-r1": (*normalize_blowup(BlowUpSpec(3, (1, 2))), 60, None, False),
        "P^24": (*normalize_blowup(BlowUpSpec(24, (1,) * 12 + (2,))), 70, None, False),
    }
    counts = {
        name: len(list(class_rows(target, twist, dmax, divisor, True, twist_floor=floor)))
        for name, (target, twist, dmax, divisor, floor) in walks.items()
    }
    assert counts == {"highrank": 3, "pinned-sparse": 3, "deep-r1": 21, "P^24": 6}
