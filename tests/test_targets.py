import itertools

import pytest
from hypothesis import given, strategies as st

from grperiod.assembler import _forced_nilpotent_degree, class_numerator, class_points
from grperiod.summands import SummandContext, oh_summand, twist_uppers
from grperiod.targets import (
    BlowUpSpec,
    CurveClass,
    DivisorData,
    FlagTarget,
    GradingError,
    TwistSpec,
    all_weyl_pairs,
    anticanonical,
    class_enumeration,
    class_rows,
    example3_normalized_model,
    example3_verbatim_model,
    lattice_range,
    normalize_blowup,
    slot_thresholds,
    standard_basis,
)


def test_normalize_p4_112(p4_112):
    target, twist = p4_112
    assert target == FlagTarget(base_dim=4, e_degrees=(0, 0, -1), rank=2)
    assert twist == TwistSpec(weight_vectors=((1, 0), (0, 1)), rho=1)


def test_normalize_p6_122_at_k2(p6_122):
    target, twist = p6_122
    assert target.e_degrees == (1, 0, 0)
    assert twist.rho == 2


def test_normalize_single_hypersurface_center(blpt_p2):
    target, twist = blpt_p2
    assert target.rank == 1
    assert target.e_degrees == (0, 0)
    assert target.omega_degree == 0


def test_normalize_default_twist_is_min_degree():
    target, twist = normalize_blowup(BlowUpSpec(6, (1, 2, 2)))
    assert twist.rho == 1
    assert target.e_degrees == (0, -1, -1)


def test_normalize_rejects_codim_overflow():
    with pytest.raises(ValueError, match="codimension"):
        normalize_blowup(BlowUpSpec(2, (1, 1, 1)))


def test_normalize_refuses_when_no_twist_level_bounds_the_classes():
    with pytest.raises(GradingError, match=r"no twist level in \[3, 3\]"):
        normalize_blowup(BlowUpSpec(2, (3, 3)))


def test_normalize_rejects_nonpositive_degrees():
    with pytest.raises(ValueError):
        normalize_blowup(BlowUpSpec(4, (1, 0)))
    with pytest.raises(ValueError):
        normalize_blowup(BlowUpSpec(4, ()))
    with pytest.raises(ValueError, match="at least two degrees"):
        normalize_blowup(BlowUpSpec(3, (2,)))


def test_flag_target_validation():
    with pytest.raises(ValueError):
        FlagTarget(base_dim=4, e_degrees=(0,), rank=2)
    with pytest.raises(ValueError):
        FlagTarget(base_dim=4, e_degrees=(0, 0), rank=0)


def test_flag_target_refuses_a_negative_base_dim():
    # the base constant used to be raised to a negative power (a TypeError),
    # or the degree-one correction failed, depending on the model
    for e_degrees, rank in (((0, 0, -1), 2), ((0, 1), 1)):
        with pytest.raises(ValueError, match="base_dim must be nonnegative"):
            FlagTarget(base_dim=-1, e_degrees=e_degrees, rank=rank)
    assert FlagTarget(base_dim=0, e_degrees=(0, 1), rank=1).base_dim == 0  # Gr over a point


def test_nvars_and_cap():
    target = FlagTarget(base_dim=6, e_degrees=(0, 0, 0, 2), rank=3)
    assert target.nvars == 4
    assert target.omega_degree == 3


def test_anticanonical_p4_112(p4_112):
    ambient, zero = anticanonical(*p4_112)
    assert ambient == DivisorData(a=3, b=3)
    assert zero == DivisorData(a=1, b=2)


def test_anticanonical_p6_122(p6_122):
    ambient, zero = anticanonical(*p6_122)
    assert ambient == DivisorData(a=9, b=3)
    assert zero == DivisorData(a=5, b=2)


def test_anticanonical_empty_twist_is_ambient(p4_112):
    target, _ = p4_112
    ambient, zero = anticanonical(target, TwistSpec(weight_vectors=(), rho=0))
    assert ambient == zero
    assert anticanonical(target, None) == (ambient, zero)  # no twist reads as no rows


def test_anticanonical_rejects_unbalanced_twist(p4_112):
    target, _ = p4_112
    lopsided = TwistSpec(weight_vectors=((1, 0), (1, 0)), rho=1)
    with pytest.raises(ValueError, match="balanced"):
        anticanonical(target, lopsided)


def test_divisor_pairing():
    div = DivisorData(a=1, b=2)
    assert div.pairing(CurveClass(D=1, k=1)) == 3


def test_class_enumeration_p4_112_degree3(p4_112):
    classes = class_enumeration(*p4_112, x_deg=3)
    assert classes == [CurveClass(D=1, k=1), CurveClass(D=3, k=0)]


def test_class_enumeration_p6_122_degree1(p6_122):
    classes = class_enumeration(*p6_122, x_deg=1)
    assert classes == [CurveClass(D=1, k=-2)]


def test_class_enumeration_respects_explicit_divisor(p4_112):
    target, twist = p4_112
    assert class_enumeration(target, twist, 3, DivisorData(a=2, b=2)) == []


def test_class_enumeration_rejects_bad_grading(p4_112):
    target, twist = p4_112
    with pytest.raises(GradingError):
        class_enumeration(target, twist, 2, DivisorData(a=1, b=0))
    with pytest.raises(GradingError):
        class_enumeration(target, twist, 2, DivisorData(a=0, b=-1))


def test_class_enumeration_verbatim_grading_terminates():
    target, twist, divisor = example3_verbatim_model()
    classes = class_enumeration(target, twist, 8, divisor)
    assert CurveClass(D=1, k=0) in classes
    assert all(divisor.pairing(cls) == 8 for cls in classes)


def test_lattice_floor_examples(p4_112, p6_122):
    assert slot_thresholds(p4_112[0], 2)[0] == 0
    assert slot_thresholds(p6_122[0], 1)[0] == -1
    verbatim, _, _ = example3_verbatim_model()
    assert slot_thresholds(verbatim, 1)[0] == -2


def test_lattice_range_negative_fiber_degree(p6_122):
    target, _ = p6_122
    points = list(lattice_range(target, CurveClass(D=1, k=-2)))
    assert points == [(-1, -1)]


def test_fano_index_classes(p4_112, p6_122, blpt_p2):
    assert class_enumeration(*p4_112, 1) == [CurveClass(D=1, k=0)]
    assert class_enumeration(*p6_122, 1) == [CurveClass(D=1, k=-2)]
    assert class_enumeration(*blpt_p2, 1) == [CurveClass(D=0, k=1)]


def test_block_structure_r3():
    target, _, _ = example3_verbatim_model()
    assert all_weyl_pairs(target) == [(1, 2), (1, 3), (2, 3)]


def test_normalized_model_matches_blowup_constructor():
    target, twist, divisor = example3_normalized_model()
    expected_target, expected_twist = normalize_blowup(
        BlowUpSpec(6, (1, 1, 1, 2)), twist_k=1
    )
    assert target == expected_target
    assert twist == expected_twist
    assert divisor == DivisorData(a=1, b=3)


@given(
    st.integers(min_value=-3, max_value=5),
    st.integers(min_value=0, max_value=3),
)
def test_lattice_points_sum_to_fiber_degree(k, D):
    target, _ = normalize_blowup(BlowUpSpec(6, (1, 2, 2)), twist_k=2)
    lo = min(-e * D for e in target.e_degrees)
    for point in lattice_range(target, CurveClass(D=D, k=k)):
        assert sum(point) == k
        assert all(di >= lo for di in point)


@given(st.integers(min_value=0, max_value=10))
def test_enumerated_classes_have_the_right_degree(x_deg):
    target, twist = normalize_blowup(BlowUpSpec(4, (1, 1, 2)))
    _, divisor = anticanonical(target, twist)
    for cls in class_enumeration(target, twist, x_deg):
        assert divisor.pairing(cls) == x_deg


def test_lattice_range_without_cap_is_every_point_above_the_floor():
    for e_degrees in itertools.product(range(-2, 3), repeat=3):
        for r in (1, 2, 3):
            target = FlagTarget(base_dim=4, e_degrees=e_degrees, rank=r)
            for D in range(3):
                lo = min(-e * D for e in target.e_degrees)
                for k in range(-4, 5):
                    box = itertools.product(range(lo, k - lo * (r - 1) + 1), repeat=r)
                    expected = [d for d in box if sum(d) == k]
                    assert list(lattice_range(target, CurveClass(D=D, k=k))) == expected


def test_pruned_lattice_range_equals_the_filtered_range():
    # 125 e-vectors x 3 ranks x 4 base degrees x 16 fiber degrees x 5 caps
    cases = 0
    for e_degrees in itertools.product(range(-2, 3), repeat=3):
        for r in (1, 2, 3):
            target = FlagTarget(base_dim=4, e_degrees=e_degrees, rank=r)
            for D in range(4):
                for k in range(-8, 8):
                    cls = CurveClass(D=D, k=k)
                    full = list(lattice_range(target, cls))
                    forced = [_forced_nilpotent_degree(target, d, D) for d in full]
                    # root i forces at most r - 1 - i slots
                    readable = [
                        all(
                            sum(di + e * D < 0 for e in e_degrees) <= r - 1 - i
                            for i, di in enumerate(d)
                        )
                        for d in full
                    ]
                    # so on the orbit path the Weyl cap never binds (lattice_range)
                    assert all(f <= target.omega_degree for f, ok in zip(forced, readable) if ok)
                    for cap in range(5):
                        expected = [d for d, f in zip(full, forced) if f <= cap]
                        assert list(lattice_range(target, cls, cap)) == expected, (
                            e_degrees, r, D, k, cap,
                        )
                        orbit = [d for d, f, ok in zip(full, forced, readable) if f <= cap and ok]
                        got = list(lattice_range(target, cls, cap, orbit=True))
                        assert got == orbit, (e_degrees, r, D, k, cap)
                        cases += 1
    assert cases == 120_000


def _walked(*args, **kwargs):
    """(degree, class) for every class of class_rows(*args, **kwargs), by increasing D."""
    rows = class_rows(*args, **kwargs)
    return [(x_deg, CurveClass(D, k)) for D, ks, degrees in rows for x_deg, k in zip(degrees, ks)]


def test_twist_floor_drops_only_classes_without_a_point():
    # standard twist rows with nonconvex points skipped bound every
    # d_i >= -rho D, so at rho = 0 a class with k < 0 has no point under the twist
    drops = []
    for target in (FlagTarget(3, (2, 1), 1), FlagTarget(4, (1, 1, 0), 2), FlagTarget(4, (1, 1, 1, 0), 3)):
        twist = TwistSpec(standard_basis(target.rank), rho=0)
        for orbit in (False, True):
            walked = _walked(target, twist, 20, None, orbit)
            kept = _walked(target, twist, 20, None, orbit, twist_floor=True)
            assert set(kept) <= set(walked), (target, orbit)
            dropped = [cls for x_deg, cls in walked if (x_deg, cls) not in kept]
            drops.append(len(dropped))
            for cls in dropped:
                assert cls.k < 0
                assert not list(lattice_range(target, cls, None, twist, orbit))
    assert drops == [13, 6, 10, 3, 10, 4]  # classes dropped, without and with orbit


NONCONVEX_MODELS = {
    "standard basis": (FlagTarget(6, (0, 0, 0, 2), 3), TwistSpec(standard_basis(3), rho=1)),
    "local row with f < 0": (FlagTarget(5, (0, -1, 1), 2), TwistSpec(((2, 0), (0, -1)), rho=1)),
    "general row": (FlagTarget(5, (0, -1, 1), 2), TwistSpec(((1, 0), (1, -1)), rho=-1)),
    "rank one": (FlagTarget(3, (0, -1), 1), TwistSpec(((-1,), (2,)), rho=1)),
}


@pytest.mark.parametrize("name", NONCONVEX_MODELS)
def test_class_numerator_skipping_nonconvex_equals_the_filtered_sum(name):
    target, twist = NONCONVEX_MODELS[name]
    ctx = SummandContext(target, twist)
    skipped = 0
    for D in range(4):
        for k in range(-6, 7):
            cls = CurveClass(D=D, k=k)
            kept = []
            for d in lattice_range(target, cls):
                if _forced_nilpotent_degree(target, d, D) > ctx.cap:
                    continue
                if any(u < 0 for u in twist_uppers(twist, cls, d)):
                    skipped += 1
                    continue
                kept.append(d)
            terms, den = ctx.kernel.add_all(oh_summand(d, cls, ctx) for d in kept)
            got_terms, got_den = class_numerator(cls, ctx, skip_nonconvex=True)
            assert (dict(got_terms), got_den) == (dict(terms), den), (cls, kept)
            assert class_points(cls, ctx, skip_nonconvex=True) == kept, cls
    assert skipped > 0
