from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from grperiod.ring import (
    GradedPoly,
    NotAUnitError,
    NotDivisibleError,
    PackedRing,
    RingUsageError,
    divide_linear,
    exp_nilpotent,
    poly_mul,
    unit_inverse,
    vandermonde_divide,
)

NVARS = 3
CAP = 3

fractions = st.fractions(min_value=-4, max_value=4, max_denominator=4)
exponents = st.tuples(*[st.integers(min_value=0, max_value=2)] * NVARS)
polys = st.dictionaries(exponents, fractions, max_size=5).map(
    lambda terms: GradedPoly(NVARS, CAP, terms)
)
units = st.tuples(st.sampled_from([1, -1, 2, Fraction(1, 2)]), polys).map(
    lambda cu: GradedPoly.constant(cu[0], NVARS, CAP)
    + (cu[1] - GradedPoly.constant(cu[1].constant_term(), NVARS, CAP))
)


def h(i, nvars=NVARS, cap=CAP):
    return GradedPoly.generator(i, nvars, cap)


def const(c, nvars=NVARS, cap=CAP):
    return GradedPoly.constant(c, nvars, cap)


def test_truncation_drops_high_degree():
    p = GradedPoly(1, 2, {(3,): Fraction(1), (2,): Fraction(1)})
    assert p == GradedPoly(1, 2, {(2,): Fraction(1)})


def test_zero_coefficients_never_stored():
    p = GradedPoly(2, 2, {(1, 0): Fraction(0), (0, 1): Fraction(2)})
    assert (1, 0) not in p.terms
    assert p.coefficient((0, 1)) == 2


def test_product_truncates_at_cap():
    one_plus = const(1, 2, 2) + h(0, 2, 2)
    one_minus = const(1, 2, 2) - h(0, 2, 2)
    assert poly_mul(one_plus, one_minus) == const(1, 2, 2) - poly_mul(
        h(0, 2, 2), h(0, 2, 2)
    )


def test_cap_mismatch_is_usage_error():
    with pytest.raises(RingUsageError):
        poly_mul(const(1, 2, 2), const(1, 2, 3))
    with pytest.raises(RingUsageError):
        const(1, 2, 2) + const(1, 3, 2)


def test_unit_inverse_geometric():
    p = const(1, 1, 2) + h(0, 1, 2)
    assert unit_inverse(p) == GradedPoly(
        1, 2, {(0,): Fraction(1), (1,): Fraction(-1), (2,): Fraction(1)}
    )


def test_unit_inverse_rejects_nonunit():
    with pytest.raises(NotAUnitError):
        unit_inverse(h(0))


@given(units)
def test_unit_inverse_round_trip(p):
    assert poly_mul(p, unit_inverse(p)) == const(1)


def test_exp_nilpotent_small():
    e = exp_nilpotent(h(0, 1, 2))
    assert e == GradedPoly(
        1, 2, {(0,): Fraction(1), (1,): Fraction(1), (2,): Fraction(1, 2)}
    )


def test_exp_nilpotent_rejects_constant():
    with pytest.raises(RingUsageError):
        exp_nilpotent(const(1))


@given(polys)
def test_exp_of_opposites_cancels(p):
    nil = p - const(p.constant_term())
    assert poly_mul(exp_nilpotent(nil), exp_nilpotent(-nil)) == const(1)


def test_divide_linear_difference_of_squares():
    p = poly_mul(h(1), h(1)) - poly_mul(h(2), h(2))
    q = divide_linear(p, 1, 2)
    assert q == h(1, NVARS, CAP - 1) + h(2, NVARS, CAP - 1)


def test_divide_linear_reports_remainder():
    p = poly_mul(h(1), h(1))
    with pytest.raises(NotDivisibleError) as exc:
        divide_linear(p, 1, 2)
    assert not exc.value.remainder.is_zero()


@given(polys)
def test_divide_linear_round_trip(q):
    factor = h(1) - h(2)
    p = poly_mul(factor, q)
    recovered = divide_linear(p, 1, 2)
    assert poly_mul(factor, GradedPoly(NVARS, CAP, recovered.terms)) == p


def test_vandermonde_divide_drops_cap_per_pair():
    p = poly_mul(h(1), h(1)) - poly_mul(h(2), h(2))
    q = vandermonde_divide(p, [(1, 2)])
    assert q.cap == CAP - 1


@given(polys, polys)
def test_mul_commutes(a, b):
    assert poly_mul(a, b) == poly_mul(b, a)


@given(polys, polys, polys)
def test_mul_distributes(a, b, c):
    assert poly_mul(a, b + c) == poly_mul(a, b) + poly_mul(a, c)


@given(polys, polys, polys)
def test_mul_associates(a, b, c):
    assert poly_mul(poly_mul(a, b), c) == poly_mul(a, poly_mul(b, c))


def test_unit_part_reads_constant():
    p = const(Fraction(3, 7)) + h(0)
    assert p.unit_part() == Fraction(3, 7)


def test_substitute_equal_merges():
    p = h(1) - h(2)
    assert p.substitute_equal(1, 2).is_zero()


def _packed_graded(ring, terms):
    return ring.to_graded(ring.pack(terms), Fraction(1))


@given(polys, polys, st.integers(min_value=0, max_value=CAP))
def test_packed_product_matches_poly_mul(a, b, cap):
    ring = PackedRing(NVARS, cap)
    got = ring.to_graded(ring.product(ring.pack(a.terms), ring.pack(b.terms)), Fraction(1))
    assert got == poly_mul(a.truncate(cap), b.truncate(cap))


@given(polys, st.fractions(min_value=-3, max_value=3, max_denominator=5))
def test_packed_round_trip_with_scale(a, scale):
    ring = PackedRing(NVARS, CAP)
    assert ring.to_graded(ring.pack(a.terms), scale) == a.scale(scale)


def test_packed_keys_sort_by_degree_and_do_not_carry():
    ring = PackedRing(2, 2)
    keys = [ring.key(e) for e in ((0, 0), (2, 0), (1, 0), (0, 1), (1, 1), (0, 2))]
    assert sorted(keys) == [ring.key(e) for e in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))]
    assert ring.key((1, 0)) + ring.key((1, 1)) == ring.key((2, 1)) >= ring.limit
    assert ring.key((1, 0)) + ring.key((0, 1)) == ring.key((1, 1)) < ring.limit


def test_packed_compose_substitutes_a_linear_form():
    ring = PackedRing(NVARS, CAP)
    series = (Fraction(1, 2), Fraction(-3, 4), Fraction(7, 8), Fraction(5))
    linear = {(1, 0, 0): 1, (0, 0, 1): -2}
    got = ring.to_graded(ring.compose(series, ring.pack(linear)), Fraction(1))
    ell = GradedPoly(NVARS, CAP, linear)
    expected = const(0)
    power = const(1)
    for c in series:
        expected = expected + power.scale(c)
        power = poly_mul(power, ell)
    assert got == expected


def test_packed_compose_needs_integral_linear_form():
    ring = PackedRing(NVARS, CAP)
    with pytest.raises(RingUsageError):
        ring.compose((Fraction(1),), ring.pack({(1, 0, 0): Fraction(1, 2)}))
    with pytest.raises(RingUsageError):
        ring.compose((Fraction(1),), ring.pack({(0, 0, 0): 1, (1, 0, 0): 1}))
