import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from grperiod.ring import (
    GradedPoly,
    NotAUnitError,
    NotDivisibleError,
    PackedRing,
    RingUsageError,
    divide_linear,
    integer_det,
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


@given(
    st.dictionaries(exponents, fractions, max_size=5),
    st.sampled_from([(0, 1), (1, 2), (2, 0)]),
    exponents,
    fractions,
)
def test_divide_linear_recovers_the_quotient_or_reports_the_remainder(terms, pair, mono, c):
    i, j = pair
    q = GradedPoly(NVARS, CAP - 1, terms)
    p = poly_mul(h(i) - h(j), GradedPoly(NVARS, CAP, q.terms))
    assert divide_linear(p, i, j) == q
    # a monomial of degree <= cap survives g_i -> g_j, so p plus it is not divisible
    extra = GradedPoly(NVARS, CAP, {mono: c})
    assume(not extra.is_zero())
    with pytest.raises(NotDivisibleError) as err:
        divide_linear(p + extra, i, j)
    assert err.value.remainder == (p + extra).substitute_equal(i, j)


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


def test_constant_term_reads_constant():
    p = const(Fraction(3, 7)) + h(0)
    assert p.constant_term() == Fraction(3, 7)


def test_substitute_equal_merges():
    p = h(1) - h(2)
    assert p.substitute_equal(1, 2).is_zero()


def _packed_graded(ring, terms):
    return ring.to_graded(ring.pack(terms))


@given(polys, polys, st.integers(min_value=0, max_value=CAP))
def test_packed_product_matches_poly_mul(a, b, cap):
    ring = PackedRing(NVARS, cap)
    got = ring.to_graded(ring.product(ring.pack(a.terms), ring.pack(b.terms)))
    assert got == poly_mul(GradedPoly(NVARS, cap, a.terms), GradedPoly(NVARS, cap, b.terms))


@given(polys, polys, st.integers(min_value=0, max_value=CAP), st.randoms(use_true_random=False))
def test_packed_product_takes_an_unsorted_outer_operand(a, b, cap, rnd):
    ring = PackedRing(NVARS, cap)
    terms, den = ring.pack(a.terms)
    rnd.shuffle(terms)
    got = ring.to_graded(ring.product((terms, den), ring.pack(b.terms)))
    assert got == poly_mul(GradedPoly(NVARS, cap, a.terms), GradedPoly(NVARS, cap, b.terms))


@given(st.lists(polys, max_size=4))
def test_packed_add_all_matches_sum(values):
    ring = PackedRing(NVARS, CAP)
    expected = const(0)
    for v in values:
        expected = expected + v
    assert ring.to_graded(ring.add_all(ring.pack(v.terms) for v in values)) == expected


@st.composite
def weyl_numerators(draw):
    """(p, pairs, Delta, c): p = c * Delta plus up to three monomials of degree <= omega.

    Generator 0 is h and generators 1..r the roots; the ring's cap is
    omega = deg Delta, as in the engine.
    """
    r = draw(st.integers(min_value=1, max_value=4))
    nvars, omega = r + 1, r * (r - 1) // 2
    pairs = [(i, j) for i in range(1, r + 1) for j in range(i + 1, r + 1)]
    delta = const(1, nvars, omega)
    for i, j in pairs:
        delta = delta * (h(i, nvars, omega) - h(j, nvars, omega))
    monomials = st.lists(st.integers(min_value=0, max_value=nvars - 1), max_size=omega).map(
        lambda gens: tuple(gens.count(g) for g in range(nvars))
    )
    noise = draw(st.dictionaries(monomials, fractions, max_size=3))
    c = draw(fractions)
    return delta.scale(c) + GradedPoly(nvars, omega, noise), pairs, delta, c


@settings(deadline=None, max_examples=300)
@given(weyl_numerators())
def test_weyl_unit_agrees_with_vandermonde_divide(case):
    p, pairs, delta, c = case
    ring = PackedRing(p.nvars, p.cap)
    staircase = [0] * p.nvars
    for i, _ in pairs:
        staircase[i] += 1
    try:
        quotient = vandermonde_divide(p, pairs)
    except NotDivisibleError:
        with pytest.raises(NotDivisibleError) as err:
            ring.weyl_unit(ring.pack(p.terms))
        assert err.value.remainder == p - delta.scale(p.coefficient(staircase))
    else:
        got = ring.weyl_unit(ring.pack(p.terms))
        assert got == quotient.constant_term() == p.coefficient(staircase)
        if p == delta.scale(c):
            assert got == c


def test_weyl_unit_needs_the_weyl_cap():
    with pytest.raises(RingUsageError):
        PackedRing(3, 2).weyl_unit(([], 1))


@given(polys, st.fractions(min_value=-3, max_value=3, max_denominator=5))
def test_packed_round_trip_with_scale(a, scale):
    ring = PackedRing(NVARS, CAP)
    assert ring.to_graded(ring.pack(a.terms)).scale(scale) == a.scale(scale)


def test_packed_keys_sort_by_degree_and_do_not_carry():
    ring = PackedRing(2, 2)
    keys = [ring.key(e) for e in ((0, 0), (2, 0), (1, 0), (0, 1), (1, 1), (0, 2))]
    assert sorted(keys) == [ring.key(e) for e in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))]
    assert ring.key((1, 0)) + ring.key((1, 1)) == ring.key((2, 1)) >= ring.limit
    assert ring.key((1, 0)) + ring.key((0, 1)) == ring.key((1, 1)) < ring.limit


@st.composite
def integer_matrices(draw):
    """Square integer matrices of size 0..6, some with zero leading pivots.

    Sizes 2..4 are the written-out expansions; 5 and 6 keep Bareiss
    elimination drawn at more than one size.
    """
    n = draw(st.integers(min_value=0, max_value=6))
    entries = st.integers(min_value=-6, max_value=6) | st.just(0)
    return [[draw(entries) for _ in range(n)] for _ in range(n)]


@settings(deadline=None, max_examples=300)
@given(integer_matrices())
def test_integer_det_is_the_leibniz_sum(rows):
    n = len(rows)
    expected = 0
    for p in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])
        expected += (-1) ** inversions * math.prod(rows[i][p[i]] for i in range(n))
    copy = [list(row) for row in rows]
    assert integer_det(rows) == expected
    assert rows == copy


def test_integer_det_swaps_rows_past_a_zero_pivot():
    assert integer_det([[0, 1], [1, 0]]) == -1
    assert integer_det([[0, 0, 1], [0, 2, 0], [3, 0, 0]]) == -6
    assert integer_det([[0, 1], [0, 2]]) == 0
    # the written-out sizes: a zero leading entry, a zero row, two equal rows
    assert integer_det([[0, 2, 1], [1, 3, 0], [4, 0, 5]]) == -22
    assert integer_det([[1, 2, 3], [0, 0, 0], [4, 5, 6]]) == 0
    assert integer_det([[1, 2, 3], [4, 5, 6], [1, 2, 3]]) == 0
    assert integer_det([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]) == 1
    assert integer_det([[0, 1, 2, 3], [1, 0, 1, 2], [2, 1, 0, 1], [3, 2, 1, 0]]) == -12
    assert integer_det([[1, 2, 3, 4], [5, 6, 7, 8], [0, 0, 0, 0], [2, 1, 2, 1]]) == 0
    assert integer_det([[1, 2, 3, 4], [5, 6, 7, 8], [2, 1, 2, 1], [5, 6, 7, 8]]) == 0
