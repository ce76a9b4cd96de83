import importlib.util
import math
import sys
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, strategies as st

from grperiod.validation import (
    FormalSeries,
    bernoulli,
    check_delta_m,
    check_gamma_identity,
    g_series,
    harmonic,
    modification_log_formal,
    oracle_blowup,
    oracle_blowup_raw,
    oracle_example1,
    oracle_example2,
    oracle_pinned_verbatim,
    r1_direct_period,
    s_series,
)


def test_bernoulli_values():
    expected = {
        0: Fraction(1),
        1: Fraction(-1, 2),
        2: Fraction(1, 6),
        3: Fraction(0),
        4: Fraction(-1, 30),
        6: Fraction(1, 42),
        8: Fraction(-1, 30),
    }
    for m, value in expected.items():
        assert bernoulli(m) == value


def test_bernoulli_odd_vanish():
    assert all(bernoulli(m) == 0 for m in range(3, 21, 2))


def test_bernoulli_rejects_negative():
    with pytest.raises(ValueError):
        bernoulli(-1)


@given(st.integers(min_value=1, max_value=25))
def test_bernoulli_defining_recursion(m):
    assert sum(math.comb(m + 1, j) * bernoulli(j) for j in range(m + 1)) == 0


def test_harmonic_values():
    assert harmonic(0) == 0
    assert harmonic(1) == 1
    assert harmonic(4) == Fraction(25, 12)


@given(st.integers(min_value=1, max_value=200))
def test_harmonic_telescopes(n):
    assert harmonic(n) - harmonic(n - 1) == Fraction(1, n)


def test_g_series_low_order_terms():
    g = g_series(2)
    assert g.terms[((1, 0), 1, -1)] == 1
    assert g.terms[((1, 0), 0, 0)] == Fraction(-1, 2)
    assert g.terms[((0, 1), 2, -1)] == Fraction(1, 2)
    assert g.terms[((0, 1), 1, 0)] == Fraction(-1, 2)
    assert g.terms[((0, 1), 0, 1)] == Fraction(1, 12)


def test_g_series_trivial_order():
    assert g_series(0).terms == {}


def test_s_series_shift():
    plain = s_series(0, 2)
    assert plain.terms == {((1, 0), 0, 0): 1, ((0, 1), 1, 0): 1}
    shifted = s_series(2, 2)
    assert shifted.terms[((0, 1), 0, 1)] == 2


def test_formal_series_weight_truncation():
    fs = FormalSeries(1, {((2,), 0, 0): Fraction(1)})
    assert fs.terms == {}


def test_formal_series_first_difference():
    a = FormalSeries(1, {((1,), 0, 0): Fraction(1)})
    b = FormalSeries(1, {((1,), 0, 0): Fraction(2)})
    key, va, vb = a.first_difference(b)
    assert key == ((1,), 0, 0) and (va, vb) == (1, 2)
    assert a.first_difference(a) is None


def test_gamma_identity_holds():
    assert check_gamma_identity()
    assert check_gamma_identity(x_order=5, s_order=4)


def test_gamma_identity_pins_b1_sign(monkeypatch):
    # read the true values first: bernoulli recurses through the module-level
    # name, so a patched B_1 must never reach its cache
    values = [bernoulli(m) for m in range(6)]

    def flipped(m):
        return -values[m] if m == 1 else values[m]

    monkeypatch.setattr("grperiod.validation.bernoulli", flipped)
    result = check_gamma_identity()
    assert not result
    assert "mismatch" in result.detail


def test_delta_m_sees_a_flipped_b1(monkeypatch):
    values = [bernoulli(m) for m in range(6)]

    def flipped(m):
        return -values[m] if m == 1 else values[m]

    monkeypatch.setattr("grperiod.validation.bernoulli", flipped)
    for upper in (-2, -1, 1, 2):
        result = check_delta_m(upper, 2)
        assert not result, upper
        assert "mismatch" in result.detail
    # G(f, z) - G(f, z) is 0 whatever G is, and so is the empty log M_beta
    assert check_delta_m(0, 2)


def test_gamma_identity_trivial_at_order_zero():
    assert check_gamma_identity(x_order=2, s_order=0)


@pytest.mark.parametrize("upper", [-2, -1, 0, 1, 2])
def test_delta_m(upper):
    assert check_delta_m(upper)


def test_delta_m_higher_order():
    assert check_delta_m(2, s_order=3)


def test_modification_log_ranges():
    for got, expected in (
        (modification_log_formal(1, 2), s_series(-1, 2)),
        (modification_log_formal(-1, 2), s_series(0, 2).scale(-1)),
    ):
        assert got.s_order == expected.s_order == 2
        assert got.first_difference(expected) is None
    assert modification_log_formal(0, 2).terms == {}


def test_oracle_p4_spot_values():
    series = oracle_example1(12)
    assert series[:6] == (1, 0, 0, 12, 0, 120)
    assert series[12] == 2425500


def test_oracle_p6_spot_values():
    series = oracle_example2(14)
    assert series[5] == 480
    assert series[6] == 0
    assert series[14] == 681080400


def test_oracles_trivial_degree_zero():
    assert oracle_example1(0) == (1,)
    assert oracle_example2(0) == (1,)
    assert oracle_pinned_verbatim(0) == (1,)
    assert oracle_blowup(4, (1, 2, 2), 0) == (1,)


def test_oracle_pinned_verbatim_matches_engine_through_x20():
    from grperiod.assembler import period_series
    from grperiod.targets import example3_verbatim_model

    target, twist, divisor = example3_verbatim_model()
    engine = period_series(target, twist, 20, divisor=divisor, skip_nonconvex=True)
    assert engine.regularised == oracle_pinned_verbatim(20)


def test_oracle_pinned_verbatim_needs_no_engine_module(monkeypatch):
    # load validation.py on its own, outside the package, with the engine
    # modules unimportable: the oracle must run on the stdlib alone
    for name in ("ring", "summands", "targets", "assembler"):
        monkeypatch.setitem(sys.modules, f"grperiod.{name}", None)
    path = oracle_pinned_verbatim.__code__.co_filename
    spec = importlib.util.spec_from_file_location("standalone_validation", path)
    standalone = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, standalone)
    spec.loader.exec_module(standalone)
    assert standalone.oracle_pinned_verbatim(15) == oracle_pinned_verbatim(15)


def test_oracle_blowup_needs_no_engine_module(monkeypatch):
    for name in ("ring", "summands", "targets", "assembler"):
        monkeypatch.setitem(sys.modules, f"grperiod.{name}", None)
    path = oracle_blowup.__code__.co_filename
    spec = importlib.util.spec_from_file_location("standalone_validation", path)
    standalone = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, standalone)
    spec.loader.exec_module(standalone)
    assert standalone.oracle_blowup(4, (1, 2, 2), 9) == oracle_blowup(4, (1, 2, 2), 9)
    raw = standalone.oracle_blowup_raw(8, (1, 1, 1, 1, 2), 11)
    assert raw == oracle_blowup_raw(8, (1, 1, 1, 1, 2), 11)


def _termwise_blowup_raw(base_dim, center_degrees, dmax):
    """The Euler-sequence sum of oracle_blowup_raw, one Fraction added per term."""
    c, N = tuple(center_degrees), base_dim
    r = len(c) - 1
    raw = [Fraction(0)] * (dmax + 1)
    l = 0
    while (N + 1 - r * min(c)) * l <= dmax:
        num = math.prod(math.factorial(cj * l) for cj in c)
        base = math.factorial(l) ** (N + 1)
        for e in range(l * min(c) + 1):
            deg = (N + 1) * l - r * e
            if deg <= dmax:
                den = base * math.factorial(e)
                den *= math.prod(math.factorial(cj * l - e) for cj in c)
                raw[deg] += Fraction(num, den)
        l += 1
    return tuple(raw)


def test_oracle_blowup_raw_equals_the_termwise_sum():
    # the Fano box of tests/test_fano_box.py, then deeper and wider specs
    box = [
        (N, c)
        for N in range(2, 9)
        for r in range(1, 4)
        for c in combinations_with_replacement((1, 2, 3), r + 1)
        if r + 1 <= N and N + 1 > r * max(c)
    ]
    assert len(box) == 95
    cases = [(N, c, 14) for N, c in box]
    cases += [(3, (1, 2), 60), (4, (4, 4), 40), (24, (1,) * 12 + (2,), 40)]
    for base_dim, degrees, dmax in cases:
        expected = _termwise_blowup_raw(base_dim, degrees, dmax)
        assert oracle_blowup_raw(base_dim, degrees, dmax) == expected, (base_dim, degrees)


def test_oracle_blowup_raw_sums_blowups_that_are_not_fano():
    # N + 1 <= r max c but N + 1 > r min c: every degree is still a finite
    # sum, term by term; N + 1 <= r min c is refused
    box = [
        (N, c)
        for N in range(2, 9)
        for r in range(1, 4)
        for c in combinations_with_replacement(range(1, 6), r + 1)
        if r + 1 <= N and r * min(c) < N + 1 <= r * max(c)
    ]
    assert len(box) == 346 and (3, (3, 4)) in box and (4, (2, 2, 3)) in box
    for base_dim, degrees in box:
        expected = _termwise_blowup_raw(base_dim, degrees, 12)
        assert oracle_blowup_raw(base_dim, degrees, 12) == expected, (base_dim, degrees)
    with pytest.raises(ValueError, match="min"):
        oracle_blowup_raw(3, (4, 5), 10)


def test_oracle_blowup_matches_the_other_oracles():
    assert oracle_blowup(4, (1, 2, 2), 9) == (1, 0, 0, 24, 0, 120, 3240, 0, 40320, 672000)
    assert oracle_blowup(4, (1, 1, 2), 12) == oracle_example1(12)
    assert oracle_blowup(6, (1, 2, 2), 14) == oracle_example2(14)
    for base_dim, degrees in ((2, (1, 1)), (3, (1, 1)), (3, (1, 2)), (5, (2, 2))):
        assert oracle_blowup(base_dim, degrees, 14) == r1_direct_period(base_dim, degrees, 14)
    assert oracle_blowup(3, (1, 2), 60) == r1_direct_period(3, (1, 2), 60)
    with pytest.raises(ValueError):
        oracle_blowup(6, (1, 1, 1, 3), 5)  # not Fano: N + 1 <= r * max(c)


@pytest.mark.parametrize("base_dim, degrees", [(3, (3, 4)), (3, (2, 4)), (3, (2, 5)), (4, (1, 5))])
def test_r1_direct_period_refuses_a_non_fano_blowup(base_dim, degrees):
    # its loop bound divides by a = N + 1 - max(c), which is 0 or negative here
    with pytest.raises(ValueError, match="needs N \\+ 1 > max"):
        r1_direct_period(base_dim, degrees, 4)


def test_r1_direct_blpt_p2():
    assert r1_direct_period(2, (1, 1), 8) == (1, 0, 2, 6, 6, 60, 110, 420, 1750)
    assert r1_direct_period(2, (1, 1), 0) == (1,)


def test_r1_cross_checks():
    from grperiod.assembler import period_series
    from grperiod.targets import BlowUpSpec, normalize_blowup

    for base_dim, degrees, dmax in ((2, (1, 1), 8), (4, (1, 2), 6)):
        engine = period_series(*normalize_blowup(BlowUpSpec(base_dim, degrees)), dmax)
        assert engine.regularised == r1_direct_period(base_dim, degrees, dmax)
