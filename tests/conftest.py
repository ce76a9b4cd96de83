import itertools

import pytest

from grperiod.targets import BlowUpSpec, normalize_blowup


@pytest.fixture(scope="session")
def p4_112():
    """Blow-up of P^4 in a (1,1,2) complete intersection, default twist."""
    return normalize_blowup(BlowUpSpec(4, (1, 1, 2)))


@pytest.fixture(scope="session")
def p6_122():
    """Blow-up of P^6 in a (1,2,2) complete intersection, twist level 2."""
    return normalize_blowup(BlowUpSpec(6, (1, 2, 2)), twist_k=2)


@pytest.fixture(scope="session")
def blpt_p2():
    """Blow-up of P^2 in a point (two hyperplanes)."""
    return normalize_blowup(BlowUpSpec(2, (1, 1)))


def _floor_lattice(target, cls):
    """Every d with sum(d) = k and each d_i >= the least -e_j D, filtered from a box.

    The reference that `lattice_range` is tested against: it shares no code
    with it, and it makes none of its cuts.
    """
    r, lo = target.rank, min(-e * cls.D for e in target.e_degrees)
    box = itertools.product(range(lo, cls.k - lo * (r - 1) + 1), repeat=r)
    return [d for d in box if sum(d) == cls.k]


@pytest.fixture(scope="session")
def floor_lattice():
    """The floor-bounded lattice of a curve class, in lexicographic order."""
    return _floor_lattice


def _full_reference_summand(d, cls, ctx):
    """oh_summand's factors multiplied out in the full ring, h included."""
    from grperiod.summands import base_j_factor, flag_factor, twist_factor, weyl_block

    out = base_j_factor(cls.D, ctx) * flag_factor(d, cls, ctx)
    num, sign = weyl_block(d, ctx)
    return (out * num * twist_factor(d, cls, ctx)).scale(sign * ctx.z)


def _reference_summand(d, cls, ctx):
    """The full-ring reference projected to h = 0, where oh_summand is evaluated."""
    from grperiod.ring import GradedPoly

    full = _full_reference_summand(d, cls, ctx)
    return GradedPoly(full.nvars, full.cap, {e: c for e, c in full.terms.items() if not e[0]})


@pytest.fixture(scope="session")
def reference_summand():
    """The GradedPoly reference that the packed oh_summand must equal exactly."""
    return _reference_summand


@pytest.fixture(scope="session")
def full_reference_summand():
    """The GradedPoly summand in the full ring, before the projection to h = 0."""
    return _full_reference_summand
