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


def _reference_summand(d, cls, ctx):
    """oh_summand multiplied out from the GradedPoly helpers, one factor at a time."""
    from grperiod.summands import base_j_factor, flag_factor, twist_factor, weyl_block

    out = base_j_factor(cls.D, ctx) * flag_factor(d, cls, ctx)
    num, sign = weyl_block(d, ctx)
    return (out * num * twist_factor(d, cls, ctx)).scale(sign * ctx.z)


@pytest.fixture(scope="session")
def reference_summand():
    """The GradedPoly reference that the packed oh_summand must equal exactly."""
    return _reference_summand
