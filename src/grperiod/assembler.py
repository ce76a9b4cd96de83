"""Assembly of quantum period series from lattice-point summands.

For each x-degree the contributions of all curve classes are aggregated,
divided by the Weyl denominator prod_{i<j} (h_i - h_j), and the unit-class
coefficient is read off.  Two structural facts keep this cheap and are
relied on throughout:

* Unit extraction is representative-independent.  The aggregate over a
  curve class is a polynomial representative of a cohomology class of the
  bundle; the relations of the cohomology presentation are homogeneous of
  positive degree, so they never move the degree-zero part.  The constant
  term of the Weyl quotient therefore *is* the unit-class coefficient, no
  Schubert-basis expansion needed.

* Points below the lattice floor are excluded up front (their slot factors
  carry the full Chern relation of E and vanish in cohomology, but not in
  the free truncated ring), and points whose forced nilpotent degree
  already exceeds the cap are skipped purely for speed: truncation would
  kill them anyway.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .ring import GradedPoly, vandermonde_divide
from .summands import SummandContext, oh_summand, twist_uppers
from .targets import (
    CurveClass,
    DivisorData,
    FlagTarget,
    TwistSpec,
    all_weyl_pairs,
    class_enumeration,
    lattice_range,
)

DEFAULT_WORK_BUDGET = 500_000


class WorkBudgetError(RuntimeError):
    """Raised when a requested computation exceeds the configured budget."""


@dataclass(frozen=True)
class Correction:
    """Degree-one class counts n_beta driving the exponential correction."""

    entries: tuple[tuple[CurveClass, Fraction], ...]

    @property
    def total(self) -> Fraction:
        return sum((n for _, n in self.entries), Fraction(0))


@dataclass(frozen=True)
class PeriodSeries:
    """Quantum period G and its regularised companion sum d! G_d x^d."""

    coefficients: tuple[Fraction, ...]
    regularised: tuple[Fraction, ...]
    correction: Correction

    def degree_max(self) -> int:
        return len(self.coefficients) - 1


def _forced_nilpotent_degree(
    target: FlagTarget, d: tuple[int, ...], D: int
) -> int:
    """Lower bound on the nilpotent degree forced into a point's summand."""
    forced = 0
    for di in d:
        for e in target.e_degrees:
            if di + e * D < 0:
                forced += 1
    r = len(d)
    for i in range(r):
        for j in range(i + 1, r):
            if d[i] == d[j]:
                forced += 1
    return forced


def class_numerator(
    cls: CurveClass,
    ctx: SummandContext,
    skip_nonconvex: bool = False,
) -> GradedPoly:
    """Aggregate summand of one curve class (numerator, before Weyl division)."""
    target = ctx.target
    total = GradedPoly(ctx.nvars, ctx.cap)
    cap = ctx.cap
    for d in lattice_range(target, cls):
        if _forced_nilpotent_degree(target, d, cls.D) > cap:
            continue
        if skip_nonconvex and ctx.twist is not None:
            if any(u < 0 for u in twist_uppers(ctx.twist, cls, d)):
                continue
        total = total + oh_summand(d, cls, ctx)
    return total


def degree_numerator(
    target: FlagTarget,
    twist: TwistSpec | None,
    x_deg: int,
    z: Fraction | int = 1,
    divisor: DivisorData | None = None,
    skip_nonconvex: bool = False,
) -> GradedPoly:
    """Sum of class numerators over every curve class of the given degree."""
    ctx = SummandContext.for_target(target, twist, z)
    return _degree_numerator(ctx, x_deg, divisor, skip_nonconvex)


def _degree_numerator(
    ctx: SummandContext,
    x_deg: int,
    divisor: DivisorData | None,
    skip_nonconvex: bool,
) -> GradedPoly:
    total = GradedPoly(ctx.nvars, ctx.cap)
    for cls in class_enumeration(ctx.target, ctx.twist, x_deg, divisor):
        total = total + class_numerator(cls, ctx, skip_nonconvex)
    return total


def unit_from_numerator(numerator: GradedPoly, target: FlagTarget) -> Fraction:
    quotient = vandermonde_divide(numerator, all_weyl_pairs(target))
    return quotient.unit_part()


def unit_coefficient(
    target: FlagTarget,
    twist: TwistSpec | None,
    x_deg: int,
    z: Fraction | int = 1,
    divisor: DivisorData | None = None,
    skip_nonconvex: bool = False,
) -> Fraction:
    """Unit-class coefficient of the x^x_deg term (single z-power, see below).

    By degree homogeneity the value at general z is the value at z = 1
    times z^(1 - x_deg); the Weyl division is guaranteed exact, so a
    NotDivisibleError escaping here indicates a genuine bug.
    """
    num = degree_numerator(target, twist, x_deg, z, divisor, skip_nonconvex)
    return unit_from_numerator(num, target)


def correction_C(
    target: FlagTarget,
    twist: TwistSpec | None,
    divisor: DivisorData | None = None,
    skip_nonconvex: bool = False,
) -> Correction:
    """n_beta for every degree-one curve class.

    Each n_beta is z-independent (its z-power is 1 - 1 = 0); this is
    verified by evaluating at two different z.
    """
    contexts = [SummandContext.for_target(target, twist, z) for z in (1, 2)]
    entries = []
    for cls in class_enumeration(target, twist, 1, divisor):
        values = [
            unit_from_numerator(class_numerator(cls, ctx, skip_nonconvex), target)
            for ctx in contexts
        ]
        if values[0] != values[1]:
            raise AssertionError(
                f"degree-one coefficient for {cls} depends on z: {values}"
            )
        entries.append((cls, values[0]))
    return Correction(entries=tuple(entries))


def estimate_points(
    target: FlagTarget,
    twist: TwistSpec | None,
    dmax: int,
    divisor: DivisorData | None = None,
) -> int:
    """Upper bound on lattice points visited for degrees 0..dmax."""
    from .targets import lattice_floor

    r = target.ranks[0]
    count = 0
    for x_deg in range(dmax + 1):
        for cls in class_enumeration(target, twist, x_deg, divisor):
            (k,) = cls.k
            span = k - r * lattice_floor(target, cls.D)
            count += math.comb(span + r - 1, r - 1)
    return count


def period_series(
    target: FlagTarget,
    twist: TwistSpec | None,
    dmax: int,
    z: Fraction | int = 1,
    divisor: DivisorData | None = None,
    skip_nonconvex: bool = False,
    budget: int | None = DEFAULT_WORK_BUDGET,
) -> PeriodSeries:
    """Quantum period of the twist zero locus through x^dmax.

    Computes the raw unit-coefficient series, then removes the degree-one
    layer with the exponential correction G(x) = e^(-C x) * sum_d u_d x^d.
    All arithmetic is exact; the regularised series multiplies degree d by
    d!.
    """
    if dmax < 0:
        raise ValueError("dmax must be nonnegative")
    if budget is not None:
        estimate = estimate_points(target, twist, dmax, divisor)
        if estimate > budget:
            raise WorkBudgetError(
                f"estimated {estimate} lattice points exceeds budget {budget}"
            )
    correction = correction_C(target, twist, divisor, skip_nonconvex)
    # one context, so its factor caches are shared by every degree
    ctx = SummandContext.for_target(target, twist, z)
    raw = [
        unit_from_numerator(_degree_numerator(ctx, x_deg, divisor, skip_nonconvex), target)
        for x_deg in range(dmax + 1)
    ]
    C = correction.total
    coeffs = []
    for d in range(dmax + 1):
        acc = Fraction(0)
        for t in range(d + 1):
            acc += (-C) ** t / math.factorial(t) * raw[d - t]
        coeffs.append(acc)
    regularised = tuple(math.factorial(d) * c for d, c in enumerate(coeffs))
    return PeriodSeries(
        coefficients=tuple(coeffs),
        regularised=regularised,
        correction=correction,
    )


@dataclass(frozen=True)
class ZScalingRow:
    degree: int
    value_at_z: Fraction
    value_at_one: Fraction
    expected_ratio: Fraction
    ok: bool


def z_scaling_report(
    target: FlagTarget,
    twist: TwistSpec | None,
    degrees: list[int],
    z: Fraction | int,
    divisor: DivisorData | None = None,
    skip_nonconvex: bool = False,
) -> list[ZScalingRow]:
    """Check value(z) == value(1) * z^(1 - d) degree by degree."""
    zq = Fraction(z)
    rows = []
    for d in degrees:
        at_z = unit_coefficient(target, twist, d, zq, divisor, skip_nonconvex)
        at_one = unit_coefficient(target, twist, d, 1, divisor, skip_nonconvex)
        expected = zq ** (1 - d)
        rows.append(
            ZScalingRow(
                degree=d,
                value_at_z=at_z,
                value_at_one=at_one,
                expected_ratio=expected,
                ok=(at_z == at_one * expected),
            )
        )
    return rows
