"""Assembly of quantum period series from lattice-point summands.

For each x-degree the contributions of all curve classes are aggregated,
divided by the Weyl denominator Delta = prod_{i<j} (x_i - x_j), and the
unit-class coefficient is read off.  Summands, class aggregates and degree
aggregates are packed values of the summand context's `ring.PackedRing`:
integer numerators over one denominator, with one Fraction made per degree.
Four structural facts keep this cheap and are relied on throughout:

* Unit extraction is representative-independent.  The aggregate over a
  curve class is a polynomial representative of a cohomology class of the
  bundle; the relations of the cohomology presentation are homogeneous of
  positive degree, so they never move the degree-zero part.  The constant
  term of the Weyl quotient therefore *is* the unit-class coefficient, no
  Schubert-basis expansion needed.

* The working cap is deg Delta, so the aggregate divides exactly when it is
  c * Delta for a rational c, and c is the quotient.  `PackedRing.weyl_unit`
  reads c off the staircase monomial and checks the whole equation, which
  is the same check as the sequential linear division `ring.vandermonde_divide`
  (still used by `grperiod validate` to cross-check it).  Each kernel builds
  its Delta once, so nothing outlives the context or call that made it.

* Points below the lattice floor are never generated (their slot factors
  carry the full Chern relation of E and vanish in cohomology, but not in
  the free truncated ring).  Nor, purely for speed, are points whose forced
  nilpotent degree exceeds the cap, which truncation would kill anyway, or,
  when nonconvex points are skipped, points outside the bounds of the local
  twist rows: `targets.lattice_range` prunes them while it builds each
  point.  `class_points` adds the one check the generator cannot make, on
  the general twist rows, and its list is what is summed and what the work
  budget counts.  A run walks its classes once, by the rows of
  `targets.class_rows`, and `_listed` reads both from them.

* Standard-row models (`sums_by_orbits`), r = 1 included, are
  S_r-symmetric: summand(sigma d) = sgn(sigma) sigma(summand(d)), so each
  class aggregate is antisymmetric, c * Delta, and c is its coefficient at
  the staircase monomial x^delta.  There each point is evaluated as that
  one scalar, and each degree's unit is their sum (`_unit`), its numerators
  added per denominator before one lcm of the distinct denominators
  (`_lcm_sum`); a point whose staircase row is zero is not listed (P^8
  blown up in (1,1,1,1,2) through x^11: 21 points).  At r = 1, where the
  class (D, k) is the point (k,), the budget counts the classes of one row
  per D (`targets.class_rows`), whose scalars come from one
  `SummandContext.constants` call, each after the first by the ratio of
  consecutive terms, over one denominator per row; `_row_units` adds them
  as integers over the lcm of the rows' denominators.  The c * Delta check
  cannot run on these scalars (and at r = 1, where Delta = 1, it would be
  empty); a Fano blow-up has its period checked against that of the
  Euler-sequence sum `validation.oracle_blowup_terms` instead, which
  checks its units too.
  Every other model sums its points in the packed ring of the Chern roots,
  at h = 0, with the check.

The degree-one counts of the correction are read class by class, by `_unit`
too, and must sum to the checked unit u_1, or CorrectionError is raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .ring import PackedRing
from .summands import SummandContext, oh_summand, twist_uppers
from .targets import (
    CurveClass,
    DivisorData,
    FlagTarget,
    TwistSpec,
    anticanonical,
    class_enumeration,
    class_rows,
    lattice_range,
    standard_basis,
)
from .validation import oracle_blowup_terms

DEFAULT_WORK_BUDGET = 500_000


class WorkBudgetError(RuntimeError):
    """Raised when a requested computation exceeds the configured budget."""


class OracleMismatchError(ArithmeticError):
    """The orbit-path series of a Fano blow-up differs from the Euler-sequence sum."""


class CorrectionError(ArithmeticError):
    """The degree-one counts of the correction are not the degree-one unit."""


class NotFanoError(ValueError):
    """A blow-up with N + 1 <= r max c: its mirror map need not be e^(-C x)."""


@dataclass(frozen=True)
class Correction:
    """Degree-one class counts n_beta driving the exponential correction."""

    entries: tuple[tuple[CurveClass, Fraction], ...]

    @property
    def total(self) -> Fraction:
        return sum((n for _, n in self.entries), Fraction(0))


@dataclass(frozen=True)
class PeriodSeries:
    """Quantum period G and its regularised companion sum d! G_d x^d.

    raw holds the unit coefficients u_d before the degree-one correction.
    """

    raw: tuple[Fraction, ...]
    coefficients: tuple[Fraction, ...]
    regularised: tuple[Fraction, ...]
    correction: Correction

    def degree_max(self) -> int:
        return len(self.coefficients) - 1


def _forced_nilpotent_degree(
    target: FlagTarget, d: tuple[int, ...], D: int
) -> int:
    """Lower bound on the nilpotent degree forced into a point's summand.

    The reference that `lattice_range` under a cap is tested against: the
    generator yields exactly the points where this is at most the cap.  It
    counts d_i + e_j * D < 0 itself, sharing no code with the generator.
    """
    forced = sum(1 for di in d for e in target.e_degrees if di + e * D < 0)
    r = len(d)
    for i in range(r):
        for j in range(i + 1, r):
            if d[i] == d[j]:
                forced += 1
    return forced


def class_points(
    cls: CurveClass,
    ctx: SummandContext,
    skip_nonconvex: bool = False,
) -> list[tuple[int, ...]]:
    """The lattice points of one curve class that are summed.

    The points `lattice_range` yields under ctx.cap, and with skip_nonconvex
    under the local twist rows too; with skip_nonconvex, a point at which a
    general twist row has a negative upper limit is then dropped.  On an
    orbit context, only the points whose staircase can be nonzero
    (lattice_range with orbit).
    """
    twist = ctx.twist if skip_nonconvex else None
    points = lattice_range(ctx.target, cls, ctx.cap, twist, ctx.orbit)
    if twist is None or not ctx.general_rows:
        return list(points)
    return [d for d in points if all(u >= 0 for u in twist_uppers(twist, cls, d))]


def class_numerator(
    cls: CurveClass,
    ctx: SummandContext,
    skip_nonconvex: bool = False,
) -> tuple[list, int]:
    """Aggregate summand of one curve class (numerator, before Weyl division).

    The sum of oh_summand over class_points, a packed value of ctx.kernel.
    Without skip_nonconvex a point with a negative twist upper limit raises
    TwistRangeError.
    """
    return ctx.kernel.add_all(
        oh_summand(d, cls, ctx) for d in class_points(cls, ctx, skip_nonconvex)
    )


def degree_numerator(
    target: FlagTarget,
    twist: TwistSpec | None,
    x_deg: int,
    z: Fraction | int = 1,
    divisor: DivisorData | None = None,
    skip_nonconvex: bool = False,
) -> tuple[list, int]:
    """Sum of class numerators over every curve class of the given degree.

    The result is a packed value of PackedRing(target.nvars,
    target.omega_degree), the ring `unit_from_numerator` reads.
    """
    ctx = SummandContext(target, twist, z)
    classes = class_enumeration(target, twist, x_deg, divisor)
    return ctx.kernel.add_all(class_numerator(cls, ctx, skip_nonconvex) for cls in classes)


def unit_from_numerator(numerator: tuple[list, int], target: FlagTarget) -> Fraction:
    """Unit coefficient c of a packed aggregate numerator = c * Delta.

    The numerator lives in PackedRing(target.nvars, target.omega_degree), the
    ring of a default SummandContext; a kernel made for the call reads it.
    Raises NotDivisibleError, with
    numerator - c * Delta as its remainder, when the aggregate is not a
    multiple of the Weyl denominator.
    """
    return PackedRing(target.nvars, target.omega_degree).weyl_unit(numerator)


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

    Each class's unit is read point by point by `_unit`, on the kind of
    context unit_series makes, so a standard-row model never builds Delta.
    Each n_beta is z-independent (its z-power is 0), checked at two z.
    """
    orbit = sums_by_orbits(target, twist, skip_nonconvex)
    contexts = [SummandContext(target, twist, z, orbit=orbit) for z in (1, 2)]
    entries = []
    for cls in class_enumeration(target, twist, 1, divisor):
        values = [
            _unit([(d, cls) for d in class_points(cls, ctx, skip_nonconvex)], ctx)
            for ctx in contexts
        ]
        if values[0] != values[1]:
            raise CorrectionError(
                f"degree-one coefficient for {cls} depends on z: {values}"
            )
        entries.append((cls, values[0]))
    return Correction(entries=tuple(entries))


def sums_by_orbits(target: FlagTarget, twist: TwistSpec | None, skip_nonconvex: bool) -> bool:
    """Whether unit_series takes the orbit path: a standard-row model.

    Its twist rows are standard_basis(r), F = S^v(rho), which makes
    summand(sigma d) = sgn(sigma) sigma(summand(d)), so each class aggregate
    is c * Delta and a point's staircase scalar suffices.  It must keep no
    negative twist range, which the orbit floor could drop instead of
    raising TwistRangeError: nonconvex points are skipped, or rho >= max
    e_j, since every listed d_a >= -max(e_j) D.
    """
    if twist is None or twist.weight_vectors != standard_basis(target.rank):
        return False
    return skip_nonconvex or twist.rho >= max(target.e_degrees)


def fano_degrees(
    target: FlagTarget, twist: TwistSpec | None, divisor: DivisorData | None = None
) -> tuple[int, ...] | None:
    """Centre degrees c of a Fano blow-up of P^N, None for a model of another shape.

    The shape is the one normalize_blowup returns for some twist level k:
    rank E = r + 1, F = S^v(k), every c_j = k - e_j >= 1, at most N of
    them, under the anticanonical grading (no divisor, or one equal to it).
    A model of that shape with N + 1 <= r max c raises NotFanoError.
    """
    r = target.rank
    # skip_nonconvex makes sums_by_orbits the row test alone
    if len(target.e_degrees) != r + 1 or not sums_by_orbits(target, twist, True):
        return None
    c = tuple(twist.rho - e for e in target.e_degrees)
    if min(c) < 1 or len(c) > target.base_dim:
        return None
    if divisor is not None and divisor != anticanonical(target, twist)[1]:
        return None
    if target.base_dim + 1 <= r * max(c):
        raise NotFanoError(
            f"P^{target.base_dim} blown up in degrees {c} is not Fano: "
            f"N + 1 = {target.base_dim + 1} <= r max c = {r * max(c)}"
        )
    return c


def estimate_points(
    target: FlagTarget,
    twist: TwistSpec | None,
    dmax: int,
    divisor: DivisorData | None = None,
) -> int:
    """Lattice points period_series sums for degrees 0..dmax.

    Exact when nonconvex points are kept, and an upper bound when they are
    skipped.  A standard-row model with rho >= max e_j (sums_by_orbits with
    nonconvex points kept) lists no point whose staircase is zero, so its
    count can be below the number of points the packed path sums for the
    same series.
    """
    ctx = SummandContext(target, twist, orbit=sums_by_orbits(target, twist, False))
    return sum(_listed(ctx, class_rows(target, twist, dmax, divisor, ctx.orbit), dmax, False)[0])


def _listed(ctx: SummandContext, rows, dmax: int, skip_nonconvex: bool) -> tuple[list, list | None]:
    """The points summed in each degree 0..dmax, counted and as (point, class) pairs.

    rows are class_rows' rows, and each degree's pairs follow
    class_enumeration's order.  At r = 1 on an orbit context each class is
    its one point (k,), summed by rows (`_row_units`): no pairs are listed.
    """
    if ctx.orbit and ctx.target.rank == 1:
        counts = [0] * (dmax + 1)
        for _, _, degrees in rows:
            for x_deg in degrees:
                counts[x_deg] += 1
        return counts, None
    listed: list[list] = [[] for _ in range(dmax + 1)]
    for D, ks, degrees in rows:
        for x_deg, k in zip(degrees, ks):
            cls = CurveClass(D, k)
            listed[x_deg] += [(d, cls) for d in class_points(cls, ctx, skip_nonconvex)]
    return [len(pairs) for pairs in listed], listed


def _unit(pairs: list, ctx: SummandContext) -> Fraction:
    """Unit coefficient of the sum over (point, class) pairs: one degree or one class.

    Off an orbit context the summands are added in ctx.kernel, which reads the
    unit with its c * Delta check and builds Delta once per context.  On an
    orbit context each point's oh_summand is its scalar S[h^0 x^delta]: a
    standard-row model's aggregate is c * Delta, and Delta[x^delta] = 1, so
    the unit is their sum.  The c * Delta check cannot run on these scalars.
    """
    if not ctx.orbit:
        numerator = ctx.kernel.add_all(oh_summand(d, cls, ctx) for d, cls in pairs)
        return ctx.kernel.weyl_unit(numerator)
    return _lcm_sum([oh_summand(d, cls, ctx) for d, cls in pairs])


def _lcm_sum(parts: list[tuple[int, int]]) -> Fraction:
    """The sum of the (numerator, den) parts: the numerators of each distinct
    den are added first, and those sums put over one lcm of the distinct dens."""
    sums: dict[int, int] = {}
    for n, d in parts:
        sums[d] = sums.get(d, 0) + n
    den = math.lcm(*sums)
    return Fraction(sum(n * (den // d) for d, n in sums.items()), den)


def _row_units(rows: list, ctx: SummandContext, dmax: int) -> list[Fraction]:
    """The unit of each degree 0..dmax: z times the sum of its points' constants.

    Each row's constants share one denominator, so one lcm over the rows'
    denominators puts every numerator over one denominator, and each degree
    makes one Fraction.
    """
    scalars = [(degrees, ctx.constants(D, ks)) for D, ks, degrees in rows]
    den = math.lcm(*(row[0][1] for _, row in scalars))
    sums = [0] * (dmax + 1)
    for degrees, row in scalars:
        scale = den // row[0][1]
        for x_deg, (num, _) in zip(degrees, row):
            sums[x_deg] += num * scale
    return [Fraction(ctx.p * s, ctx.q * den) for s in sums]


def _check_against_oracle(
    raw: list[Fraction], regularised: tuple, base_dim: int, degrees: tuple[int, ...], z: Fraction
) -> None:
    """Raise OracleMismatchError unless the units' period is the Euler-sequence sum's.

    Degrees 0 and 1 compare raw[d] z^(d-1) with the sum S's units, or e^x S's at r = 1,
    where the points (k,) at D = 0 add 1/k! each, which S leaves out.  As e^(-u_1 x) is
    unitriangular, the units agree exactly when their period is e^(-S_1 x) S, and first
    differ in the same degree: each d >= 2 compares regularised[d] z^(d-1) with d! S_d,
    or `_pascal` at C = S_1 != 0, in integers.  A mismatch names the units of its degree,
    or, where they agree (a faulty correction), the periods.
    """
    S = oracle_blowup_terms(base_dim, degrees, len(raw) - 1)
    S_1 = Fraction(*S[1]) if len(S) > 1 else 0
    rows = _pascal(S, S_1) if S_1 else [(n * math.factorial(d), m) for d, (n, m) in enumerate(S)]
    source = ("e^x times " if len(degrees) == 2 else "") + "the Euler-sequence sum"
    source += f" for P^{base_dim} blown up in degrees {degrees}"

    def expected(d: int) -> Fraction:  # S_d, or sum_t S_(d-t) / t! at r = 1
        ts = range(d + 1) if len(degrees) == 2 else [0]
        return sum(Fraction(*S[d - t]) / math.factorial(t) for t in ts)

    p, q = z.numerator, z.denominator
    for d, (v, (en, ed)) in enumerate(zip(regularised, rows)):
        if d >= 2 and v.numerator * p ** (d - 1) * ed == en * v.denominator * q ** (d - 1):
            continue
        unit, want = raw[d] * z ** (d - 1), expected(d)
        if unit != want:
            raise OracleMismatchError(f"degree {d}: the engine gives {unit}, {source} gives {want}")
        if d >= 2:
            raise OracleMismatchError(
                f"degree {d}: the units agree, but the engine's regularised period gives "
                f"{v * z ** (d - 1)}, that of {source} gives {Fraction(en, ed)}"
            )


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

    unit_series with the degree-one layer removed by the exponential
    correction G(x) = e^(-C x / z) * sum_d u_d x^d; u_d carries z^(1 - d),
    so G_d does too.  All arithmetic is exact; the regularised series
    multiplies degree d by d!.  A blow-up that is not Fano raises
    NotFanoError.
    """
    fano_degrees(target, twist, divisor)
    raw, correction, series = _checked(target, twist, dmax, z, divisor, skip_nonconvex, budget)
    return PeriodSeries(tuple(raw), *series, correction)


def unit_series(
    target: FlagTarget,
    twist: TwistSpec | None,
    dmax: int,
    z: Fraction | int = 1,
    divisor: DivisorData | None = None,
    skip_nonconvex: bool = False,
    budget: int | None = DEFAULT_WORK_BUDGET,
) -> tuple[list[Fraction], Correction]:
    """Unit coefficients u_0..u_dmax of the I-function, and the degree-one counts.

    One class_rows walk gives the classes of every degree, and `_listed`
    the points they list: more than budget points raise WorkBudgetError.
    A standard-row model (sums_by_orbits) sums one staircase scalar per
    point, at r = 1 by rows of classes; if it is a Fano blow-up (fano_degrees),
    OracleMismatchError is raised unless their period, built as in
    period_series but not returned, is the Euler-sequence sum's.  Every
    other model sums every point in the packed ring and checks that each
    degree's aggregate is c * Delta (`_unit`).  The degree-one counts, read
    on the same path, must sum to u_1, or CorrectionError is raised.
    """
    return _checked(target, twist, dmax, z, divisor, skip_nonconvex, budget)[:2]


def _checked(target, twist, dmax, z, divisor, skip_nonconvex, budget):
    """unit_series' units and counts, and their `corrected_series` at C = u_1 / z, all checked."""
    if dmax < 0:
        raise ValueError("dmax must be nonnegative")
    # one context, so its factor caches are shared by every degree
    ctx = SummandContext(target, twist, z, orbit=sums_by_orbits(target, twist, skip_nonconvex))
    floor = ctx.orbit and skip_nonconvex  # standard rows bound every d_i >= -rho D
    rows = list(class_rows(target, twist, dmax, divisor, ctx.orbit, twist_floor=floor))
    counts, listed = _listed(ctx, rows, dmax, skip_nonconvex)
    if budget is not None:
        estimate = sum(counts)
        if estimate > budget:
            per_degree = ", ".join(f"{d}: {n}" for d, n in enumerate(counts))
            raise WorkBudgetError(
                f"estimated {estimate} lattice points exceeds budget {budget} "
                f"(per degree {per_degree})"
            )
    correction = correction_C(target, twist, divisor, skip_nonconvex)
    raw = _row_units(rows, ctx, dmax) if listed is None else [_unit(p, ctx) for p in listed]
    series = corrected_series(raw, raw[1] / ctx.z if dmax else Fraction(0))
    try:
        degrees = fano_degrees(target, twist, divisor)
    except NotFanoError:  # its units stand, with no oracle to check them
        degrees = None
    if degrees is not None:
        _check_against_oracle(raw, series[1], target.base_dim, degrees, ctx.z)
    # u_1 has z-power 0, so it is the counts' total at any z
    if dmax >= 1 and correction.total != raw[1]:
        raise CorrectionError(
            f"degree one: the degree-one counts sum to {correction.total}, "
            f"the unit u_1 is {raw[1]}"
        )
    return raw, correction, series


def corrected_series(
    raw: list[Fraction], C: Fraction
) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """G = e^(-C x) * sum_d u_d x^d and its regularised d! G_d, for raw u_d.

    One Fraction per degree and per series, from the integers of `_pascal`.
    """
    coeffs, regularised = [], []
    for d, (num, den) in enumerate(_pascal(raw, C)):
        regularised.append(Fraction(num, den))
        coeffs.append(Fraction(num, den * math.factorial(d)))
    return tuple(coeffs), tuple(regularised)


def _pascal(raw: list, C: Fraction | int) -> list[tuple[int, int]]:
    """d! G_d as an unreduced (numerator, den) for each d, G = e^(-C x) * sum_d u_d x^d.

    d! G_d = sum_t C(d, t) (-C)^t (d - t)! u_(d-t), built in integers from
    a Pascal triangle, for u_d given as Fractions or (numerator, den) pairs.
    Every m! u_m = m! n / den is written once as A_m / L, over the lcm L of
    the den / gcd(m!, den).  With C = p/q, row 0 is A_0, A_1, ... and

        row_(k+1)[m] = q row_k[m + 1] - p row_k[m],

    so row_k[m] = sum_t C(k, t) (-p)^t q^(k-t) A_(m+k-t), and d! G_d is
    row_d[0] / (L q^d): one multiply-subtract per (d, t).
    """
    p, q = C.numerator, C.denominator
    scaled = []
    for m, u in enumerate(raw):
        n, den = u if isinstance(u, tuple) else u.as_integer_ratio()
        g = math.gcd(math.factorial(m), den)
        scaled.append((n * (math.factorial(m) // g), den // g))
    den = math.lcm(*(d for _, d in scaled))
    row = [n * (den // d) for n, d in scaled]
    out = [(row[0], den)]
    for _ in raw[1:]:
        den *= q
        row = [q * b - p * a for a, b in zip(row, row[1:])]
        out.append((row[0], den))
    return out


def z_scaling_failures(
    target: FlagTarget,
    twist: TwistSpec | None,
    degrees: list[int],
    z: Fraction | int,
) -> list[int]:
    """The degrees d at which value(z) != value(1) * z^(1 - d)."""
    zq = Fraction(z)
    return [
        d
        for d in degrees
        if unit_coefficient(target, twist, d, zq)
        != unit_coefficient(target, twist, d, 1) * zq ** (1 - d)
    ]
