"""Geometric targets: blow-ups of projective space as Grassmann bundles.

The blow-up of P^N in a transverse intersection of hypersurfaces of degrees
c_0, ..., c_r is cut out of a Grassmann bundle Gr(r, E) over P^N, where
E = sum_j O(k - c_j) for any integer k, by a section of F = S^v(k) (the dual
tautological bundle twisted by O(k)).  This module builds that model, the
divisor gradings attached to it, and the curve-class / lattice bookkeeping
that the series assembly iterates over.  The model is always this one-step
bundle, of a single rank r: the blow-up needs no partial flag bundle.

Generator layout used everywhere downstream: generator 0 is the hyperplane
class h pulled back from P^N; generators 1..r are the Chern roots x_1..x_r
of S^v.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from typing import Iterator


class GradingError(ValueError):
    """Raised for gradings under which class enumeration is not finite."""


@dataclass(frozen=True)
class BlowUpSpec:
    """Blow-up of P^base_dim in a complete intersection of the given degrees."""

    base_dim: int
    center_degrees: tuple[int, ...]


@dataclass(frozen=True)
class FlagTarget:
    """The Grassmann bundle Gr(rank, E) over P^base_dim.

    e_degrees are the twists of the split bundle E = sum_j O(e_j), and rank
    is the rank of the tautological subbundle S.
    """

    base_dim: int
    e_degrees: tuple[int, ...]
    rank: int

    def __post_init__(self):
        if self.base_dim < 0:
            raise ValueError("base_dim must be nonnegative")
        if self.rank < 1:
            raise ValueError("rank must be positive")
        if self.rank > len(self.e_degrees):
            raise ValueError("rank exceeds the rank of E")

    @property
    def nvars(self) -> int:
        return 1 + self.rank

    @property
    def omega_degree(self) -> int:
        """Degree of the Weyl denominator prod (x_i - x_j), the working cap."""
        return self.rank * (self.rank - 1) // 2


@dataclass(frozen=True)
class TwistSpec:
    """Split twist bundle F = sum_s L_s with c1(L_s) = sum_i f_si x_i + rho h.

    weight_vectors holds the rows f_s (one integer per Chern root of S^v).
    Blow-up models use the standard basis: F = S^v(rho).
    """

    weight_vectors: tuple[tuple[int, ...], ...]
    rho: int

    @property
    def rank(self) -> int:
        return len(self.weight_vectors)


@dataclass(frozen=True)
class CurveClass:
    """Curve class (D; k): base degree D and fiber degree k."""

    D: int
    k: int


@dataclass(frozen=True)
class DivisorData:
    """Divisor a*h + b*det(S^v) recorded by its coefficients."""

    a: int
    b: int

    def pairing(self, cls: CurveClass) -> int:
        return self.a * cls.D + self.b * cls.k


def standard_basis(r: int) -> tuple[tuple[int, ...], ...]:
    """Twist rows of F = S^v(rho): one row per Chern root."""
    return tuple(tuple(1 if i == s else 0 for i in range(r)) for s in range(r))


def split_twist_rows(
    twist: TwistSpec | None, r: int
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """(weights of the rows local to each root, indices of the general rows).

    A row is local to root i when f_i is the only nonzero weight among its
    first r; every other row, all-zero rows included, is general.
    """
    local: tuple[list[int], ...] = tuple([] for _ in range(r))
    general = []
    for s, row in enumerate(twist.weight_vectors if twist is not None else ()):
        weights = [(i, f) for i, f in enumerate(row[:r]) if f]
        if len(weights) == 1:
            i, f = weights[0]
            local[i].append(f)
        else:
            general.append(s)
    return tuple(tuple(w) for w in local), tuple(general)


def normalize_blowup(spec: BlowUpSpec, twist_k: int | None = None) -> tuple[FlagTarget, TwistSpec]:
    """Grassmann-bundle model of the blow-up, for a chosen twist level k.

    Returns Gr(r, sum_j O(k - c_j)) with twist F = S^v(k).  Every k presents
    the same blow-up, but not every k has a finite class enumeration under
    the anticanonical grading (class_enumeration raises GradingError).
    Without twist_k, k is the smallest value in [min c_j, max c_j] whose
    enumeration is finite, and GradingError is raised if there is none.
    """
    c = spec.center_degrees
    if len(c) < 2:
        # one degree cuts out a divisor, and blowing up a divisor gives back X
        raise ValueError("a center needs at least two degrees")
    if any(cj < 1 for cj in c):
        raise ValueError("center degrees must be positive")
    if len(c) > spec.base_dim:
        raise ValueError("center codimension exceeds ambient dimension")
    r = len(c) - 1
    levels = range(min(c), max(c) + 1) if twist_k is None else (twist_k,)
    for k in levels:
        target = FlagTarget(spec.base_dim, tuple(k - cj for cj in c), r)
        twist = TwistSpec(weight_vectors=standard_basis(r), rho=k)
        if twist_k is not None:
            return target, twist
        try:
            _fiber_rate(target, anticanonical(target, twist)[1])
        except GradingError:
            continue
        return target, twist
    raise GradingError(f"no twist level in [{min(c)}, {max(c)}] bounds the curve classes")


def weight_rows(target: FlagTarget, twist: TwistSpec | None) -> tuple[tuple[int, ...], ...]:
    """The twist's weight rows, none without a twist.

    Raises ValueError unless every row has one weight per Chern root.
    """
    rows = twist.weight_vectors if twist is not None else ()
    if any(len(row) != target.rank for row in rows):
        raise ValueError(f"twist_weights row length does not match rank {target.rank}")
    return rows


def anticanonical(target: FlagTarget, twist: TwistSpec | None) -> tuple[DivisorData, DivisorData]:
    """(ambient -K, zero-locus -K) for a split twist, or no twist (no rows).

    The ambient anticanonical class of Gr(r, E) over P^N is
    (N + 1 + r * sum_j e_j) h + n det(S^v) with n = rank E; the zero locus
    of a regular section of F subtracts c1(F).
    """
    n = len(target.e_degrees)
    ambient = DivisorData(a=target.base_dim + 1 + target.rank * sum(target.e_degrees), b=n)
    rows = weight_rows(target, twist)
    if not rows:
        return ambient, ambient
    column_sums = {sum(column) for column in zip(*rows)}
    if len(column_sums) != 1:
        raise ValueError("twist is not balanced: c1(F) is not a multiple of det(S^v)")
    zero_locus = DivisorData(a=ambient.a - twist.rank * twist.rho, b=n - column_sums.pop())
    return ambient, zero_locus


def slot_thresholds(target: FlagTarget, D: int) -> list[int]:
    """The values -e_j * D in increasing order, one per slot O(e_j).

    At base degree D a root of fiber degree d_i below -e_j * D forces the
    m = 0 factor of slot O(e_j), of positive degree and no constant term,
    into the summand.  Below the least threshold, every slot factor carries
    the full Chern relation of E: such a point vanishes in the cohomology
    of the bundle but not in the free truncated ring, so lattice_range
    excludes it rather than relying on it to cancel.
    """
    return sorted(-e * D for e in target.e_degrees)


def lattice_range(
    target: FlagTarget,
    cls: CurveClass,
    cap: int | None = None,
    twist: TwistSpec | None = None,
    orbit: bool = False,
) -> Iterator[tuple[int, ...]]:
    """Fiber degree vectors d with sum(d) = k and every d_i >= the floor.

    The floor is the least of slot_thresholds(target, D).  Points come in
    lexicographic order.  With a cap, only the points whose forced
    nilpotent degree -- over the roots, the thresholds above d_i, plus one
    for each pair of equal fiber degrees -- is at most cap; truncation at
    the cap kills the rest.  With a twist, only the points at which every
    row local to a root i (split_twist_rows), of weight f, has
    f * d_i + rho * D >= 0.  With orbit, only the points whose staircase
    can be nonzero: root i (0-based) forces at most r - 1 - i slots.

    That last cut is exact for the staircase of a standard-row model
    (`summands.SummandContext.staircase`): a root's factor R_a is divisible
    by x_a^(f_a), and the staircase reads x_a^(r-1-a), so row a of its
    determinant is zero when f_a > r - 1 - a.  The cut is a floor per root:
    root i takes the smallest value that forces at most r - 1 - i slots.
    The floors sum to D times the r largest -e_j, so a class below that
    total yields nothing.  On such a point the Weyl cap deg Delta never
    binds: root i forces f_i <= r - 1 - i slots, a later root of the same
    value forces the same f_i, so its index is at most r - 1 - f_i, and
    root i's slots plus its equal-value pairs number at most r - 1 - i,
    which sums to deg Delta over the roots.

    The cap and orbit cuts are made while the point is built, and they are
    exact: a root value spends budget (cap at the start) on its forced slots
    and on each earlier root of the same value, and that spending only
    grows, so a branch ends as soon as its budget is below zero.  A branch
    also ends when the roots still to be placed cannot all reach a free
    value (one that forces no slot) and the budget left is below what the
    cheapest forced value costs.  A value outside a twist row's bound or
    below a root's floor is never tried.  These cuts only end branches that
    have no completion at all.
    """
    r, D, k = target.rank, cls.D, cls.k
    thresholds = slot_thresholds(target, D)
    lo = thresholds[0]
    # on the orbit path root i forces at most r - 1 - i slots (rank E >= r)
    low = thresholds[-r:] if orbit else [lo] * r
    high = [k - lo * (r - 1)] * r
    if twist is not None:
        rho_D = twist.rho * D
        for i, weights in enumerate(split_twist_rows(twist, r)[0]):
            for f in weights:
                if f > 0:
                    low[i] = max(low[i], -(rho_D // f))
                else:
                    high[i] = min(high[i], rho_D // -f)
    if cap is None:
        cap = r * len(thresholds) + target.omega_degree  # what any point forces at most
    free = thresholds[-1]
    cheapest = len(thresholds) - bisect.bisect_right(thresholds, free - 1)
    rest_low, rest_high, rest_free = [0] * r, [0] * r, [0] * r
    for i in range(r - 1, 0, -1):
        rest_low[i - 1] = rest_low[i] + low[i]
        rest_high[i - 1] = rest_high[i] + high[i]
        rest_free[i - 1] = rest_free[i] + max(free, low[i])
    plan = (low, high, rest_low, rest_high, rest_free, thresholds, cheapest)
    yield from _completions((), k, cap, plan)


def _completions(head: tuple[int, ...], total: int, budget: int, plan) -> Iterator[tuple[int, ...]]:
    """Points of lattice_range that start with head; the rest sums to total."""
    low, high, rest_low, rest_high, rest_free, thresholds, cheapest = plan
    i, n = len(head), len(thresholds)
    start = max(low[i], total - rest_high[i])
    stop = min(high[i], total - rest_low[i])
    if budget < n:  # below thresholds[n - 1 - budget], a value forces more than budget slots
        start = max(start, thresholds[n - 1 - budget])
    for v in range(start, stop + 1):
        left = budget - (n - bisect.bisect_right(thresholds, v)) - head.count(v)
        if left < 0 or (left < cheapest and total - v < rest_free[i]):
            continue
        if i + 1 == len(low):
            yield head + (v,)
        elif i + 2 < len(low):
            yield from _completions(head + (v,), total - v, left, plan)
        else:  # the last root takes the rest, which the bounds on v keep in its range
            last, point = total - v, head + (v,)
            if left >= n - bisect.bisect_right(thresholds, last) + point.count(last):
                yield point + (last,)


def _fiber_rate(target: FlagTarget, divisor: DivisorData) -> int:
    """The rate q such that every class that can contribute has k >= q * D.

    Raises GradingError when the grading does not bound the classes of a
    degree.
    """
    a, b, r = divisor.a, divisor.b, target.rank
    if not (a > 0 or b > 0):
        raise GradingError(f"non-Fano grading: a = {a}, b = {b}")
    if b <= 0:
        raise GradingError(f"fiber grading b = {b} not positive; classes unbounded")
    # The floor at D >= 0 is floor_rate * D, so a class at base degree D
    # has degree at least (a + b * r * floor_rate) * D.
    thresholds = slot_thresholds(target, 1)
    floor_rate = thresholds[0]
    if a + b * r * floor_rate > 0:
        return r * floor_rate
    # Literal floors do not bound the degree from below.  Each d_i < 0
    # forces every slot with e_j <= 0 (a threshold >= 0), so a point with
    # more than n_neg negative fiber degrees passes the Weyl cap and is
    # zero.  With every e_j > 0 nothing is forced and nothing bounds k.
    forced_per_negative = sum(t >= 0 for t in thresholds)
    if forced_per_negative == 0:
        raise GradingError("every e_j > 0: nothing bounds the classes with negative fiber degrees")
    n_neg = min(target.omega_degree // forced_per_negative, r)
    if a + b * n_neg * floor_rate <= 0:
        raise GradingError("grading admits infinitely many classes per degree")
    return n_neg * floor_rate


def class_rows(
    target: FlagTarget,
    twist: TwistSpec | None,
    dmax: int,
    divisor: DivisorData | None = None,
    orbit: bool = False,
    dmin: int = 0,
    twist_floor: bool = False,
) -> Iterator[tuple[int, range, range]]:
    """(D, ks, degrees) by increasing D: the classes (D, k), k in ks, of degree dmin..dmax.

    degrees holds each class's degree a D + b k, in the order of ks.  The
    divisor defaults to the anticanonical class of the zero locus.
    Requires a Fano-type grading (a > 0 or b > 0).  Raises GradingError
    when enumeration cannot terminate, and when the literal lattice floors
    do not bound the degree and every e_j > 0: there nothing forces a point
    with negative fiber degrees to vanish, so no finite set of classes is
    known to hold every contributing point.  Raises ValueError for twist
    rows of the wrong length (weight_rows), under any grading.

    Every class that can hold a point has k >= rate * D, so a class of
    degree x has D <= x // slope, slope = a + b * rate.  The rate is the
    largest of _fiber_rate; with orbit, the sum of the r largest
    slot_thresholds at D = 1, whose multiples by D are lattice_range's
    orbit floors, below which it yields no point (P^3 blown up in (1,2)
    through x^60: 651 of 961 classes); and with twist_floor, -r rho, since
    standard twist rows with nonconvex points skipped bound every
    d_i >= -rho D (lattice_range).  With dmin = 0 every row holds a class.
    """
    weight_rows(target, twist)
    if divisor is None:
        _, divisor = anticanonical(target, twist)
    a, b = divisor.a, divisor.b
    rate = _fiber_rate(target, divisor)
    if orbit:
        rate = max(rate, sum(slot_thresholds(target, 1)[-target.rank :]))
    if twist_floor:
        rate = max(rate, -target.rank * twist.rho)
    for D in range(dmax // (a + b * rate) + 1):
        ks = range(max(rate * D, -((a * D - dmin) // b)), (dmax - a * D) // b + 1)
        yield D, ks, range(a * D + b * ks.start, a * D + b * ks.stop, b)


def class_enumeration(
    target: FlagTarget,
    twist: TwistSpec | None,
    x_deg: int,
    divisor: DivisorData | None = None,
    orbit: bool = False,
) -> list[CurveClass]:
    """All curve classes of the given degree: the rows of class_rows from x_deg to x_deg."""
    rows = class_rows(target, twist, x_deg, divisor, orbit, x_deg)
    return [CurveClass(D, k) for D, ks, _ in rows for k in ks]


def all_weyl_pairs(target: FlagTarget) -> list[tuple[int, int]]:
    """Generator index pairs (i, j), i < j, of the Weyl denominator."""
    return list(itertools.combinations(range(1, target.rank + 1), 2))


def example3_verbatim_model() -> tuple[FlagTarget, TwistSpec, DivisorData]:
    """Pinned reference configuration: Gr(3, O^3 + O(2)) over P^6, F = S^v(1).

    The grading 8h + 3 det(S^v) is fixed by hand rather than derived; note
    it is *not* the anticanonical grading of the zero locus of F in this
    model (no twist level k reproduces it), which is why the series this
    configuration produces is reported side by side with the normalized
    blow-up model of degrees (1, 1, 1, 2) instead of replacing it.  Because
    the grading admits lattice points with negative twist ranges, series
    assembly for this model must skip the nonconvex points.
    """
    target = FlagTarget(base_dim=6, e_degrees=(0, 0, 0, 2), rank=3)
    twist = TwistSpec(weight_vectors=standard_basis(3), rho=1)
    return target, twist, DivisorData(a=8, b=3)


def example3_normalized_model() -> tuple[FlagTarget, TwistSpec, DivisorData]:
    """Blow-up of P^6 in degrees (1, 1, 1, 2), normalized, with its -K grading."""
    target, twist = normalize_blowup(BlowUpSpec(6, (1, 1, 1, 2)), twist_k=1)
    _, divisor = anticanonical(target, twist)
    return target, twist, divisor
