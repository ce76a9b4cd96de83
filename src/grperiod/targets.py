"""Geometric targets: blow-ups of projective space as Grassmann bundles.

The blow-up of P^N in a transverse intersection of hypersurfaces of degrees
c_0, ..., c_r is cut out of a Grassmann bundle Gr(r, E) over P^N, where
E = sum_j O(k - c_j) for any integer k, by a section of F = S^v(k) (the dual
tautological bundle twisted by O(k)).  This module builds that model, the
divisor gradings attached to it, and the curve-class / lattice bookkeeping
that the series assembly iterates over.

Generator layout used everywhere downstream: generator 0 is the hyperplane
class h pulled back from P^N; generators 1..r are the Chern roots of S^v.
"""

from __future__ import annotations

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
    """A Grassmann (or flag) bundle over P^base_dim.

    e_degrees are the twists of the split bundle E = sum_j O(e_j); ranks
    lists the tautological subbundle ranks of the flag steps.  Blow-up
    models always have a single step.
    """

    base_dim: int
    e_degrees: tuple[int, ...]
    ranks: tuple[int, ...]

    def __post_init__(self):
        if any(r < 1 for r in self.ranks):
            raise ValueError("ranks must be positive")
        if sum(self.ranks[:1]) > len(self.e_degrees):
            raise ValueError("first step rank exceeds rank of E")

    @property
    def nvars(self) -> int:
        return 1 + sum(self.ranks)

    @property
    def omega_degree(self) -> int:
        """Degree of the Weyl denominator prod (h_i - h_j), the working cap."""
        return sum(r * (r - 1) // 2 for r in self.ranks)


@dataclass(frozen=True)
class TwistSpec:
    """Split twist bundle F = sum_s L_s with c1(L_s) = sum_i f_si h_i + rho h.

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
    """Curve class (D; k_1, ..., k_l): base degree and one fiber degree per step."""

    D: int
    k: tuple[int, ...]


@dataclass(frozen=True)
class DivisorData:
    """Divisor a*h + sum_i b_i * det(S_i^v) recorded by its coefficients."""

    a: int
    b: tuple[int, ...]

    def pairing(self, cls: CurveClass) -> int:
        if len(self.b) != len(cls.k):
            raise ValueError("divisor and curve class have different step counts")
        return self.a * cls.D + sum(bi * ki for bi, ki in zip(self.b, cls.k))


def normalize_blowup(spec: BlowUpSpec, twist_k: int | None = None) -> tuple[FlagTarget, TwistSpec]:
    """Grassmann-bundle model of the blow-up, for a chosen twist level k.

    Returns Gr(r, sum_j O(k - c_j)) with twist F = S^v(k).  In theory any k
    gives the same period, but the engine does not honour that for every
    model: P^4 blown up in (1,2,2) gives a wrong series at k = 3, and some
    models, that one among them, raise GradingError at the default
    k = min(c_j), which keeps all e_degrees <= 0 so that lattice floors stay
    at zero.  The tests sweep k only for P^4 in (1,1,2) and P^6 in (1,2,2);
    see ROADMAP item 1.
    """
    c = spec.center_degrees
    if not c:
        raise ValueError("need at least one center degree")
    if any(cj < 1 for cj in c):
        raise ValueError("center degrees must be positive")
    if len(c) > spec.base_dim:
        raise ValueError("center codimension exceeds ambient dimension")
    k = min(c) if twist_k is None else twist_k
    r = len(c) - 1
    target = FlagTarget(
        base_dim=spec.base_dim,
        e_degrees=tuple(k - cj for cj in c),
        ranks=(r,),
    )
    basis = tuple(tuple(1 if i == s else 0 for i in range(r)) for s in range(r))
    return target, TwistSpec(weight_vectors=basis, rho=k)


def anticanonical(target: FlagTarget, twist: TwistSpec) -> tuple[DivisorData, DivisorData]:
    """(ambient -K, zero-locus -K) for a one-step bundle with a split twist.

    The ambient anticanonical class of Gr(r, E) over P^N is
    (N + 1 + r * sum_j e_j) h + n det(S^v) with n = rank E; the zero locus
    of a regular section of F subtracts c1(F).
    """
    if len(target.ranks) != 1:
        raise NotImplementedError("anticanonical formula only covers one-step bundles")
    r = target.ranks[0]
    n = len(target.e_degrees)
    ambient = DivisorData(
        a=target.base_dim + 1 + r * sum(target.e_degrees),
        b=(n,),
    )
    if not twist.weight_vectors:
        return ambient, ambient
    column_sums = [0] * r
    for row in twist.weight_vectors:
        if len(row) != r:
            raise ValueError("twist weight vector length does not match rank")
        for i, f in enumerate(row):
            column_sums[i] += f
    if len(set(column_sums)) != 1:
        raise ValueError("twist is not balanced: c1(F) is not a multiple of det(S^v)")
    det_coeff = column_sums[0]
    zero_locus = DivisorData(
        a=ambient.a - twist.rank * twist.rho,
        b=(n - det_coeff,),
    )
    return ambient, zero_locus


def lattice_floor(target: FlagTarget, D: int) -> int:
    """Lower bound for each fiber degree d_i at base degree D.

    Points with some d_i below min_j(-e_j * D) vanish in the cohomology of
    the bundle (every slot factor then carries the full Chern relation of
    E), but not in the free truncated ring, so they must be excluded here
    rather than relied on to cancel.
    """
    return min(-e * D for e in target.e_degrees)


def lattice_range(target: FlagTarget, cls: CurveClass) -> Iterator[tuple[int, ...]]:
    """All fiber degree vectors d with sum(d) = k and d_i >= the floor."""
    if len(target.ranks) != 1:
        raise NotImplementedError("lattice enumeration only covers one-step bundles")
    r = target.ranks[0]
    (k,) = cls.k
    lo = lattice_floor(target, cls.D)
    yield from _compositions(k, r, lo)


def _compositions(total: int, parts: int, lo: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        if total >= lo:
            yield (total,)
        return
    for first in range(lo, total - lo * (parts - 1) + 1):
        for rest in _compositions(total - first, parts - 1, lo):
            yield (first,) + rest


def _vanishing_floor_count(target: FlagTarget) -> int:
    """How many fiber degrees may sit below zero before a point must vanish.

    Each d_i < 0 forces at least one nilpotent (m = 0) slot factor per
    summand O(e_j) with e_j <= 0; once the forced degree exceeds the Weyl
    cap the whole summand is annihilated by truncation.  Used only to bound
    enumeration when some e_j > 0; it never excludes a contributing point.
    """
    forced_per_negative = sum(1 for e in target.e_degrees if e <= 0)
    if forced_per_negative == 0:
        return 0
    return target.omega_degree // forced_per_negative


def class_enumeration(
    target: FlagTarget,
    twist: TwistSpec,
    x_deg: int,
    divisor: DivisorData | None = None,
) -> list[CurveClass]:
    """All curve classes of the given degree under the divisor grading.

    The divisor defaults to the anticanonical class of the zero locus.
    Requires a Fano-type grading (a > 0 or every b_i > 0); raises
    GradingError when enumeration cannot terminate.
    """
    if len(target.ranks) != 1:
        raise NotImplementedError("class enumeration only covers one-step bundles")
    if divisor is None:
        _, divisor = anticanonical(target, twist)
    a, (b,) = divisor.a, divisor.b
    if not (a > 0 or b > 0):
        raise GradingError(f"non-Fano grading: a = {a}, b = {b}")
    r = target.ranks[0]
    if b <= 0:
        raise GradingError(f"fiber grading b = {b} not positive; classes unbounded")

    # lattice_floor(D) = floor_rate * D for D >= 0, so a class at base
    # degree D has degree at least (a + b * r * floor_rate) * D.
    floor_rate = min(-e for e in target.e_degrees)
    slope = a + b * r * floor_rate
    if slope <= 0:
        # Literal floors do not bound the degree from below.  Tighten with
        # the vanishing count: points with too many negative fiber degrees
        # contribute exactly zero, so skipping their classes is harmless.
        n_neg = min(_vanishing_floor_count(target), r)
        slope = a + b * n_neg * floor_rate
        if slope <= 0:
            raise GradingError("grading admits infinitely many classes per degree")
        kmin_rate = n_neg * floor_rate
    else:
        kmin_rate = r * floor_rate

    out = []
    D = 0
    while a * D + b * kmin_rate * D <= x_deg:
        remainder = x_deg - a * D
        if remainder % b == 0:
            k = remainder // b
            if k >= r * lattice_floor(target, D):
                out.append(CurveClass(D=D, k=(k,)))
        D += 1
        if D > 10 * (abs(x_deg) + 1):
            raise GradingError("class enumeration failed to terminate")
    return sorted(out, key=lambda c: (c.D, c.k))


def fano_index_classes(
    target: FlagTarget,
    twist: TwistSpec,
    divisor: DivisorData | None = None,
) -> list[CurveClass]:
    """Degree-one curve classes: the sources of the exponential correction."""
    return class_enumeration(target, twist, 1, divisor)


def block_index_ranges(target: FlagTarget) -> list[tuple[int, int]]:
    """Half-open generator index ranges of the flag blocks (skipping h)."""
    ranges = []
    start = 1
    for r in target.ranks:
        ranges.append((start, start + r))
        start += r
    return ranges


def all_weyl_pairs(target: FlagTarget) -> list[tuple[int, int]]:
    pairs = []
    for lo, hi in block_index_ranges(target):
        pairs.extend(itertools.combinations(range(lo, hi), 2))
    return pairs


def _standard_basis(r: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(1 if i == s else 0 for i in range(r)) for s in range(r))


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
    target = FlagTarget(base_dim=6, e_degrees=(0, 0, 0, 2), ranks=(3,))
    twist = TwistSpec(weight_vectors=_standard_basis(3), rho=1)
    return target, twist, DivisorData(a=8, b=(3,))


def example3_normalized_model() -> tuple[FlagTarget, TwistSpec, DivisorData]:
    """Blow-up of P^6 in degrees (1, 1, 1, 2), normalized, with its -K grading."""
    target, twist = normalize_blowup(BlowUpSpec(6, (1, 1, 1, 2)), twist_k=1)
    _, divisor = anticanonical(target, twist)
    return target, twist, divisor
