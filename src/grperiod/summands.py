"""Hypergeometric building blocks of the bundle I-function.

Every contribution of a lattice point is a product of factor ratios

    prod_{m=-inf}^{0} (cls + m z)  /  prod_{m=-inf}^{upper} (cls + m z)

together with a Weyl numerator, a base factor from P^N, and a twist
numerator.  The ratios collapse to finite products: an inverted tail for
positive upper limits, an extra (nilpotent-bearing) numerator block for
negative ones.  z enters as an exact rational parameter, not a generator;
degree homogeneity lets callers recover the z-dependence afterwards.

`oh_summand` builds each product from parts cached on its SummandContext:
every ratio and twist numerator is a univariate series in its (nilpotent,
linear) class, depending only on its upper limit, so the series are cached
by that limit and the per-root products by (root, d_i, D).  The parts are
multiplied in the integer kernel `ring.PackedRing`.  The GradedPoly helpers
below (`factor_ratio`, `base_j_factor`, `flag_factor`, `weyl_block`,
`twist_factor`) compute the same factors directly and serve as its
reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .ring import GradedPoly, PackedRing, poly_mul, unit_inverse
from .targets import CurveClass, FlagTarget, TwistSpec, block_index_ranges


class SingularFactorError(ZeroDivisionError):
    """A denominator factor with zero constant term cannot be inverted."""


class TwistRangeError(ValueError):
    """A twist upper limit came out negative.

    The closed product formula for the twisted series is only valid where
    all twist ranges are nonnegative (as they are for blow-up models, whose
    lattice floors guarantee it); outside that regime we refuse to guess.
    """


@dataclass(frozen=True)
class SummandContext:
    """Shared ring data for one target: variable count, cap, z.

    The context also owns the caches `oh_summand` draws on, so they live
    exactly as long as the context: callers make one per target and z and
    share it across the points and degrees of one computation.
    """

    target: FlagTarget
    twist: TwistSpec | None
    z: Fraction
    cap: int
    kernel: PackedRing = field(init=False, repr=False, compare=False)
    # twist rows by the one root they involve (weights), and the rest (indices)
    local_rows: tuple = field(init=False, repr=False, compare=False)
    general_rows: tuple = field(init=False, repr=False, compare=False)
    _slots: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _twists: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _bases: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _roots: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _rows: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "kernel", PackedRing(self.nvars, self.cap))
        width = self.target.ranks[0] if len(self.target.ranks) == 1 else 0
        local: tuple[list[int], ...] = tuple([] for _ in range(width))
        general = []
        rows = self.twist.weight_vectors if self.twist is not None else ()
        for s, row in enumerate(rows):
            weights = [(i, f) for i, f in enumerate(row[:width]) if f]
            if len(weights) == 1:
                i, f = weights[0]
                local[i].append(f)
            else:
                general.append(s)
        object.__setattr__(self, "local_rows", tuple(tuple(w) for w in local))
        object.__setattr__(self, "general_rows", tuple(general))
        unit = (Fraction(1),) + (Fraction(0),) * self.cap
        self._slots[0] = unit
        self._twists[0] = unit

    @classmethod
    def for_target(
        cls,
        target: FlagTarget,
        twist: TwistSpec | None = None,
        z: Fraction | int = 1,
        cap: int | None = None,
    ) -> "SummandContext":
        zq = Fraction(z)
        if zq == 0:
            raise SingularFactorError("z = 0 makes every shifted factor singular")
        return cls(
            target=target,
            twist=twist,
            z=zq,
            cap=target.omega_degree if cap is None else cap,
        )

    @property
    def nvars(self) -> int:
        return self.target.nvars

    def one(self) -> GradedPoly:
        return GradedPoly.constant(1, self.nvars, self.cap)

    def h(self) -> GradedPoly:
        return GradedPoly.generator(0, self.nvars, self.cap)

    def root(self, i: int) -> GradedPoly:
        """i-th Chern root of S^v (1-based within the first block)."""
        return GradedPoly.generator(i, self.nvars, self.cap)

    # -- cached parts of oh_summand -----------------------------------------

    def slot_series(self, upper: int) -> tuple[Fraction, ...]:
        """Coefficients of l^0..l^cap in the ratio with upper limit `upper`.

        Built from the neighbouring limit: dividing by (l + upper z) going
        up, multiplying by (l + (upper + 1) z) going down.
        """
        cache, z = self._slots, self.z
        step = 1 if upper > 0 else -1
        t = upper
        while t not in cache:
            t -= step
        while t != upper:
            t += step
            prev = cache[t - step]
            cache[t] = _over_linear(prev, t * z) if step > 0 else _times_linear(prev, (t + 1) * z)
        return cache[upper]

    def twist_series(self, upper: int) -> tuple[Fraction, ...]:
        """Coefficients of prod_{m=1}^{upper} (l + m z), upper >= 0."""
        if upper < 0:
            raise TwistRangeError(f"twist range negative: upper limit {upper}")
        cache = self._twists
        t = upper
        while t not in cache:
            t -= 1
        while t != upper:
            t += 1
            cache[t] = _times_linear(cache[t - 1], t * self.z)
        return cache[upper]

    def _line(self, h_coeff: int, weights) -> tuple[list, int]:
        """Packed h_coeff h + sum f x_i over (i, f) in weights (i 0-based)."""
        terms = {}
        for g, coeff in ((0, h_coeff), *((i + 1, f) for i, f in weights)):
            if coeff:
                expo = [0] * self.nvars
                expo[g] = 1
                terms[tuple(expo)] = coeff
        return self.kernel.pack(terms)

    def base_factor(self, D: int):
        """Packed base_j_factor(D): N + 1 copies of the slot series in h."""
        out = self._bases.get(D)
        if out is None:
            kernel = self.kernel
            single = kernel.compose(self.slot_series(D), self._line(1, ()))
            out = ([(0, 1)], 1)
            for _ in range(self.target.base_dim + 1):
                out = kernel.product(out, single)
            self._bases[D] = out
        return out

    def root_factor(self, i: int, di: int, D: int):
        """Packed slot ratios of root i (0-based) times its own twist rows.

        The product depends on the point only through (i, d_i, D), which
        points of different classes and degrees share when r > 1.
        """
        key = (i, di, D)
        out = self._roots.get(key)
        if out is None:
            kernel = self.kernel
            out = ([(0, 1)], 1)
            for e in self.target.e_degrees:
                slot = kernel.compose(self.slot_series(di + e * D), self._line(e, ((i, 1),)))
                out = kernel.product(out, slot)
            for f in self.local_rows[i]:
                rho = self.twist.rho
                line = kernel.compose(self.twist_series(f * di + rho * D), self._line(rho, ((i, f),)))
                out = kernel.product(out, line)
            # With one root each (d_1, D) is a single lattice point, so
            # nothing could reuse the factor: keep it only for r > 1.
            if self.target.ranks[0] > 1:
                self._roots[key] = out
        return out

    def weyl_factor(self, a: int, b: int, diff: int):
        """Packed x_a - x_b + diff z (roots 0-based)."""
        expo_a, expo_b = [0] * self.nvars, [0] * self.nvars
        expo_a[a + 1] = expo_b[b + 1] = 1
        zero = (0,) * self.nvars
        return self.kernel.pack({tuple(expo_a): 1, tuple(expo_b): -1, zero: diff * self.z})

    def row_factor(self, s: int, upper: int):
        """Packed twist numerator of general row s at its upper limit."""
        key = (s, upper)
        out = self._rows.get(key)
        if out is None:
            row = self.twist.weight_vectors[s][: self.target.ranks[0]]
            line = self._line(self.twist.rho, enumerate(row))
            out = self._rows[key] = self.kernel.compose(self.twist_series(upper), line)
        return out


def _times_linear(series: tuple[Fraction, ...], c: Fraction) -> tuple[Fraction, ...]:
    """series * (l + c), truncated to the same length."""
    return tuple(c * s + (series[k - 1] if k else 0) for k, s in enumerate(series))


def _over_linear(series: tuple[Fraction, ...], c: Fraction) -> tuple[Fraction, ...]:
    """series / (l + c) for c != 0, truncated to the same length."""
    out = []
    prev = Fraction(0)
    for s in series:
        prev = (s - prev) / c
        out.append(prev)
    return tuple(out)


def factor_ratio(cls: GradedPoly, upper: int, z: Fraction | int) -> GradedPoly:
    """The ratio of semi-infinite products over (cls + m z), cut at `upper`.

    upper > 0 inverts the product of the first `upper` shifts; upper < 0
    multiplies the shifts from upper+1 through 0 back in, including the
    nilpotent m = 0 factor (cls itself).
    """
    zq = Fraction(z)
    if zq == 0:
        raise SingularFactorError("z = 0 makes every shifted factor singular")
    if upper == 0:
        return GradedPoly.constant(1, cls.nvars, cls.cap)
    if upper > 0:
        prod = GradedPoly.constant(1, cls.nvars, cls.cap)
        for m in range(1, upper + 1):
            factor = cls + m * zq
            if not factor.constant_term():
                raise SingularFactorError(
                    f"singular factor: class + {m}z has zero constant term"
                )
            prod = poly_mul(prod, factor)
        return unit_inverse(prod)
    prod = GradedPoly.constant(1, cls.nvars, cls.cap)
    for m in range(upper + 1, 1):
        prod = poly_mul(prod, cls + m * zq)
    return prod


def base_j_factor(D: int, ctx: SummandContext) -> GradedPoly:
    """Hypergeometric factor of P^N at base degree D: all N+1 slots share h."""
    single = factor_ratio(ctx.h(), D, ctx.z)
    out = ctx.one()
    for _ in range(ctx.target.base_dim + 1):
        out = poly_mul(out, single)
    return out


def flag_factor(d: tuple[int, ...], cls: CurveClass, ctx: SummandContext) -> GradedPoly:
    """Product of slot ratios pairing each Chern root with each summand of E.

    A summand O(e_j) contributes the slot (h_i + e_j h, d_i + e_j D) for
    every root h_i of S^v.
    """
    target = ctx.target
    if len(target.ranks) != 1:
        raise NotImplementedError("flag factors only cover one-step bundles")
    (block,) = block_index_ranges(target)
    out = ctx.one()
    h = ctx.h()
    for idx, i in enumerate(range(*block)):
        root = ctx.root(i)
        for e in target.e_degrees:
            slot_class = root + h.scale(e) if e else root
            out = poly_mul(out, factor_ratio(slot_class, d[idx] + e * cls.D, ctx.z))
    return out


def weyl_block(d_block: tuple[int, ...], ctx: SummandContext, block: int = 0) -> tuple[GradedPoly, int]:
    """Weyl numerator prod_{i<j} (h_i - h_j + (d_i - d_j) z) and its sign.

    The sign (-1)^(sum_{i<j} (d_i - d_j)) is returned separately so callers
    can fold it into whatever aggregate they build.
    """
    lo, hi = block_index_ranges(ctx.target)[block]
    out = ctx.one()
    exponent = 0
    for a in range(lo, hi):
        for b in range(a + 1, hi):
            ia, ib = a - lo, b - lo
            diff = d_block[ia] - d_block[ib]
            exponent += diff
            out = poly_mul(out, ctx.root(a) - ctx.root(b) + diff * ctx.z)
    return out, (-1 if exponent % 2 else 1)


def twist_uppers(twist: TwistSpec, cls: CurveClass, d: tuple[int, ...]) -> list[int]:
    (k_unused,) = cls.k  # one-step only
    return [
        sum(f * di for f, di in zip(row, d)) + twist.rho * cls.D
        for row in twist.weight_vectors
    ]


def checked_twist_uppers(twist: TwistSpec, cls: CurveClass, d: tuple[int, ...]) -> list[int]:
    """twist_uppers, raising TwistRangeError at the first negative one."""
    uppers = twist_uppers(twist, cls, d)
    for row, upper in zip(twist.weight_vectors, uppers):
        if upper < 0:
            raise TwistRangeError(
                f"twist range negative: upper limit {upper} for weights {row}"
            )
    return uppers


def twist_factor(d: tuple[int, ...], cls: CurveClass, ctx: SummandContext) -> GradedPoly:
    """Numerator prod_s prod_{m=1}^{u_s} (c1(L_s) + m z), u_s = f_s . d + rho D."""
    twist = ctx.twist
    if twist is None or not twist.weight_vectors:
        return ctx.one()
    (block,) = block_index_ranges(ctx.target)
    out = ctx.one()
    h = ctx.h()
    for row, upper in zip(twist.weight_vectors, checked_twist_uppers(twist, cls, d)):
        line_class = h.scale(twist.rho)
        for f, i in zip(row, range(*block)):
            if f:
                line_class = line_class + ctx.root(i).scale(f)
        for m in range(1, upper + 1):
            out = poly_mul(out, line_class + m * ctx.z)
    return out


def oh_summand(d: tuple[int, ...], cls: CurveClass, ctx: SummandContext) -> GradedPoly:
    """Full numerator contribution of one lattice point, sign folded in.

    This is the summand of the bundle I-function *before* division by the
    Weyl denominator: leading z, base factor, slot ratios, Weyl numerators,
    twist numerator, and the Weyl sign.  The caller divides the aggregate
    over a curve class by prod (h_i - h_j) afterwards.  It equals
    z * sign * base_j_factor * flag_factor * weyl_block * twist_factor, but
    is multiplied out in ctx.kernel from the parts ctx caches.
    """
    if len(ctx.target.ranks) != 1:
        raise NotImplementedError("flag factors only cover one-step bundles")
    uppers = ()
    if ctx.twist is not None and ctx.twist.weight_vectors:
        uppers = checked_twist_uppers(ctx.twist, cls, d)
    kernel, D = ctx.kernel, cls.D
    out = ctx.base_factor(D)
    for i, di in enumerate(d):
        out = kernel.product(out, ctx.root_factor(i, di, D))
    for s in ctx.general_rows:
        out = kernel.product(out, ctx.row_factor(s, uppers[s]))
    exponent = 0
    for a in range(len(d)):
        for b in range(a + 1, len(d)):
            diff = d[a] - d[b]
            exponent += diff
            out = kernel.product(out, ctx.weyl_factor(a, b, diff))
    return kernel.to_graded(out, -ctx.z if exponent % 2 else ctx.z)


def brown_summand(d: tuple[int, ...], cls: CurveClass, ctx: SummandContext) -> GradedPoly:
    """Projective-bundle (rank-one) specialization: no Weyl data at all.

    For one-dimensional fibers the Weyl numerator is empty and the sign is
    +1, so this must agree with oh_summand; kept separate as a cross-check.
    """
    if ctx.target.ranks != (1,):
        raise ValueError("brown_summand only applies to rank-one (projective) bundles")
    out = base_j_factor(cls.D, ctx)
    out = poly_mul(out, flag_factor(d, cls, ctx))
    out = poly_mul(out, twist_factor(d, cls, ctx))
    return out.scale(ctx.z)


# -- formal modification factors (lambda-Laurent) ---------------------------


@dataclass
class LambdaSeries:
    """Laurent series in a formal parameter lambda with GradedPoly coefficients.

    The support is bounded above; coefficients are exact for every power
    >= `lo` and anything below is dropped.  Multiplication tracks where the
    product remains exact: a power p of A*B only misses contributions when
    one factor was truncated, which cannot happen once
    p >= max(A.lo + max_power(B), B.lo + max_power(A)).
    """

    nvars: int
    cap: int
    lo: int
    coeffs: dict[int, GradedPoly] = field(default_factory=dict)

    def coefficient(self, power: int) -> GradedPoly:
        return self.coeffs.get(power, GradedPoly(self.nvars, self.cap))

    def _store(self, power: int, value: GradedPoly) -> None:
        if value.is_zero():
            self.coeffs.pop(power, None)
        else:
            self.coeffs[power] = value

    def max_power(self) -> int:
        return max(self.coeffs, default=self.lo)

    def mul(self, other: "LambdaSeries") -> "LambdaSeries":
        lo = max(self.lo + other.max_power(), other.lo + self.max_power())
        out = LambdaSeries(self.nvars, self.cap, lo)
        for pa, ca in self.coeffs.items():
            for pb, cb in other.coeffs.items():
                p = pa + pb
                if p < lo:
                    continue
                out._store(p, out.coefficient(p) + poly_mul(ca, cb))
        return out

    def scale(self, value) -> "LambdaSeries":
        out = LambdaSeries(self.nvars, self.cap, self.lo)
        for p, c in self.coeffs.items():
            out._store(p, c.scale(value))
        return out


def modification_factor(
    cls: GradedPoly,
    upper: int,
    z: Fraction | int,
    lam_min: int = -8,
) -> LambdaSeries:
    """Equivariant factor prod over the moved range of (cls + lambda + m z).

    For upper >= 0 this is a polynomial in lambda (exact everywhere); for
    upper < 0 the factors sit in the denominator and are expanded as a
    Laurent series in descending powers of lambda, exact down to lam_min.
    """
    zq = Fraction(z)
    nvars, cap = cls.nvars, cls.cap
    one = GradedPoly.constant(1, nvars, cap)
    if upper >= 0:
        out = LambdaSeries(nvars, cap, lam_min, {0: one})
        for m in range(1, upper + 1):
            shifted = cls + m * zq
            nxt = LambdaSeries(nvars, cap, lam_min)
            for p, c in out.coeffs.items():
                nxt._store(p + 1, nxt.coefficient(p + 1) + c)
                nxt._store(p, nxt.coefficient(p) + poly_mul(c, shifted))
            out = nxt
        return out
    # expand each inverse factor deep enough that the |upper|-fold product
    # is still exact at lam_min: the partners' powers total at most -(count-1)
    count = -upper
    factor_lo = lam_min + (count - 1)
    out = LambdaSeries(nvars, cap, factor_lo - count, {0: one})
    for m in range(upper + 1, 1):
        shifted = cls + m * zq
        # 1/(lambda + shifted) = sum_{t>=0} (-1)^t shifted^t lambda^(-1-t)
        inv = LambdaSeries(nvars, cap, factor_lo)
        power = one
        for t in range(0, -factor_lo):
            if -1 - t < factor_lo:
                break
            inv._store(-1 - t, power.scale((-1) ** t))
            power = poly_mul(power, shifted)
        out = out.mul(inv)
    out.coeffs = {p: c for p, c in out.coeffs.items() if p >= out.lo}
    return out
