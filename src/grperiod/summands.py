"""Hypergeometric building blocks of the bundle I-function.

Every contribution of a lattice point is a product of factor ratios

    prod_{m=-inf}^{0} (cls + m z)  /  prod_{m=-inf}^{upper} (cls + m z)

together with a Weyl numerator, a base factor from P^N, and a twist
numerator.  The ratios collapse to finite products: an inverted tail for
positive upper limits, an extra (nilpotent-bearing) numerator block for
negative ones.  z enters as an exact rational parameter, not a generator;
degree homogeneity lets callers recover the z-dependence afterwards.

`oh_summand` evaluates every summand at h = 0.  Setting the hyperplane
class h to 0 is a ring map, and the unit the assembler reads off is the
h^0 staircase coefficient, so no h term ever reaches it: the base factor
is its constant term, and each factor of a root is univariate in the
root's x.  The summand is built from parts cached on its SummandContext,
shared by the points, classes and degrees of one computation:

* every slot ratio and the numerator of a twist row local to one root is
  a univariate series in its (nilpotent, linear) class, depending only on
  its upper limit: cached by that limit, as integer numerators over one
  positive denominator, reduced by their gcd;
* the base constant slot_series(D)[0]^(N+1), as a reduced (num, den):
  cached by D;
* the factor of one root, its slot ratios times its own twist rows, as
  integer coefficients of x^0..x^(length-1) over one denominator: cached
  by (the root's twist rows, d_a, D) and shared by every root with those
  rows (`root_poly`);
* that factor packed on root i's own generator: cached by (i, d_i, D)
  (`root_factor`);
* the Weyl factors x_a - x_b + (d_a - d_b) z: cached by (a, b, d_a - d_b);
* the numerator prod_{m=1}^{u} (f_s . x + m z) of a general twist row s,
  the one at u - 1 times one linear form: cached by (s, u).  Its linear
  forms and the Weyl factors come from one builder (`_linear`).

Every factor series has the context's `length`: cap + 1 coefficients on a
packed context, which multiplies them out through degree cap, and r on an
orbit context, whose tables read no more.  z = p/q enters the series as
the integers p and q, so every part of a summand is held in integers.

The parts are packed (`PackedRing.pack`) and multiplied in the integer
kernel `ring.PackedRing`, the one place that knows how a monomial packs
into a key, and the summand stays a packed value of that kernel, ready to
be added up by the assembler.  A context made with orbit=True, for the
S_r-orbit path of a standard-row model, multiplies nothing out: it reads
each point's coefficient at the staircase monomial off one r x r integer
determinant (`staircase`), whose row a comes from the table of d_a, built
from the r coefficients of `root_poly`, at every rank.  At r = 1, where the
cap is 0, the assembler sums a row of points (k,) at one D (`constants`):
the first from its factors' constant terms, each later one from the one
before by a ratio of small integers, all over one denominator.  The
GradedPoly helpers below
(`factor_ratio`, `base_j_factor`, `flag_factor`, `weyl_block`,
`twist_factor`) compute the same factors in the full ring, h included, and
serve as its reference.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .ring import GradedPoly, PackedRing, integer_det, poly_mul, unit_inverse
from .targets import CurveClass, FlagTarget, TwistSpec, split_twist_rows


# A factor series as (nums, den): nums[k] / den is the coefficient of l^k,
# den > 0 and gcd(den, *nums) = 1.
Series = tuple[tuple[int, ...], int]


class SingularFactorError(ZeroDivisionError):
    """A denominator factor with zero constant term cannot be inverted."""


class TwistRangeError(ValueError):
    """A twist upper limit came out negative.

    The closed product formula for the twisted series is only valid where
    all twist ranges are nonnegative (as they are for blow-up models, whose
    lattice floors guarantee it); outside that regime we refuse to guess.
    """


class SummandContext:
    """Shared ring data for one target, twist and z: the kernel and the caches.

    The context also owns the caches `oh_summand` draws on, so they live
    exactly as long as the context: callers make one per target and z and
    share it across the points and degrees of one computation.  The cap
    defaults to target.omega_degree.  With orbit, oh_summand returns a
    point's staircase scalar (`staircase`).
    """

    def __init__(
        self,
        target: FlagTarget,
        twist: TwistSpec | None = None,
        z: Fraction | int = 1,
        cap: int | None = None,
        orbit: bool = False,
    ):
        self.z = Fraction(z)
        if self.z == 0:
            raise SingularFactorError("z = 0 makes every shifted factor singular")
        self.p, self.q = self.z.numerator, self.z.denominator
        self.target, self.twist, self.orbit = target, twist, orbit
        self.cap = target.omega_degree if cap is None else cap
        self.kernel = PackedRing(target.nvars, self.cap)
        # twist rows by the one root they involve (weights), and the rest (indices)
        self.local_rows, self.general_rows = split_twist_rows(twist, target.rank)
        unit = (1,) + (0,) * (self.length - 1), 1
        self._slots, self._twists = {0: unit}, {0: unit}
        self._base_constants, self._roots, self._factors = {}, {}, {}
        self._weyls, self._rows, self._tables = {}, {}, {}

    @property
    def length(self) -> int:
        """Coefficients kept per factor series: r on an orbit context, cap + 1 otherwise."""
        return self.target.rank if self.orbit else self.cap + 1

    def one(self) -> GradedPoly:
        return GradedPoly.constant(1, self.target.nvars, self.cap)

    def h(self) -> GradedPoly:
        return GradedPoly.generator(0, self.target.nvars, self.cap)

    def root(self, i: int) -> GradedPoly:
        """i-th Chern root of S^v (1-based)."""
        return GradedPoly.generator(i, self.target.nvars, self.cap)

    # -- cached parts of oh_summand -----------------------------------------

    def slot_series(self, upper: int) -> Series:
        """Coefficients of l^0..l^(length-1) in the ratio with upper limit `upper`.

        Built from the neighbouring limit: dividing by (l + upper z) going
        up, multiplying by (l + (upper + 1) z) going down.
        """
        cache, p, q = self._slots, self.p, self.q
        step = 1 if upper > 0 else -1
        t = upper
        while t not in cache:
            t -= step
        while t != upper:
            t += step
            prev = cache[t - step]
            if step > 0:
                cache[t] = _over_linear(prev, t * p, q)
            else:
                cache[t] = _times_linear(prev, (t + 1) * p, q)
        return cache[upper]

    def twist_series(self, upper: int) -> Series:
        """Coefficients of l^0..l^(length-1) in prod_{m=1}^{upper} (l + m z), upper >= 0."""
        if upper < 0:
            raise TwistRangeError(f"twist range negative: upper limit {upper}")
        cache = self._twists
        t = upper
        while t not in cache:
            t -= 1
        while t != upper:
            t += 1
            cache[t] = _times_linear(cache[t - 1], t * self.p, self.q)
        return cache[upper]

    def base_constant(self, D: int) -> tuple[int, int]:
        """Base factor at h = 0, slot_series(D)[0]^(N+1), as reduced (num, den), cached by D."""
        out = self._base_constants.get(D)
        if out is None:
            nums, den = self.slot_series(D)
            g = math.gcd(nums[0], den)
            power = self.target.base_dim + 1
            out = self._base_constants[D] = (nums[0] // g) ** power, (den // g) ** power
        return out

    def root_poly(self, rows: tuple, da: int, D: int) -> tuple[list, int]:
        """(nums, den): nums[k] / den = [x^k] R(x) for k < length.

        R is the factor at h = 0, univariate in its x, of a root at (d_a, D)
        with local twist rows `rows`: the product of the slot ratios at
        d_a + e D, one per e in e_degrees, and of one twist series per
        weight f in rows, read at f d_a + rho D with x^k scaled by f^k.  It
        is cached by (rows, d_a, D), so every root with the same rows
        shares one build.  Every twist row is read even where a slot series
        vanishes, so a negative range raises TwistRangeError.
        """
        key = (rows, da, D)
        out = self._roots.get(key)
        if out is None:
            length = self.length
            series = [self.slot_series(da + e * D) for e in self.target.e_degrees]
            for f in rows:
                twist = self.twist_series(f * da + self.twist.rho * D)
                if f != 1:
                    nums, q = twist
                    twist = _reduced([c * f**k for k, c in enumerate(nums)], q)
                series.append(twist)
            poly, den = series[0]
            for nums, q in series[1:]:
                poly = [sum(map(operator.mul, poly[: k + 1], nums[k::-1])) for k in range(length)]
                den *= q
            out = self._roots[key] = poly, den
        return out

    def constants(self, D: int, ks: range) -> list[tuple[int, int]]:
        """(numerator, den) of a rank-1 standard-row model's summand at each (k,) and D, before z.

        ks is a row of class_rows with orbit: consecutive k from at least
        max(-e_j) D, where no slot series vanishes.  The first k is
        base_constant(D) times the constant terms of its slot series and of
        its one twist row's series, so a negative twist range raises
        TwistRangeError; with z = p/q and n = len(e_degrees), each later k is
        the one before times (k + rho D) q^(n-1) / (p^(n-1) prod_e (k + e D)).
        The row shares one denominator, and each numerator is the one before
        divided by the ratio's denominator and times its numerator.
        """
        later, power, top = ks[1:], len(self.target.e_degrees) - 1, self.twist.rho * D
        num, den = self.base_constant(D)
        parts = [self.slot_series(ks.start + e * D) for e in self.target.e_degrees]
        for nums, q in parts + [self.twist_series(ks.start + top)]:
            num, den = num * nums[0], den * q
        ups = [(k + top) * self.q**power for k in later]
        downs = [self.p**power] * len(later)
        for e in self.target.e_degrees:
            downs = [b * (k + e * D) for b, k in zip(downs, later)]
        scale = math.prod(downs)
        num, den = num * scale, den * scale
        out = [(num, den)]
        for a, b in zip(ups, downs):
            num = num // b * a
            out.append((num, den))
        return out

    def root_factor(self, i: int, di: int, D: int):
        """root_poly of root i (0-based) at (d_i, D) packed on x_(i+1), cached by (i, d_i, D)."""
        key = (i, di, D)
        out = self._factors.get(key)
        if out is None:
            nums, den = self.root_poly(self.local_rows[i], di, D)
            terms = {self._power(i, k): c for k, c in enumerate(nums)}
            out = self._factors[key] = self.kernel.pack(terms)[0], den
        return out

    def _power(self, i: int, k: int) -> tuple[int, ...]:
        """Exponent tuple of x_(i+1)^k, root i 0-based."""
        expo = [0] * self.target.nvars
        expo[i + 1] = k
        return tuple(expo)

    def shift(self, d: int) -> tuple[int, int]:
        """d z as reduced (num, den), the shift of a root at fibre degree d in the Weyl factors."""
        num = d * self.p
        g = math.gcd(num, self.q)
        return num // g, self.q // g

    def _linear(self, weights, num: int, den: int) -> tuple[list, int]:
        """Packed num / den plus f x_(i+1) over (i, f) in weights, roots i distinct, 0-based."""
        terms = {self._power(i, 1): f for i, f in weights}
        terms[(0,) * self.target.nvars] = Fraction(num, den)
        return self.kernel.pack(terms)

    def weyl_factor(self, a: int, b: int, diff: int):
        """Packed x_a - x_b + diff z (roots 0-based), cached by (a, b, diff)."""
        key = (a, b, diff)
        out = self._weyls.get(key)
        if out is None:
            out = self._weyls[key] = self._linear(((a, 1), (b, -1)), *self.shift(diff))
        return out

    def row_factor(self, s: int, upper: int):
        """Packed prod_{m=1}^{upper} (f_s . x + m z) of general row s, upper >= 0.

        f_s . x is c1(L_s) at h = 0.  The factor at upper is the one at
        upper - 1 times one packed linear form, built from the nearest
        cached limit below, and its terms are sorted by key, because
        oh_summand multiplies by it as an inner operand.  Cached by (s, upper).
        """
        if upper < 0:
            raise TwistRangeError(f"twist range negative: upper limit {upper}")
        cache = self._rows
        t = upper
        while t and (s, t) not in cache:
            t -= 1
        out = cache[s, t] if t else ([(0, 1)], 1)
        row = tuple(enumerate(self.twist.weight_vectors[s][: self.target.rank]))
        while t < upper:
            t += 1
            terms, den = self.kernel.product(out, self._linear(row, t * self.p, self.q))
            out = cache[s, t] = sorted(terms), den
        return out

    def root_table(self, da: int, D: int) -> tuple[list, int]:
        """(M, den): M[i][b] / den = [x^(r-1-i)] R(x) (x + shift(d_a))^(r-1-b).

        R is the factor at h = 0 of a root at (d_a, D) of a standard-row
        model, whose roots all carry the one standard twist row (`root_poly`).
        """
        out = self._tables.get((da, D))
        if out is None:
            r = self.target.rank
            poly, den = self.root_poly(self.local_rows[0], da, D)
            p, q = self.shift(da)
            cols = []  # cols[m] = R(x) (q x + p)^m q^(r-1-m), over den q^(r-1)
            for m in range(r):
                cols.append([c * q ** (r - 1 - m) for c in poly])
                poly = [p * c + q * (poly[k - 1] if k else 0) for k, c in enumerate(poly)]
            table = [[cols[r - 1 - b][r - 1 - i] for b in range(r)] for i in range(r)]
            out = self._tables[da, D] = table, den * q ** (r - 1)
        return out

    def staircase(self, d: tuple[int, ...], D: int) -> tuple[int, int]:
        """P[h^0 x^delta] as (numerator, den), delta = (r-1, ..., 0), before z and sign.

        At h = 0, P = base x prod_a R_a(x_a) x det[u_a^(r-1-b)], the Weyl
        product as a Vandermonde determinant in u_a = x_a + shift(d_a).  Its
        row a depends on x_a alone, so by multilinearity P[x^delta] is the
        determinant whose row a is M_(d_a)[a] (root_table): one r x r
        integer determinant per point.
        """
        num, den = self.base_constant(D)
        rows = []
        for a, da in enumerate(d):
            table, q = self.root_table(da, D)
            rows.append(table[a])
            den *= q
        return integer_det(rows) * num, den


def _reduced(nums: list[int], den: int) -> Series:
    """(nums, den) over gcd(den, *nums), with the sign moved so that den > 0."""
    g = math.gcd(den, *nums)
    if den < 0:
        g = -g
    return tuple(n // g for n in nums), den // g


def _times_linear(series: Series, a: int, q: int) -> Series:
    """series * (l + a/q), q > 0, truncated to the same length.

    With series = N / den: coefficient k is (a N_k + q N_(k-1)) / (den q).
    """
    nums, den = series
    return _reduced([a * n + q * (nums[k - 1] if k else 0) for k, n in enumerate(nums)], den * q)


def _over_linear(series: Series, a: int, q: int) -> Series:
    """series / (l + a/q), a != 0 and q > 0, truncated to the same length.

    With series = N / den, coefficient k is (N_k / den - coefficient k-1) q/a,
    which is M_k / (den a^(k+1)) for M_0 = q N_0, M_k = q (N_k a^k - M_(k-1)):
    M_k a^(L-1-k) over den a^L for length L.  a < 0 makes den a^L negative
    for odd L, and _reduced moves that sign into the numerators.
    """
    nums, den = series
    out, m, power = [], 0, 1  # power = a^k
    for n in nums:
        m = q * (n * power - m)
        out.append(m)
        power *= a
    last = len(nums) - 1
    return _reduced([m * a ** (last - k) for k, m in enumerate(out)], den * power)


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

    A summand O(e_j) contributes the slot (x_i + e_j h, d_i + e_j D) for
    every root x_i of S^v.
    """
    out = ctx.one()
    h = ctx.h()
    for i, di in enumerate(d, 1):
        root = ctx.root(i)
        for e in ctx.target.e_degrees:
            slot_class = root + h.scale(e) if e else root
            out = poly_mul(out, factor_ratio(slot_class, di + e * cls.D, ctx.z))
    return out


def weyl_block(d: tuple[int, ...], ctx: SummandContext) -> tuple[GradedPoly, int]:
    """Weyl numerator prod_{i<j} (x_i - x_j + (d_i - d_j) z) and its sign.

    The sign (-1)^(sum_{i<j} (d_i - d_j)) is returned separately so callers
    can fold it into whatever aggregate they build.
    """
    out = ctx.one()
    exponent = 0
    for a in range(len(d)):
        for b in range(a + 1, len(d)):
            diff = d[a] - d[b]
            exponent += diff
            out = poly_mul(out, ctx.root(a + 1) - ctx.root(b + 1) + diff * ctx.z)
    return out, (-1 if exponent % 2 else 1)


def twist_uppers(twist: TwistSpec, cls: CurveClass, d: tuple[int, ...]) -> list[int]:
    """Upper limit u_s = f_s . d + rho D of each twist row s at the point d of cls."""
    top = twist.rho * cls.D
    return [sum(map(operator.mul, row, d)) + top for row in twist.weight_vectors]


def twist_factor(d: tuple[int, ...], cls: CurveClass, ctx: SummandContext) -> GradedPoly:
    """Numerator prod_s prod_{m=1}^{u_s} (c1(L_s) + m z), u_s = f_s . d + rho D."""
    twist = ctx.twist
    if twist is None or not twist.weight_vectors:
        return ctx.one()
    out = ctx.one()
    h = ctx.h()
    for row, upper in zip(twist.weight_vectors, twist_uppers(twist, cls, d)):
        if upper < 0:
            raise TwistRangeError(f"twist range negative: upper limit {upper} for weights {row}")
        line_class = h.scale(twist.rho)
        for i, f in enumerate(row[: ctx.target.rank], 1):
            if f:
                line_class = line_class + ctx.root(i).scale(f)
        for m in range(1, upper + 1):
            out = poly_mul(out, line_class + m * ctx.z)
    return out


def weyl_sign(d: tuple[int, ...]) -> int:
    """(-1)^(sum_{a<b} (d_a - d_b)) = (-1)^((r - 1) sum(d)): root a enters
    r - 1 - a times as the first of a pair and a times as the second.
    """
    return -1 if (len(d) - 1) * sum(d) % 2 else 1


def oh_summand(d: tuple[int, ...], cls: CurveClass, ctx: SummandContext):
    """Full numerator contribution of one lattice point, sign folded in.

    This is the summand of the bundle I-function *before* division by the
    Weyl denominator: leading z, base factor, slot ratios, Weyl numerators,
    twist numerator, and the Weyl sign.  The caller divides the aggregate
    over a curve class by prod (x_i - x_j) afterwards.  It equals
    z * sign * base_j_factor * flag_factor * weyl_block * twist_factor at
    h = 0, multiplied out in ctx.kernel from the parts ctx caches: R_1,
    then per later root j its root_factor R_j and the Weyl factors W(a, j),
    a < j, then the general twist rows, and last the scalar
    base_constant(D) * sign * z.  The result is a packed value of ctx.kernel
    (`ctx.kernel.to_graded` gives the GradedPoly, which has no h term).  An
    orbit context returns z * sign * ctx.staircase(d, D) as (numerator,
    den), at every rank.  A negative twist upper limit raises
    TwistRangeError from the factor of its row.
    """
    kernel, D, r = ctx.kernel, cls.D, len(d)
    p = weyl_sign(d) * ctx.p  # sign * z = p / q
    if ctx.orbit:
        num, den = ctx.staircase(d, D)
        return num * p, den * ctx.q
    out = ctx.root_factor(0, d[0], D)
    for j in range(1, r):
        out = kernel.product(out, ctx.root_factor(j, d[j], D))
        for a in range(j):
            out = kernel.product(out, ctx.weyl_factor(a, j, d[a] - d[j]))
    uppers = twist_uppers(ctx.twist, cls, d) if ctx.general_rows else None
    for s in ctx.general_rows:
        out = kernel.product(out, ctx.row_factor(s, uppers[s]))
    terms, den = out
    num, base_den = ctx.base_constant(D)
    num *= p
    return [(k, c * num) for k, c in terms], den * base_den * ctx.q
