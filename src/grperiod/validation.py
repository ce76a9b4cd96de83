"""Independent oracles and formal identity checks.

Two kinds of safeguards live here.  The period oracles evaluate printed
scalar sums (factorials and harmonic numbers; `oracle_blowup` covers every
Fano blow-up model) or, for the rank-3 pinned
configuration, read the unit coefficient off one staircase monomial of a
product of univariate series; none uses the engine's polynomial ring or
Weyl division, so engine results can be compared against genuinely
independent arithmetic.  They deliberately share nothing with the engine
but Fraction: this module imports no other grperiod module, and
`grperiod validate` runs the engine-against-oracle comparisons.  The
formal checks verify the Bernoulli/G-series identities

    G(x+z, z) = G(x, z) + s(x)                                  (gamma)
    M_beta(-z) = exp(G(f,z)) * exp(-G(f - <f,beta> z, z))       (delta-M)

in a polynomial ring with formal variables s_0, s_1, ... weighted by
deg s_k = k + 1, which keeps everything rational: substituting the
equivariant-Euler values of s_k would drag in log-lambda constants.
delta-M is compared on logarithms, log M_beta(-z) against G(f,z) -
G(f - <f,beta> z, z): every term carries an s, so at the lowest s-weight where
two logarithms differ, their exponentials differ by the same term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

# -- scalar number theory ----------------------------------------------------


@lru_cache(maxsize=None)
def harmonic(n: int) -> Fraction:
    """H_n = sum_{k=1}^n 1/k with H_0 = 0."""
    if n < 0:
        raise ValueError("harmonic numbers need n >= 0")
    if n == 0:
        return Fraction(0)
    return harmonic(n - 1) + Fraction(1, n)


@lru_cache(maxsize=None)
def bernoulli(m: int) -> Fraction:
    """Exact Bernoulli number B_m, convention B_1 = -1/2.

    The sign of B_1 is not an a-priori choice here: it is the unique value
    for which check_gamma_identity passes (see test suite), and the defining
    recursion sum_{j=0}^{m} C(m+1, j) B_j = 0 produces exactly that value.
    """
    if m < 0:
        raise ValueError("Bernoulli numbers need m >= 0")
    if m == 0:
        return Fraction(1)
    acc = Fraction(0)
    for j in range(m):
        acc += math.comb(m + 1, j) * bernoulli(j)
    return -acc / (m + 1)


# -- formal series in (s_k; f; z) ---------------------------------------------


class FormalSeries:
    """Polynomial in s_0..s_{S-1}, f, and z (Laurent in z), exact coefficients.

    Terms are keyed by (s_exponents, f_power, z_power); monomials whose
    s-weight sum (k+1 per s_k factor) exceeds s_order are dropped, which is
    the truncation the induction in the source identities uses.
    """

    __slots__ = ("s_order", "terms")

    def __init__(self, s_order: int, terms=None):
        self.s_order = s_order
        self.terms: dict[tuple, Fraction] = {}
        if terms:
            for key, coeff in terms.items():
                self._add_term(key, coeff)

    @staticmethod
    def _weight(s_exp: tuple[int, ...]) -> int:
        return sum(e * (k + 1) for k, e in enumerate(s_exp))

    def _add_term(self, key, coeff) -> None:
        s_exp, f_pow, z_pow = key
        if not coeff or self._weight(s_exp) > self.s_order:
            return
        cur = self.terms.get(key, Fraction(0)) + coeff
        if cur:
            self.terms[key] = cur
        else:
            self.terms.pop(key, None)

    def add(self, other: "FormalSeries") -> "FormalSeries":
        out = FormalSeries(self.s_order, self.terms)
        for key, coeff in other.terms.items():
            out._add_term(key, coeff)
        return out

    def scale(self, value) -> "FormalSeries":
        out = FormalSeries(self.s_order)
        for key, coeff in self.terms.items():
            out._add_term(key, coeff * value)
        return out

    def restrict_f(self, f_max: int) -> "FormalSeries":
        out = FormalSeries(self.s_order)
        for key, coeff in self.terms.items():
            if key[1] <= f_max:
                out._add_term(key, coeff)
        return out

    def first_difference(self, other: "FormalSeries"):
        keys = sorted(set(self.terms) | set(other.terms))
        for key in keys:
            a = self.terms.get(key, Fraction(0))
            b = other.terms.get(key, Fraction(0))
            if a != b:
                return key, a, b
        return None


def _s_unit(k: int, s_order: int) -> tuple[int, ...]:
    return tuple(1 if i == k else 0 for i in range(s_order))


def s_series(shift: int, s_order: int) -> FormalSeries:
    """s(f + shift*z) = sum_k s_k (f + shift z)^k / k!, truncated by s-weight."""
    out = FormalSeries(s_order)
    for k in range(s_order):
        s_exp = _s_unit(k, s_order)
        for j in range(k + 1):
            coeff = Fraction(math.comb(k, j) * shift**j, math.factorial(k))
            out._add_term((s_exp, k - j, j), coeff)
    return out


def g_series(s_order: int, shift: int = 0, x_order: int | None = None) -> FormalSeries:
    """G(f + shift*z, z) = sum s_{l+m-1} (B_m/m!) (f+shift z)^l / l! z^{m-1}.

    Indexing over l + m - 1 = k >= 0 automatically omits the (l, m) = (0, 0)
    term, whose s_{-1} is undefined; the gamma identity holds without it.
    """
    out = FormalSeries(s_order)
    for k in range(s_order):
        s_exp = _s_unit(k, s_order)
        for l in range(k + 2):
            m = k + 1 - l
            base = bernoulli(m) / (math.factorial(m) * math.factorial(l))
            for j in range(l + 1):
                coeff = base * math.comb(l, j) * shift**j
                out._add_term((s_exp, l - j, m - 1 + j), coeff)
    if x_order is not None:
        out = out.restrict_f(x_order)
    return out


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    detail: str = ""

    def __bool__(self):
        return self.ok


def check_gamma_identity(x_order: int = 4, s_order: int = 3) -> CheckResult:
    """Compare G(f+z, z) against G(f, z) + s(f) coefficientwise."""
    lhs = g_series(s_order, shift=1, x_order=x_order)
    rhs = g_series(s_order, shift=0, x_order=x_order).add(
        s_series(0, s_order).restrict_f(x_order)
    )
    diff = lhs.first_difference(rhs)
    if diff is None:
        return CheckResult(True)
    key, a, b = diff
    return CheckResult(False, f"first mismatch at {key}: {a} != {b}")


def modification_log_formal(upper: int, s_order: int) -> FormalSeries:
    """log M_beta(-z) after writing each factor lambda + x as exp(s(x)).

    The moved range of the modification factor contributes
    sum_{m=1}^{upper} s(f - m z) for positive upper and minus the range
    (upper, 0] for negative upper.
    """
    out = FormalSeries(s_order)
    if upper > 0:
        for m in range(1, upper + 1):
            out = out.add(s_series(-m, s_order))
    elif upper < 0:
        for m in range(upper + 1, 1):
            out = out.add(s_series(-m, s_order).scale(-1))
    return out


def check_delta_m(upper: int, s_order: int = 2) -> CheckResult:
    """Formal check of log M_beta(-z) = G(f,z) - G(f - upper*z, z) (delta-M)."""
    lhs = modification_log_formal(upper, s_order)
    rhs = g_series(s_order, shift=0).add(g_series(s_order, shift=-upper).scale(-1))
    diff = lhs.first_difference(rhs)
    if diff is None:
        return CheckResult(True)
    key, a, b = diff
    return CheckResult(False, f"upper {upper}: first mismatch at {key}: {a} != {b}")


# -- closed-form period oracles ----------------------------------------------


def oracle_example1(dmax: int) -> tuple[Fraction, ...]:
    """Regularised period of the blow-up of P^4 in a (1,1,2) intersection.

    Direct evaluation of the closed-form double region sum (degree
    l + 2m + 2n; first region l > n, second region m, n >= l).  The first
    region's printed (n-l)! has negative argument throughout and is
    evaluated as (m-l)!, which is the factorial that the residue pairing
    produces and the only reading that reproduces the series.
    """
    coeffs = [Fraction(0)] * (dmax + 1)
    # region m >= l, n >= l
    for l in range(dmax + 1):
        if 5 * l > dmax:
            break
        for m in range(l, dmax + 1):
            if l + 2 * m > dmax:
                break
            for n in range(l, dmax + 1):
                deg = l + 2 * m + 2 * n
                if deg > dmax:
                    break
                val = Fraction(
                    math.factorial(l + n) * math.factorial(l + m),
                    math.factorial(l) ** 5
                    * math.factorial(m) ** 2
                    * math.factorial(n) ** 2
                    * math.factorial(n - l)
                    * math.factorial(m - l),
                )
                hterm = 1 + (n - m) * (
                    -2 * harmonic(n) + harmonic(l + n) - harmonic(n - l)
                )
                coeffs[deg] += (-1) ** (m + n) * val * hterm
    # region l >= n + 1, m >= l
    for n in range(dmax + 1):
        for l in range(n + 1, dmax + 1):
            if l + 2 * l + 2 * n > dmax:
                break
            for m in range(l, dmax + 1):
                deg = l + 2 * m + 2 * n
                if deg > dmax:
                    break
                val = Fraction(
                    math.factorial(l + n)
                    * math.factorial(l + m)
                    * math.factorial(l - n - 1),
                    math.factorial(l) ** 5
                    * math.factorial(m) ** 2
                    * math.factorial(n) ** 2
                    * math.factorial(m - l),
                )
                coeffs[deg] += (-1) ** (l + m - 1) * val * (n - m)
    return tuple(math.factorial(d) * c for d, c in enumerate(coeffs))


def oracle_example2(dmax: int) -> tuple[Fraction, ...]:
    """Regularised period of the blow-up of P^6 in a (1,2,2) intersection."""
    coeffs = [Fraction(0)] * (dmax + 1)
    for D in range(dmax // 5 + 1):
        for d1 in range(dmax + 1):
            if 5 * D + 2 * d1 > dmax:
                break
            for d2 in range(dmax + 1):
                deg = 5 * D + 2 * d1 + 2 * d2
                if deg > dmax:
                    break
                val = Fraction(
                    math.factorial(d1 + 2 * D) * math.factorial(d2 + 2 * D),
                    math.factorial(D) ** 7
                    * math.factorial(d1) ** 2
                    * math.factorial(d2) ** 2
                    * math.factorial(d1 + D)
                    * math.factorial(d2 + D),
                )
                hterm = 1 + (d1 - d2) * (
                    -2 * harmonic(d1) + harmonic(d1 + 2 * D) - harmonic(d1 + D)
                )
                coeffs[deg] += (-1) ** (d1 + d2) * val * hterm
    return tuple(math.factorial(d) * c for d, c in enumerate(coeffs))


def _times_shift(series: list[Fraction], m: int) -> list[Fraction]:
    """series * (x + m), truncated to the same length."""
    return [m * s + (series[k - 1] if k else 0) for k, s in enumerate(series)]


def _over_shift(series: list[Fraction], m: int) -> list[Fraction]:
    """series / (x + m) for m != 0, truncated to the same length."""
    out, prev = [], Fraction(0)
    for s in series:
        prev = (s - prev) / m
        out.append(prev)
    return out


def oracle_pinned_verbatim(dmax: int) -> tuple[Fraction, ...]:
    """Regularised series of the pinned Gr(3, O^3 + O(2)) configuration.

    The model is Gr(3, O^3 + O(2)) over P^6 with F = S^v(1) under the
    grading 8h + 3 det(S^v), at z = 1.  The point (D; d_1, d_2, d_3) of
    degree 8D + 3 sum(d) contributes, at h = 0,

        (-1)^(sum_{i<j} d_i - d_j) / D!^7
          * prod_{i<j} (x_i - x_j + d_i - d_j) * prod_i A(x_i; d_i, D),

        A(x; d, D) = prod_{m=1}^{d+D} (x + m)
                     / ( prod_{m=1}^{d} (x + m)^3 * prod_{m=1}^{d+2D} (x + m) ),

    a product of univariate series in each root, kept through x_i^2.  The
    degree-3 part of the antisymmetric aggregate is c * prod_{i<j}(x_i - x_j),
    whose x_1^2 x_2 coefficient is 1, so the unit coefficient c is read off
    that staircase monomial with no Weyl division.  A negative d_i brings
    x_i^3 from the three O slots, so only d in Z>=0^3 reaches the staircase;
    there every twist range d_i + D is nonnegative, so nothing is skipped.
    The degree-one correction is the one r1_direct_period applies.
    """
    raw = [Fraction(0)] * (dmax + 1)
    for D in range(dmax // 8 + 1):
        base = Fraction(1, math.factorial(D) ** 7)
        for k in range((dmax - 8 * D) // 3 + 1):
            for d1 in range(k + 1):
                for d2 in range(k - d1 + 1):
                    d = (d1, d2, k - d1 - d2)
                    raw[8 * D + 3 * k] += base * _staircase_coefficient(d, D)
    return _regularise(raw)


def _staircase_coefficient(d: tuple[int, int, int], D: int) -> Fraction:
    """x_1^2 x_2 coefficient of one point's summand of the pinned model."""
    roots = []
    for di in d:
        series = [Fraction(1), Fraction(0), Fraction(0)]
        for m in range(1, di + 1):
            for _ in range(3):
                series = _over_shift(series, m)
        for m in range(1, di + 2 * D + 1):
            series = _over_shift(series, m)
        for m in range(1, di + D + 1):
            series = _times_shift(series, m)
        roots.append(series)
    # prod_{i<j} (x_i - x_j + d_i - d_j), keyed by the exponents of x_1, x_2, x_3
    weyl = {(0, 0, 0): Fraction(1)}
    sign = 1
    for i, j in ((0, 1), (0, 2), (1, 2)):
        diff = d[i] - d[j]
        if diff % 2:
            sign = -sign
        linear = {(0, 0, 0): diff}
        linear[tuple(int(g == i) for g in range(3))] = 1
        linear[tuple(int(g == j) for g in range(3))] = -1
        product = {}
        for ea, ca in weyl.items():
            for eb, cb in linear.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                product[key] = product.get(key, 0) + ca * cb
        weyl = product
    total = Fraction(0)
    for (a, b, c), coeff in weyl.items():
        if c == 0 and a <= 2 and b <= 1:
            total += coeff * roots[0][2 - a] * roots[1][1 - b] * roots[2][0]
    return sign * total


def r1_direct_period(
    base_dim: int,
    center_degrees: tuple[int, int],
    dmax: int,
) -> tuple[Fraction, ...]:
    """Direct double-sum period for a blow-up along a codimension-2 center.

    For rank-one fibers the unit coefficient of a point (D, d) is a plain
    product of factorials (no Weyl machinery): with k = min degree,
    e = k - max degree <= 0,

        (d + kD)! / ( (D!)^(base_dim+1) * d! * (d + eD)! )

    summed over the grading a D + b d = degree, then corrected by
    G = exp(-C x) with C the degree-one total.
    """
    c_sorted = sorted(center_degrees)
    k = c_sorted[0]
    e = k - c_sorted[1]
    a = (base_dim + 1 + e) - k
    if a <= 0:
        raise ValueError("r1_direct_period needs N + 1 > max(c)")
    b = 1
    raw = [Fraction(0)] * (dmax + 1)
    for D in range(dmax // a + 1):
        d = -e * D  # smallest fiber degree with nonzero contribution
        while a * D + b * d <= dmax:
            deg = a * D + b * d
            raw[deg] += Fraction(
                math.factorial(d + k * D),
                math.factorial(D) ** (base_dim + 1)
                * math.factorial(d)
                * math.factorial(d + e * D),
            )
            d += 1
    return _regularise(raw)


def oracle_blowup(
    base_dim: int,
    center_degrees: tuple[int, ...],
    dmax: int,
) -> tuple[Fraction, ...]:
    """Regularised period of P^N, N = base_dim, blown up in degrees c_0..c_r.

    The Euler-sequence sum `oracle_blowup_raw` times e^(-C x), with C its
    degree-one coefficient, regularised.  Needs N + 1 > r max c (a Fano
    blow-up), where the mirror map is e^(-C x).
    """
    if base_dim + 1 <= (len(center_degrees) - 1) * max(center_degrees):
        raise ValueError("oracle_blowup needs N + 1 > r * max(c)")
    return _regularise(oracle_blowup_raw(base_dim, center_degrees, dmax))


def oracle_blowup_raw(
    base_dim: int,
    center_degrees: tuple[int, ...],
    dmax: int,
) -> tuple[Fraction, ...]:
    """Unit coefficients u_0..u_dmax of the blow-up at z = 1: the Euler-sequence sum

        sum_{l >= 0} sum_{e=0}^{l min c} x^((N+1) l - r e)
            prod_j (c_j l)! / (l!^(N+1) e! prod_j (c_j l - e)!).

    The blow-up is the zero locus, in the toric bundle P = P(sum_j O(c_j))
    over P^N, of a section of Q = pi^*F / O(-P) with F = sum_j O(c_j).  The
    sum twists the toric I-function by pi^*F, divides out the factor of
    O(-P) and sets H = P = 0.  That twist by O(-P) is formal: O(-P) is not
    convex, so quantum Lefschetz does not cover it, and agreement with the
    engine is evidence, not proof.  Needs N + 1 > r min c, where each
    degree is a finite sum: the term at (l, e) has degree at least
    (N + 1 - r min c) l.  The blow-up need not be Fano.  One Fraction per
    degree, from the integers of `oracle_blowup_terms`.
    """
    return tuple(Fraction(n, d) for n, d in oracle_blowup_terms(base_dim, center_degrees, dmax))


def oracle_blowup_terms(base_dim: int, center_degrees: tuple[int, ...], dmax: int) -> list:
    """Each degree of `oracle_blowup_raw` as integers (numerator, l!^(N+1)), l its largest.

    The term at (l, e) is e!^r prod_j C(c_j l, e) / l!^(N+1), so every term
    of a degree is put over the l!^(N+1) of the largest l it holds, with no
    lcm taken; an empty degree is (0, 1).
    """
    c, N = tuple(center_degrees), base_dim
    r = len(c) - 1
    if N + 1 <= r * min(c):
        raise ValueError("oracle_blowup_raw needs N + 1 > r * min(c)")
    top = dmax // (N + 1 - r * min(c))  # the largest l with a degree at most dmax
    fact = [math.factorial(i) for i in range(min(c) * top + 1)]
    sums, tops = [0] * (dmax + 1), [0] * (dmax + 1)  # tops[d]: the largest l of degree d so far
    for l in range(top + 1):
        over = (N + 1) * l - dmax  # the degree at e is at most dmax when r e >= over
        for e in range(-(-over // r) if over > 0 else 0, l * min(c) + 1):
            d = (N + 1) * l - r * e
            if tops[d] < l:
                sums[d] *= (fact[l] // fact[tops[d]]) ** (N + 1)
                tops[d] = l
            sums[d] += fact[e] ** r * math.prod(math.comb(cj * l, e) for cj in c)
    return [(n, fact[l] ** (N + 1)) for n, l in zip(sums, tops)]


def _regularise(raw: list[Fraction]) -> tuple[Fraction, ...]:
    """d! times the coefficients of exp(-C x) * sum raw_d x^d, C = raw_1."""
    C = raw[1] if len(raw) > 1 else Fraction(0)
    out = []
    for deg in range(len(raw)):
        acc = Fraction(0)
        for t in range(deg + 1):
            acc += (-C) ** t / math.factorial(t) * raw[deg - t]
        out.append(math.factorial(deg) * acc)
    return tuple(out)

