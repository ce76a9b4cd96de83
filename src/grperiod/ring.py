"""Truncated polynomial ring over the rationals.

Everything downstream works in Q[g_0, ..., g_{n-1}] / (total degree > cap).
A value knows its own cap: mixing values with different caps (or a different
number of generators) is a usage error, never a silent coercion.  Coefficients
are `fractions.Fraction` throughout, so all arithmetic is exact.
`divide_linear` divides by g_i - g_j: once g_i -> g_j leaves no remainder,
each term c * g_i^e * m (m free of g_i) contributes c * m times the
geometric sum g_i^(e-1) + g_i^(e-2) g_j + ... + g_j^(e-1).  `PackedRing`
works in the same ring with integer numerators over one common denominator:
it builds the lattice-point summands, adds them up, and reads the unit
coefficient off their sum with an exact Weyl-divisibility check.
`integer_det` is the determinant the S_r-orbit path reads each point's
staircase coefficient from.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Mapping


class RingUsageError(ValueError):
    """Raised when two values from incompatible rings are combined."""


class NotAUnitError(ZeroDivisionError):
    """Raised when inverting an element with zero constant term."""


class NotDivisibleError(ArithmeticError):
    """Raised when a linear division leaves a nonzero remainder.

    The offending remainder is attached as ``.remainder`` so callers can
    report what failed to cancel.
    """

    def __init__(self, message: str, remainder: "GradedPoly"):
        super().__init__(message)
        self.remainder = remainder


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


class GradedPoly:
    """Sparse truncated polynomial.

    terms maps exponent tuples (one entry per generator) to nonzero
    Fractions.  Monomials of total degree > cap are dropped on
    construction, and zero coefficients are never stored, so equality is
    plain structural equality.
    """

    __slots__ = ("nvars", "cap", "terms")

    def __init__(self, nvars: int, cap: int, terms: Mapping[tuple, Fraction] | None = None):
        if nvars < 1:
            raise RingUsageError("need at least one generator")
        if cap < 0:
            raise RingUsageError("cap must be nonnegative")
        self.nvars = nvars
        self.cap = cap
        clean: dict[tuple, Fraction] = {}
        if terms:
            for expo, coeff in terms.items():
                if len(expo) != nvars:
                    raise RingUsageError(
                        f"exponent tuple {expo} does not match {nvars} generators"
                    )
                c = _as_fraction(coeff)
                if c and sum(expo) <= cap:
                    clean[tuple(expo)] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value, nvars: int, cap: int) -> "GradedPoly":
        v = _as_fraction(value)
        zero = (0,) * nvars
        return cls(nvars, cap, {zero: v} if v else {})

    @classmethod
    def generator(cls, i: int, nvars: int, cap: int) -> "GradedPoly":
        if not 0 <= i < nvars:
            raise RingUsageError(f"generator index {i} out of range for {nvars} variables")
        expo = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, cap, {expo: Fraction(1)})

    # -- basic queries -----------------------------------------------------

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.nvars, Fraction(0))

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, expo: Iterable[int]) -> Fraction:
        return self.terms.get(tuple(expo), Fraction(0))

    def _check_compatible(self, other: "GradedPoly") -> None:
        if not isinstance(other, GradedPoly):
            raise RingUsageError(f"cannot combine GradedPoly with {type(other).__name__}")
        if self.nvars != other.nvars or self.cap != other.cap:
            raise RingUsageError(
                f"ring mismatch: ({self.nvars} vars, cap {self.cap}) vs "
                f"({other.nvars} vars, cap {other.cap})"
            )

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GradedPoly.constant(other, self.nvars, self.cap)
        self._check_compatible(other)
        terms = dict(self.terms)
        for expo, coeff in other.terms.items():
            s = terms.get(expo, Fraction(0)) + coeff
            if s:
                terms[expo] = s
            else:
                terms.pop(expo, None)
        out = GradedPoly(self.nvars, self.cap)
        out.terms = terms
        return out

    __radd__ = __add__

    def __neg__(self):
        out = GradedPoly(self.nvars, self.cap)
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GradedPoly.constant(other, self.nvars, self.cap)
        return self + (-other)

    def scale(self, value) -> "GradedPoly":
        v = _as_fraction(value)
        out = GradedPoly(self.nvars, self.cap)
        if v:
            out.terms = {e: c * v for e, c in self.terms.items()}
        return out

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return poly_mul(self, other)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GradedPoly.constant(other, self.nvars, self.cap)
        if not isinstance(other, GradedPoly):
            return NotImplemented
        return (
            self.nvars == other.nvars
            and self.cap == other.cap
            and self.terms == other.terms
        )

    def __repr__(self):
        if not self.terms:
            return f"GradedPoly<{self.nvars}v cap{self.cap}: 0>"
        bits = []
        for expo in sorted(self.terms, key=lambda e: (sum(e), e)):
            coeff = self.terms[expo]
            mono = "*".join(
                f"g{i}" + (f"^{p}" if p > 1 else "")
                for i, p in enumerate(expo)
                if p
            )
            bits.append(f"{coeff}" + (f"*{mono}" if mono else ""))
        return f"GradedPoly<{self.nvars}v cap{self.cap}: " + " + ".join(bits) + ">"

    # -- structural operations ---------------------------------------------

    def substitute_equal(self, i: int, j: int) -> "GradedPoly":
        """Image under g_i -> g_j (same ring)."""
        terms: dict[tuple, Fraction] = {}
        for expo, coeff in self.terms.items():
            e = list(expo)
            e[j] += e[i]
            e[i] = 0
            key = tuple(e)
            s = terms.get(key, Fraction(0)) + coeff
            if s:
                terms[key] = s
            else:
                terms.pop(key, None)
        out = GradedPoly(self.nvars, self.cap)
        out.terms = terms
        return out


def poly_mul(a: GradedPoly, b: GradedPoly) -> GradedPoly:
    a._check_compatible(b)
    cap = a.cap
    terms: dict[tuple, Fraction] = {}
    # iterate over the smaller operand for fewer dict probes
    if len(a.terms) > len(b.terms):
        a, b = b, a
    for ea, ca in a.terms.items():
        da = sum(ea)
        for eb, cb in b.terms.items():
            if da + sum(eb) > cap:
                continue
            key = tuple(x + y for x, y in zip(ea, eb))
            s = terms.get(key, Fraction(0)) + ca * cb
            if s:
                terms[key] = s
            else:
                terms.pop(key, None)
    out = GradedPoly(a.nvars, cap)
    out.terms = terms
    return out


def unit_inverse(p: GradedPoly) -> GradedPoly:
    """Multiplicative inverse of a unit (nonzero constant term).

    Writes p = c(1 - n) with n nilpotent and expands the geometric series,
    which terminates because n^(cap+1) = 0.
    """
    c = p.constant_term()
    if not c:
        raise NotAUnitError("constant term is zero; not a unit in the truncated ring")
    nil = (p.scale(Fraction(1, 1) / c) - 1).scale(-1)  # n with p = c*(1 - n)
    acc = GradedPoly.constant(1, p.nvars, p.cap)
    power = GradedPoly.constant(1, p.nvars, p.cap)
    for _ in range(p.cap):
        power = poly_mul(power, nil)
        if power.is_zero():
            break
        acc = acc + power
    return acc.scale(Fraction(1, 1) / c)


def divide_linear(p: GradedPoly, i: int, j: int) -> GradedPoly:
    """Exact division of p by (g_i - g_j).

    Precondition: p vanishes under g_i -> g_j; this is checked, and a
    violation raises NotDivisibleError carrying the remainder.  The quotient
    lives at cap p.cap - 1 (the top degree of a quotient is not determined
    by a numerator known only up to degree cap).

    With the remainder zero, the images c * g_j^e * m of p's terms
    c * g_i^e * m (m free of g_i) cancel, so p = sum c * m * (g_i^e - g_j^e)
    and the quotient is sum c * m * sum_{s<e} g_i^s g_j^(e-1-s).  Every
    quotient monomial has one degree less than its term, so none passes
    cap - 1.
    """
    remainder = p.substitute_equal(i, j)
    if not remainder.is_zero():
        raise NotDivisibleError(
            f"not divisible by g{i} - g{j}: substitution leaves a remainder",
            remainder,
        )
    quotient: dict[tuple, Fraction] = {}
    for expo, coeff in p.terms.items():
        e, mono = expo[i], list(expo)
        for s in range(e):
            mono[i], mono[j] = s, expo[j] + e - 1 - s
            key = tuple(mono)
            quotient[key] = quotient.get(key, 0) + coeff
    return GradedPoly(p.nvars, p.cap - 1, quotient)


def vandermonde_divide(p: GradedPoly, pairs: Iterable[tuple[int, int]]) -> GradedPoly:
    """Divide p by the product of (g_i - g_j) over the given index pairs.

    Each division drops the cap by one, so the result cap is
    p.cap - len(pairs).  Raises NotDivisibleError on the first failing pair.
    """
    q = p
    for i, j in pairs:
        q = divide_linear(q, i, j)
    return q


class PackedRing:
    """Integer kernel for exact arithmetic in one truncated ring.

    A packed value is a pair (terms, den): terms is a list of
    (key, numerator) pairs with distinct keys, every numerator a nonzero
    int, and den a positive int shared by all of them.  The monomial g^e
    packs as

        key = sum_i e_i B^i + (sum_i e_i) B^nvars,    B = cap + 1.

    Adding keys multiplies monomials: no exponent digit carries while the
    total degree stays within cap, and the top digit is the total degree.  A
    product monomial therefore survives truncation exactly when its key is
    below `limit` = (cap + 1) B^nvars, and because keys sort by degree first
    a row of products can stop at the first key past the limit.  That early
    stop needs the inner (second) operand of `product` sorted by key: `pack`
    returns sorted terms, `product` and `add_all` do not, so a product that
    is used as an inner operand is sorted once by its caller.

    Generators 1..nvars-1 are the Chern roots x_i.  Generator 0 is the
    hyperplane class h, which the summands never carry: they are evaluated
    at h = 0, so every key has a zero h digit.  A kernel builds the Weyl
    denominator of the roots on its first `weyl_unit` call and keeps it.
    """

    __slots__ = ("nvars", "cap", "radix", "limit", "_weights", "_weyl")

    def __init__(self, nvars: int, cap: int):
        self.nvars = nvars
        self.cap = cap
        self.radix = cap + 1
        self.limit = (cap + 1) * self.radix**nvars
        top = self.radix**nvars  # every generator also adds 1 to the top digit
        self._weights = [self.radix**i + top for i in range(nvars)]
        self._weyl: tuple[int, list] | None = None

    def key(self, expo: Iterable[int]) -> int:
        return sum(map(operator.mul, expo, self._weights))

    def pack(self, terms: Mapping[tuple, Fraction | int]) -> tuple[list, int]:
        """Packed value of {exponent tuple: rational}, dropping degrees > cap."""
        kept = [(self.key(expo), c) for expo, c in terms.items() if c and sum(expo) <= self.cap]
        den = math.lcm(*(c.denominator for _, c in kept))
        return sorted((k, c.numerator * (den // c.denominator)) for k, c in kept), den

    def product(self, a: tuple[list, int], b: tuple[list, int]) -> tuple[list, int]:
        """a * b, with b's terms sorted by key; the result's terms are unsorted."""
        (ta, da), (tb, db) = a, b
        limit = self.limit
        acc: dict[int, int] = {}
        get = acc.get
        for ka, ca in ta:
            room = limit - ka
            for kb, cb in tb:
                if kb >= room:
                    break
                k = ka + kb
                acc[k] = get(k, 0) + ca * cb
        return [(k, c) for k, c in acc.items() if c], da * db

    def add_all(self, values: Iterable[tuple[list, int]]) -> tuple[list, int]:
        """Sum of packed values, over the lcm of their denominators."""
        values = list(values)
        den = math.lcm(*(d for _, d in values))
        acc: dict[int, int] = {}
        get = acc.get
        for terms, d in values:
            f = den // d
            for k, c in terms:
                acc[k] = get(k, 0) + c * f
        return [(k, c) for k, c in acc.items() if c], den

    def weyl_unit(self, value: tuple[list, int]) -> Fraction:
        """The c with value = c * Delta, Delta = prod_{1 <= i < j < nvars} (g_i - g_j).

        Delta is the Weyl denominator of the roots; the cap must be its
        degree.  Then `vandermonde_divide(self.to_graded(value), pairs)`, over
        those root pairs, succeeds exactly when value is such a multiple, and
        its constant term is c; this checks the same equation on the integer
        numerators.  c is read off the staircase monomial prod_i g_i^(nvars-1-i),
        which only the all-first choice reaches, so its coefficient in Delta
        is 1.  Raises NotDivisibleError carrying value - c * Delta otherwise.
        """
        if self._weyl is None:
            self._weyl = self._weyl_denominator()
        staircase, delta = self._weyl
        terms, den = value
        numerators = dict(terms)
        c = numerators.get(staircase, 0)
        expected = {k: c * s for k, s in delta} if c else {}
        if numerators != expected:
            for k, s in expected.items():
                numerators[k] = numerators.get(k, 0) - s
            remainder = [(k, n) for k, n in numerators.items() if n]
            raise NotDivisibleError(
                f"not a multiple of the Weyl denominator of {self.nvars - 1} roots",
                self.to_graded((remainder, den)),
            )
        return Fraction(c, den)

    def _weyl_denominator(self) -> tuple[int, list]:
        """Staircase key and packed terms of Delta (denominator 1)."""
        roots = range(1, self.nvars)
        degree = len(roots) * (len(roots) - 1) // 2
        if self.cap != degree:
            raise RingUsageError(f"cap {self.cap} is not the Weyl degree {degree}")
        delta = ([(0, 1)], 1)
        for i in roots:
            for j in range(i + 1, self.nvars):
                gi, gj = [0] * self.nvars, [0] * self.nvars
                gi[i] = gj[j] = 1
                delta = self.product(delta, self.pack({tuple(gi): 1, tuple(gj): -1}))
        return self.key([0] + [self.nvars - 1 - i for i in roots]), delta[0]

    def to_graded(self, value: tuple[list, int]) -> GradedPoly:
        """The GradedPoly of value."""
        terms, den = value
        out = GradedPoly(self.nvars, self.cap)
        powers = [self.radix**i for i in range(self.nvars)]
        out.terms = {
            tuple(k // p % self.radix for p in powers): Fraction(c, den) for k, c in terms
        }
        return out


def integer_det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss) elimination.

    Every division by the previous pivot is exact; rows is not modified.
    """
    m = [list(row) for row in rows]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot, top = m[k][k], m[k]
        for row in m[k + 1 :]:
            lead = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - lead * top[j]) // prev
        prev = pivot
    return sign * m[n - 1][n - 1] if n else 1
