"""Truncated polynomial ring over the rationals.

Everything downstream works in Q[g_0, ..., g_{n-1}] / (total degree > cap).
A value knows its own cap: mixing values with different caps (or a different
number of generators) is a usage error, never a silent coercion.  Coefficients
are `fractions.Fraction` throughout, so all arithmetic is exact.  `PackedRing`
multiplies in the same ring with integer numerators over one common
denominator, for the products that dominate summand construction.
"""

from __future__ import annotations

import itertools
import math
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

    def __rsub__(self, other):
        return (-self) + other

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

    def __hash__(self):
        return hash((self.nvars, self.cap, frozenset(self.terms.items())))

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

    def truncate(self, cap: int) -> "GradedPoly":
        """Copy of self in the ring with the (lower or equal) cap."""
        if cap > self.cap:
            raise RingUsageError(f"cannot raise cap from {self.cap} to {cap}")
        out = GradedPoly(self.nvars, cap)
        out.terms = {e: c for e, c in self.terms.items() if sum(e) <= cap}
        return out

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

    def unit_part(self) -> Fraction:
        """Constant term, for callers that read a scalar off a quotient."""
        return self.constant_term()


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


def exp_nilpotent(p: GradedPoly) -> GradedPoly:
    """exp of a nilpotent element, as the finite sum of p^m / m!."""
    if p.constant_term():
        raise RingUsageError("exp_nilpotent requires a zero constant term")
    acc = GradedPoly.constant(1, p.nvars, p.cap)
    power = GradedPoly.constant(1, p.nvars, p.cap)
    for m in range(1, p.cap + 1):
        power = poly_mul(power, p)
        if power.is_zero():
            break
        acc = acc + power.scale(Fraction(1, math.factorial(m)))
    return acc


def divide_linear(p: GradedPoly, i: int, j: int) -> GradedPoly:
    """Exact division of p by (g_i - g_j).

    Precondition: p vanishes under g_i -> g_j; this is checked, and a
    violation raises NotDivisibleError carrying the remainder.  The quotient
    lives at cap p.cap - 1 (the top degree of a quotient is not determined
    by a numerator known only up to degree cap).

    Works monomial by monomial: with u = g_i - g_j,
        g_i^e * m  =  ((g_i - g_j) + g_j)^e * m
    and expanding binomially, every term with at least one factor u is
    divisible by u; the u-free term g_j^e * m cancels across the whole
    polynomial because the substitution remainder is zero.
    """
    remainder = p.substitute_equal(i, j)
    if not remainder.is_zero():
        raise NotDivisibleError(
            f"not divisible by g{i} - g{j}: substitution leaves a remainder",
            remainder,
        )
    nvars, cap = p.nvars, p.cap
    u = GradedPoly.generator(i, nvars, cap) - GradedPoly.generator(j, nvars, cap)
    quotient = GradedPoly(nvars, cap)
    for expo, coeff in p.terms.items():
        e = expo[i]
        if e == 0:
            continue
        rest = list(expo)
        rest[i] = 0
        rest_poly = GradedPoly(nvars, cap, {tuple(rest): coeff})
        # sum_{t=1}^{e} C(e, t) u^(t-1) g_j^(e-t)
        acc = GradedPoly(nvars, cap)
        u_power = GradedPoly.constant(1, nvars, cap)
        for t in range(1, e + 1):
            gj_expo = [0] * nvars
            gj_expo[j] = e - t
            term = GradedPoly(nvars, cap, {tuple(gj_expo): Fraction(math.comb(e, t))})
            acc = acc + poly_mul(u_power, term)
            if t < e:
                u_power = poly_mul(u_power, u)
        quotient = quotient + poly_mul(rest_poly, acc)
    return quotient.truncate(cap - 1)


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
    """Integer kernel for products in one truncated ring.

    A packed value is a pair (terms, den): terms is a list of
    (key, numerator) pairs sorted by key, every numerator a nonzero int, and
    den a positive int shared by all of them.  The monomial g^e packs as

        key = sum_i e_i B^i + (sum_i e_i) B^nvars,    B = cap + 1.

    Adding keys multiplies monomials: no exponent digit carries while the
    total degree stays within cap, and the top digit is the total degree.  A
    product monomial therefore survives truncation exactly when its key is
    below `limit` = (cap + 1) B^nvars, and because keys sort by degree first
    a row of products can stop at the first key past the limit.
    """

    __slots__ = ("nvars", "cap", "radix", "limit", "_expos")

    def __init__(self, nvars: int, cap: int):
        self.nvars = nvars
        self.cap = cap
        self.radix = cap + 1
        self.limit = (cap + 1) * self.radix**nvars
        self._expos: dict[int, tuple] = {}

    def key(self, expo: Iterable[int]) -> int:
        expo = tuple(expo)
        key = sum(expo) * self.radix**self.nvars
        for i, e in enumerate(expo):
            key += e * self.radix**i
        return key

    def pack(self, terms: Mapping[tuple, Fraction | int]) -> tuple[list, int]:
        """Packed value of {exponent tuple: rational}, dropping degrees > cap."""
        kept = {
            self.key(expo): _as_fraction(c)
            for expo, c in terms.items()
            if c and sum(expo) <= self.cap
        }
        den = math.lcm(*(c.denominator for c in kept.values()))
        return sorted((k, c.numerator * (den // c.denominator)) for k, c in kept.items()), den

    def product(self, a: tuple[list, int], b: tuple[list, int]) -> tuple[list, int]:
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
        return sorted((k, c) for k, c in acc.items() if c), da * db

    def compose(self, series, linear: tuple[list, int]) -> tuple[list, int]:
        """sum_k series[k] * linear^k for rational coefficients series[0..cap].

        `linear` must have integer coefficients and no constant term, so its
        powers past cap vanish.
        """
        if linear[1] != 1 or (linear[0] and linear[0][0][0] == 0):
            raise RingUsageError("compose needs an integral linear form without constant term")
        den = math.lcm(*(c.denominator for c in series))
        nums = [c.numerator * (den // c.denominator) for c in series]
        acc = {0: nums[0]}
        power = [(0, 1)]
        for c in nums[1:]:
            power, _ = self.product((power, 1), linear)
            if not power:
                break
            for k, p in power:
                acc[k] = acc.get(k, 0) + c * p
        return sorted((k, c) for k, c in acc.items() if c), den

    def to_graded(self, value: tuple[list, int], scale: Fraction) -> GradedPoly:
        """The GradedPoly of value * scale."""
        terms, den = value
        num, den = scale.numerator, den * scale.denominator
        expos = self._expos
        out = GradedPoly(self.nvars, self.cap)
        if num:
            out.terms = {
                expos.get(k) or self._unpack(k): Fraction(c * num, den) for k, c in terms
            }
        return out

    def _unpack(self, key: int) -> tuple:
        digits = []
        rest = key
        for _ in range(self.nvars):
            rest, e = divmod(rest, self.radix)
            digits.append(e)
        expo = self._expos[key] = tuple(digits)
        return expo


def block_pairs(offsets: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """All (i, j) with i < j inside each half-open index range [lo, hi)."""
    pairs = []
    for lo, hi in offsets:
        pairs.extend(itertools.combinations(range(lo, hi), 2))
    return pairs
