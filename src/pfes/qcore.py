"""Exact arithmetic in a single variable q.

Provides dense integer-coefficient polynomials (QPoly), signed q-powers
(PowerParam), Gaussian binomial coefficients and a terminating basic
hypergeometric summator.  QPoly is the only value type: a quotient that need
not be a polynomial, such as a partial sum from phi_eval, is a pair
(num, den) of QPolys, and two pairs compare by cross-multiplication,
a_num * b_den == b_num * a_den, which is exact since Z[q] has no zero
divisors.

Every product or quotient of factors (1 - s*q**e), s = +-1, is built here
from lists of exponents; other modules pass only the exponents.  q_quotient
multiplies the tops (1 - q**a) in place and q_divide divides by the bottoms
(1 - q**b).  Any other factor is first rewritten into that form:
1 - s*q**e = -s*q**e * (1 - s*q**-e) for e < 0, and
1 + q**e = (1 - q**2e) / (1 - q**e) for e > 0.

A constant factor scales the coefficients; every other product is one
big-integer multiply, by Kronecker substitution (Schoenhage 1982; Harvey,
J. Symbolic Comput. 44, 2009).

All values are immutable after construction and every operation is a pure
function, so concurrent use requires no locking.  Coefficients are Python
integers, hence arbitrary precision; nothing here ever rounds.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from itertools import accumulate
from operator import add, neg, sub
from typing import Iterable, Sequence


class NotPolynomial(Exception):
    """An exact division num/den, of a quantity that must reduce to a
    polynomial, left a remainder; carries num, den and a context label."""

    def __init__(self, num, den, context=""):
        self.num = num
        self.den = den
        self.context = context
        msg = f"({num})/({den}) does not reduce to a polynomial"
        if context:
            msg = f"{context}: {msg}"
        super().__init__(msg)


class ZeroDenominator(Exception):
    """A division by the zero polynomial, or by a factor (1 - q**0)."""


class LowerParamPole(Exception):
    """A lower series parameter makes a denominator Pochhammer vanish."""


class QPoly:
    """Dense polynomial in q with integer coefficients.

    ``coeffs[i]`` holds the coefficient of ``q**i``.  Canonical form: no
    trailing zeros, the zero polynomial is the empty tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        """Degree, with the convention degree(0) = -1."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = QPoly([other])
        if not isinstance(other, QPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        if len(self.coeffs) <= 1:  # a constant hashes like the int it equals
            return hash(self.coeffs[0] if self.coeffs else 0)
        return hash(self.coeffs)

    def __neg__(self) -> "QPoly":
        return QPoly([-c for c in self.coeffs])

    def __add__(self, other) -> "QPoly":
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        return QPoly([*map(add, a, b), *a[len(b):], *b[len(a):]])

    __radd__ = __add__

    def __sub__(self, other) -> "QPoly":
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        return QPoly([*map(sub, a, b), *a[len(b):], *map(neg, b[len(a):])])

    def __rsub__(self, other) -> "QPoly":
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> "QPoly":
        if isinstance(other, QPoly):
            a, b = self.coeffs, other.coeffs
            if len(a) <= 1:
                return _scaled(other, a[0] if a else 0)
            if len(b) <= 1:
                return _scaled(self, b[0] if b else 0)
            # Kronecker substitution: 2**(8*width) > 2 * max|a| * max|b| * terms
            terms = min(len(a) - a.count(0), len(b) - b.count(0))
            width = (max(max(a), -min(a)).bit_length() + terms.bit_length()
                     + max(max(b), -min(b)).bit_length()) // 8 + 1
            if width <= 8:  # an array item size
                width = 1 << (width - 1).bit_length()
            return QPoly(_unpack(_pack(a, width) * _pack(b, width),
                                 width, len(a) + len(b) - 1))
        if isinstance(other, int):
            return _scaled(self, other)
        return NotImplemented

    __rmul__ = __mul__

    def __call__(self, x):
        """Evaluate at x by Horner's rule (exact for int/Fraction input)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def shift(self, m: int) -> "QPoly":
        """Multiply by q**m (m >= 0)."""
        if m < 0:
            raise ValueError("negative shifts are not polynomials")
        return QPoly((0,) * m + self.coeffs)

    @property
    def is_palindromic(self) -> bool:
        return self.coeffs == tuple(reversed(self.coeffs))

    def render(self, var: str = "q") -> str:
        """The terms from the top degree down, with q spelled var and q**e
        spelled var^e, or (var)^e when var is more than one letter."""
        if not self:
            return "0"
        power = "{}^{}" if len(var) == 1 else "({})^{}"
        parts = []
        for e in range(self.degree, -1, -1):
            c = self.coeffs[e]
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                name = var if e == 1 else power.format(var, e)
                body = name if mag == 1 else f"{mag}{name}"
            parts.append(sign + body)
        return "".join(parts)

    __str__ = render

    def __repr__(self) -> str:
        return f"QPoly({self.coeffs!r})"


# Digits of 1, 2, 4 or 8 bytes go through an array of this signed typecode.
_TYPECODES = {1: "b", 2: "h", 4: "i", 8: "q"}


def _halves(width: int, count: int) -> int:
    # 2**(8*width-1) in each of count base-2**(8*width) digits
    return int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")


def _pack(coeffs: Sequence[int], width: int) -> int:
    """The polynomial's value at 2**(8*width); needs |c| < 2**(8*width-1).
    Flipping the top bit of a two's complement digit adds 2**(8*width-1)."""
    if width <= 8:
        digits = array(_TYPECODES[width], coeffs)
        if sys.byteorder == "big":
            digits.byteswap()
        raw = digits.tobytes()
    else:
        raw = b"".join(c.to_bytes(width, "little", signed=True) for c in coeffs)
    halves = _halves(width, len(coeffs))
    return (int.from_bytes(raw, "little") ^ halves) - halves


def _unpack(value: int, width: int, count: int) -> list[int]:
    """The count symmetric base-2**(8*width) digits of value, lowest first."""
    halves = _halves(width, count)
    raw = ((value + halves) ^ halves).to_bytes(width * count, "little")
    if width <= 8:
        digits = array(_TYPECODES[width], raw)
        if sys.byteorder == "big":
            digits.byteswap()
        return digits.tolist()
    return [int.from_bytes(raw[t:t + width], "little", signed=True)
            for t in range(0, width * count, width)]


def _scaled(p: QPoly, c: int) -> QPoly:
    """c * p, coefficient by coefficient."""
    if c == 0:
        return ZERO
    if c == 1:
        return p
    return QPoly([x * c for x in p.coeffs])


def _coerce_poly(value):
    if isinstance(value, QPoly):
        return value
    if isinstance(value, int):
        return QPoly([value])
    return NotImplemented


ZERO = QPoly()
ONE = QPoly([1])
Q = QPoly([0, 1])


def monomial(exponent: int) -> QPoly:
    """q**exponent; a negative exponent raises ValueError."""
    return ONE.shift(exponent)


def geometric_series(m: int, base_exp: int = 1) -> QPoly:
    """(q**(b*m) - 1)/(q**b - 1) = 1 + q**b + ... + q**(b*(m-1)) with
    b = base_exp; zero for m = 0."""
    if m < 0:
        raise ValueError("geometric_series needs m >= 0")
    if base_exp < 1:
        raise ValueError("base_exp must be a positive integer")
    return QPoly(([1] + [0] * (base_exp - 1)) * m)


def q_product(exponents: Iterable[int]) -> QPoly:
    """Product of the factors (1 - q**a) over the exponents a; ONE for none."""
    exponents = list(exponents)
    if min(exponents, default=0) < 0:
        raise ValueError("QPoly exponents must be non-negative")
    return q_quotient(exponents, (), "")


def q_quotient(tops: Iterable[int], bottoms: Iterable[int],
               context: str) -> QPoly:
    """Exact quotient q_product(tops) / q_product(bottoms).

    ZERO when 0 is among the tops, decided before any factor is built, so
    such tops may run on into negative exponents.  Raises NotPolynomial,
    labelled with context, when the division leaves a remainder.

    In place on one coefficient list: a factor (1 - q**a) subtracts a
    shifted copy, smallest a first; q_divide then divides by the bottoms.
    """
    tops = sorted(tops)
    if 0 in tops:
        return ZERO
    if tops and tops[0] < 0:
        raise ValueError("QPoly exponents must be non-negative")
    cs = [1] + [0] * sum(tops)
    for a, deg in zip(tops, accumulate(tops)):
        cs[a:deg + 1] = map(sub, cs[a:deg + 1], cs)
    return q_divide(QPoly(cs), bottoms, context)


def q_divide(num: QPoly, bottoms: Iterable[int], context: str) -> QPoly:
    """Exact quotient num / q_product(bottoms).

    A divisor (1 - q**b) is a running sum per residue class mod b, exact
    iff the top b sums vanish.  Raises NotPolynomial, labelled with
    context, when the division leaves a remainder.
    """
    bottoms = list(bottoms)
    if min(bottoms, default=1) < 0:
        raise ValueError("QPoly exponents must be non-negative")
    if 0 in bottoms:
        raise ZeroDenominator("division by the zero polynomial")
    cs = list(num.coeffs)
    for b in bottoms:
        for r in range(b):
            cs[r::b] = accumulate(cs[r::b])
        if any(cs[-b:]):
            raise NotPolynomial(num, q_product(bottoms), context)
        del cs[-b:]
    return QPoly(cs)


def _factors(powers: Iterable[PowerParam]) -> tuple[int, QPoly]:
    """The product of the factors (1 - a) over the signed powers a, as
    (shift, p): the product is q**shift * p, with p exact and ZERO when
    some a is q**0."""
    coef, shift, tops, bottoms = 1, 0, [], []
    for a in powers:
        s, e = a.sign, a.exponent
        if e < 0:  # 1 - s*q**e = -s*q**e * (1 - s*q**-e)
            coef, shift, e = -s * coef, shift + e, -e
        if s == 1:
            tops.append(e)
        elif e == 0:  # 1 + q**0
            coef *= 2
        else:  # 1 + q**e = (1 - q**2e) / (1 - q**e)
            tops.append(2 * e)
            bottoms.append(e)
    return shift, coef * q_quotient(tops, bottoms, "")


@dataclass(frozen=True)
class PowerParam:
    """A signed symbolic power of q: sign * q**exponent, exponent in Z."""

    sign: int
    exponent: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")

    def shifted(self, delta: int) -> "PowerParam":
        return PowerParam(self.sign, self.exponent + delta)

    def __str__(self) -> str:
        s = "-" if self.sign < 0 else ""
        return f"{s}q^{self.exponent}"


def qpow(exponent: int) -> PowerParam:
    return PowerParam(1, exponent)


def neg_qpow(exponent: int) -> PowerParam:
    return PowerParam(-1, exponent)


_GAUSS_CACHE: dict[tuple[int, int, int], QPoly] = {}


def gauss_binomial(m: int, r: int, base_exp: int = 1) -> QPoly:
    """Gaussian binomial coefficient in q**base_exp.

    Equals prod_{i<r}(1-q^{b(m-i)}) / prod_{i<r}(1-q^{b(i+1)}) for
    0 <= r <= m and 0 otherwise.  Only base 1 with r <= m - r is built as
    that quotient: [m, r] = [m, m - r], and base b spreads the coefficients
    of base 1 b apart.  Each key is memoized (invisibly: values are immutable).
    """
    if base_exp < 1:
        raise ValueError("base_exp must be a positive integer")
    if r < 0 or r > m:
        return ZERO
    key = (m, r, base_exp)
    cached = _GAUSS_CACHE.get(key)
    if cached is not None:
        return cached
    if base_exp == 1 and 2 * r <= m:
        value = q_quotient(range(m - r + 1, m + 1), range(1, r + 1),
                           f"Gaussian binomial (m={m}, r={r})")
    else:
        value = gauss_binomial(m, min(r, m - r), 1)
        if base_exp > 1:
            pad = (0,) * (base_exp - 1)
            value = QPoly(x for c in value.coeffs for x in (c, *pad))
    _GAUSS_CACHE[key] = value
    return value


def phi_eval(upper: Sequence[PowerParam], lower: Sequence[PowerParam],
             base_exp: int, z: PowerParam,
             max_terms: int) -> tuple[QPoly, QPoly]:
    """Exact partial sum (terms 0..max_terms) of a basic hypergeometric
    series, as a pair (num, den) of QPolys whose quotient it is.

    Term m is prod(a;Q)_m / ((Q;Q)_m prod(b;Q)_m) * ((-1)^m Q^(m(m-1)/2))^(1+s-r) * z^m
    with Q = q**base_exp.  For a terminating series whose upper-parameter
    tail vanishes by max_terms, the partial sum is the full sum.

    Term m+1 is term m times the ratio
    prod(1 - a*Q^m) / ((1 - Q^(m+1)) prod(1 - b*Q^m)) * (-Q^m)^(1+s-r) * z,
    so the sum is 1 + r_0 (1 + r_1 (1 + ... (1 + r_(max_terms-1)))), which
    is built inside out as one fraction (Gasper-Rahman, Basic
    Hypergeometric Series, 1.2).  A zero ratio ends the series there.

    Raises LowerParamPole when a lower parameter equals Q**(-m) for some
    0 <= m < max_terms, which would zero a denominator factor.
    """
    if base_exp < 1:
        raise ValueError("base_exp must be a positive integer")
    if max_terms < 0:
        raise ValueError("max_terms must be non-negative")
    for b in lower:
        if qpow(0) in (b.shifted(base_exp * m) for m in range(max_terms)):
            raise LowerParamPole(f"lower parameter {b} vanishes a denominator "
                                 f"factor within {max_terms} terms")
    excess = 1 + len(lower) - len(upper)
    sign = (-1) ** (excess % 2) * z.sign
    big_q = qpow(base_exp)
    num = den = ONE
    for m in reversed(range(max_terms)):
        up_shift, up = _factors(a.shifted(base_exp * m) for a in upper)
        if not up:  # the series ends at term m
            num = den = ONE
            continue
        down_shift, down = _factors(b.shifted(base_exp * m)
                                    for b in (big_q, *lower))
        s = excess * base_exp * m + z.exponent + up_shift - down_shift
        den = down.shift(max(-s, 0)) * den
        step = up.shift(max(s, 0)) * num
        num = den + step if sign == 1 else den - step
    return num, den
