"""Exact arithmetic in a single variable q.

Provides integer-coefficient polynomials (QPoly), Gaussian binomial
coefficients and a terminating basic hypergeometric summator.  QPoly is the
only value type: a quotient that need not be a polynomial, such as a
partial sum from phi_eval, is a pair (num, den) of QPolys, and two pairs
compare by cross-multiplication, a_num * b_den == b_num * a_den, which is
exact since Z[q] has no zero divisors.

A QPoly P is held packed, as the one integer v = P(X) at X = 2**w
(Kronecker substitution; Schoenhage 1982; Harvey, J. Symbolic Comput. 44,
2009).  The digit width w is a multiple of 64 bits, and beside v sits a
bound m >= max|c| on the coefficients with m < 2**(w-2), so the symmetric
base-X digits of v are exactly the coefficients.  Every sum, difference,
negation, shift and product (by a QPoly or an int) is then one big-integer
operation on v, and the bound follows it: m_a + m_b for a sum, |c| * m for
a scaling, and m_a * m_b * t for a product whose shorter operand has t
terms.  Where a bound would reach 2**(w-2), or two widths differ, the
operands are decoded to their exact bounds and repacked at the smallest
width that holds the result, so coefficients of any size stay exact; at
the suites' bounds every value keeps w = 64.  Decoding is the slow path:
``coeffs`` decodes on each read, and only that fallback, printing,
evaluation, hashing, comparison across widths and the spread of a Gaussian
binomial to base b read it.

Factors (1 - s*q**e), s = +-1 and e >= 0, are applied to a packed value in
place, not built into a product that is then multiplied in: q_times turns
v into v - s*v*X**e per factor, which at most doubles the coefficients;
q_quotient applies its tops to ONE, and q_divide divides by each bottom
(1 - q**b) by prefix doubling.  Other modules pass only the signs and
exponents.  The summator takes each series parameter as such a pair
(s, e), meaning s*q**e, and first rewrites a factor with e < 0 as
1 - s*q**e = -s*q**e * (1 - s*q**-e).

Values are immutable (only a bound is ever tightened in place, which leaves
the value as it was) and every operation is a pure function.  Coefficients
are Python integers, hence arbitrary precision; nothing here ever rounds.
"""

from __future__ import annotations

import sys
from array import array
from operator import add
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


class QPoly:
    """Polynomial in q with integer coefficients, held as the integer
    P(2**w) with a coefficient bound (see the module docstring).

    ``coeffs[i]`` is the coefficient of ``q**i``, decoded on each read,
    with no trailing zeros; the zero polynomial has none.
    """

    __slots__ = ("_v", "_w", "_m")

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        self._m = max(max(cs, default=0), -min(cs, default=0))
        self._w = _width(self._m)
        self._v = _pack(cs, self._w)

    @property
    def coeffs(self) -> tuple[int, ...]:
        return tuple(_unpack(self._v, self._w, self.degree + 1))

    @property
    def degree(self) -> int:
        """Degree, with the convention degree(0) = -1."""
        return self._v.bit_length() // self._w if self._v else -1

    def __bool__(self) -> bool:
        return bool(self._v)

    def __eq__(self, other) -> bool:
        if isinstance(other, QPoly):
            if self._w == other._w:
                return self._v == other._v
            return self.coeffs == other.coeffs
        if isinstance(other, int):  # only a constant's value is below 2**w
            return self._v == other and self._v.bit_length() < self._w
        return NotImplemented

    def __hash__(self):
        if self._v.bit_length() < self._w:  # a constant hashes like its int
            return hash(self._v)
        return hash(self.coeffs)

    def __neg__(self) -> "QPoly":
        return _make(-self._v, self._w, self._m)

    def __add__(self, other) -> "QPoly":
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        w, m = self._w, self._m + other._m
        if w != other._w or m >> (w - 2):
            w, m, (a, b) = _refit(add, self, other)
            return _make(a + b, w, m)
        return _make(self._v + other._v, w, m)

    __radd__ = __add__

    def __sub__(self, other) -> "QPoly":
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + -other

    def __rsub__(self, other) -> "QPoly":
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> "QPoly":
        if isinstance(other, QPoly):
            a, b = self._v, other._v
            if a.bit_length() < self._w:  # a constant factor scales
                return _scaled(other, a)
            if b.bit_length() < other._w:
                return _scaled(self, b)
            # a product coefficient sums one product of two coefficients
            # per term of the shorter operand, at most
            terms = min(a.bit_length() // self._w,
                        b.bit_length() // other._w) + 1
            w, m = self._w, self._m * other._m * terms
            if w != other._w or m >> (w - 2):
                w, m, (a, b) = _refit(lambda x, y: x * y * terms, self, other)
            return _make(a * b, w, m)
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
        return _make(self._v << (self._w * m), self._w, self._m)

    @property
    def is_palindromic(self) -> bool:
        cs = self.coeffs
        return cs == cs[::-1]

    def render(self, var: str = "q") -> str:
        """The terms from the top degree down, with q spelled var and q**e
        spelled var^e, or (var)^e when var is more than one letter."""
        if not self:
            return "0"
        power = "{}^{}" if len(var) == 1 else "({})^{}"
        parts = []
        for e, c in reversed(list(enumerate(self.coeffs))):
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


def _make(v: int, w: int, m: int) -> QPoly:
    """The QPoly whose value at 2**w is v, with coefficient bound m."""
    p = object.__new__(QPoly)
    p._v, p._w, p._m = v, w, m
    return p


def _width(m: int) -> int:
    """The smallest multiple w of 64 with m < 2**(w-2)."""
    return (m.bit_length() + 65) // 64 * 64


def _tighten(p: QPoly) -> int:
    """Decodes p, sets its bound to max|c| and returns that bound."""
    cs = p.coeffs
    p._m = max(max(cs, default=0), -min(cs, default=0))
    return p._m


def _refit(bound, *polys: QPoly) -> tuple[int, int, list[int]]:
    """The slow path of an operation on polys whose result's coefficients
    are at most bound(m, ...) for operand bounds m, ...: tightens each
    operand's bound, and returns the smallest width w that holds the
    result's bound, that bound, and the operands' values at width w."""
    m = bound(*map(_tighten, polys))
    w = _width(m)
    return w, m, [p._v if p._w == w else _pack(p.coeffs, w) for p in polys]


def _halves(w: int, count: int) -> int:
    # 2**(w-1) in each of count base-2**w digits
    return int.from_bytes((bytes(w // 8 - 1) + b"\x80") * count, "little")


def _pack(coeffs: Sequence[int], w: int) -> int:
    """The polynomial's value at 2**w; needs |c| < 2**(w-1).  Flipping the
    top bit of a two's complement digit adds 2**(w-1)."""
    if w == 64:
        digits = array("q", coeffs)
        if sys.byteorder == "big":
            digits.byteswap()
        raw = digits.tobytes()
    else:
        raw = b"".join(c.to_bytes(w // 8, "little", signed=True)
                       for c in coeffs)
    halves = _halves(w, len(coeffs))
    return (int.from_bytes(raw, "little") ^ halves) - halves


def _unpack(value: int, w: int, count: int) -> list[int]:
    """The count symmetric base-2**w digits of value, lowest first."""
    size = w // 8
    halves = _halves(w, count)
    raw = ((value + halves) ^ halves).to_bytes(size * count, "little")
    if w == 64:
        digits = array("q", raw)
        if sys.byteorder == "big":
            digits.byteswap()
        return digits.tolist()
    return [int.from_bytes(raw[t:t + size], "little", signed=True)
            for t in range(0, size * count, size)]


def _scaled(p: QPoly, c: int) -> QPoly:
    """c * p, one multiply of the packed value."""
    if c == 0:
        return ZERO
    if c == 1:
        return p
    w, m, v = p._w, p._m * abs(c), p._v
    if m >> (w - 2):
        w, m, (v,) = _refit(lambda x: x * abs(c), p)
    return _make(v * c, w, m)


def _coerce_poly(value):
    if isinstance(value, QPoly):
        return value
    if isinstance(value, int):
        return _make(value, _width(abs(value)), abs(value))
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


def q_quotient(tops: Iterable[int], bottoms: Iterable[int],
               context: str) -> QPoly:
    """Exact quotient of the product of the factors (1 - q**a) over the
    tops by that over the bottoms; ONE for neither, and with no bottoms the
    one builder of such a product.

    ZERO when 0 is among the tops, decided before any factor is built, so
    such tops may run on into negative exponents.  Raises NotPolynomial,
    labelled with context, when the division leaves a remainder.

    q_times multiplies in the tops and q_divide divides by the bottoms.
    """
    tops = list(tops)
    if 0 in tops:
        return ZERO
    if min(tops, default=1) < 0:
        raise ValueError("QPoly exponents must be non-negative")
    return q_divide(q_times(ONE, [(1, a) for a in tops]), bottoms, context)


def q_times(p: QPoly, pairs: Iterable[tuple[int, int]]) -> QPoly:
    """p times the factors (1 - s*q**e) over the pairs (s, e), s = +-1 and
    e >= 0 (a negative e raises ValueError, as a negative shift).

    Each factor is one shift and one add or subtract of the packed value
    and at most doubles the coefficients, so the bound doubles per factor;
    only a doubled bound that would reach 2**(w-2) refits.
    """
    w, m, v = p._w, p._m, p._v
    for s, e in pairs:
        m *= 2
        if m >> (w - 2):
            w, m, (v,) = _refit(lambda x: 2 * x, _make(v, w, m // 2))
        v = v - (v << (w * e)) if s == 1 else v + (v << (w * e))
    return _make(v, w, m)


def q_divide(num: QPoly, bottoms: Iterable[int], context: str) -> QPoly:
    """Exact quotient of num by the product of the factors (1 - q**b) over
    the bottoms.

    Dividing by (1 - q**b) a polynomial of size coefficients takes the
    running sums of its coefficients along each residue class mod b, which
    are the low size digits of v * (1 + X**b + X**2b + ...); prefix doubling
    builds them, v += v * X**s for s = b, 2b, 4b, ... below size.  The
    division is exact iff the top b sums vanish, that is iff the balanced
    residue of v mod X**size is below X**(size-b) / 2 in absolute value.
    Raises NotPolynomial, labelled with context, when it is not.
    """
    bottoms = list(bottoms)
    if min(bottoms, default=1) < 0:
        raise ValueError("QPoly exponents must be non-negative")
    if 0 in bottoms:
        raise ZeroDenominator("division by the zero polynomial")
    if not num:
        return ZERO
    p = num
    # the largest b first, so the many-term sums of small b run on fewer digits
    for b in sorted(bottoms, reverse=True):
        size = p.degree + 1
        if size <= b:
            raise NotPolynomial(num, q_quotient(bottoms, (), ""), context)
        terms = (size - 1) // b + 1  # the longest running sum
        w, m, v = p._w, p._m * terms, p._v
        if m >> (w - 2):
            w, m, (v,) = _refit(lambda x: x * terms, p)
        span = b
        while span < size:
            v += v << (w * span)
            span *= 2
        low = v & ((1 << (w * size)) - 1)
        if low >> (w * size - 1):
            low -= 1 << (w * size)
        if abs(low) >> (w * (size - b) - 1):
            raise NotPolynomial(num, q_quotient(bottoms, (), ""), context)
        p = _make(low, w, m)
    return p


def _reduced(pairs: Iterable[tuple[int, int]]) -> tuple[int, int, list]:
    """The product of the factors (1 - s*q**e) over the pairs (s, e), as
    (shift, sign, pairs) with every e >= 0 in the pairs returned: the
    product is sign * q**shift times theirs, since
    1 - s*q**e = -s*q**e * (1 - s*q**-e)."""
    sign, shift, out = 1, 0, []
    for s, e in pairs:
        if e < 0:
            sign, shift, e = -s * sign, shift + e, -e
        out.append((s, e))
    return shift, sign, out


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


def phi_eval(upper: Sequence[tuple[int, int]],
             lower: Sequence[tuple[int, int]], base_exp: int,
             z: tuple[int, int], max_terms: int) -> tuple[QPoly, QPoly]:
    """Exact partial sum (terms 0..max_terms) of a basic hypergeometric
    series, as a pair (num, den) of QPolys whose quotient it is.  Each
    parameter, z included, is a pair (s, e) meaning s*q**e, s = +-1 and e
    any integer (another s raises ValueError).

    Term m is prod(a;Q)_m / ((Q;Q)_m prod(b;Q)_m) * ((-1)^m Q^(m(m-1)/2))^(1+s-r) * z^m
    with Q = q**base_exp.  For a terminating series whose upper-parameter
    tail vanishes by max_terms, the partial sum is the full sum.

    Term m+1 is term m times the ratio
    prod(1 - a*Q^m) / ((1 - Q^(m+1)) prod(1 - b*Q^m)) * (-Q^m)^(1+s-r) * z,
    so the sum is 1 + r_0 (1 + r_1 (1 + ... (1 + r_(max_terms-1)))), which
    is built inside out as one fraction (Gasper-Rahman, Basic
    Hypergeometric Series, 1.2).  A zero ratio ends the series there.

    Raises ZeroDenominator when a lower parameter equals Q**(-m) for some
    0 <= m < max_terms, which would zero a denominator factor.
    """
    if base_exp < 1:
        raise ValueError("base_exp must be a positive integer")
    if max_terms < 0:
        raise ValueError("max_terms must be non-negative")
    if any(s not in (1, -1) for s, _ in (*upper, *lower, z)):
        raise ValueError("sign must be +1 or -1")
    # scanned before any term is built, so a pole at a term that an upper
    # zero cuts off still raises, and a skipped point builds no term
    for s, e in lower:
        if (s == 1 and e <= 0 and e % base_exp == 0
                and -e // base_exp < max_terms):
            raise ZeroDenominator(f"lower parameter q^{e} vanishes a "
                                  f"denominator factor within "
                                  f"{max_terms} terms")
    excess = 1 + len(lower) - len(upper)
    z_sign, z_exp = z
    sign = (-1) ** (excess % 2) * z_sign
    downs = [(1, base_exp), *lower]
    num = den = ONE
    for m in reversed(range(max_terms)):
        offset = base_exp * m
        up_shift, up_sign, up = _reduced((s, e + offset) for s, e in upper)
        if (1, 0) in up:  # a zero factor: the series ends at term m
            num = den = ONE
            continue
        down_shift, down_sign, down = _reduced((s, e + offset)
                                               for s, e in downs)
        s = excess * offset + z_exp + up_shift - down_shift
        den = q_times(den, down).shift(max(-s, 0))
        step = q_times(num, up).shift(max(s, 0))
        num = den + step if sign * up_sign * down_sign == 1 else den - step
    return num, den
