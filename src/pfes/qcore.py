"""Exact arithmetic in a single variable q.

Provides dense integer-coefficient polynomials (QPoly), rational functions
(QRational), Laurent polynomials (QLaurent), signed q-powers
(PowerParam), q-Pochhammer symbols, Gaussian binomial coefficients and a
terminating basic hypergeometric summator.  Products of factors
(1 - q**a) and exact quotients of two such products are built here, by
q_product and q_quotient; other modules pass them only the exponents.

A dense product is one big-integer multiply, by Kronecker substitution
(Schoenhage 1982; Harvey, J. Symbolic Comput. 44, 2009).  A QRational keeps
the numerator and denominator it was built from and compares by
cross-multiplication; only as_poly divides.

All values are immutable after construction and every operation is a pure
function, so concurrent use requires no locking.  Coefficients are Python
integers, hence arbitrary precision; nothing here ever rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Sequence


class NotDivisible(Exception):
    """Polynomial division left a remainder.

    Carries both operands so that a failed divisibility (= polynomiality)
    claim can be reported with full context.
    """

    def __init__(self, num, den):
        self.num = num
        self.den = den
        super().__init__(f"({num}) is not divisible by ({den})")


class NotPolynomial(Exception):
    """A quantity that must reduce to a polynomial failed to do so."""

    def __init__(self, num, den, context=""):
        self.num = num
        self.den = den
        self.context = context
        msg = f"({num})/({den}) does not reduce to a polynomial"
        if context:
            msg = f"{context}: {msg}"
        super().__init__(msg)


class ZeroDenominator(Exception):
    """A rational function was constructed with denominator zero."""


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

    @classmethod
    def monomial(cls, exponent: int, coefficient: int = 1) -> "QPoly":
        if exponent < 0:
            raise ValueError("QPoly exponents must be non-negative")
        return cls([0] * exponent + [coefficient])

    @property
    def degree(self) -> int:
        """Degree, with the convention degree(0) = -1."""
        return len(self.coeffs) - 1

    @property
    def lc(self) -> int:
        """Leading coefficient (0 for the zero polynomial)."""
        return self.coeffs[-1] if self.coeffs else 0

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

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
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPoly(out)

    __radd__ = __add__

    def __sub__(self, other) -> "QPoly":
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "QPoly":
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "QPoly":
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ZERO
        terms_a = [(i, c) for i, c in enumerate(a) if c]
        terms_b = [(j, c) for j, c in enumerate(b) if c]
        if len(terms_a) > len(terms_b):
            terms_a, terms_b = terms_b, terms_a
        if len(terms_a) > _SPARSE_TERMS:
            # Kronecker substitution: 2**(8*width) > 2 * max|a| * max|b| * terms
            width = (max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length()
                     + len(terms_a).bit_length()) // 8 + 1
            return QPoly(_unpack(_pack(a, width) * _pack(b, width),
                                 width, len(a) + len(b) - 1))
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in terms_a:
            for j, cb in terms_b:
                out[i + j] += ca * cb
        return QPoly(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "QPoly":
        if exponent < 0:
            raise ValueError("negative powers are not polynomials")
        result = ONE
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __call__(self, x):
        """Evaluate at x by Horner's rule (exact for int/Fraction input)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def shift(self, m: int) -> "QPoly":
        """Multiply by q**m (m >= 0)."""
        if m < 0:
            raise ValueError("use QLaurent for negative shifts")
        if self.is_zero:
            return ZERO
        return QPoly((0,) * m + self.coeffs)

    @property
    def is_palindromic(self) -> bool:
        return self.coeffs == tuple(reversed(self.coeffs))

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
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
                var = "q" if e == 1 else f"q^{e}"
                body = var if mag == 1 else f"{mag}{var}"
            parts.append(sign + body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"QPoly({self.coeffs!r})"


# A product whose sparser operand has at most this many nonzero terms is
# formed term by term; denser products go through one big-integer multiply.
_SPARSE_TERMS = 16


def _halves(width: int, count: int) -> int:
    # 2**(8*width-1) in each of count base-2**(8*width) digits
    return int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")


def _pack(coeffs: Sequence[int], width: int) -> int:
    """The polynomial's value at 2**(8*width); needs |c| < 2**(8*width-1)."""
    half = 1 << (8 * width - 1)
    packed = b"".join((c + half).to_bytes(width, "little") for c in coeffs)
    return int.from_bytes(packed, "little") - _halves(width, len(coeffs))


def _unpack(value: int, width: int, count: int) -> list[int]:
    """The count symmetric base-2**(8*width) digits of value, lowest first."""
    raw = (value + _halves(width, count)).to_bytes(width * count, "little")
    half = 1 << (8 * width - 1)
    return [int.from_bytes(raw[t:t + width], "little") - half
            for t in range(0, width * count, width)]


def _coerce_poly(value):
    if isinstance(value, QPoly):
        return value
    if isinstance(value, int):
        return QPoly([value])
    return NotImplemented


ZERO = QPoly()
ONE = QPoly([1])
Q = QPoly([0, 1])


def monomial(exponent: int, coefficient: int = 1) -> QPoly:
    return QPoly.monomial(exponent, coefficient)


def geometric_series(m: int, base_exp: int = 1) -> QPoly:
    """(q**(b*m) - 1)/(q**b - 1) = 1 + q**b + ... + q**(b*(m-1)) with
    b = base_exp; zero for m = 0."""
    if m < 0:
        raise ValueError("geometric_series needs m >= 0")
    if base_exp < 1:
        raise ValueError("base_exp must be a positive integer")
    return QPoly(([1] + [0] * (base_exp - 1)) * m)


def poly_exact_div(num: QPoly, den: QPoly) -> QPoly:
    """Exact quotient num/den in Z[q]; raises NotDivisible otherwise."""
    if den.is_zero:
        raise ZeroDenominator("division by the zero polynomial")
    if num.is_zero:
        return ZERO
    if num.degree < den.degree:
        raise NotDivisible(num, den)
    rem = list(num.coeffs)
    dd = den.degree
    dlc = den.lc
    quo = [0] * (num.degree - dd + 1)
    for i in range(num.degree - dd, -1, -1):
        c = rem[i + dd]
        if c == 0:
            continue
        head, tail = divmod(c, dlc)
        if tail:
            raise NotDivisible(num, den)
        quo[i] = head
        for j, dc in enumerate(den.coeffs):
            rem[i + j] -= head * dc
    if any(rem):
        raise NotDivisible(num, den)
    return QPoly(quo)


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

    In place on one coefficient list: a factor (1 - q**a) subtracts a shifted
    copy; a divisor (1 - q**b) is a running sum per residue class mod b,
    exact iff the top b sums vanish.
    """
    tops, bottoms = list(tops), list(bottoms)
    if 0 in tops:
        return ZERO
    if min(tops + bottoms, default=0) < 0:
        raise ValueError("QPoly exponents must be non-negative")
    if 0 in bottoms:
        raise ZeroDenominator("division by the zero polynomial")
    cs = [1] + [0] * sum(tops)
    for a, deg in zip(tops, accumulate(tops)):
        cs[a:deg + 1] = [x - y for x, y in zip(cs[a:deg + 1], cs)]
    for b in bottoms:
        for r in range(b):
            cs[r::b] = accumulate(cs[r::b])
        if any(cs[-b:]):
            raise NotPolynomial(q_product(tops), q_product(bottoms), context)
        del cs[-b:]
    return QPoly(cs)


class QRational:
    """Quotient num/den of two integer polynomials in q, kept as built.

    Z[q] has no zero divisors, so a/b == c/d exactly when a*d == c*b;
    common factors are never cancelled.  Zero is stored as 0/1 and den has
    a positive leading coefficient.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=ONE):
        num = _coerce_poly(num)
        den = _coerce_poly(den)
        if num is NotImplemented or den is NotImplemented:
            raise TypeError("QRational needs QPoly or int operands")
        if den.is_zero:
            raise ZeroDenominator("zero denominator")
        if num.is_zero:
            num, den = ZERO, ONE
        elif den.lc < 0:
            num, den = -num, -den
        self.num = num
        self.den = den

    @property
    def is_polynomial(self) -> bool:
        try:
            self.as_poly()
        except NotPolynomial:
            return False
        return True

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def as_poly(self) -> QPoly:
        """The value as a QPoly; raises NotPolynomial if den does not
        divide num."""
        if self.den == ONE:
            return self.num
        try:
            return poly_exact_div(self.num, self.den)
        except NotDivisible:
            raise NotPolynomial(self.num, self.den) from None

    def __eq__(self, other) -> bool:
        other = _coerce_rational(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        try:  # a polynomial hashes like the QPoly it equals
            return hash(self.as_poly())
        except NotPolynomial:
            # degree and leading coefficient of the value, unchanged by
            # a common factor of num and den
            return hash((self.num.degree - self.den.degree,
                         Fraction(self.num.lc, self.den.lc)))

    def __neg__(self):
        return QRational(-self.num, self.den)

    def __add__(self, other):
        other = _coerce_rational(other)
        if other is NotImplemented:
            return NotImplemented
        # denominators equal up to a power of q share the larger one
        den, other_den = QLaurent(self.den), QLaurent(other.den)
        if den.body == other_den.body:
            shift = den.shift - other_den.shift
            if shift >= 0:
                return QRational(self.num + other.num.shift(shift), self.den)
            return QRational(self.num.shift(-shift) + other.num, other.den)
        return QRational(self.num * other.den + other.num * self.den,
                         self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce_rational(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce_rational(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce_rational(other)
        if other is NotImplemented:
            return NotImplemented
        return QRational(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce_rational(other)
        if other is NotImplemented:
            return NotImplemented
        if other.num.is_zero:
            raise ZeroDenominator("division by zero rational")
        return QRational(self.num * other.den, self.den * other.num)

    def __str__(self) -> str:
        if self.den == ONE:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"QRational({self.num!r}, {self.den!r})"


def _coerce_rational(value):
    if isinstance(value, QRational):
        return value
    if isinstance(value, (QPoly, int)):
        return QRational(value)
    return NotImplemented


class QLaurent:
    """q**shift * body, with body having a nonzero constant term.

    Canonical form: the shift absorbs every factor of q, so body(0) != 0
    unless the value is zero, which is stored as (0, shift=0).
    """

    __slots__ = ("body", "shift")

    def __init__(self, body: QPoly, shift: int = 0):
        body = _coerce_poly(body)
        if body.is_zero:
            self.body, self.shift = ZERO, 0
            return
        v = 0
        while body.coeffs[v] == 0:
            v += 1
        self.body = QPoly(body.coeffs[v:])
        self.shift = shift + v

    @property
    def is_zero(self) -> bool:
        return self.body.is_zero

    def __eq__(self, other) -> bool:
        if not isinstance(other, QLaurent):
            return NotImplemented
        return self.body == other.body and self.shift == other.shift

    def __hash__(self):
        return hash((self.body, self.shift))

    def __neg__(self):
        return QLaurent(-self.body, self.shift)

    def __mul__(self, other):
        if isinstance(other, QLaurent):
            return QLaurent(self.body * other.body, self.shift + other.shift)
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return QLaurent(self.body * other, self.shift)

    __rmul__ = __mul__

    def __add__(self, other):
        if isinstance(other, (QPoly, int)):
            other = QLaurent(_coerce_poly(other))
        if not isinstance(other, QLaurent):
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        base = min(self.shift, other.shift)
        return QLaurent(self.body.shift(self.shift - base)
                        + other.body.shift(other.shift - base), base)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, QLaurent)
                       else -_coerce_poly(other))

    def as_rational(self) -> QRational:
        if self.shift >= 0:
            return QRational(self.body.shift(self.shift))
        return QRational(self.body, monomial(-self.shift))

    def __str__(self) -> str:
        if self.shift == 0:
            return str(self.body)
        return f"q^{self.shift}*({self.body})"

    def __repr__(self) -> str:
        return f"QLaurent({self.body!r}, {self.shift!r})"


LAURENT_ONE = QLaurent(ONE)


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


def _one_minus(sign: int, exponent: int) -> QLaurent:
    # 1 - sign*q^exponent, as a Laurent polynomial
    if exponent >= 0:
        if exponent == 0:
            return QLaurent(QPoly([1 - sign]))
        cs = [1] + [0] * (exponent - 1) + [-sign]
        return QLaurent(QPoly(cs))
    # q^e * (q^{-e} - sign)
    return QLaurent(monomial(-exponent) - sign, exponent)


def pochhammer(a: PowerParam, base_exp: int, k: int) -> QLaurent:
    """Product of k factors (1 - a*q**(base_exp*j)), j = 0..k-1."""
    if base_exp < 1:
        raise ValueError("base_exp must be a positive integer")
    if k < 0:
        raise ValueError("pochhammer length must be non-negative")
    result = LAURENT_ONE
    for j in range(k):
        factor = _one_minus(a.sign, a.exponent + base_exp * j)
        if factor.is_zero:
            return QLaurent(ZERO)
        result = result * factor
    return result


_GAUSS_CACHE: dict[tuple[int, int, int], QPoly] = {}


def gauss_binomial(m: int, r: int, base_exp: int = 1) -> QPoly:
    """Gaussian binomial coefficient in q**base_exp.

    Equals prod_{i<r}(1-q^{b(m-i)}) / prod_{i<r}(1-q^{b(i+1)}) for
    0 <= r <= m and 0 otherwise.  Results are memoized; the cache is
    semantically invisible (values are immutable).
    """
    if base_exp < 1:
        raise ValueError("base_exp must be a positive integer")
    if r < 0 or r > m:
        return ZERO
    key = (m, r, base_exp)
    cached = _GAUSS_CACHE.get(key)
    if cached is not None:
        return cached
    value = q_quotient((base_exp * (m - i) for i in range(r)),
                       (base_exp * (i + 1) for i in range(r)),
                       f"Gaussian binomial (m={m}, r={r}, base_exp={base_exp})")
    _GAUSS_CACHE[key] = value
    return value


def phi_eval(upper: Sequence[PowerParam], lower: Sequence[PowerParam],
             base_exp: int, z: PowerParam, max_terms: int) -> QRational:
    """Exact partial sum (terms 0..max_terms) of a basic hypergeometric series.

    Term m is prod(a;Q)_m / ((Q;Q)_m prod(b;Q)_m) * ((-1)^m Q^(m(m-1)/2))^(1+s-r) * z^m
    with Q = q**base_exp.  For a terminating series whose upper-parameter
    tail vanishes by max_terms, the partial sum is the full sum.

    Raises LowerParamPole when a lower parameter equals Q**(-m) for some
    0 <= m < max_terms, which would zero a denominator factor.
    """
    if base_exp < 1:
        raise ValueError("base_exp must be a positive integer")
    if max_terms < 0:
        raise ValueError("max_terms must be non-negative")
    for b in lower:
        if (b.sign == 1 and b.exponent <= 0 and b.exponent % base_exp == 0
                and (-b.exponent) // base_exp < max_terms):
            raise LowerParamPole(f"lower parameter {b} vanishes a denominator "
                                 f"factor within {max_terms} terms")
    n_up, n_low = len(upper), len(lower)
    excess = 1 + n_low - n_up
    M = max_terms

    # Every term is placed over the common denominator (Q;Q)_M prod(b;Q)_M:
    # the m-th numerator picks up the "tail" factors from index m to M-1.
    den = pochhammer(qpow(base_exp), base_exp, M)
    for b in lower:
        den = den * pochhammer(b, base_exp, M)

    def tail(param: PowerParam, frm: int) -> QLaurent:
        out = LAURENT_ONE
        for j in range(frm, M):
            out = out * _one_minus(param.sign, param.exponent + base_exp * j)
        return out

    total = QLaurent(ZERO)
    for m in range(M + 1):
        num = LAURENT_ONE
        for a in upper:
            num = num * pochhammer(a, base_exp, m)
            if num.is_zero:
                break
        if num.is_zero:
            continue
        num = num * tail(qpow(base_exp), m)
        for b in lower:
            num = num * tail(b, m)
        sign = (-1 if (m * excess) % 2 else 1) * (z.sign ** m)
        exp = excess * base_exp * (m * (m - 1) // 2) + m * z.exponent
        total = total + num * QLaurent(QPoly([sign]), exp)

    delta = total.shift - den.shift
    if delta >= 0:
        return QRational(total.body.shift(delta), den.body)
    return QRational(total.body, den.body.shift(-delta))
