"""Hyperplane-cut E-functions of bounded-rank skew-form loci and the
q-series identities that determine them.

The central objects: isotropic_E counts isotropic subspaces for a fixed-rank
skew form; f_closed is the weighted E-function of the rank <= 2k locus cut
by a rank-2i hyperplane, in closed form; f_circ is its single-stratum
(rank exactly 2p) counterpart; and solve_newcor recomputes the same values
through a triangular recursion that never touches the closed form, so
agreement between the two routes is a genuine cross-validation rather
than a tautology.

Verifiers return IdentityReport values instead of raising, so grid runs can
aggregate failures.  Points where a hypergeometric reduction degenerates
(a denominator parameter hits a pole) are reported as skipped.
"""

from __future__ import annotations

from dataclasses import dataclass

from .qcore import (
    ONE, ZERO, QPoly, QRational, LowerParamPole, NotDivisible, NotPolynomial,
    gauss_binomial, geometric_series, monomial, neg_qpow, phi_eval,
    pochhammer, poly_exact_div, q_product, q_quotient, qpow,
)
from .efun import _rank_locus_weight, _require, grassmannian_E


@dataclass(frozen=True)
class CutParams:
    """Ambient odd dimension n, half-rank bound k of the cut locus, and
    half-rank i of the cutting hyperplane form."""

    n: int
    k: int
    i: int

    def __post_init__(self):
        _require(self.n >= 5 and self.n % 2 == 1,
                 f"n must be odd and >= 5, got {self.n}")
        half = (self.n - 1) // 2
        _require(1 <= self.k <= half,
                 f"k must satisfy 1 <= k <= (n-1)/2, got k={self.k}, n={self.n}")
        _require(1 <= self.i <= half,
                 f"i must satisfy 1 <= i <= (n-1)/2, got i={self.i}, n={self.n}")

    @property
    def half_dim(self) -> int:
        return (self.n - 1) // 2


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one exact identity check at one parameter point."""

    identity_name: str
    parameter_point: tuple[int, ...]
    lhs: QRational
    rhs: QRational
    passed: bool
    skipped: bool = False
    note: str = ""


def _report(name, point, lhs, rhs, note="") -> IdentityReport:
    lhs = lhs if isinstance(lhs, QRational) else QRational(lhs)
    rhs = rhs if isinstance(rhs, QRational) else QRational(rhs)
    return IdentityReport(name, tuple(point), lhs, rhs, lhs == rhs, note=note)


def _skipped(name, point, note) -> IdentityReport:
    zero = QRational(ZERO)
    return IdentityReport(name, tuple(point), zero, zero, True, True, note)


def isotropic_E(k: int, i: int, n: int) -> QPoly:
    """E-polynomial of the 2k-dimensional subspaces isotropic for a skew
    form of rank 2i on n-space.

    Sum over the dimension r of the intersection with the kernel; a summand
    vanishes outright when its numerator range reaches the factor 1 - q^0.
    """
    _require(k >= 1 and i >= 1, f"need k, i >= 1, got k={k}, i={i}")
    _require(2 * i <= n, f"need 2i <= n, got i={i}, n={n}")
    total = ZERO
    for r in range(0, 2 * k + 1):
        if r > n - 2 * i:
            continue
        lo = i + r + 1 - 2 * k
        if lo <= 0:
            continue
        cell = q_quotient((2 * j for j in range(lo, i + 1)),
                          range(1, 2 * k - r + 1),
                          f"isotropic cell (k={k}, i={i}, n={n}, r={r})")
        total = total + (gauss_binomial(n - 2 * i, r, 1)
                         * monomial((2 * k - r) * (n - 2 * i - r)) * cell)
    return total


def dual_local_weight(k: int, i: int, n: int) -> QPoly:
    """Stringy weight of the rank-2i stratum on the complementary-rank side,
    as it appears in the second summand of the closed cut formula; zero once
    i exceeds (n-1)/2 - k."""
    half = (n - 1) // 2
    if i > half - k:
        return ZERO
    js = range(half - k - i + 1, half - i + 1)
    return q_quotient((2 * j for j in js),
                      (2 * j - n + 1 + 2 * k + 2 * i for j in js),
                      f"dual weight (k={k}, i={i}, n={n})")


def f_closed(params: CutParams) -> QPoly:
    """Closed form of the weighted E-function of the rank <= 2k locus cut by
    a hyperplane pairing against a rank-2i form."""
    n, k, i = params.n, params.k, params.i
    first = geometric_series(n * k - 1) * _rank_locus_weight(0, k, n)
    second = monomial(n * k - 1) * dual_local_weight(k, i, n)
    return first + second


def f_circ(params: CutParams) -> QPoly:
    """E-function of the rank exactly 2k part of the cut, obtained from the
    closed weighted values by the alternating binomial inversion."""
    n, k, i = params.n, params.k, params.i
    half = params.half_dim
    total = ZERO
    for j in range(1, k + 1):
        term = (f_closed(CutParams(n, j, i))
                * monomial((k - j) * (k - j - 1))
                * gauss_binomial(half - j, k - j, 2))
        total = total + ((-1) ** (k - j)) * term
    return total


def verify_newrec(params: CutParams) -> IdentityReport:
    """Check the two-projection count of the cut of the kernel-marked
    resolution: a Grassmannian-weighted sum of single-stratum cuts against
    the projective-bundle count with its isotropic correction."""
    n, k, i = params.n, params.k, params.i
    lhs = ZERO
    for p in range(1, k + 1):
        lhs = lhs + grassmannian_E(n - 2 * k, n - 2 * p) * f_circ(CutParams(n, p, i))
    rhs = _smooth_rhs(k, n) + _cut_rhs(k, i, n)
    return _report("newrec", (k, i, n), QRational(lhs), QRational(rhs))


def _smooth_rhs(k: int, n: int) -> QPoly:
    return geometric_series(2 * k * k - k - 1) * gauss_binomial(n, 2 * k, 1)


def _cut_rhs(k: int, i: int, n: int) -> QPoly:
    return monomial(2 * k * k - k - 1) * isotropic_E(k, i, n)


def _recursion_sum(k: int, n: int, js: range, value) -> tuple[QPoly, QPoly]:
    """Sum over j in js of value(j) times the coefficient of f_j in the
    triangular recursion at k,

        q^(2(k-j)^2-(k-j)) (1 - q^(n+1-2k)) (q^(n+3-4k+2j); q^2)_{2k-2j}
        / ((1 - q^(n+1-2j)) (q;q)_{2k-2j}),

    over the common denominator (q;q)_top * prod_{j in js} (1 - q^(n+1-2j)),
    top = 2k - 2*js.start.  Returns (numerator, denominator).  value is
    called only for the j whose coefficient does not vanish.
    """
    top = 2 * (k - js.start)
    den = q_product([*range(1, top + 1), *(n + 1 - 2 * j for j in js)])
    total = ZERO
    for j in js:
        # (1 - q^(n+1-2k)), (q^(n+3-4k+2j); q^2)_{2k-2j} (zero when it
        # reaches 1 - q^0), (q;q)_top/(q;q)_{2k-2j} and the other j's linear
        # factors of the common denominator
        coefficient = q_quotient(
            [n + 1 - 2 * k, *range(n + 3 - 4 * k + 2 * j, n + 2 - 2 * j, 2),
             *range(2 * k - 2 * j + 1, top + 1),
             *(n + 1 - 2 * jp for jp in js if jp != j)],
            (), f"recursion coefficient (k={k}, j={j}, n={n})")
        if coefficient.is_zero:
            continue
        total = total + value(j).shift(2 * (k - j) ** 2 - (k - j)) * coefficient
    return total, den


_NEWCOR_CACHE: dict[tuple[int, int], list[QPoly]] = {}


def solve_newcor(k_max: int, i: int, n: int) -> list[QPoly]:
    """Solve the triangular recursion for the weighted cut E-functions at
    k = 1..k_max, using only Grassmannian and isotropic E-polynomials and
    the recursion coefficients.

    This path is independent of f_closed, so termwise agreement with it is a
    genuine verification of the closed formula.  The longest solution per
    (i, n) is memoized and extended on demand; each call gets a fresh list.
    """
    half = (n - 1) // 2
    _require(n >= 5 and n % 2 == 1, f"n must be odd and >= 5, got {n}")
    _require(1 <= k_max <= half, f"need 1 <= k_max <= (n-1)/2, got {k_max}")
    _require(1 <= i <= half, f"need 1 <= i <= (n-1)/2, got {i}")
    solved = list(_NEWCOR_CACHE.get((i, n), ()))
    for k in range(len(solved) + 1, k_max + 1):
        rhs = _smooth_rhs(k, n) + _cut_rhs(k, i, n)
        acc, den = _recursion_sum(k, n, range(1, k), lambda j: solved[j - 1])
        try:
            f_k = poly_exact_div(rhs * den - acc, den)
        except NotDivisible as exc:
            raise NotPolynomial(rhs * den - acc, den,
                                f"triangular solve (k={k}, i={i}, n={n})") from exc
        solved.append(f_k)
    _NEWCOR_CACHE[i, n] = solved
    return solved[:k_max]


def verify_hj(a: int, b: int) -> IdentityReport:
    """Check the alternating double-binomial sum against its summed
    Pochhammer-quotient closed form, exactly, for 0 <= a <= b."""
    _require(0 <= a <= b, f"need 0 <= a <= b, got a={a}, b={b}")
    lhs = ZERO
    for s in range(0, a + 1):
        term = (monomial(s * s - s)
                * gauss_binomial(2 * b + 1 - 2 * s, 2 * a - 2 * s, 1)
                * gauss_binomial(b, s, 2))
        lhs = lhs + ((-1) ** s) * term
    closed_num = (pochhammer(qpow(2 * b - 4 * a + 4), 2, 2 * a)
                  * (monomial(2 * a * a - a) * (ONE - monomial(2 * b - 2 * a + 2))))
    closed_den = q_product([2 * b + 2, *range(1, 2 * a + 1)])
    rhs = closed_num.as_rational() / QRational(closed_den)
    return _report("hj", (a, b), QRational(lhs), rhs)


def _smooth_lhs_sum(k: int, n: int) -> QRational:
    """Recursion left side fed with the smooth (first) summands of the
    closed cut formula, extended to the vanishing index-zero value."""
    half = (n - 1) // 2

    def value(j):
        # q * (q^(nj-1) - 1)/(q - 1): the index-zero value collapses to -1
        lead = -ONE if j == 0 else geometric_series(n * j - 1).shift(1)
        return lead * gauss_binomial(half, j, 2)

    total, den = _recursion_sum(k, n, range(0, k + 1), value)
    return QRational(total, den.shift(1))


def _cut_lhs_sum(k: int, i: int, n: int) -> QRational:
    """Recursion left side fed with the dual-weight (second) summands."""
    half = (n - 1) // 2
    total, den = _recursion_sum(
        k, n, range(0, k + 1),
        lambda j: gauss_binomial(half - i, j, 2).shift(n * j))
    return QRational(total, den.shift(1))


def verify_AC_BD(params: CutParams) -> list[IdentityReport]:
    """Split the triangular recursion (with f given by its closed form) into
    its smooth part and its isotropic part and check both halves exactly.
    The isotropic right side is evaluated through the finite kernel-dimension
    sum, not through any series form."""
    n, k, i = params.n, params.k, params.i
    smooth = _report("cut-recursion-smooth-part", (k, n),
                     _smooth_lhs_sum(k, n), QRational(_smooth_rhs(k, n)))
    cut = _report("cut-recursion-isotropic-part", (k, i, n),
                  _cut_lhs_sum(k, i, n), QRational(_cut_rhs(k, i, n)))
    return [smooth, cut]


def verify_phi_reductions(params: CutParams) -> list[IdentityReport]:
    """Cross-check the three hypergeometric rewrites of the recursion sums
    against the direct finite sums.

    Points where a lower series parameter degenerates (possible for the
    latter two rewrites at small n) are reported as skipped rather than
    failed; the rewrites only claim validity away from those poles.
    """
    n, k, i = params.n, params.k, params.i
    half = params.half_dim
    reports = []

    lhs_a = QRational(ONE - monomial(1)) * _smooth_lhs_sum(k, n)
    upper = [qpow(-2 * k), qpow(-n - 1 + 2 * k)]
    phi_big = phi_eval(upper, [qpow(1)], 2, qpow(n + 2), k)
    phi_small = phi_eval(upper, [qpow(1)], 2, qpow(2), k)
    rhs_a = QRational(gauss_binomial(half, k, 2)) * (
        phi_big - QRational(monomial(n * k - 1)) * phi_small)
    reports.append(_report("phi-2phi1-smooth-part", (k, n), lhs_a, rhs_a))

    try:
        phi_b = phi_eval([qpow(-2 * k), qpow(1 - n + 2 * i), qpow(1 - 2 * k)],
                         [qpow(1 - n), qpow(n + 3 - 4 * k)],
                         2, qpow(n + 2 - 2 * i), k)
        pre_num = (pochhammer(qpow(n + 3 - 4 * k), 2, 2 * k)
                   * (monomial(2 * k * k - k - 1) * (ONE - monomial(n + 1 - 2 * k))))
        pre_den = q_product([n + 1, *range(1, 2 * k + 1)])
        rhs_b = pre_num.as_rational() / QRational(pre_den) * phi_b
        reports.append(_report("phi-3phi2-cut-part", (k, i, n),
                               _cut_lhs_sum(k, i, n), rhs_b))
    except LowerParamPole as pole:
        reports.append(_skipped("phi-3phi2-cut-part", (k, i, n), str(pole)))

    try:
        phi_d = phi_eval([qpow(-2 * k), qpow(-i), neg_qpow(-i)],
                         [qpow(n + 1 - 2 * i - 2 * k)],
                         1, neg_qpow(n + 1), 2 * k)
        rhs_d = QRational(monomial(2 * k * k - k - 1)
                          * gauss_binomial(n - 2 * i, 2 * k, 1)) * phi_d
        reports.append(_report("phi-3phi1-isotropic", (k, i, n),
                               QRational(_cut_rhs(k, i, n)), rhs_d))
    except LowerParamPole as pole:
        reports.append(_skipped("phi-3phi1-isotropic", (k, i, n), str(pole)))

    return reports
