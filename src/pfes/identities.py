"""Hyperplane-cut E-functions of bounded-rank skew-form loci and the
q-series identities that determine them.

The central objects: isotropic_subspaces_E counts the isotropic subspaces
of every dimension for a fixed-rank skew form; f_closed is the weighted
E-function of the rank <= 2k locus cut by a rank-2i hyperplane, in closed
form; f_circ is its single-stratum (rank exactly 2p) counterpart; and
recursion_holds checks f_closed, summand by summand, against the
triangular recursion that determines it from Grassmannian and isotropic
E-polynomials alone.

Verifiers return report rows instead of raising, so grid runs can
aggregate failures: a row is a plain dict with keys name, passed, skipped
and note, built by row.  Each check compares quotients of QPolys by
cross-multiplication.  Points where a hypergeometric reduction degenerates
(a denominator parameter hits a pole) are reported as skipped.

Each value is computed once per key it depends on, with functools.cache,
and a part that does not depend on i is cached apart, once per (k, n) or
(k, j, n): isotropic_subspaces_E per (d, i, n), shared by the recursion
(d = 2k) and the fiber suite (d = 2); dual_local_weight, _cut_lhs_sum,
_f_circ_dual and recursion_holds per (k, i, n), the last because
main_main_check asks again about the points the newcor suite checks;
_closed_smooth, _f_circ_smooth, _newrec_smooth, _smooth_rhs,
_smooth_lhs_sum and the two smooth-part rows per (k, n); _newrec_kernel
per (k, j, n); _recursion_terms per (k, n, start, stop).  The memos of
_recursion_terms, _smooth_lhs_sum and _cut_lhs_sum hold the recursion's
coefficients as a Gaussian binomial in q^2 times (sign, exponent) factor
pairs, which qcore.q_times applies to a value in place, and its
denominators as linear factors (1 - q^(n+1-2j)) only.  f_closed, f_circ,
_closed_dual, isotropic_E and _cut_rhs are sums and shifts of these memos,
and are not cached.  Values and tuples are immutable and rows are never
modified, so the memos are invisible in the results.

verify_newrec takes the dual half of its left side, sum_p [n-2p, n-2k]_q
f_circ(p), with the sums over p and j swapped: each dual summand of
f_closed at j times the i-independent kernel

    _newrec_kernel(k, j, n) = sum_{p=j..k} (-1)^(p-j) q^((p-j)(p-j-1))
                              [h-j, p-j]_{q^2} [n-2p, n-2k]_q,  h = (n-1)/2.

So no verify suite reads the dual inversion _f_circ_dual; only f_circ
does, and f_circ is checked by the cut-stratum oracle, which compares it
with point counts over F_p (`pfes oracle cut-stratum`, acceptance
criterion 10).  The smooth half of newrec still reads _f_circ_smooth.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .qcore import (
    ONE, ZERO, QPoly, ZeroDenominator,
    gauss_binomial, geometric_series, phi_eval,
    q_quotient, q_times,
)
from .efun import PfaffianParams, _require, grassmannian_E


@dataclass(frozen=True)
class CutParams(PfaffianParams):
    """The cut locus of PfaffianParams(n, k), and the half-rank i of the
    cutting hyperplane form."""

    i: int

    def __post_init__(self):
        super().__post_init__()
        _require(1 <= self.i <= (self.n - 1) // 2,
                 f"i must satisfy 1 <= i <= (n-1)/2, got i={self.i}, n={self.n}")


def row(name: str, passed: bool, skipped: bool = False, note: str = "") -> dict:
    """One report row, as a suite yields it; a skipped row is also passed."""
    return {"name": name, "passed": bool(passed), "skipped": bool(skipped),
            "note": note}


@cache
def isotropic_subspaces_E(d: int, i: int, n: int) -> QPoly:
    """E-polynomial of the d-dimensional subspaces isotropic for a skew form
    of rank 2i on n-space, for every d >= 0 and 2i <= n.

    Sum over the dimension r of the intersection with the kernel K: r-space
    R in K, times an isotropic (d-r)-space W of the nondegenerate quotient,
    times q^((d-r)(n-2i-r)) lifts of W off R.  W exists only for d - r <= i,
    and the zero form (i = 0) gives the Grassmannian [n, d].
    """
    _require(d >= 0 and i >= 0, f"need d, i >= 0, got d={d}, i={i}")
    _require(2 * i <= n, f"need 2i <= n, got i={i}, n={n}")
    total = ZERO
    for r in range(max(d - i, 0), min(d, n - 2 * i) + 1):
        m = d - r
        # [i, m]_{q^2} (-q; q)_m
        cell = q_times(gauss_binomial(i, m, 2),
                       [(-1, t) for t in range(1, m + 1)])
        total = total + (gauss_binomial(n - 2 * i, r, 1)
                         * cell).shift(m * (n - 2 * i - r))
    return total


def isotropic_E(k: int, i: int, n: int) -> QPoly:
    """isotropic_subspaces_E at d = 2k, for k, i >= 1: the isotropic
    correction of the cut recursion."""
    _require(k >= 1 and i >= 1, f"need k, i >= 1, got k={k}, i={i}")
    return isotropic_subspaces_E(2 * k, i, n)


@cache
def dual_local_weight(k: int, i: int, n: int) -> QPoly:
    """Stringy weight of the rank-2i stratum on the complementary-rank side,
    as it appears in the second summand of the closed cut formula, for
    1 <= k, i <= (n-1)/2; zero once i exceeds (n-1)/2 - k."""
    half = (n - 1) // 2
    _require(1 <= k <= half and 1 <= i <= half,
             f"need 1 <= k, i <= (n-1)/2, got k={k}, i={i}, n={n}")
    # for i > half - k the tops include 2j = 0, and q_quotient returns ZERO
    js = range(half - k - i + 1, half - i + 1)
    return q_quotient((2 * j for j in js),
                      (2 * j - n + 1 + 2 * k + 2 * i for j in js),
                      f"dual weight (k={k}, i={i}, n={n})")


@cache
def _closed_smooth(k: int, n: int) -> QPoly:
    """The i-independent (first) summand of the closed cut formula."""
    return geometric_series(n * k - 1) * gauss_binomial((n - 1) // 2, k, 2)


def f_closed(params: CutParams) -> QPoly:
    """Closed form of the weighted E-function of the rank <= 2k locus cut by
    a hyperplane pairing against a rank-2i form."""
    n, k, i = params.n, params.k, params.i
    return _closed_smooth(k, n) + _closed_dual(k, i, n)


def _closed_dual(k: int, i: int, n: int) -> QPoly:
    """The dual-weight (second) summand of the closed cut formula."""
    return dual_local_weight(k, i, n).shift(n * k - 1)


def _inversion(k: int, n: int, js: range, value) -> QPoly:
    """Sum over j in js of (-1)^(k-j) q^((k-j)(k-j-1)) [(n-1)/2-j, k-j]_{q^2}
    value(j): the binomial inversion taking weighted cut values at j to the
    single-stratum value at k."""
    return sum(((-1) ** (k - j) * value(j).shift((k - j) * (k - j - 1))
                * gauss_binomial((n - 1) // 2 - j, k - j, 2) for j in js), ZERO)


def f_circ(params: CutParams) -> QPoly:
    """E-function of the rank exactly 2k part of the cut, obtained from the
    closed weighted values by the alternating binomial inversion."""
    return (_f_circ_smooth(params.k, params.n)
            + _f_circ_dual(params.k, params.i, params.n))


@cache
def _f_circ_smooth(k: int, n: int) -> QPoly:
    """Inversion of the smooth summands of f_closed at j = 1..k."""
    return _inversion(k, n, range(1, k + 1), lambda j: _closed_smooth(j, n))


@cache
def _f_circ_dual(k: int, i: int, n: int) -> QPoly:
    """Inversion of the dual summands of f_closed, zero for j > (n-1)/2 - i."""
    return _inversion(k, n, range(1, min(k, (n - 1) // 2 - i) + 1),
                      lambda j: _closed_dual(j, i, n))


def verify_newrec(params: CutParams) -> dict:
    """Check the two-projection count of the cut of the kernel-marked
    resolution: a Grassmannian-weighted sum of single-stratum cuts against
    the projective-bundle count with its isotropic correction.

    The left side is sum_p [n-2p, n-2k]_q f_circ(p).  Its smooth half is
    the memo _newrec_smooth; its dual half is summed over j instead of p:
    each dual summand _closed_dual(j, i, n), zero for j > (n-1)/2 - i,
    times _newrec_kernel(k, j, n), which is cached once per (k, j, n) and
    serves every i."""
    n, k, i = params.n, params.k, params.i
    lhs = sum((_closed_dual(j, i, n) * _newrec_kernel(k, j, n)
               for j in range(1, min(k, (n - 1) // 2 - i) + 1)),
              _newrec_smooth(k, n))
    rhs = _smooth_rhs(k, n) + _cut_rhs(k, i, n)
    return row(f"newrec({k},{i},{n})", lhs == rhs)


@cache
def _newrec_kernel(k: int, j: int, n: int) -> QPoly:
    """sum over p = j..k of (-1)^(p-j) q^((p-j)(p-j-1)) [(n-1)/2-j,
    p-j]_{q^2} [n-2p, n-2k]_q: the weight of f_closed's summand at j in
    verify_newrec's left side, _inversion's coefficient of j in f_circ(p)
    summed against the Grassmannians."""
    return sum(((-1) ** (p - j)
                * (gauss_binomial((n - 1) // 2 - j, p - j, 2)
                   * grassmannian_E(n - 2 * k, n - 2 * p)).shift(
                       (p - j) * (p - j - 1))
                for p in range(j, k + 1)), ZERO)


@cache
def _newrec_smooth(k: int, n: int) -> QPoly:
    """The i-independent part of verify_newrec's left side."""
    return sum((grassmannian_E(n - 2 * k, n - 2 * p) * _f_circ_smooth(p, n)
                for p in range(1, k + 1)), ZERO)


@cache
def _smooth_rhs(k: int, n: int) -> QPoly:
    return geometric_series(2 * k * k - k - 1) * gauss_binomial(n, 2 * k, 1)


def _cut_rhs(k: int, i: int, n: int) -> QPoly:
    return isotropic_E(k, i, n).shift(2 * k * k - k - 1)


def _recursion_sum(k: int, n: int, js: range, value) -> tuple[QPoly, tuple[int, ...]]:
    """Sum over j in js of value(j) times the coefficient of f_j in the
    triangular recursion at k, as (numerator, denominator exponents); value
    is called only for the j whose coefficient does not vanish."""
    terms, den = _recursion_terms(k, n, js.start, js.stop)
    return sum((q_times(value(j) * binomial, pairs).shift(shift)
                for j, shift, binomial, pairs in terms), ZERO), den


@cache
def _recursion_terms(k: int, n: int, start: int, stop: int):
    """The coefficients of f_j, start <= j < stop, in the triangular
    recursion at k,

        q^(2(k-j)^2-(k-j)) (1 - q^(n+1-2k)) (q^(n+3-4k+2j); q^2)_{2k-2j}
        / ((1 - q^(n+1-2j)) (q;q)_{2k-2j}),

    over the common denominator prod_j (1 - q^(n+1-2j)): the nonzero terms
    (j, s, binomial, pairs), each q^s binomial times the factors of the
    pairs as q_times takes them, and the denominator's exponents.  With
    m = 2k-2j and 2c = n+3-4k+2j, (q^(2c); q^2)_m / (q;q)_m = [c+m-1,
    m]_{q^2} (-q;q)_m, as (q^2;q^2)_m = (q;q)_m (-q;q)_m; the Pochhammer's
    top exponent n+1-2j is positive, so it reaches 1 - q^0 (and the term
    vanishes) exactly when m > 0 and c <= 0.
    """
    js = range(start, stop)
    terms = []
    for j in js:
        m, c = 2 * (k - j), (n + 3 - 4 * k + 2 * j) // 2
        if c > 0 or not m:
            # (1 - q^(n+1-2k)), (-q;q)_m and the other j's linear factors
            pairs = ((1, n + 1 - 2 * k), *((-1, t) for t in range(1, m + 1)),
                     *((1, n + 1 - 2 * jp) for jp in js if jp != j))
            terms.append((j, 2 * (k - j) ** 2 - (k - j),
                          gauss_binomial(c + m - 1, m, 2), pairs))
    return tuple(terms), tuple(n + 1 - 2 * j for j in js)


def verify_hj(a: int, b: int) -> dict:
    """Check the alternating double-binomial sum against its summed
    Pochhammer-quotient closed form, exactly, for 0 <= a <= b."""
    _require(0 <= a <= b, f"need 0 <= a <= b, got a={a}, b={b}")
    lhs = ZERO
    for s in range(0, a + 1):
        term = (gauss_binomial(2 * b + 1 - 2 * s, 2 * a - 2 * s, 1)
                * gauss_binomial(b, s, 2)).shift(s * s - s)
        lhs = lhs + ((-1) ** s) * term
    # (q^(2b-4a+4); q^2)_{2a} (1 - q^(2b-2a+2)) q^(2a^2-a): the Pochhammer
    # is zero when its range reaches 1 - q^0
    closed_num = q_quotient(
        [*range(2 * b - 4 * a + 4, 2 * b + 3, 2), 2 * b - 2 * a + 2], (),
        "").shift(2 * a * a - a)
    closed_den = [(1, e) for e in (2 * b + 2, *range(1, 2 * a + 1))]
    return row(f"hj({a},{b})", q_times(lhs, closed_den) == closed_num)


@cache
def _smooth_lhs_sum(k: int, n: int) -> tuple[QPoly, tuple]:
    """Recursion left side fed with the smooth (first) summands of the
    closed cut formula, extended to the vanishing index-zero value, as
    (numerator, denominator factors); the denominator is q times the
    factors, as q_times takes them."""
    # q times _closed_smooth(j, n), which collapses to -1 at j = 0
    total, den = _recursion_sum(
        k, n, range(0, k + 1),
        lambda j: _closed_smooth(j, n).shift(1) if j else -ONE)
    return total, tuple((1, e) for e in den)


@cache
def _cut_lhs_sum(k: int, i: int, n: int) -> tuple[QPoly, tuple]:
    """Recursion left side fed with the dual-weight (second) summands of the
    closed cut formula, extended to the index-zero value, as (numerator,
    denominator factors), the denominator as _smooth_lhs_sum's."""
    # q times _closed_dual(j, i, n), extended to j = 0 by 1, which cancels
    # the smooth side's -1 there
    total, den = _recursion_sum(
        k, n, range(0, k + 1),
        lambda j: _closed_dual(j, i, n).shift(1) if j else ONE)
    return total, tuple((1, e) for e in den)


@cache
def recursion_holds(k: int, i: int, n: int) -> bool:
    """Whether f_closed's summands, fed through the two left-side sums,
    satisfy the triangular recursion at k.  The recursion is unitriangular,
    so f_closed equals its solution at k = 1..K exactly when this holds at
    every k <= K."""
    half = (n - 1) // 2
    _require(n >= 5 and n % 2 == 1 and 1 <= k <= half and 1 <= i <= half,
             f"need odd n >= 5, 1 <= k, i <= (n-1)/2, got k={k}, i={i}, n={n}")
    s_num, den = _smooth_lhs_sum(k, n)
    c_num, _ = _cut_lhs_sum(k, i, n)
    rhs = _smooth_rhs(k, n) + _cut_rhs(k, i, n)
    return s_num + c_num == q_times(rhs, den).shift(1)


@cache
def _smooth_recursion_row(k: int, n: int) -> dict:
    """The smooth half of the triangular recursion."""
    num, den = _smooth_lhs_sum(k, n)
    return row(f"cut-recursion-smooth-part({k},{n})",
               num == q_times(_smooth_rhs(k, n), den).shift(1))


def verify_AC_BD(params: CutParams) -> list[dict]:
    """Split the triangular recursion (with f given by its closed form) into
    its smooth part and its isotropic part and check both halves exactly.
    The isotropic right side is evaluated through the finite kernel-dimension
    sum, not through any series form."""
    n, k, i = params.n, params.k, params.i
    num, den = _cut_lhs_sum(k, i, n)
    cut = row(f"cut-recursion-isotropic-part({k},{i},{n})",
              num == q_times(_cut_rhs(k, i, n), den).shift(1))
    return [_smooth_recursion_row(k, n), cut]


@cache
def _phi_smooth_row(k: int, n: int) -> dict:
    """The 2phi1 rewrite of the smooth recursion sum."""
    num, den = _smooth_lhs_sum(k, n)
    upper = [(1, -2 * k), (1, -n - 1 + 2 * k)]
    big_num, big_den = phi_eval(upper, [(1, 1)], 2, (1, n + 2), k)
    small_num, small_den = phi_eval(upper, [(1, 1)], 2, (1, 2), k)
    # (1 - q) num/den == (big - q^(nk-1) small) [(n-1)/2, k]_{q^2}
    phi_num = big_num * small_den - (small_num * big_den).shift(n * k - 1)
    return row(f"phi-2phi1-smooth-part({k},{n})",
               q_times(num, [(1, 1)]) * (big_den * small_den)
               == q_times(phi_num * gauss_binomial((n - 1) // 2, k, 2),
                          den).shift(1))


def verify_phi_reductions(params: CutParams) -> list[dict]:
    """Cross-check the three hypergeometric rewrites of the recursion sums
    against the direct finite sums.

    Points where a lower series parameter degenerates (possible for the
    latter two rewrites at small n) are reported as skipped rather than
    failed; the rewrites only claim validity away from those poles.
    """
    n, k, i = params.n, params.k, params.i
    rows = [_phi_smooth_row(k, n)]

    name = f"phi-3phi2-cut-part({k},{i},{n})"
    try:
        phi_num, phi_den = phi_eval(
            [(1, -2 * k), (1, 1 - n + 2 * i), (1, 1 - 2 * k)],
            [(1, 1 - n), (1, n + 3 - 4 * k)], 2, (1, n + 2 - 2 * i), k)
    except ZeroDenominator as pole:
        rows.append(row(name, True, True, str(pole)))
    else:
        # the prefactor (q^(n+3-4k); q^2)_{2k} (1 - q^(n+1-2k)) q^(2k^2-k-1)
        # over (1 - q^(n+1)) (q;q)_{2k}, its top factors applied in place:
        # off the pole, 4k < n + 3, every top exponent is positive, so none
        # is 1 - q^0 and no zero-top rule is needed
        tops = (*range(n + 3 - 4 * k, n + 3, 2), n + 1 - 2 * k)
        pre_den = [(1, e) for e in (n + 1, *range(1, 2 * k + 1))]
        num, den = _cut_lhs_sum(k, i, n)
        rhs = q_times(phi_num, [*((1, e) for e in tops), *den])
        rows.append(row(name, q_times(num * phi_den, pre_den)
                        == rhs.shift(2 * k * k - k)))

    name = f"phi-3phi1-isotropic({k},{i},{n})"
    try:
        phi_num, phi_den = phi_eval([(1, -2 * k), (1, -i), (-1, -i)],
                                    [(1, n + 1 - 2 * i - 2 * k)],
                                    1, (-1, n + 1), 2 * k)
    except ZeroDenominator as pole:
        rows.append(row(name, True, True, str(pole)))
    else:
        pre = gauss_binomial(n - 2 * i, 2 * k, 1).shift(2 * k * k - k - 1)
        rows.append(row(name, _cut_rhs(k, i, n) * phi_den == phi_num * pre))

    return rows
