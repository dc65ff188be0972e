"""The double-mirror comparison layer.

The hyperplane-pairing construction attaches to each odd n and each
half-rank k two Calabi-Yau complete intersections, one in the rank <= 2k
locus on the dual space and one in the complementary rank <= n-1-2k locus.
Their stringy E-functions agree stratum by stratum, and the checks here
verify exactly that: identical polynomial weights attached to identical
strata, with the weighted cut value supplied by the triangular recursion
(the route independent of the closed formula).

The even-dimensional analogue fails, and even_anomaly_check pins down how:
the actual local weight of the corank-4 locus is not a polynomial, while
the weight the stratified count would need corresponds to a smaller
discrepancy.
"""

from __future__ import annotations

from dataclasses import dataclass

from .qcore import (
    ZERO, QPoly, QRational, geometric_series, monomial, q_quotient,
)
from .efun import (
    _rank_locus_weight, _require,
    grassmannian_E, local_contribution, pf_stringy_rodland,
)
from .identities import IdentityReport, _report, dual_local_weight, solve_newcor


@dataclass(frozen=True)
class StratumComparison:
    """One stratum of the mirror comparison: the closed-route value against
    the recursion-route value of the weighted cut E-function."""

    index: int
    x_weight: QRational
    y_weight: QRational
    equal: bool


@dataclass(frozen=True)
class MirrorCheckReport:
    """Stratum-by-stratum mirror comparison at one (n, k).

    overall holds iff every stratum comparison holds.  The weight tuples
    expose the local stringy weights of the rank strata on both sides so the
    k <-> (n-1)/2-k relabeling symmetry can be checked across reports;
    duality_ok records that the two independent transcriptions of those
    weights agree at this (n, k).
    """

    n: int
    k: int
    per_stratum: tuple[StratumComparison, ...]
    overall: bool
    x_variety_weights: tuple[QPoly, ...]
    y_variety_weights: tuple[QPoly, ...]
    duality_ok: bool


def fiber_E_odd(k: int, n: int) -> QPoly:
    """E-polynomial of the hyperplane cut of the two-plane Grassmannian of
    n-space by a skew form of corank 2k+1 (odd n)."""
    _require(n % 2 == 1 and n >= 3, f"n must be odd and >= 3, got {n}")
    _require(0 <= 2 * k + 1 <= n, f"need 0 <= 2k+1 <= n, got k={k}, n={n}")
    first = geometric_series(k, 2) * monomial(n - 1)
    second = q_quotient([n - 1, n - 1], [1, 2], f"generic fiber (k={k}, n={n})")
    return first + second


def even_fiber_E(k: int, n: int) -> QPoly:
    """Even-n analogue of fiber_E_odd, for a form of corank 2k."""
    _require(n % 2 == 0 and n >= 4, f"n must be even and >= 4, got {n}")
    _require(k >= 0 and 2 * k <= n, f"need 0 <= 2k <= n, got k={k}, n={n}")
    first = geometric_series(k, 2) * monomial(n - 2)
    second = q_quotient([n - 2, n], [1, 2], f"even generic fiber (k={k}, n={n})")
    return first + second


def grassmannian_frame_identity(n: int) -> IdentityReport:
    """The frame-bundle quotient ((q^n-1)(q^n-q))/((q^2-1)(q^2-q)) equals
    the two-plane Grassmannian E-polynomial."""
    _require(n >= 2, f"need n >= 2, got {n}")
    num = (monomial(n) - 1) * (monomial(n) - monomial(1))
    den = (monomial(2) - 1) * (monomial(2) - monomial(1))
    lhs = QRational(num, den)
    return _report("grassmannian-frame", (n,), lhs, QRational(grassmannian_E(2, n)))


def main_coefficient_check(k: int) -> IdentityReport:
    """The coefficient identity behind the classical mirror comparison:
    dividing the closed stringy value by (q^(2k^2-k-1)-1)/(q-1) leaves
    exactly the weight (q^2k-1)/(q^2-1) that the cut bookkeeping assigns to
    the corank-(2k+1) stratum."""
    _require(k >= 2, f"need k >= 2, got {k}")
    lhs = (QRational(pf_stringy_rodland(k))
           * QRational(monomial(1) - 1, monomial(2 * k * k - k - 1) - 1))
    return _report("main-coefficient", (k,), lhs,
                   QRational(geometric_series(k, 2)))


def main_main_check(n: int, k: int) -> MirrorCheckReport:
    """Stratum-by-stratum form of the general mirror equality at (n, k).

    For each cutting rank 2i, the closed-route value
    (q^(nk-1)-1)/(q-1) * W + q^(nk-1) * S_i  (W the closed stringy product,
    S_i the local weight of the rank-2i stratum on the complementary side)
    must equal the weighted cut E-function obtained from the triangular
    recursion.  Strata with i beyond (n-1)/2 - k carry weight zero on both
    routes.  The same S_i arise as the stratum weights of the k' = (n-1)/2-k
    companion locus; duality_ok checks the two transcriptions against each
    other, which is the relabeling symmetry of the construction.
    """
    _require(n >= 5 and n % 2 == 1, f"n must be odd and >= 5, got {n}")
    half = (n - 1) // 2
    _require(1 <= k <= half - 1, f"need 1 <= k <= (n-3)/2, got k={k}, n={n}")
    k_dual = half - k
    first = geometric_series(n * k - 1) * _rank_locus_weight(0, k, n)
    strata = []
    y_weights = []
    duality_ok = True
    for i in range(1, half + 1):
        s_i = local_contribution(i, k_dual, n) if i <= k_dual else ZERO
        x_val = first + monomial(n * k - 1) * s_i
        y_val = solve_newcor(k, i, n)[-1]
        strata.append(StratumComparison(i, QRational(x_val), QRational(y_val),
                                        x_val == y_val))
        dual_transcription = dual_local_weight(k, i, n)
        y_weights.append(dual_transcription)
        if dual_transcription != s_i:
            duality_ok = False
    return MirrorCheckReport(
        n=n,
        k=k,
        per_stratum=tuple(strata),
        overall=all(s.equal for s in strata),
        x_variety_weights=tuple(local_contribution(p, k, n) for p in range(1, k + 1)),
        y_variety_weights=tuple(y_weights),
        duality_ok=duality_ok,
    )


def even_anomaly_check() -> IdentityReport:
    """Pin down the even-dimensional failure.

    The corank-4 locus resolves with fiber the two-plane Grassmannian of
    4-space and discrepancy 3, so its local weight is
    E(G(2,4)) (q-1)/(q^4-1) = (q^2+q+1)/(q+1), not a polynomial.  Had the
    discrepancy been 2 the weight would be q^2+1, which is exactly the
    (q^4-1)/(q^2-1) the stratified count requires; the check also records
    that the general discrepancies 2k^2-2k-1 and the wished-for 2k^2-3k
    disagree at k=2.
    """
    g24 = grassmannian_E(2, 4)
    actual = QRational(g24 * (monomial(1) - 1), monomial(4) - 1)
    stated = QRational(QPoly([1, 1, 1]), QPoly([1, 1]))
    hypothetical = QRational(g24 * (monomial(1) - 1), monomial(3) - 1)
    required = QPoly([1, 0, 1])
    passed = (not actual.is_polynomial
              and actual == stated
              and hypothetical == QRational(required)
              and 2 * 2 * 2 - 2 * 2 - 1 != 2 * 2 * 2 - 3 * 2)
    return IdentityReport(
        "even-anomaly", (), hypothetical, QRational(required), passed,
        note=f"actual corank-4 weight {stated} is not a polynomial "
             f"(expected); discrepancy-2 weight equals {required}")
