"""The double-mirror comparison layer.

The hyperplane-pairing construction attaches to each odd n and each
half-rank k two Calabi-Yau complete intersections, one in the rank <= 2k
locus on the dual space and one in the complementary rank <= n-1-2k locus.
Their stringy E-functions agree stratum by stratum, and the checks here
verify exactly that: identical polynomial weights attached to identical
strata, with the closed weighted cut value checked against the triangular
recursion that determines it.

The even-dimensional analogue fails, and even_anomaly_check pins down how:
the actual local weight of the corank-4 locus is not a polynomial, while
the weight the stratified count would need corresponds to a smaller
discrepancy.

The `fiber` suite checks the closed fibers of the hyperplane cut against
the isotropic cell sum isotropic_subspaces_E; main_coefficient_check reads
the classical stringy value against the stratum sum pf_stringy_recursive.

Each check returns its report row (identities.row), comparing quotients of
QPolys by cross-multiplication.
"""

from __future__ import annotations

from .qcore import (
    ZERO, NotPolynomial, QPoly, geometric_series, monomial, q_divide,
    q_quotient,
)
from .efun import (
    PfaffianParams, _require, grassmannian_E, local_contribution,
    pf_stringy_recursive, pf_stringy_rodland,
)
from .identities import (
    dual_local_weight, recursion_holds, row,
)


def fiber_E_odd(k: int, n: int) -> QPoly:
    """E-polynomial of the hyperplane cut of the two-plane Grassmannian of
    n-space by a skew form of corank 2k+1 (odd n)."""
    _require(n % 2 == 1 and n >= 3, f"n must be odd and >= 3, got {n}")
    _require(0 <= 2 * k + 1 <= n, f"need 0 <= 2k+1 <= n, got k={k}, n={n}")
    first = geometric_series(k, 2).shift(n - 1)
    second = q_quotient([n - 1, n - 1], [1, 2], f"generic fiber (k={k}, n={n})")
    return first + second


def even_fiber_E(k: int, n: int) -> QPoly:
    """Even-n analogue of fiber_E_odd, for a form of corank 2k."""
    _require(n % 2 == 0 and n >= 4, f"n must be even and >= 4, got {n}")
    _require(k >= 0 and 2 * k <= n, f"need 0 <= 2k <= n, got k={k}, n={n}")
    first = geometric_series(k, 2).shift(n - 2)
    second = q_quotient([n - 2, n], [1, 2], f"even generic fiber (k={k}, n={n})")
    return first + second


def main_coefficient_check(k: int) -> dict:
    """The classical mirror comparison at n = 2k+1: the closed value
    ((q^2k-1)/(q^2-1)) (q^(2k^2-k-1)-1)/(q-1) of the corank >= 3 slice,
    which carries the corank-(2k+1) stratum weight (q^2k-1)/(q^2-1), equals
    the rank <= 2k-2 locus summed stratum by stratum."""
    _require(k >= 2, f"need k >= 2, got {k}")
    return row(f"main-coefficient({k})", pf_stringy_rodland(k)
               == pf_stringy_recursive(PfaffianParams(2 * k + 1, k - 1)))


def main_main_check(n: int, k: int) -> dict:
    """Stratum-by-stratum form of the general mirror equality at (n, k).

    For each cutting rank 2i, the closed value f_closed =
    (q^(nk-1)-1)/(q-1) * W + q^(nk-1) * S_i  (W the closed stringy product,
    S_i = dual_local_weight the local weight of the rank-2i stratum on the
    complementary side) must satisfy the triangular recursion at every
    j <= k, so that it is the weighted cut E-function the recursion
    determines.  Strata with i beyond (n-1)/2 - k carry weight zero.  The
    same S_i arise as the stratum weights of the k' = (n-1)/2-k companion
    locus, and each stratum first checks the two transcriptions against
    each other (dual_local_weight at k against local_contribution at k'):
    the relabeling symmetry of the construction.
    """
    _require(n >= 5 and n % 2 == 1, f"n must be odd and >= 5, got {n}")
    half = (n - 1) // 2
    _require(1 <= k <= half - 1, f"need 1 <= k <= (n-3)/2, got k={k}, n={n}")
    k_dual = half - k

    def stratum_ok(i):
        s_i = local_contribution(i, k_dual, n) if i <= k_dual else ZERO
        return (dual_local_weight(k, i, n) == s_i
                and all(recursion_holds(j, i, n) for j in range(1, k + 1)))

    return row(f"main-main(n={n},k={k})",
               all(stratum_ok(i) for i in range(1, half + 1)))


def even_anomaly_check() -> dict:
    """Pin down the even-dimensional failure.

    The corank-4 locus resolves with fiber the two-plane Grassmannian of
    4-space and discrepancy 3, so its local weight is
    E(G(2,4)) (q-1)/(q^4-1) = (q^2+q+1)/(q+1), not a polynomial.  Had the
    discrepancy been 2 the weight would be q^2+1, which is exactly the
    (q^4-1)/(q^2-1) the stratified count requires.  (The general
    discrepancy 2k^2-2k-1 and the wished-for 2k^2-3k are 3 and 2 at k=2.)
    """
    weighted = grassmannian_E(2, 4) * (1 - monomial(1))
    try:
        q_divide(weighted, [4], "corank-4 weight")
    except NotPolynomial:
        actual_is_polynomial = False
    else:
        actual_is_polynomial = True
    stated_num, stated_den = QPoly([1, 1, 1]), QPoly([1, 1])
    required = QPoly([1, 0, 1])
    passed = (not actual_is_polynomial
              and weighted * stated_den == stated_num * (1 - monomial(4))
              and weighted == required * (1 - monomial(3)))
    return row("even-anomaly", passed,
               note=f"actual corank-4 weight ({stated_num})/({stated_den}) is "
                    f"not a polynomial (expected); discrepancy-2 weight "
                    f"equals {required}")
