"""E-polynomials of projective spaces, Grassmannians and skew-form rank
strata, together with the stringy E-functions, discrepancies and local
stringy weights of the loci of bounded-rank skew forms on an odd-dimensional
space.

Conventions: everything is a function of the single variable q, strata of
skew forms are keyed by rank 2i, and the ambient dimension n is odd unless a
function says otherwise.  Each polynomial is a quotient of products of
factors (1 - q^a), or a finite sum of such quotients.

The package's two parameter errors live here: RangeError, for a value
outside a quantity's domain, and TooLarge, for a finite-field enumeration
beyond its guard (raised by `fq_oracle`, caught by the CLI without loading
that module).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .qcore import (
    ZERO, QPoly, gauss_binomial, geometric_series, q_quotient,
)


class RangeError(ValueError):
    """A parameter fell outside the domain of the requested quantity."""


class TooLarge(Exception):
    """A finite-field enumeration would exceed its guard."""


def _require(condition: bool, message: str):
    if not condition:
        raise RangeError(message)


@dataclass(frozen=True)
class PfaffianParams:
    """Dimension n of the underlying space (odd, >= 5) and the half-rank
    bound k of the locus of skew forms of rank <= 2k."""

    n: int
    k: int

    def __post_init__(self):
        _require(self.n >= 5 and self.n % 2 == 1,
                 f"n must be odd and >= 5, got {self.n}")
        _require(1 <= self.k <= (self.n - 1) // 2,
                 f"k must satisfy 1 <= k <= (n-1)/2, got k={self.k}, n={self.n}")


def projective_E(k: int) -> QPoly:
    """E-polynomial of projective k-space: (q^(k+1) - 1)/(q - 1)."""
    _require(k >= 0, f"projective space needs k >= 0, got {k}")
    return geometric_series(k + 1)


def grassmannian_E(k: int, n: int) -> QPoly:
    """E-polynomial of the Grassmannian of k-planes in n-space."""
    _require(0 <= k <= n, f"need 0 <= k <= n, got k={k}, n={n}")
    return gauss_binomial(n, k, 1)


@cache
def nondeg_skew_E(i: int) -> QPoly:
    """E-polynomial of the nondegenerate skew forms on a 2i-dimensional
    space, up to scaling:
    (-1)^(i-1) q^(i(i-1)) prod_{j=2}^{i} (1 - q^(2j-1)).

    This is MacWilliams' count of nondegenerate alternating matrices
    (Amer. Math. Monthly 76, 1969) divided by q - 1.  The sum over s <= i
    of nondeg_skew_E(s) [2i, 2s]_q is the projective space of nonzero skew
    forms on C^(2i), which the oddeven suite checks.
    """
    _require(i >= 1, f"need i >= 1, got {i}")
    return ((-1) ** (i - 1)
            * q_quotient(range(3, 2 * i, 2), (), "").shift(i * (i - 1)))


@cache
def rank_stratum_E(i: int, n: int) -> QPoly:
    """E-polynomial of the locus of skew forms of rank exactly 2i on
    n-space, up to scaling: a fibration over the Grassmannian of kernels."""
    _require(i >= 1 and 2 * i <= n, f"need 1 <= 2i <= n, got i={i}, n={n}")
    return nondeg_skew_E(i) * grassmannian_E(n - 2 * i, n)


def discrepancy(j: int, params: PfaffianParams) -> int:
    """Discrepancy of the divisor indexed by j in the blowup resolution of
    the rank <= 2k locus; defined for (n+3-2k)/2 <= j <= (n-1)/2."""
    n, k = params.n, params.k
    lo, hi = (n + 3 - 2 * k) // 2, (n - 1) // 2
    _require(lo <= j <= hi,
             f"divisor index {j} outside [{lo}, {hi}] for (n, k)=({n}, {k})")
    return (2 * j + 2 * k - n - 1) * (2 * j - 1) // 2 - 1


def local_contribution(p: int, k: int, n: int) -> QPoly:
    """Local stringy weight of a point on the rank-2p stratum inside the
    rank <= 2k locus on odd n-space: the Gaussian binomial
    [(n-1)/2 - p, k - p] in q^2."""
    _require(n >= 5 and n % 2 == 1, f"n must be odd and >= 5, got {n}")
    _require(1 <= p <= k <= (n - 1) // 2,
             f"need 1 <= p <= k <= (n-1)/2, got p={p}, k={k}, n={n}")
    return gauss_binomial((n - 1) // 2 - p, k - p, 2)


@cache
def pf_stringy_closed(params: PfaffianParams) -> QPoly:
    """Stringy E-function of the rank <= 2k locus, closed product form:
    (q^(nk) - 1)/(q - 1) times the Gaussian binomial [(n-1)/2, k] in q^2."""
    n, k = params.n, params.k
    return geometric_series(n * k) * gauss_binomial((n - 1) // 2, k, 2)


@cache
def pf_stringy_recursive(params: PfaffianParams) -> QPoly:
    """Stringy E-function assembled stratum by stratum, as the sum over
    i = 1..k of the rank-2i stratum times its local weight; must agree with
    the closed form (that agreement is the inductive content of the
    formula)."""
    n, k = params.n, params.k
    return sum((rank_stratum_E(i, n) * local_contribution(i, k, n)
                for i in range(1, k + 1)), ZERO)


def pf_stringy_rodland(r: int) -> QPoly:
    """Stringy E-function of the degenerate-form hypersurface slice in the
    classical corank >= 3 case, n = 2r + 1:
    ((q^2r - 1)(q^(2r^2-r-1) - 1)) / ((q^2 - 1)(q - 1))."""
    _require(r >= 2, f"need r >= 2, got {r}")
    return q_quotient([2 * r, 2 * r * r - r - 1], [2, 1],
                      f"closed stringy form (r={r})")


def stringy_degree(n: int, k: int) -> int:
    """Degree of the stringy E-function of the rank <= 2k locus."""
    return 2 * n * k - 2 * k * k - k - 1


def euler_characteristic(params: PfaffianParams) -> int:
    """Value of the stringy E-function at q = 1, as the exact limit
    n*k * prod_{j=k+1}^{(n-1)/2} j/(j-k), the integer n*k*C(j, k) at each j."""
    n, k = params.n, params.k
    value = n * k
    for j in range(k + 1, (n - 1) // 2 + 1):
        if value * j % (j - k):
            raise RuntimeError(f"Euler characteristic is fractional at j={j}")
        value = value * j // (j - k)
    return value
