"""Brute-force point counting over prime fields F_p, p < 2^31.

Every polynomial-count stratum handled by the symbolic layer has a
counting counterpart here: rank strata of skew forms, isotropic subspaces
of a fixed form, and rank strata of a hyperplane cut.  Evaluating the
symbolic E-polynomial at q = p must reproduce these counts exactly, which
gives an implementation-independent check of every formula; so every
count is a sweep, the origin and the lines of count_isotropic included.

Full sweeps respect a hard enumeration guard (default 2^24 candidate
forms or subspaces, overridable by a max_enum argument, which the CLI's
--max-enum passes on; nothing is read from the environment) and raise
TooLarge rather than truncating silently.  One rule serves the census of
p^m forms and the sweep of [n, d]_p subspaces: a sweep whose lower bound
2^b, b = (bitlen(p) - 1) m or (bitlen(p) - 1) d(n - d), is too long to
print in decimal is held against 2^b first, and named "at least 2^b",
before its exact size is computed; any other sweep is held against, and
named by, its exact size, an integer product at q = p, not a Gaussian
binomial polynomial.  census_guard and subspace_guard check a count's
parameters and run the guard: every count runs one first, ahead of the
census memo `_census_counts`, a functools.cache keyed by (p, n, alpha),
and the CLI runs one before it builds alpha.  The guard also bounds
memory: the numpy kernels in `_kernels` keep n // 2 bits per form of the
last (p, n) swept, and sweep subspaces through batches of at most 2^12
words (p = 2) or max(2^16, p) bases (odd p), whatever the number of pivot
patterns.  TooLarge is defined in `efun`, next to RangeError, so the CLI
catches it without loading this module; it is re-exported here.

Only `_kernels` imports numpy, and the package loads this module, and with
it `_kernels`, on first use: the symbolic commands never load numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import isqrt

from .efun import TooLarge, _require
from . import _kernels
from ._kernels import pair_index

DEFAULT_MAX_ENUM = 1 << 24

# Python prints an int of at most 4,300 decimal digits, about 14,284 bits
_DECIMAL_BITS = 14_284

# Below 2^31, (p-1)^2 (n-1), the bound of the kernels' sums, fits int64
# whenever n <= 3; where it does not, a census or a d-subspace sweep with
# 0 < d < n has over 2^90 candidates, and d = 0 or n holds only 0s and 1s.
_PRIME_BOUND = 1 << 31


def _require_prime(p: int):
    _require(2 <= p < _PRIME_BOUND
             and all(p % d for d in range(2, isqrt(p) + 1)),
             f"p must be a prime below 2^31, got {p}")


def _decimal(count: int) -> str:
    """count in decimal, or its size where Python's int-to-str digit limit
    refuses it."""
    try:
        return str(count)
    except ValueError:
        return f"at least 2^{count.bit_length() - 1}"


def _sweep_guard(what: str, bits: int, size, max_enum: int | None):
    """Raise TooLarge when a sweep of size() >= 2^bits candidates exceeds
    the guard.  A size past 2^_DECIMAL_BITS is only ever stated by a power
    of 2, so such a sweep is first held against 2^bits, and size(), slow to
    build for a huge p and n, is called only when that bound passes; any
    other sweep is held against, and named by, its exact size."""
    limit = DEFAULT_MAX_ENUM if max_enum is None else max_enum
    _require(isinstance(limit, int) and limit >= 0,
             f"max_enum must be a non-negative integer, got {limit!r}")
    if bits > _DECIMAL_BITS and bits >= limit.bit_length():  # 2^bits > limit
        needs = f"at least 2^{bits}"
    else:
        count = size()
        if count <= limit:
            return
        needs = _decimal(count)
    raise TooLarge(f"{what} needs {needs} candidates, guard is "
                   f"{_decimal(limit)} (override with --max-enum or max_enum)")


@dataclass(frozen=True)
class SkewFormFp:
    """Skew-symmetric form over F_p, stored as the strict upper triangle in
    row-major order; the diagonal is zero and the lower triangle is implied
    by antisymmetry."""

    p: int
    n: int
    entries: tuple[int, ...]

    def __post_init__(self):
        _require_prime(self.p)
        _require(self.n >= 1, f"need n >= 1, got {self.n}")
        m = self.n * (self.n - 1) // 2
        _require(len(self.entries) == m,
                 f"expected {m} upper-triangle entries, got {len(self.entries)}")
        object.__setattr__(self, "entries",
                           tuple(x % self.p for x in self.entries))

    @classmethod
    def zero(cls, p: int, n: int) -> "SkewFormFp":
        return cls(p, n, (0,) * (n * (n - 1) // 2))

    @staticmethod
    def check_standard(n: int, i: int):
        _require(0 <= 2 * i <= n, f"need 0 <= 2i <= n, got i={i}, n={n}")

    @classmethod
    def standard(cls, p: int, n: int, i: int) -> "SkewFormFp":
        """Block form e_0^e_1 + e_2^e_3 + ... of rank 2i."""
        cls.check_standard(n, i)
        entries = [0] * (n * (n - 1) // 2)
        index = {rc: e for e, rc in enumerate(pair_index(n))}
        for t in range(i):
            entries[index[(2 * t, 2 * t + 1)]] = 1
        return cls(p, n, tuple(entries))

    @classmethod
    def from_matrix(cls, p: int, rows) -> "SkewFormFp":
        n = len(rows)
        entries = [rows[r][c] for r, c in pair_index(n)]
        return cls(p, n, tuple(entries))

    def matrix(self) -> tuple[tuple[int, ...], ...]:
        n, p = self.n, self.p
        mat = [[0] * n for _ in range(n)]
        for (r, c), v in zip(pair_index(n), self.entries):
            mat[r][c] = v
            mat[c][r] = (-v) % p
        return tuple(tuple(row) for row in mat)

    def conjugated(self, g) -> "SkewFormFp":
        """Pull back along the basis change g, an n x n matrix invertible
        mod p: entries of g^T A g."""
        n, p = self.n, self.p
        _require(len(g) == n and all(len(row) == n for row in g),
                 f"g must have {n} rows of {n} entries, got rows of lengths "
                 f"{[len(row) for row in g]}")
        _require(_rank_mod(g, p) == n, f"g is singular mod {p}")
        a = self.matrix()
        ag = [[sum(a[r][t] * g[t][c] for t in range(n)) % p for c in range(n)]
              for r in range(n)]
        gag = [[sum(g[t][r] * ag[t][c] for t in range(n)) % p for c in range(n)]
               for r in range(n)]
        return SkewFormFp.from_matrix(p, gag)


def _rank_mod(rows, p: int) -> int:
    """Rank over F_p of a square integer matrix, by Gaussian elimination."""
    mat = [[x % p for x in row] for row in rows]
    n, rank = len(mat), 0
    for col in range(n):
        piv = next((r for r in range(rank, n) if mat[r][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        scale = pow(mat[rank][col], -1, p)
        mat[rank] = [(x * scale) % p for x in mat[rank]]
        for r in range(rank + 1, n):
            f = mat[r][col]
            if f:
                mat[r] = [(x - f * y) % p for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def skew_rank(form: SkewFormFp) -> int:
    """Rank over F_p by Gaussian elimination; always even."""
    rank = _rank_mod(form.matrix(), form.p)
    if rank % 2:
        raise RuntimeError("skew-symmetric rank must be even")
    return rank


def pairing(w: SkewFormFp, alpha: SkewFormFp) -> int:
    """Coordinate pairing sum_{r<c} w_rc alpha_rc mod p."""
    _require(w.p == alpha.p and w.n == alpha.n,
             f"got w over F_{w.p}^{w.n} and alpha over F_{alpha.p}^{alpha.n}")
    return sum(a * b for a, b in zip(w.entries, alpha.entries)) % w.p


def census_guard(p: int, n: int, rank: int, max_enum: int | None):
    """Check the parameters of a rank-`rank` count on F_p^n, then hold the
    sweep of all p^m >= 2^((bitlen(p) - 1) m) skew forms against the guard."""
    _require_prime(p)
    _require(n >= 1, f"need n >= 1, got {n}")
    _require(rank % 2 == 0 and 0 <= rank <= n,
             f"rank must be even with 0 <= rank <= n, got {rank}")
    m = n * (n - 1) // 2
    _sweep_guard(f"sweep of all skew forms on F_{p}^{n}",
                 (p.bit_length() - 1) * m, lambda: _forms(p, m), max_enum)


def _forms(p: int, m: int) -> int:
    """p^m, the number of skew forms with m upper-triangle entries."""
    return p ** m


@cache
def _census_counts(p: int, n: int, alpha: tuple[int, ...]):
    return _kernels.census(p, n, alpha)


def _projective_points(forms: int, p: int, rank: int) -> int:
    """Projective points among `forms` skew forms of rank `rank`: the zero
    form is dropped at rank 0, and the rest split into lines of p - 1."""
    if rank == 0:
        forms -= 1  # the zero form is not a projective point
    if forms % (p - 1):
        raise RuntimeError(f"{forms} forms do not split into lines over F_{p}")
    return forms // (p - 1)


def count_rank_stratum(p: int, n: int, rank: int,
                       max_enum: int | None = None) -> int:
    """Number of rank-`rank` points of the projectivized space of skew forms
    on F_p^n (nonzero forms up to scaling)."""
    census_guard(p, n, rank, max_enum)
    census = _census_counts(p, n, SkewFormFp.zero(p, n).entries)
    return _projective_points(int(census[rank].sum()), p, rank)


def count_cut_stratum(p: int, n: int, rank_w: int, alpha: SkewFormFp,
                      max_enum: int | None = None) -> int:
    """Number of projectivized rank-`rank_w` forms w with <w, alpha> = 0."""
    census_guard(p, n, rank_w, max_enum)
    _require(alpha.p == p and alpha.n == n,
             f"got alpha over F_{alpha.p}^{alpha.n}, need F_{p}^{n}")
    census = _census_counts(p, n, alpha.entries)
    return _projective_points(int(census[rank_w, 1]), p, rank_w)


def _subspaces(p: int, n: int, d: int) -> int:
    """Number of d-dimensional subspaces of F_p^n, the Gaussian binomial
    [n, d] at q = p, as an exact integer: step i multiplies [n-d+i, i] by
    (p^(n-d+i+1) - 1) / (p^(i+1) - 1), which gives [n-d+i+1, i+1]."""
    count, d = 1, min(d, n - d)
    for i in range(d):
        count = count * (p ** (n - d + i + 1) - 1) // (p ** (i + 1) - 1)
    return count


def subspace_guard(p: int, n: int, d: int, max_enum: int | None):
    """Check the parameters of a d-subspace count on F_p^n, then hold the sweep
    of all [n, d]_p >= 2^((bitlen(p) - 1) d(n-d)) of them against the guard."""
    _require_prime(p)
    _require(n >= 1, f"need n >= 1, got {n}")
    _require(0 <= d <= n, f"need 0 <= dim_sub <= n, got {d}")
    _sweep_guard(f"sweep of {d}-subspaces of F_{p}^{n}",
                 (p.bit_length() - 1) * d * (n - d),
                 lambda: _subspaces(p, n, d), max_enum)


def count_isotropic(p: int, n: int, dim_sub: int, alpha: SkewFormFp,
                    max_enum: int | None = None) -> int:
    """Number of dim_sub-dimensional subspaces of F_p^n on which alpha
    restricts to zero, by sweeping canonical echelon bases, for every
    dim_sub, 0 and 1 included."""
    subspace_guard(p, n, dim_sub, max_enum)
    _require(alpha.p == p and alpha.n == n,
             f"got alpha over F_{alpha.p}^{alpha.n}, need F_{p}^{n}")
    return _kernels.isotropic(p, n, dim_sub, alpha.matrix())

