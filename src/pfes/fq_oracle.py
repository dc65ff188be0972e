"""Brute-force point counting over small prime fields.

Every polynomial-count stratum handled by the symbolic layer has a
counting counterpart here: rank strata of skew forms, isotropic subspaces
of a fixed form, and rank strata of a hyperplane cut.  Evaluating the
symbolic E-polynomial at q = p must reproduce these counts exactly, which
gives an implementation-independent check of every formula.

Full sweeps respect a hard enumeration guard (default 2^24 candidate
forms or subspaces, overridable via PFES_MAX_ENUM or a max_enum argument)
and raise TooLarge rather than truncating silently.  The guard also bounds
memory: the numpy kernels in `_kernels` keep one int8 rank per form of the
last (p, n) swept, and stream subspaces in fixed-size batches.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .qcore import gauss_binomial
from .efun import _require
from . import _kernels
from ._kernels import pair_index


class TooLarge(Exception):
    """An enumeration would exceed the configured guard."""


DEFAULT_MAX_ENUM = 1 << 24


def _small_prime(p: int) -> bool:
    if p < 2:
        return False
    return all(p % d for d in range(2, int(p ** 0.5) + 1))


def _enum_guard(count: int, what: str, max_enum: int | None):
    limit = max_enum
    if limit is None:
        limit = int(os.environ.get("PFES_MAX_ENUM", DEFAULT_MAX_ENUM))
    if count > limit:
        raise TooLarge(f"{what} needs {count} candidates, guard is {limit} "
                       f"(override with PFES_MAX_ENUM or max_enum)")


@dataclass(frozen=True)
class SkewFormFp:
    """Skew-symmetric form over F_p, stored as the strict upper triangle in
    row-major order; the diagonal is zero and the lower triangle is implied
    by antisymmetry."""

    p: int
    n: int
    entries: tuple[int, ...]

    def __post_init__(self):
        _require(_small_prime(self.p), f"p must be a small prime, got {self.p}")
        _require(self.n >= 1, f"need n >= 1, got {self.n}")
        m = self.n * (self.n - 1) // 2
        _require(len(self.entries) == m,
                 f"expected {m} upper-triangle entries, got {len(self.entries)}")
        object.__setattr__(self, "entries",
                           tuple(x % self.p for x in self.entries))

    @classmethod
    def zero(cls, p: int, n: int) -> "SkewFormFp":
        return cls(p, n, (0,) * (n * (n - 1) // 2))

    @classmethod
    def standard(cls, p: int, n: int, i: int) -> "SkewFormFp":
        """Block form e_0^e_1 + e_2^e_3 + ... of rank 2i."""
        _require(0 <= 2 * i <= n, f"rank 2i must satisfy 0 <= 2i <= n")
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
        """Pull back along the basis change g: entries of g^T A g."""
        n, p = self.n, self.p
        a = self.matrix()
        ag = [[sum(a[r][t] * g[t][c] for t in range(n)) % p for c in range(n)]
              for r in range(n)]
        gag = [[sum(g[t][r] * ag[t][c] for t in range(n)) % p for c in range(n)]
               for r in range(n)]
        return SkewFormFp.from_matrix(p, gag)


def skew_rank(form: SkewFormFp) -> int:
    """Rank over F_p by Gaussian elimination; always even."""
    p, n = form.p, form.n
    mat = [list(row) for row in form.matrix()]
    rank = 0
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
    if rank % 2:
        raise RuntimeError("skew-symmetric rank must be even")
    return rank


def pairing(w: SkewFormFp, alpha: SkewFormFp) -> int:
    """Coordinate pairing sum_{r<c} w_rc alpha_rc mod p."""
    _require(w.p == alpha.p and w.n == alpha.n,
             "pairing needs forms over the same field and dimension")
    return sum(a * b for a, b in zip(w.entries, alpha.entries)) % w.p


_CENSUS_CACHE: dict[tuple[int, int, tuple[int, ...]], np.ndarray] = {}


def _census(p: int, n: int, alpha: tuple[int, ...], max_enum) -> np.ndarray:
    m = n * (n - 1) // 2
    _enum_guard(p ** m, f"sweep of all skew forms on F_{p}^{n}", max_enum)
    key = (p, n, alpha)
    cached = _CENSUS_CACHE.get(key)
    if cached is None:
        cached = _kernels.census(p, n, alpha)
        _CENSUS_CACHE[key] = cached
    return cached


def count_rank_stratum(p: int, n: int, rank: int,
                       max_enum: int | None = None) -> int:
    """Number of rank-`rank` points of the projectivized space of skew forms
    on F_p^n (nonzero forms up to scaling)."""
    _require(_small_prime(p), f"p must be a small prime, got {p}")
    _require(n >= 1, f"need n >= 1, got {n}")
    _require(rank % 2 == 0 and 0 <= rank <= n,
             f"rank must be even with 0 <= rank <= n, got {rank}")
    census = _census(p, n, SkewFormFp.zero(p, n).entries, max_enum)
    forms = int(census[rank].sum())
    if rank == 0:
        forms -= 1  # the zero form is not a projective point
    if forms % (p - 1):
        raise RuntimeError(f"{forms} forms do not split into lines over F_{p}")
    return forms // (p - 1)


def count_cut_stratum(p: int, n: int, rank_w: int, alpha: SkewFormFp,
                      max_enum: int | None = None) -> int:
    """Number of projectivized rank-`rank_w` forms w with <w, alpha> = 0."""
    _require(_small_prime(p), f"p must be a small prime, got {p}")
    _require(alpha.p == p and alpha.n == n,
             "alpha must live over the same field and dimension")
    _require(rank_w % 2 == 0 and 0 <= rank_w <= n,
             f"rank must be even with 0 <= rank <= n, got {rank_w}")
    census = _census(p, n, alpha.entries, max_enum)
    forms = int(census[rank_w, 1])
    if rank_w == 0:
        forms -= 1
    if forms % (p - 1):
        raise RuntimeError(f"{forms} forms do not split into lines over F_{p}")
    return forms // (p - 1)


def count_isotropic(p: int, n: int, dim_sub: int, alpha: SkewFormFp,
                    max_enum: int | None = None) -> int:
    """Number of dim_sub-dimensional subspaces of F_p^n on which alpha
    restricts to zero, by sweeping canonical echelon bases."""
    _require(_small_prime(p), f"p must be a small prime, got {p}")
    _require(0 <= dim_sub <= n, f"need 0 <= dim_sub <= n, got {dim_sub}")
    _require(alpha.p == p and alpha.n == n,
             "alpha must live over the same field and dimension")
    total = gauss_binomial(n, dim_sub, 1)(p)
    _enum_guard(total, f"sweep of {dim_sub}-subspaces of F_{p}^{n}", max_enum)
    if dim_sub < 2:
        return total  # a line (or the origin) is isotropic for any skew form
    return _kernels.isotropic(p, n, dim_sub, alpha.matrix())


def census_totals(p: int, n: int, max_enum: int | None = None) -> dict[int, int]:
    """Projectivized stratum sizes by rank; they partition projective space."""
    return {rank: count_rank_stratum(p, n, rank, max_enum)
            for rank in range(0, n + 1, 2)}
