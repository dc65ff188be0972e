"""The numpy kernels of the finite-field sweeps.

A batch of forms on F_p^n is an (m, B) array of base-p digits, m =
n(n-1)/2: row e holds entry e of the strict upper triangle (in
`pair_index` order) for all B forms, so each entry's row is contiguous.
`rank` ranks such a batch through the Pfaffians of principal minors,
built bottom-up over subsets and reduced mod p at each level; the rank of
a skew matrix is the largest size of a principal minor with a nonzero
Pfaffian, so no elimination is needed.

A census walks every skew form (all p^m digit strings, in index order, in
batches from `digit_batches`) and tallies them by (rank, pairing-with-alpha
== 0) into an int64 array of shape (n+1, 2).  It keeps the int8 ranks of
the last (p, n) it swept, p^m bytes, so another alpha at the same (p, n)
costs only the pairing and a bincount.

`isotropic` counts the subspaces on which a form vanishes, streaming each
pivot pattern's reduced echelon bases in batches built from the digits of
their free entries.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

_DTYPES = (np.int8, np.int16, np.int32, np.int64)


def pair_index(n: int) -> list[tuple[int, int]]:
    """Row-major order of the strict upper triangle: (0,1), (0,2), ..."""
    return [(r, c) for r in range(n) for c in range(r + 1, n)]


def kernel_dtype(p: int, n: int):
    """The smallest integer dtype holding (p-1)^2 (n-1).  That bounds every
    partial sum in `rank` and `isotropic`: each adds at most n-1 products
    of two residues mod p."""
    bound = (p - 1) ** 2 * max(n - 1, 1)
    for dtype in _DTYPES:
        if bound <= np.iinfo(dtype).max:
            return dtype
    raise OverflowError(f"F_{p}^{n} needs sums up to {bound}, "
                        f"beyond the int64 range")


def _digit_table(p: int, width: int, dtype) -> np.ndarray:
    """(width, p^width) array whose column t holds the base-p digits of t."""
    out = np.empty((width, p ** width), dtype)
    for e in range(width):
        out[e].reshape(-1, p, p ** e)[:] = np.arange(p)[:, None]
    return out


def digit_batches(p: int, width: int, batch: int, dtype):
    """Yield the base-p digits of 0, 1, ..., p^width - 1 in index order, as
    (width, B) arrays, B = p^low: the low digits come from one table and
    the high ones are constant in each batch.  B is the largest power of p
    up to `batch`, but at least p.  The same buffer is refilled for every
    batch."""
    low = min(width, 1)
    while low < width and p ** (low + 1) <= batch:
        low += 1
    out = np.empty((width, p ** low), dtype)
    out[:low] = _digit_table(p, low, dtype)
    for high in range(p ** (width - low)):
        for e in range(low, width):
            out[e] = high % p
            high //= p
        yield out


def _mod(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p, in place: floor division by a scalar is far faster than %."""
    x -= x // p * p
    return x


def rank(digits, p: int, n: int) -> np.ndarray:
    """Ranks (int8) of the B skew forms on F_p^n given as an (m, B) array of
    digit rows with entries in [0, p).  Pfaffians of principal minors are
    built bottom-up over subsets S = (s0 < s1 < ...),
    Pf(S) = sum_{j>=1} (-1)^(j+1) a_{s0,sj} Pf(S minus {s0,sj}),
    each level reduced mod p."""
    m = n * (n - 1) // 2
    dtype = kernel_dtype(p, n)
    a = np.asarray(digits).astype(dtype, copy=False)
    if a.ndim != 2 or a.shape[0] != m:
        raise ValueError(f"need an ({m}, B) digit array for n = {n}, "
                         f"got shape {a.shape}")
    size = a.shape[1]
    ranks = np.zeros(size, np.int8)
    entry = {rc: a[e] for e, rc in enumerate(pair_index(n))}
    seen = np.zeros(size, dtype)
    for pf in entry.values():
        seen |= pf
    ranks[seen != 0] = 2
    prev, term = entry, np.empty(size, dtype)
    for s in range(4, n + 1, 2):
        cur = {}
        seen[:] = 0
        for sub in combinations(range(n), s):
            acc = entry[sub[0], sub[1]] * prev[sub[2:]]
            for j in range(2, s):
                np.multiply(entry[sub[0], sub[j]], prev[sub[1:j] + sub[j + 1:]],
                            out=term)
                if j % 2:
                    acc += term
                else:
                    acc -= term
            seen |= _mod(acc, p)
            cur[sub] = acc
        ranks[seen != 0] = s
        prev = cur
    return ranks


_RANKS: dict[tuple[int, int], np.ndarray] = {}


def _ranked(p: int, n: int, batch: int) -> np.ndarray:
    """Ranks of all p^m forms in index order, for the last (p, n) only."""
    ranks = _RANKS.get((p, n))
    if ranks is None:
        _RANKS.clear()
        m = n * (n - 1) // 2
        ranks = np.empty(p ** m, np.int8)
        lo = 0
        for digits in digit_batches(p, m, batch, kernel_dtype(p, n)):
            ranks[lo:lo + digits.shape[1]] = rank(digits, p, n)
            lo += digits.shape[1]
        _RANKS[p, n] = ranks
    return ranks


def census(p: int, n: int, alpha: tuple[int, ...],
           batch: int = 1 << 16) -> np.ndarray:
    """Tally all skew forms by (rank, <form, alpha> == 0 mod p)."""
    m = n * (n - 1) // 2
    ranks = _ranked(p, n, batch)
    alpha = np.array(alpha, np.int64)
    counts = np.zeros((n + 1, 2), np.int64)
    lo, low_pairing = 0, None
    for digits in digit_batches(p, m, batch, kernel_dtype(p, n)):
        # <form, alpha> is a low part, the same in every batch, plus a high
        # part that is constant within a batch: the first batch has every
        # high digit 0, and column 0 of each batch every low digit
        if low_pairing is None:
            low_pairing = (alpha @ digits) % p
        target = -int(alpha @ digits[:, 0]) % p
        block = ranks[lo:lo + digits.shape[1]]
        lo += digits.shape[1]
        counts[:, 0] += np.bincount(block, minlength=n + 1)
        counts[:, 1] += np.bincount(block[low_pairing == target],
                                    minlength=n + 1)
    counts[:, 0] -= counts[:, 1]
    return counts


_ISOTROPIC_BATCH = 1 << 16


def isotropic(p: int, n: int, d: int, form) -> int:
    """Number of d-dimensional subspaces of F_p^n on which the skew form with
    n x n matrix A = `form` vanishes.  For each pivot pattern, the reduced
    echelon bases x_0..x_{d-1} are built from the digits of their free
    entries, at most `_ISOTROPIC_BATCH` at a time; a basis counts when
    every Gram entry x_r^T A x_s (r < s) is 0 mod p."""
    dtype = kernel_dtype(p, n)
    a = (np.array(form, np.int64) % p).astype(dtype)
    count = 0
    for pivots in combinations(range(n), d):
        # free[r]: (digit row, column) of each free entry of x_r
        free, width = [], 0
        for r in range(d):
            cols = [c for c in range(pivots[r] + 1, n) if c not in pivots]
            free.append(list(zip(range(width, width + len(cols)), cols)))
            width += len(cols)
        for digits in digit_batches(p, width, _ISOTROPIC_BATCH, dtype):
            image = [None]  # image[s] = A x_s mod p, needed for s >= 1
            for s in range(1, d):
                col = np.repeat(a[:, pivots[s], None], digits.shape[1], axis=1)
                for e, c in free[s]:
                    col += a[:, c, None] * digits[e]
                image.append(_mod(col, p))
            vanish = np.ones(digits.shape[1], bool)
            for r, s in combinations(range(d), 2):
                gram = image[s][pivots[r]].copy()
                for e, c in free[r]:
                    gram += digits[e] * image[s][c]
                vanish &= _mod(gram, p) == 0
            count += int(np.count_nonzero(vanish))
    return count
