"""The numpy kernels of the finite-field sweeps.

A batch of forms on F_p^n is an (m, B) array of base-p digits, m =
n(n-1)/2: row e holds entry e of the strict upper triangle (in
`pair_index` order) for all B forms, so each entry's row is contiguous.
`rank` ranks such a batch through the Pfaffians of principal minors,
built bottom-up over subsets; the rank of a skew matrix is the largest
size of a principal minor with a nonzero Pfaffian, so no elimination is
needed.  One subset recursion serves every p; only its lanes differ.  For
p = 2 the digit rows are packed into uint64 words, 64 forms to a word (bit
slicing, as in M4RI), a product is & and a sum or difference ^; for odd p
each form has an integer lane, reduced mod p at each level.

A census walks every skew form (all p^m digit strings, in index order, in
batches of `_BATCH` forms from `digit_batches`) and tallies them by (rank,
pairing-with-alpha == 0) into an int64 array of shape (n+1, 2), counting
each even rank's forms and its forms of pairing 0 with `count_nonzero`.
Its one memo, `_ranked`, an lru_cache of size 1 keyed by (p, n), keeps the
int8 ranks of the last (p, n) swept, p^m bytes, so another alpha at the
same (p, n) costs only the pairing and the counts.

`isotropic` counts the subspaces on which a form vanishes, streaming each
pivot pattern's reduced echelon bases in batches of at most `_BATCH`,
built from the digits of their free entries.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import numpy as np

_DTYPES = (np.int8, np.int16, np.int32, np.int64)


def pair_index(n: int) -> list[tuple[int, int]]:
    """Row-major order of the strict upper triangle: (0,1), (0,2), ..."""
    return [(r, c) for r in range(n) for c in range(r + 1, n)]


def kernel_dtype(p: int, n: int):
    """The smallest integer dtype holding (p-1)^2 (n-1).  That bounds every
    partial sum in `isotropic` and in `rank`'s odd-p lanes: each adds at
    most n-1 products of two residues mod p."""
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
    Pf(S) = sum_{j>=1} (-1)^(j+1) a_{s0,sj} Pf(S minus {s0,sj}).
    For p = 2 each row is packed into uint64 words, 64 forms to a word, so a
    product is &, a sum or a difference is ^, and nothing is reduced; for
    odd p each form has its own integer lane, reduced mod p at each level."""
    m = n * (n - 1) // 2
    a = np.asarray(digits)
    if a.ndim != 2 or a.shape[0] != m:
        raise ValueError(f"need an ({m}, B) digit array for n = {n}, "
                         f"got shape {a.shape}")
    size = a.shape[1]
    ranks = np.zeros(size, np.int8)
    if p == 2:
        bits = np.zeros((m, -(-size // 64) * 8), np.uint8)
        bits[:, :-(-size // 8)] = np.packbits(a, axis=1, bitorder="little")
        a = bits.view(np.uint64)
        times, plus, minus = np.bitwise_and, np.bitwise_xor, np.bitwise_xor
    else:
        a = a.astype(kernel_dtype(p, n), copy=False)
        times, plus, minus = np.multiply, np.add, np.subtract

    def mark(seen, s):
        """Rank s for each form whose lane in `seen` is nonzero."""
        if p == 2:
            seen = np.unpackbits(seen.view(np.uint8), count=size,
                                 bitorder="little")
        ranks[seen != 0] = s

    entry = {rc: a[e] for e, rc in enumerate(pair_index(n))}
    seen = np.zeros(a.shape[1], a.dtype)
    for pf in entry.values():
        seen |= pf
    mark(seen, 2)
    prev, term = entry, np.empty_like(seen)
    for s in range(4, n + 1, 2):
        cur = {}
        seen[:] = 0
        for sub in combinations(range(n), s):
            acc = times(entry[sub[0], sub[1]], prev[sub[2:]])
            for j in range(2, s):
                times(entry[sub[0], sub[j]], prev[sub[1:j] + sub[j + 1:]],
                      out=term)
                (plus if j % 2 else minus)(acc, term, out=acc)
            seen |= acc if p == 2 else _mod(acc, p)
            cur[sub] = acc
        mark(seen, s)
        prev = cur
    return ranks


_BATCH = 1 << 16


@lru_cache(maxsize=1)
def _ranked(p: int, n: int) -> np.ndarray:
    """Ranks of all p^m forms in index order, kept for the last (p, n)."""
    m = n * (n - 1) // 2
    ranks = np.empty(p ** m, np.int8)
    lo = 0
    for digits in digit_batches(p, m, _BATCH, kernel_dtype(p, n)):
        ranks[lo:lo + digits.shape[1]] = rank(digits, p, n)
        lo += digits.shape[1]
    return ranks


def census(p: int, n: int, alpha: tuple[int, ...]) -> np.ndarray:
    """Tally all skew forms by (rank, <form, alpha> == 0 mod p)."""
    m = n * (n - 1) // 2
    ranks = _ranked(p, n)
    alpha = np.array(alpha, np.int64)
    counts = np.zeros((n + 1, 2), np.int64)
    lo, low_pairing = 0, None
    for digits in digit_batches(p, m, _BATCH, kernel_dtype(p, n)):
        # <form, alpha> is a low part, the same in every batch, plus a high
        # part that is constant within a batch: the first batch has every
        # high digit 0, and column 0 of each batch every low digit
        if low_pairing is None:
            low_pairing = (alpha @ digits) % p
        target = -int(alpha @ digits[:, 0]) % p
        zero = low_pairing == target
        block = ranks[lo:lo + digits.shape[1]]
        lo += digits.shape[1]
        for r in range(0, n + 1, 2):
            at_r = block == r
            counts[r, 0] += np.count_nonzero(at_r)
            counts[r, 1] += np.count_nonzero(at_r & zero)
    counts[:, 0] -= counts[:, 1]
    return counts


def isotropic(p: int, n: int, d: int, form) -> int:
    """Number of d-dimensional subspaces of F_p^n on which the skew form with
    n x n matrix A = `form` vanishes.  For each pivot pattern, the reduced
    echelon bases x_0..x_{d-1} are built from the digits of their free
    entries, at most `_BATCH` at a time; a basis counts when every Gram
    entry x_r^T A x_s (r < s) is 0 mod p."""
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
        for digits in digit_batches(p, width, _BATCH, dtype):
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
