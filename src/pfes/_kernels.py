"""The numpy kernels of the finite-field sweeps.

A batch of forms on F_p^n is an (m, B) array of base-p digits, m =
n(n-1)/2: row e holds entry e of the strict upper triangle (in
`pair_index` order) for all B forms, so each entry's row is contiguous.
The rank of a skew form is the largest size of a principal minor with a
nonzero Pfaffian, so no elimination is needed: `_levels` builds those
Pfaffians bottom-up over subsets, one recursion for every p, and yields
for each even s the lanes of the forms of rank >= s; `rank` turns them
into int8 ranks.  For p = 2 the rows are uint64 words, 64 forms to a word
(bit slicing, as in M4RI), a product is & and a sum or difference ^; for
odd p each form has an integer lane, reduced mod p at each level.

A census ranks every skew form in index order (p = 2 in batches of
`_WORDS` words from `_word_batches`, odd p in batches of `_BATCH` forms)
and packs each level to one bit a form.  Its one memo, `_ranked`, an
lru_cache of size 1 keyed by (p, n), keeps those masks for the last (p, n)
swept.  An alpha's tally counts, per batch and level, the set bits of the
level and of the level AND the forms of pairing 0; the forms of rank 2i
are the difference of adjacent levels.  So another alpha at the same
(p, n) costs one pairing pass over a batch and those counts.

`isotropic` counts the subspaces on which a form vanishes in one sweep
over every pivot pattern, laid out as `_levels` lays out forms: a batch
holds the reduced echelon bases of many patterns side by side, each
basis vector as n entry rows (uint64 words for p = 2, digits for odd p),
so each image A x and Gram entry is one pass over the whole batch.  The
free entries come from one digit table per call, and a pattern too wide
for one batch streams through batches of `_WORDS` words or `_BATCH` forms.
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
    up to `batch`, but at least p when width >= 1; width 0 yields one batch
    with B = 1.  The same buffer is refilled for every batch."""
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


def _word_batches(width: int, words: int):
    """`digit_batches` for p = 2 packed 64 forms to a uint64 word (bit t of
    word w is form 64w + t, 0 past the last form), in batches of `words`
    words rounded as `digit_batches` rounds: digits 0-5 are one pattern in
    every word, digit e >= 6 is bit e - 6 of the word index, spread out."""
    low = min(width, 6)
    bits = np.zeros((low, 8), np.uint8)
    bits[:, :-(-2 ** low // 8)] = np.packbits(
        _digit_table(2, low, np.uint8), axis=1, bitorder="little")
    for index in digit_batches(2, width - low, words, np.uint64):
        out = np.empty((width, index.shape[1]), np.uint64)
        out[:low] = bits.view(np.uint64)
        np.negative(index, out=out[low:])
        yield out


def _mod(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p, in place: floor division by a scalar is far faster than %."""
    x -= x // p * p
    return x


def _levels(lanes: np.ndarray, p: int, n: int):
    """Yield, for s = 2, 4, ..., n, the OR of the Pfaffians of all principal
    s x s minors of the m entry rows `lanes` (uint64 words for p = 2,
    `kernel_dtype` digits for odd p), built over subsets S = (s0 < s1 ...),
    Pf(S) = sum_{j>=1} (-1)^(j+1) a_{s0,sj} Pf(S minus {s0,sj}).
    It is nonzero exactly on the forms of rank >= s: a form of rank r has a
    nonzero Pfaffian of size r, and by this expansion of each smaller one."""
    if p == 2:
        times, plus, minus = np.bitwise_and, np.bitwise_xor, np.bitwise_xor
    else:
        times, plus, minus = np.multiply, np.add, np.subtract
    if n >= 2:
        yield np.bitwise_or.reduce(lanes, axis=0)
    entry = dict(zip(pair_index(n), lanes))
    prev, term = entry, np.empty(lanes.shape[1], lanes.dtype)
    for s in range(4, n + 1, 2):
        cur, seen = {}, np.zeros_like(term)
        for sub in combinations(range(n), s):
            acc = times(entry[sub[0], sub[1]], prev[sub[2:]])
            for j in range(2, s):
                times(entry[sub[0], sub[j]], prev[sub[1:j] + sub[j + 1:]],
                      out=term)
                (plus if j % 2 else minus)(acc, term, out=acc)
            seen |= acc if p == 2 else _mod(acc, p)
            cur[sub] = acc
        yield seen
        prev = cur


def rank(digits, p: int, n: int) -> np.ndarray:
    """Ranks (int8) of the B skew forms on F_p^n given as an (m, B) array of
    digit rows with entries in [0, p), from `_levels`: for p = 2 the rows
    are packed into uint64 words, 64 forms to a word."""
    m = n * (n - 1) // 2
    a = np.asarray(digits)
    if a.ndim != 2 or a.shape[0] != m:
        raise ValueError(f"need an ({m}, B) digit array for n = {n}, "
                         f"got shape {a.shape}")
    size = a.shape[1]
    if p == 2:
        lanes = np.zeros((m, -(-size // 64)), np.uint64)
        # packbits is fast on 1-byte items only: view those, compare others
        bits = a.view(np.uint8) if a.itemsize == 1 else a != 0
        lanes.view(np.uint8)[:, :-(-size // 8)] = np.packbits(
            bits, axis=1, bitorder="little")
    else:
        lanes = a.astype(kernel_dtype(p, n), copy=False)
    ranks = np.zeros(size, np.int8)
    for s, seen in enumerate(_levels(lanes, p, n), 1):
        if p == 2:
            seen = np.unpackbits(seen.view(np.uint8), count=size,
                                 bitorder="little")
        ranks[seen != 0] = 2 * s
    return ranks


_BATCH = 1 << 16
# p = 2 census batches, in words of 64 forms: word operations are cheap
_WORDS = 1 << 12


def _batches(p: int, n: int):
    """All forms on F_p^n in index order, in the census's batches, as `rank`
    lanes: words for p = 2, `kernel_dtype` digits for odd p."""
    m = n * (n - 1) // 2
    if p == 2:
        return _word_batches(m, _WORDS)
    return digit_batches(p, m, _BATCH, kernel_dtype(p, n))


def _packed(lanes: np.ndarray, p: int) -> np.ndarray:
    """The forms whose lane is nonzero, one bit each, 8 to a uint8."""
    return (lanes.view(np.uint8) if p == 2
            else np.packbits(lanes != 0, bitorder="little"))


def _popcount(bits: np.ndarray, size: int) -> int:
    """Set bits among the first `size` of a packed uint8 array (bit t of
    byte b is bit 8b + t): the whole bytes, then the low bits of the next."""
    whole, rest = divmod(size, 8)
    tail = int(bits[whole]) & (1 << rest) - 1 if rest else 0
    return int(np.bitwise_count(bits[:whole]).sum()) + tail.bit_count()


@lru_cache(maxsize=1)
def _ranked(p: int, n: int) -> tuple[list[np.ndarray], ...]:
    """For each census batch of the last (p, n) swept, in index order, the
    packed masks of its forms of rank >= 2, 4, ...: n // 2 bits a form."""
    return tuple([_packed(seen, p) for seen in _levels(lanes, p, n)]
                 for lanes in _batches(p, n))


def census(p: int, n: int, alpha: tuple[int, ...]) -> np.ndarray:
    """Tally all skew forms by (rank, <form, alpha> == 0 mod p)."""
    masks = _ranked(p, n)
    alpha = [a % p for a in alpha]
    # form t of batch b has index b * size + t: its pairing with alpha is
    # that of form t of the first batch plus that of the index b * size
    size = p ** (n * (n - 1) // 2) // len(masks)
    first = next(_batches(p, n))
    pairing = np.zeros(first.shape[1], first.dtype)
    for a, row in zip(alpha, first):
        if a:
            pairing = pairing ^ row if p == 2 else _mod(pairing + a * row, p)
    zeros = {}  # target -> packed forms of the first batch pairing to it
    # row s: forms of rank >= 2s, all of them and those of pairing 0
    tally = np.zeros((n // 2 + 2, 2), np.int64)
    for b, levels in enumerate(masks):
        target = -sum(a * (b * size // p ** e % p)
                      for e, a in enumerate(alpha)) % p
        if target not in zeros:
            zeros[target] = (_packed(pairing if target else ~pairing, p)
                             if p == 2 else _packed(pairing == target, p))
        zero = zeros[target]
        tally[0] += size, _popcount(zero, size)
        for s, level in enumerate(levels, 1):
            tally[s] += _popcount(level, size), _popcount(level & zero, size)
    counts = np.zeros((n + 1, 2), np.int64)
    counts[::2] = tally[:-1] - tally[1:]
    counts[:, 0] -= counts[:, 1]
    return counts


def _isotropic_lanes(src: np.ndarray, rows: np.ndarray, take: np.ndarray,
                     seen: np.ndarray, terms, p: int) -> int:
    """Isotropic bases in one batch of `isotropic`: pattern j fills the next
    take[j] lanes with the first take[j] columns of its `src` rows
    rows[:, :, j] (entry c of x_r is row rows[r, c, j]).  `seen` starts at
    the padding."""
    d, n, _ = rows.shape
    x = np.empty((d, n, seen.size), src.dtype)
    # patterns of equal take are copied together, row by row
    lane, cuts = 0, np.flatnonzero(np.diff(take)) + 1
    for js in np.split(np.arange(take.size), cuts):
        k, m = int(take[js[0]]), js.size
        x[:, :, lane:lane + k * m] = src[:, :k][rows[:, :, js]].reshape(
            d, n, k * m)
        lane += k * m
    if p == 2:
        times, plus = np.bitwise_and, np.bitwise_xor
    else:
        times, plus = np.multiply, np.add
    for s in range(1, d):
        image = np.zeros((n, seen.size), src.dtype)  # A x_s
        for u, c, a in terms:
            plus(image[u], x[s, c] if a == 1 else a * x[s, c], out=image[u])
        if p != 2:
            _mod(image, p)
        for r in range(s):
            gram = plus.reduce(times(x[r], image), axis=0, dtype=src.dtype)
            seen |= gram if p == 2 else _mod(gram, p)
    if p == 2:
        return _popcount((~seen).view(np.uint8), 64 * seen.size)
    return int(np.count_nonzero(seen == 0))


def isotropic(p: int, n: int, d: int, form) -> int:
    """Number of d-dimensional subspaces of F_p^n on which the skew form with
    n x n matrix A = `form` vanishes: the reduced echelon bases x_0..x_{d-1}
    of every pivot pattern are enumerated, and a basis counts when every
    Gram entry x_r^T A x_s (r < s) is 0 mod p.  Every d is swept: d = 0 has
    one empty basis, and every line is isotropic.

    One digit table serves every pattern: `_word_batches` (p = 2) or
    `digit_batches` (odd p) over the widest pattern's free entries.  The
    first p^w columns of a table batch carry every value of the low w
    digits, and batch h holds bases h C .. (h+1) C - 1 of each pattern wider
    than its C columns.  The patterns with bases in table batch h are laid
    end to end, widest first, as (d, n, B) lanes: uint64 words, 64 bases to
    a word, for p = 2, `kernel_dtype` digits for odd p (int64 when no
    pattern has a free entry).  They are swept
    `_WORDS` words or `_BATCH` bases at a time, rounded down to whole table
    batches (at least one), so no pattern straddles two sweep batches.  The
    bits past the 2^w bases of a narrow pattern in its one word are
    padding, kept out of the count."""
    a = np.array(form, np.int64) % p
    terms = [(u, c, int(a[u, c])) for u, c in zip(*np.nonzero(a))]
    # widest first: pattern P has d(n - d) - sum(P_r - r) free entries
    patterns = sorted(combinations(range(n), d), key=sum)
    # rows[r, c, j]: the source row of entry c of x_r in pattern j: row 0
    # is 0, row 1 the pivot's 1 and row 2 + e free entry e
    rows = np.zeros((d, n, len(patterns)), np.intp)
    widths = [0] * len(patterns)
    for j, pivots in enumerate(patterns):
        for r, pivot in enumerate(pivots):
            rows[r, pivot, j] = 1
            for c in range(pivot + 1, n):
                if c not in pivots:
                    rows[r, c, j] = 2 + widths[j]
                    widths[j] += 1
    width = max(widths, default=0)  # no pattern when d > n
    if p == 2:
        dtype = np.uint64
        tables, cap, one = _word_batches(width, _WORDS), _WORDS, ~np.uint64(0)
        sizes = [-(-2 ** w // 64) for w in widths]
        pad = [(1 << 64) - (1 << 2 ** w) if w < 6 else 0 for w in widths]
    else:
        # no free entry (d = 0 or n): entries 0 and 1, sums below n p
        dtype = kernel_dtype(p, n) if width else np.int64
        tables, cap, one = digit_batches(p, width, _BATCH, dtype), _BATCH, 1
        sizes, pad = [p ** w for w in widths], [0] * len(widths)
    pad = np.array(pad, dtype)
    count = 0
    for h, table in enumerate(tables):
        cols = table.shape[1]
        src = np.empty((width + 2, cols), dtype)
        src[0], src[1], src[2:] = 0, one, table
        # the widest patterns have bases in table batch h, up to C each;
        # takes are non-increasing powers of p that divide the sweep batch
        take = np.array([min(lanes - h * cols, cols) for lanes in sizes
                         if lanes > h * cols], np.int64)
        ends, batch = np.cumsum(take), max(cap // cols, 1) * cols
        for start in range(0, int(take.sum()), batch):
            lo, hi = np.searchsorted(ends, [start, start + batch], "right")
            count += _isotropic_lanes(src, rows[:, :, lo:hi], take[lo:hi],
                                      np.repeat(pad[lo:hi], take[lo:hi]),
                                      terms, p)
    return count
