"""The census kernel for the finite-field sweeps.

A census walks every skew form on F_p^n (all p^(n(n-1)/2) strict
upper-triangle fillings) and tallies them by (rank, pairing-with-alpha == 0).
The rank of a skew matrix is the largest size of a principal minor with a
nonzero Pfaffian, so the kernel evaluates the Pfaffians of all principal
minors with numpy, for one batch of forms at a time, and needs no
elimination.  The tallies form an int64 array of shape (n+1, 2); batches
combine by addition.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np


def pair_index(n: int) -> list[tuple[int, int]]:
    """Row-major order of the strict upper triangle: (0,1), (0,2), ..."""
    return [(r, c) for r in range(n) for c in range(r + 1, n)]


def _pfaffian_matchings(size: int) -> list[tuple[int, tuple[tuple[int, int], ...]]]:
    """Signed perfect matchings of {0..size-1}; the Pfaffian is their sum."""
    if size == 0:
        return [(1, ())]
    out = []
    rest = list(range(1, size))
    for t, partner in enumerate(rest):
        sign = -1 if t % 2 else 1
        remaining = [x for x in rest if x != partner]
        for sub_sign, sub_pairs in _pfaffian_matchings(size - 2):
            pairs = ((0, partner),) + tuple(
                (remaining[a], remaining[b]) for a, b in sub_pairs)
            out.append((sign * sub_sign, pairs))
    return out


def _minor_terms(n: int):
    # for each even size s: list of (subset entry-index tuples per matching, sign)
    eidx = {rc: e for e, rc in enumerate(pair_index(n))}
    levels = []
    for s in range(2, n + 1, 2):
        matchings = _pfaffian_matchings(s)
        subsets = []
        for subset in combinations(range(n), s):
            per_matching = []
            for sign, pairs in matchings:
                cols = tuple(eidx[(subset[a], subset[b])] for a, b in pairs)
                per_matching.append((sign, cols))
            subsets.append(per_matching)
        levels.append((s, subsets))
    return levels


def census(p: int, n: int, alpha: tuple[int, ...],
           batch: int = 1 << 16) -> np.ndarray:
    """Tally all skew forms by (rank, <form, alpha> == 0 mod p)."""
    m = n * (n - 1) // 2
    total = p ** m
    levels = _minor_terms(n)
    alpha_vec = np.array(alpha, np.int64)
    powers = p ** np.arange(m, dtype=np.int64)
    counts = np.zeros((n + 1, 2), np.int64)
    for lo in range(0, total, batch):
        hi = min(lo + batch, total)
        idx = np.arange(lo, hi, dtype=np.int64)
        digits = (idx[:, None] // powers[None, :]) % p
        pz = ((digits @ alpha_vec) % p == 0).astype(np.int64)
        rank = np.zeros(hi - lo, np.int64)
        for s, subsets in levels:
            nonzero = np.zeros(hi - lo, bool)
            for per_matching in subsets:
                acc = np.zeros(hi - lo, np.int64)
                for sign, cols in per_matching:
                    term = digits[:, cols[0]].copy()
                    for c in cols[1:]:
                        term *= digits[:, c]
                    if sign > 0:
                        acc += term
                    else:
                        acc -= term
                nonzero |= (acc % p) != 0
            rank[nonzero] = s
        tallies = np.bincount(rank * 2 + pz, minlength=2 * (n + 1))
        counts += tallies.reshape(n + 1, 2)
    return counts
