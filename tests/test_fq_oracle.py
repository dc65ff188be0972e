"""Finite-field counting oracle: kernels, guards, and agreement with the
symbolic E-polynomials at q = p."""

import random
import tracemalloc
from functools import cache
from itertools import combinations, product

import numpy as np
import pytest

import pfes
from pfes import _kernels, efun, fq_oracle, qcore
from pfes._kernels import digit_batches, kernel_dtype, rank
from pfes.efun import RangeError, nondeg_skew_E, rank_stratum_E
from pfes.identities import (
    CutParams, f_circ, isotropic_E, isotropic_subspaces_E,
)
from pfes.qcore import gauss_binomial
from pfes.fq_oracle import (
    SkewFormFp, TooLarge,
    count_cut_stratum, count_isotropic, count_rank_stratum, pairing,
    skew_rank,
)


def census_totals(p, n):
    """Projectivized stratum sizes by rank, which partition projective
    space; test_acceptance imports it from here."""
    return {rank: count_rank_stratum(p, n, rank) for rank in range(0, n + 1, 2)}


@cache
def ranked_forms(p, n):
    """Every skew form on F_p^n with its skew_rank, no kernels involved."""
    m = n * (n - 1) // 2
    return [(form, skew_rank(form)) for form in
            (SkewFormFp(p, n, entries)
             for entries in product(range(p), repeat=m))]


def brute_force_census(p, n, alpha):
    """Reference tally straight from skew_rank and pairing."""
    counts = np.zeros((n + 1, 2), np.int64)
    for form, r in ranked_forms(p, n):
        counts[r, 1 if pairing(form, alpha) == 0 else 0] += 1
    return counts


def iter_subspaces(p, n, d):
    """Reference enumerator: all d-dimensional subspaces of F_p^n, one
    canonical reduced row-echelon basis each (pivot columns first, then
    free entries)."""
    if d == 0:
        yield ()
        return
    for pivots in combinations(range(n), d):
        free = [(r, c) for r in range(d) for c in range(n)
                if c > pivots[r] and c not in pivots]
        for values in product(range(p), repeat=len(free)):
            rows = [[0] * n for _ in range(d)]
            for r, pc in enumerate(pivots):
                rows[r][pc] = 1
            for (r, c), v in zip(free, values):
                rows[r][c] = v
            yield tuple(tuple(row) for row in rows)


def random_invertible(p, n, rng):
    while True:
        g = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        mat = [row[:] for row in g]
        rank = 0
        for col in range(n):
            piv = next((r for r in range(rank, n) if mat[r][col] % p), None)
            if piv is None:
                continue
            mat[rank], mat[piv] = mat[piv], mat[rank]
            inv = pow(mat[rank][col] % p, -1, p)
            mat[rank] = [(x * inv) % p for x in mat[rank]]
            for r in range(n):
                if r != rank and mat[r][col] % p:
                    f = mat[r][col]
                    mat[r] = [(x - f * y) % p for x, y in zip(mat[r], mat[rank])]
            rank += 1
        if rank == n:
            return g


class TestSkewRank:
    def test_zero_form(self):
        assert skew_rank(SkewFormFp.zero(2, 4)) == 0

    def test_single_block(self):
        assert skew_rank(SkewFormFp.standard(2, 4, 1)) == 2

    def test_full_rank_instance(self):
        # entries (0,3) = (1,2) = 1: Pfaffian w01 w23 - w02 w13 + w03 w12 = 1
        assert skew_rank(SkewFormFp(2, 4, (0, 0, 1, 1, 0, 0))) == 4
        # degenerate Pfaffian drops the rank to 2
        assert skew_rank(SkewFormFp(2, 4, (1, 0, 1, 1, 0, 1))) == 2

    def test_standard_forms_have_declared_rank(self):
        for p in (2, 3, 5):
            for n in (4, 5, 6):
                for i in range(0, n // 2 + 1):
                    assert skew_rank(SkewFormFp.standard(p, n, i)) == 2 * i

    def test_standard_rank_beyond_n_names_the_values(self):
        with pytest.raises(RangeError, match=r"got i=4, n=7"):
            SkewFormFp.standard(2, 7, 4)

    def test_entries_reduced_mod_p(self):
        form = SkewFormFp(3, 3, (4, -1, 3))
        assert form.entries == (1, 2, 0)


class TestConjugated:
    @pytest.mark.parametrize("g", [
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        [[1, 0], [0, 1]],
        [[1, 0, 0], [0, 1], [0, 0, 1]],
    ])
    def test_wrong_shape_is_a_range_error(self, g):
        with pytest.raises(RangeError, match=r"^g must have 3 rows of 3 entries"):
            SkewFormFp.standard(3, 3, 1).conjugated(g)

    def test_singular_matrix_is_a_range_error(self):
        # invertible over the integers (det 3), singular mod 3
        g = [[1, 1, 0], [1, -2, 0], [0, 0, 1]]
        with pytest.raises(RangeError, match=r"^g is singular mod 3$"):
            SkewFormFp.standard(3, 3, 1).conjugated(g)


class TestCensusKernels:
    @pytest.mark.parametrize("p,n", [(2, 4), (3, 4), (2, 5)])
    def test_kernels_match_pure_python(self, p, n):
        alpha = SkewFormFp.standard(p, n, 1)
        want = brute_force_census(p, n, alpha)
        got = _kernels.census(p, n, alpha.entries)
        assert (got == want).all()

    @pytest.fixture
    def cold_ranks(self):
        _kernels._ranked.cache_clear()
        yield
        _kernels._ranked.cache_clear()

    @pytest.fixture
    def ranked_lanes(self, monkeypatch):
        """Lanes handed to the subset recursion, one entry per batch."""
        calls = []
        levels = _kernels._levels

        def counted_levels(lanes, p_, n_):
            calls.append(lanes.shape[1])
            return levels(lanes, p_, n_)

        monkeypatch.setattr(_kernels, "_levels", counted_levels)
        return calls

    def test_batched_sweep_combines_tallies(self, monkeypatch, cold_ranks,
                                            ranked_lanes):
        alpha = SkewFormFp.standard(3, 4, 1)
        want = brute_force_census(3, 4, alpha)
        for batch in (1 << 16, 17, 1):
            # an empty memo makes each batch size rank afresh
            _kernels._ranked.cache_clear()
            monkeypatch.setattr(_kernels, "_BATCH", batch)
            got = _kernels.census(3, 4, alpha.entries)
            assert (got == want).all(), batch
        # the stored masks fix the batches of the tally: another batch size
        # neither ranks again nor changes the result
        ranked = len(ranked_lanes)
        monkeypatch.setattr(_kernels, "_BATCH", 5)
        assert (_kernels.census(3, 4, alpha.entries) == want).all()
        assert _kernels._ranked.cache_info().hits == 1
        assert len(ranked_lanes) == ranked

    @pytest.mark.parametrize("p,n,batch", [(2, 5, 1 << 16), (3, 4, 17),
                                           (5, 4, 700)])
    def test_second_alpha_reuses_ranks(self, monkeypatch, cold_ranks,
                                       ranked_lanes, p, n, batch):
        def lanes(p, n):
            """Lanes of one sweep: words of 64 forms for p = 2."""
            forms = p ** (n * (n - 1) // 2)
            return max(forms // 64, 1) if p == 2 else forms

        monkeypatch.setattr(_kernels, "_BATCH", batch)
        monkeypatch.setattr(_kernels, "_WORDS", max(batch // 64, 1))
        rng = random.Random(7 * p + n)
        moved = SkewFormFp.standard(p, n, 2).conjugated(
            random_invertible(p, n, rng))
        first = _kernels.census(p, n, SkewFormFp.standard(p, n, 1).entries)
        assert (first == brute_force_census(
            p, n, SkewFormFp.standard(p, n, 1))).all()
        assert sum(ranked_lanes) == lanes(p, n)
        ranked = len(ranked_lanes)
        second = _kernels.census(p, n, moved.entries)
        assert (second == brute_force_census(p, n, moved)).all()
        assert len(ranked_lanes) == ranked
        # only the last (p, n) keeps its masks: (p, n) is ranked again after
        # another (p, n), which is itself kept
        _kernels.census(2, 3, (1, 0, 1))
        assert _kernels._ranked.cache_info().currsize == 1
        swept = len(ranked_lanes)
        _kernels.census(2, 3, (0, 1, 1))
        assert len(ranked_lanes) == swept
        _kernels.census(p, n, moved.entries)
        assert sum(ranked_lanes[swept:]) == lanes(p, n)

    @pytest.mark.parametrize("words", [1, 3, 1 << 12])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_packed_census_at_word_boundaries(self, monkeypatch, cold_ranks,
                                              n, words):
        # 2, 8, 64, 1,024 and 32,768 forms: part of a word, one word, and
        # many words in one or many batches
        monkeypatch.setattr(_kernels, "_WORDS", words)
        m = n * (n - 1) // 2
        rng = random.Random(words * 10 + n)
        for alpha in [(0,) * m] + [tuple(rng.randrange(2) for _ in range(m))
                                   for _ in range(3)]:
            want = brute_force_census(2, n, SkewFormFp(2, n, alpha))
            assert (_kernels.census(2, n, alpha) == want).all(), alpha

    @pytest.mark.parametrize("batch", [1, 17, 701])
    @pytest.mark.parametrize("p", [3, 5])
    def test_odd_census_at_odd_batch_sizes(self, monkeypatch, cold_ranks,
                                           p, batch):
        monkeypatch.setattr(_kernels, "_BATCH", batch)
        rng = random.Random(p * 1000 + batch)
        for alpha in [(0,) * 6] + [tuple(rng.randrange(p) for _ in range(6))
                                   for _ in range(2)]:
            want = brute_force_census(p, 4, SkewFormFp(p, 4, alpha))
            assert (_kernels.census(p, 4, alpha) == want).all(), alpha

    @pytest.mark.parametrize("p,n,batch", [(2, 3, 1 << 16), (2, 7, 1 << 16),
                                           (2, 6, 192), (3, 5, 701),
                                           (5, 4, 700)])
    def test_memo_keeps_only_packed_levels(self, monkeypatch, cold_ranks,
                                           p, n, batch):
        monkeypatch.setattr(_kernels, "_BATCH", batch)
        monkeypatch.setattr(_kernels, "_WORDS", max(batch // 64, 1))
        _kernels.census(p, n, (0,) * (n * (n - 1) // 2))
        memo = _kernels._ranked(p, n)
        assert all(len(levels) == n // 2 for levels in memo)
        # n // 2 bits a form, each batch padded to whole words
        forms = p ** (n * (n - 1) // 2)
        nbytes = sum(mask.nbytes for levels in memo for mask in levels)
        assert nbytes <= n // 2 * (-(-forms // 8) + 8 * len(memo))


def bincount_tally(p, n, alpha):
    """Reference census tally: each form's pairing with alpha from its
    index's base-p digits, and one bincount per column over the ranks that
    `rank` gives every form, batch by batch."""
    m = n * (n - 1) // 2
    index = np.arange(p ** m, dtype=np.int64)
    pairing = np.zeros(p ** m, np.int64)
    for e, a in enumerate(alpha):
        pairing += a * (index // p ** e % p)
    zero = pairing % p == 0
    ranks = np.concatenate([rank(digits, p, n) for digits
                            in digit_batches(p, m, 1 << 16, np.int64)])
    return np.stack([np.bincount(ranks[~zero], minlength=n + 1),
                     np.bincount(ranks[zero], minlength=n + 1)], axis=1)


class TestTally:
    @pytest.mark.parametrize("p,n", [(2, 6), (3, 5), (5, 4)])
    def test_per_rank_counts_match_bincount(self, p, n):
        m = n * (n - 1) // 2
        rng = random.Random(97 * p + n)
        for alpha in [(0,) * m, tuple(rng.randrange(p) for _ in range(m))]:
            got = _kernels.census(p, n, alpha)
            assert (got == bincount_tally(p, n, alpha)).all(), alpha


class TestPopcount:
    def test_matches_unpacked_bits(self):
        bits = np.random.default_rng(130).integers(0, 256, 17, np.uint8)
        for size in range(131):
            want = int(np.unpackbits(bits, count=size, bitorder="little").sum())
            assert _kernels._popcount(bits, size) == want, size
            # the same count when no byte follows the last partial one
            assert _kernels._popcount(bits[:-(-size // 8)], size) == want, size


def forms_as_digits(forms):
    """(m, B) digit rows of a list of forms on the same F_p^n."""
    return np.array([form.entries for form in forms], np.int64).T


class TestRank:
    @pytest.mark.parametrize("n", range(2, 10))
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_matches_skew_rank(self, p, n):
        rng = random.Random(1000 * p + n)
        m = n * (n - 1) // 2
        forms = [SkewFormFp(p, n, tuple(rng.randrange(p) for _ in range(m)))
                 for _ in range(30)]
        # every even rank, hidden by a random change of basis
        for i in range(n // 2 + 1):
            for _ in range(3):
                g = random_invertible(p, n, rng)
                forms.append(SkewFormFp.standard(p, n, i).conjugated(g))
        got = rank(forms_as_digits(forms), p, n)
        want = [skew_rank(form) for form in forms]
        assert got.tolist() == want
        assert set(want[30:]) == set(range(0, n + 1, 2))

    @pytest.mark.parametrize("n", [4, 7])
    @pytest.mark.parametrize("size", [1, 63, 64, 65, 200])
    def test_gf2_words_at_and_around_word_boundaries(self, size, n):
        rng = random.Random(size * 10 + n)
        m = n * (n - 1) // 2
        forms = [SkewFormFp.standard(2, n, rng.randrange(n // 2 + 1))
                 .conjugated(random_invertible(2, n, rng))
                 if t % 2 else
                 SkewFormFp(2, n, tuple(rng.randrange(2) for _ in range(m)))
                 for t in range(size)]
        got = rank(forms_as_digits(forms), 2, n)
        assert got.dtype == np.int8
        assert got.tolist() == [skew_rank(form) for form in forms]

    @pytest.mark.parametrize("n", range(1, 6))
    def test_gf2_every_form_on_small_spaces(self, n):
        m = n * (n - 1) // 2
        forms = [SkewFormFp(2, n, entries)
                 for entries in product(range(2), repeat=m)]
        got = rank(forms_as_digits(forms), 2, n)
        assert got.tolist() == [skew_rank(form) for form in forms]

    @pytest.mark.parametrize("n", [4, 7])
    def test_gf2_ranks_whatever_the_digit_dtype(self, n):
        m = n * (n - 1) // 2
        digits = np.random.default_rng(n).integers(0, 2, (m, 300))
        want = rank(digits.astype(np.int8), 2, n)
        for dtype in (np.int64, np.bool_, np.uint8):
            assert (rank(digits.astype(dtype), 2, n) == want).all(), dtype
        assert want.tolist() == [skew_rank(SkewFormFp(2, n, tuple(col)))
                                 for col in digits.T.tolist()]

    def test_dtype_is_the_smallest_that_holds_the_sums(self):
        # (p-1)^2 (n-1) against int8's 127
        assert kernel_dtype(3, 32) is np.int8
        assert kernel_dtype(3, 33) is np.int16
        assert kernel_dtype(5, 9) is np.int16
        assert kernel_dtype(2 ** 16 + 1, 4) is np.int64

    def test_dtype_bound_error(self):
        p = 2 ** 32 + 15
        with pytest.raises(OverflowError):
            kernel_dtype(p, 4)
        with pytest.raises(OverflowError):
            rank(np.zeros((6, 1), np.int64), p, 4)

    def test_rejects_wrong_digit_shape(self):
        with pytest.raises(ValueError):
            rank(np.zeros((5, 3), np.int64), 2, 4)


class TestRankStratumCounts:
    def test_anchor_values(self):
        assert count_rank_stratum(2, 5, 2) == 155
        assert count_rank_stratum(2, 4, 4) == 28
        assert count_rank_stratum(2, 4, 4) == nondeg_skew_E(2)(2)

    def test_zero_rank_is_projectively_empty(self):
        assert count_rank_stratum(3, 4, 0) == 0

    def test_partition_of_projective_space(self):
        for p, n in [(2, 4), (2, 5), (3, 4), (3, 5)]:
            m = n * (n - 1) // 2
            assert sum(census_totals(p, n).values()) == (p ** m - 1) // (p - 1)

    @pytest.mark.parametrize("p,n", [(2, 4), (2, 5), (2, 6), (3, 4), (3, 5)])
    def test_matches_symbolic_stratum_polynomials(self, p, n):
        for i in range(1, n // 2 + 1):
            assert count_rank_stratum(p, n, 2 * i) == rank_stratum_E(i, n)(p)

    def test_nondegenerate_six_space_count(self):
        assert count_rank_stratum(2, 6, 6) == nondeg_skew_E(3)(2)

    def test_guard(self):
        with pytest.raises(TooLarge, match="override with --max-enum or max_enum"):
            count_rank_stratum(3, 8, 2)

    def test_guard_names_the_count(self):
        with pytest.raises(TooLarge, match=rf"needs {3 ** 28} candidates, "
                                           r"guard is 16777216 \("):
            count_rank_stratum(3, 8, 2)

    def test_guard_sizes_a_count_too_long_to_print(self):
        # 2^19900 has more decimal digits than int-to-str conversion allows
        with pytest.raises(TooLarge, match=r"needs at least 2\^19900 "
                                           r"candidates, guard is 16777216"):
            count_rank_stratum(2, 200, 2)

    def test_guard_bounds_a_census_before_sizing_it(self, monkeypatch):
        def no_count(*args):
            raise AssertionError("sized the census exactly")

        def no_form(*args):
            raise AssertionError("built a form")

        p = 2147483647
        monkeypatch.setattr(fq_oracle, "_forms", no_count)
        monkeypatch.setattr(SkewFormFp, "zero", no_form)
        # p^(1000 * 999 / 2) >= 2^(30 * 499500)
        with pytest.raises(TooLarge, match=r"needs at least 2\^14985000 "
                                           r"candidates, guard is 16777216"):
            count_rank_stratum(p, 1000, 2)
        with pytest.raises(TooLarge, match=r"needs at least 2\^19900 "):
            count_rank_stratum(2, 200, 2)

    def test_guard_argument_override(self):
        with pytest.raises(TooLarge):
            count_rank_stratum(2, 4, 2, max_enum=5)

    def test_guard_holds_for_a_memoized_census(self):
        count_rank_stratum(2, 4, 2)
        with pytest.raises(TooLarge):
            count_rank_stratum(2, 4, 2, max_enum=5)

    def test_parameter_validation(self):
        with pytest.raises(RangeError):
            count_rank_stratum(4, 4, 2)
        with pytest.raises(RangeError):
            count_rank_stratum(2, 4, 3)

    @pytest.mark.parametrize("p, n, max_enum", [
        (2 ** 1100 + 1, 4, None),            # beyond a float
        (10 ** 18 + 3, 4, None),             # a prime, but trial division is long
        (3037000507, 2, 100_000_000_000),    # a prime past the int64 sums
    ])
    def test_huge_prime_is_a_range_error(self, p, n, max_enum):
        with pytest.raises(RangeError, match=r"^p must be a prime below 2\^31"):
            count_rank_stratum(p, n, 2, max_enum)

    def test_primes_are_bounded_at_two_to_the_31(self):
        assert SkewFormFp.zero(2 ** 31 - 1, 2).p == 2 ** 31 - 1
        with pytest.raises(RangeError, match=r"below 2\^31, got 2147483659$"):
            SkewFormFp.zero(2 ** 31 + 11, 2)


class TestSubspaceEnumeration:
    @pytest.mark.parametrize("p,n,d", [(2, 4, 2), (3, 4, 2), (2, 5, 3)])
    def test_echelon_count_matches_gaussian_binomial(self, p, n, d):
        got = sum(1 for _ in iter_subspaces(p, n, d))
        assert got == gauss_binomial(n, d, 1)(p)

    def test_echelon_bases_are_distinct(self):
        seen = set(iter_subspaces(2, 4, 2))
        assert len(seen) == gauss_binomial(4, 2, 1)(2)


def enumerated_isotropic(p, n, d, alpha):
    """Reference count: isotropic bases among iter_subspaces, in Python."""
    a = alpha.matrix()
    return sum(
        all(sum(x[u] * a[u][v] * y[v] for u in range(n) for v in range(n))
            % p == 0 for r, x in enumerate(basis) for y in basis[r + 1:])
        for basis in iter_subspaces(p, n, d))


class TestIsotropicCounts:
    @pytest.mark.parametrize("p,n", [(2, 4), (2, 5), (2, 6), (3, 4), (5, 3),
                                     (3, 5)])
    def test_streamed_sweep_matches_enumeration(self, monkeypatch, p, n):
        rng = random.Random(31 * p + n)
        for i in range(n // 2 + 1):
            moved = SkewFormFp.standard(p, n, i).conjugated(
                random_invertible(p, n, rng))
            for d in range(n + 1):
                want = enumerated_isotropic(p, n, d, moved)
                # at the default sizes every pivot pattern shares one batch
                assert count_isotropic(p, n, d, moved) == want, (i, d)
                # batches of p^2 bases (odd p) or of one or two words
                # (p = 2) split every pivot pattern with more bases
                with monkeypatch.context() as m:
                    m.setattr(_kernels, "_BATCH", p * p + 1)
                    m.setattr(_kernels, "_WORDS", 1)
                    got = _kernels.isotropic(p, n, d, moved.matrix())
                assert got == want, (i, d)

    @pytest.fixture
    def swept_widths(self, monkeypatch):
        """The free-entry counts of the patterns in each batch swept."""
        batches = []
        lanes = _kernels._isotropic_lanes

        def recorded(src, rows, *args):
            batches.append([int((rows[:, :, j] >= 2).sum())
                            for j in range(rows.shape[2])])
            return lanes(src, rows, *args)

        monkeypatch.setattr(_kernels, "_isotropic_lanes", recorded)
        return batches

    @pytest.mark.parametrize("split", [False, True])
    @pytest.mark.parametrize("p,n", [(2, 7), (3, 5), (5, 4)])
    def test_batches_at_word_and_batch_boundaries(self, monkeypatch,
                                                  swept_widths, p, n, split):
        # the 2-planes of F_p^n fall into patterns of p^w bases for every
        # w <= 2n - 4: for p = 2, patterns of 1, 2, 32, 64 and 128 bases
        # (part of a word, one word, two words) and wider ones
        if split:
            monkeypatch.setattr(_kernels, "_BATCH", p * p)
            monkeypatch.setattr(_kernels, "_WORDS", 2)
        rng = random.Random(17 * p + n)
        forms = [SkewFormFp.zero(p, n)] + [
            SkewFormFp.standard(p, n, i).conjugated(
                random_invertible(p, n, rng)) for i in (1, n // 2)]
        for alpha in forms:
            swept_widths.clear()
            want = enumerated_isotropic(p, n, 2, alpha)
            assert _kernels.isotropic(p, n, 2, alpha.matrix()) == want, alpha
            widest = 2 * n - 4
            if split:
                # the widest pattern streams through batches of its own, of
                # p^2 bases or 2 words, while narrow ones still share
                alone = [b for b in swept_widths if b == [widest]]
                assert len(alone) == (p ** (widest - 2) if p > 2
                                      else 2 ** (widest - 7))
                assert any(len(b) > 1 for b in swept_widths)
            else:
                assert len(swept_widths) == 1
                assert set(swept_widths[0]) == set(range(widest + 1))

    def test_sweep_memory_is_bounded(self):
        rng = random.Random(94)
        alpha = SkewFormFp.standard(2, 9, 2).conjugated(
            random_invertible(2, 9, rng))
        tracemalloc.start()
        try:
            count = _kernels.isotropic(2, 9, 4, alpha.matrix())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == isotropic_E(2, 2, 9)(2)
        # 3,309,747 subspaces stream through batches of 2^12 words: about
        # 4.1 MB, however many subspaces the sweep has
        assert peak < 5 * 2 ** 20, peak

    @pytest.mark.parametrize("i", range(1, 5))
    def test_benchmark_sweep_matches_symbolic(self, i):
        rng = random.Random(800 + i)
        alpha = SkewFormFp.standard(2, 8, i).conjugated(
            random_invertible(2, 8, rng))
        assert count_isotropic(2, 8, 4, alpha) == isotropic_E(2, i, 8)(2)

    def test_guard_raises_before_any_work(self, monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep started")

        monkeypatch.setattr(_kernels, "isotropic", no_sweep)
        alpha = SkewFormFp.standard(2, 9, 2)
        with pytest.raises(TooLarge):
            count_isotropic(2, 9, 4, alpha, max_enum=10 ** 6)
        with pytest.raises(TooLarge):
            count_isotropic(2, 12, 6, SkewFormFp.standard(2, 12, 3))

    def test_guard_names_the_exact_size_of_a_sweep(self, monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep started")

        monkeypatch.setattr(_kernels, "isotropic", no_sweep)
        # [12, 6]_2 is far over the guard but short enough to print
        with pytest.raises(TooLarge, match=r"needs 230674393235 candidates, "
                                           r"guard is 16777216 "):
            count_isotropic(2, 12, 6, SkewFormFp.standard(2, 12, 3))

    def test_guard_needs_no_gaussian_binomial_polynomial(self, monkeypatch):
        def no_polynomial(*args, **kwargs):
            raise AssertionError("built the Gaussian binomial polynomial")

        monkeypatch.setattr(qcore, "gauss_binomial", no_polynomial)
        monkeypatch.setattr(fq_oracle, "gauss_binomial", no_polynomial,
                            raising=False)
        with pytest.raises(TooLarge, match=r"needs at least 2\^90000 "):
            count_isotropic(2, 600, 300, SkewFormFp.standard(2, 600, 1))

    def test_guard_bounds_a_sweep_before_sizing_it(self, monkeypatch):
        def no_count(*args):
            raise AssertionError("sized the sweep exactly")

        p = 2147483647
        with monkeypatch.context() as m:
            m.setattr(fq_oracle, "_subspaces", no_count)
            # p^(200 * 200) >= 2^(30 * 40000)
            with pytest.raises(TooLarge, match=r"needs at least 2\^1200000 "
                                               r"candidates, guard is 16777216"):
                count_isotropic(p, 400, 200, SkewFormFp.standard(p, 400, 1))
        # 2^16 passes a guard of 10^5, and the exact [8, 4]_2 does not
        with pytest.raises(TooLarge, match=r"needs 200787 candidates, "
                                           r"guard is 100000 "):
            count_isotropic(2, 8, 4, SkewFormFp.standard(2, 8, 2),
                            max_enum=10 ** 5)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_every_dimension_is_swept(self, monkeypatch, p):
        swept, sweep = [], _kernels.isotropic

        def recorded(p, n, d, form):
            swept.append(d)
            return sweep(p, n, d, form)

        monkeypatch.setattr(_kernels, "isotropic", recorded)
        for d in range(5):
            count_isotropic(p, 4, d, SkewFormFp.standard(p, 4, 1))
        assert swept == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("p,n", [(2, 1), (2, 4), (2, 7), (3, 1), (3, 3),
                                     (3, 5), (5, 2), (5, 4), (131, 3)])
    def test_origin_and_lines_are_counted(self, p, n):
        rng = random.Random(53 * p + n)
        alpha = SkewFormFp.standard(p, n, n // 2).conjugated(
            random_invertible(p, n, rng))
        for d in (0, 1):
            assert _kernels.isotropic(p, n, d, alpha.matrix()) == \
                gauss_binomial(n, d, 1)(p), d

    def test_one_subspace_sweeps_at_any_prime(self):
        # no free entry: the sums stay small even where (p-1)^2 (n-1) does
        # not fit int64
        p = 2 ** 31 - 1
        with pytest.raises(OverflowError):
            kernel_dtype(p, 4)
        for i, want in [(0, 1), (1, 0), (2, 0)]:
            form = SkewFormFp.standard(p, 4, i).matrix()
            assert _kernels.isotropic(p, 4, 0, form) == 1
            assert _kernels.isotropic(p, 4, 4, form) == want, i

    @pytest.mark.parametrize("p", [2, 3, 131])
    def test_subspace_count_is_the_gaussian_binomial(self, p):
        for n in range(8):
            for d in range(n + 1):
                assert fq_oracle._subspaces(p, n, d) == \
                    gauss_binomial(n, d, 1)(p), (n, d)

    def test_anchor_value(self):
        assert count_isotropic(2, 5, 2, SkewFormFp.standard(2, 5, 1)) == 91
        assert count_isotropic(2, 5, 2, SkewFormFp.standard(2, 5, 1)) == \
            isotropic_E(1, 1, 5)(2)

    def test_zero_form_sees_everything(self):
        for d in range(0, 5):
            assert count_isotropic(2, 4, d, SkewFormFp.zero(2, 4)) == \
                gauss_binomial(4, d, 1)(2)

    def test_rank_four_form_on_five_space(self):
        assert count_isotropic(2, 5, 2, SkewFormFp.standard(2, 5, 2)) == \
            isotropic_E(1, 2, 5)(2)

    def test_small_even_ambient(self):
        assert count_isotropic(2, 4, 2, SkewFormFp.standard(2, 4, 1)) == \
            isotropic_E(1, 1, 4)(2) == 19

    @pytest.mark.parametrize("p,n", [(2, 4), (2, 5), (2, 6), (2, 7), (3, 4),
                                     (3, 5), (5, 4)])
    def test_matches_symbolic_in_every_dimension(self, p, n):
        for i in range(0, n // 2 + 1):
            alpha = SkewFormFp.standard(p, n, i)
            for d in range(0, n + 1):
                assert count_isotropic(p, n, d, alpha) == \
                    isotropic_subspaces_E(d, i, n)(p), (p, n, i, d)

    @pytest.mark.parametrize("alpha_half_rank", [1, 2])
    def test_invariant_under_basis_change(self, alpha_half_rank):
        rng = random.Random(20240817 + alpha_half_rank)
        base = SkewFormFp.standard(2, 5, alpha_half_rank)
        reference = count_isotropic(2, 5, 2, base)
        for _ in range(10):
            g = random_invertible(2, 5, rng)
            moved = base.conjugated(g)
            assert skew_rank(moved) == 2 * alpha_half_rank
            assert count_isotropic(2, 5, 2, moved) == reference


class TestCutStratumCounts:
    def test_rank_two_cut_coincides_with_isotropic_count(self):
        alpha = SkewFormFp.standard(2, 5, 1)
        assert count_cut_stratum(2, 5, 2, alpha) == 91
        assert count_cut_stratum(2, 5, 2, alpha) == f_circ(CutParams(5, 1, 1))(2)

    def test_rank_four_hyperplane(self):
        alpha = SkewFormFp.standard(2, 5, 2)
        assert count_cut_stratum(2, 5, 2, alpha) == f_circ(CutParams(5, 1, 2))(2)

    @pytest.mark.parametrize("p,n", [(2, 5), (3, 5)])
    def test_matches_single_stratum_cut_values(self, p, n):
        for i in range(1, (n - 1) // 2 + 1):
            alpha = SkewFormFp.standard(p, n, i)
            for rank_half in range(1, (n - 1) // 2 + 1):
                assert count_cut_stratum(p, n, 2 * rank_half, alpha) == \
                    f_circ(CutParams(n, rank_half, i))(p), (p, n, i, rank_half)

    def test_prime_beyond_int8_digits(self):
        # residues up to 130 do not fit the int8 digits of small primes
        p = 131
        assert count_rank_stratum(p, 3, 2) == rank_stratum_E(1, 3)(p)
        alpha = SkewFormFp.standard(p, 3, 1)
        # every nonzero form on F_p^3 has rank 2; alpha cuts a plane
        assert count_cut_stratum(p, 3, 2, alpha) == p + 1
        assert count_isotropic(p, 3, 2, alpha) == isotropic_E(1, 1, 3)(p)

    def test_seven_space_single_point(self):
        alpha = SkewFormFp.standard(2, 7, 1)
        assert count_cut_stratum(2, 7, 2, alpha) == f_circ(CutParams(7, 1, 1))(2)

    def test_alpha_over_another_space_is_named(self):
        alpha = SkewFormFp.standard(3, 5, 1)
        with pytest.raises(RangeError, match=r"got alpha over F_3\^5, need F_2\^7$"):
            count_cut_stratum(2, 7, 2, alpha)


class TestPairing:
    def test_orthogonal_blocks(self):
        w = SkewFormFp.standard(2, 5, 1)
        alpha = SkewFormFp(2, 5, (0, 0, 0, 0, 0, 0, 0, 1, 0, 0))
        assert pairing(w, alpha) == 0

    def test_self_pairing_of_unit_block(self):
        w = SkewFormFp.standard(3, 4, 1)
        assert pairing(w, w) == 1

    def test_forms_over_different_spaces_are_named(self):
        w, alpha = SkewFormFp.standard(2, 7, 1), SkewFormFp.standard(3, 5, 1)
        with pytest.raises(RangeError, match=r"w over F_2\^7 and alpha over F_3\^5"):
            pairing(w, alpha)


class TestLazyExports:
    @pytest.mark.parametrize("name", ["SkewFormFp", "skew_rank",
                                      "count_rank_stratum", "count_isotropic",
                                      "count_cut_stratum"])
    def test_package_name_is_the_oracle_object(self, name):
        assert getattr(pfes, name) is getattr(fq_oracle, name)

    def test_package_module_is_the_oracle(self):
        assert pfes.fq_oracle is fq_oracle

    def test_too_large_is_defined_once(self):
        assert pfes.TooLarge is fq_oracle.TooLarge is efun.TooLarge

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            pfes.no_such_name
