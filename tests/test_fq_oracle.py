"""Finite-field counting oracle: kernels, guards, and agreement with the
symbolic E-polynomials at q = p."""

import random
from itertools import combinations, product

import numpy as np
import pytest

from pfes import _kernels
from pfes._kernels import kernel_dtype, rank
from pfes.efun import RangeError, nondeg_skew_E, rank_stratum_E
from pfes.identities import CutParams, f_circ, isotropic_E
from pfes.qcore import gauss_binomial
from pfes.fq_oracle import (
    SkewFormFp, TooLarge,
    census_totals, count_cut_stratum, count_isotropic, count_rank_stratum,
    pairing, skew_rank,
)


def brute_force_census(p, n, alpha):
    """Reference tally straight from skew_rank, no kernels involved."""
    m = n * (n - 1) // 2
    counts = np.zeros((n + 1, 2), np.int64)
    for entries in product(range(p), repeat=m):
        form = SkewFormFp(p, n, entries)
        counts[skew_rank(form), 1 if pairing(form, alpha) == 0 else 0] += 1
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

    def test_entries_reduced_mod_p(self):
        form = SkewFormFp(3, 3, (4, -1, 3))
        assert form.entries == (1, 2, 0)


class TestCensusKernels:
    @pytest.mark.parametrize("p,n", [(2, 4), (3, 4), (2, 5)])
    def test_kernels_match_pure_python(self, p, n):
        alpha = SkewFormFp.standard(p, n, 1)
        want = brute_force_census(p, n, alpha)
        got = _kernels.census(p, n, alpha.entries)
        assert (got == want).all()

    def test_batched_sweep_combines_tallies(self, monkeypatch):
        alpha = SkewFormFp.standard(3, 4, 1)
        want = brute_force_census(3, 4, alpha)
        for batch in (1 << 16, 17, 1):
            # an empty rank store makes each batch size rank afresh
            monkeypatch.setattr(_kernels, "_RANKS", {})
            got = _kernels.census(3, 4, alpha.entries, batch=batch)
            assert (got == want).all(), batch
        # with ranks stored, another batch size only changes the tally loop
        assert (_kernels.census(3, 4, alpha.entries, batch=5) == want).all()

    @pytest.mark.parametrize("p,n,batch", [(2, 5, 1 << 16), (3, 4, 17),
                                           (5, 4, 700)])
    def test_second_alpha_reuses_ranks(self, monkeypatch, p, n, batch):
        calls = []

        def counted_rank(digits, p_, n_):
            calls.append(digits.shape[1])
            return rank(digits, p_, n_)

        monkeypatch.setattr(_kernels, "_RANKS", {})
        monkeypatch.setattr(_kernels, "rank", counted_rank)
        rng = random.Random(7 * p + n)
        moved = SkewFormFp.standard(p, n, 2).conjugated(
            random_invertible(p, n, rng))
        first = _kernels.census(p, n, SkewFormFp.standard(p, n, 1).entries,
                                batch=batch)
        assert (first == brute_force_census(
            p, n, SkewFormFp.standard(p, n, 1))).all()
        assert sum(calls) == p ** (n * (n - 1) // 2)
        ranked = len(calls)
        second = _kernels.census(p, n, moved.entries, batch=batch)
        assert (second == brute_force_census(p, n, moved)).all()
        assert len(calls) == ranked
        # only the last (p, n) keeps its ranks
        _kernels.census(2, 3, (1, 0, 1))
        assert list(_kernels._RANKS) == [(2, 3)]


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
        with pytest.raises(TooLarge):
            count_rank_stratum(3, 8, 2)

    def test_guard_env_override(self, monkeypatch):
        monkeypatch.setenv("PFES_MAX_ENUM", "10")
        with pytest.raises(TooLarge):
            count_rank_stratum(2, 4, 2)

    def test_guard_argument_override(self):
        with pytest.raises(TooLarge):
            count_rank_stratum(2, 4, 2, max_enum=5)

    def test_parameter_validation(self):
        with pytest.raises(RangeError):
            count_rank_stratum(4, 4, 2)
        with pytest.raises(RangeError):
            count_rank_stratum(2, 4, 3)


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
    @pytest.mark.parametrize("p,n", [(2, 4), (2, 5), (3, 4), (5, 3), (3, 5)])
    def test_streamed_sweep_matches_enumeration(self, monkeypatch, p, n):
        rng = random.Random(31 * p + n)
        for i in range(n // 2 + 1):
            moved = SkewFormFp.standard(p, n, i).conjugated(
                random_invertible(p, n, rng))
            for d in range(n + 1):
                want = enumerated_isotropic(p, n, d, moved)
                assert count_isotropic(p, n, d, moved) == want, (i, d)
                # batches of p^2 bases split every pivot pattern with more
                # than two free entries
                with monkeypatch.context() as m:
                    m.setattr(_kernels, "_ISOTROPIC_BATCH", p * p + 1)
                    got = _kernels.isotropic(p, n, d, moved.matrix())
                assert got == want, (i, d)

    def test_guard_raises_before_any_work(self, monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep started")

        monkeypatch.setattr(_kernels, "isotropic", no_sweep)
        alpha = SkewFormFp.standard(2, 9, 2)
        with pytest.raises(TooLarge):
            count_isotropic(2, 9, 4, alpha, max_enum=10 ** 6)
        with pytest.raises(TooLarge):
            count_isotropic(2, 12, 6, SkewFormFp.standard(2, 12, 3))

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

    @pytest.mark.parametrize("p,n", [(2, 4), (2, 5), (3, 4), (3, 5)])
    def test_matches_symbolic_on_even_dimensions(self, p, n):
        for i in range(1, n // 2 + 1):
            alpha = SkewFormFp.standard(p, n, i)
            for k in range(1, n // 2 + 1):
                assert count_isotropic(p, n, 2 * k, alpha) == \
                    isotropic_E(k, i, n)(p), (p, n, i, k)

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


class TestPairing:
    def test_orthogonal_blocks(self):
        w = SkewFormFp.standard(2, 5, 1)
        alpha = SkewFormFp(2, 5, (0, 0, 0, 0, 0, 0, 0, 1, 0, 0))
        assert pairing(w, alpha) == 0

    def test_self_pairing_of_unit_block(self):
        w = SkewFormFp.standard(3, 4, 1)
        assert pairing(w, w) == 1
