"""Finite-field counting oracle: kernels, guards, and agreement with the
symbolic E-polynomials at q = p."""

import random
from itertools import product

import numpy as np
import pytest

from pfes import _kernels
from pfes.efun import RangeError, nondeg_skew_E, rank_stratum_E
from pfes.identities import CutParams, f_circ, isotropic_E
from pfes.qcore import gauss_binomial
from pfes.fq_oracle import (
    SkewFormFp, TooLarge,
    census_totals, count_cut_stratum, count_isotropic, count_rank_stratum,
    iter_subspaces, pairing, skew_rank,
)


def brute_force_census(p, n, alpha):
    """Reference tally straight from skew_rank, no kernels involved."""
    m = n * (n - 1) // 2
    counts = np.zeros((n + 1, 2), np.int64)
    for entries in product(range(p), repeat=m):
        form = SkewFormFp(p, n, entries)
        counts[skew_rank(form), 1 if pairing(form, alpha) == 0 else 0] += 1
    return counts


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

    def test_batched_sweep_combines_tallies(self):
        alpha = SkewFormFp.zero(3, 4)
        whole = _kernels.census(3, 4, alpha.entries)
        chunked = _kernels.census(3, 4, alpha.entries, batch=17)
        assert (whole == chunked).all()


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


class TestIsotropicCounts:
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
