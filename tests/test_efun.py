"""E-polynomials of the classical spaces and the stringy E-functions,
discrepancies and local weights of bounded-rank skew-form loci."""

import math

import pytest

from pfes import qcore, suites
from pfes.qcore import ONE, QPoly, ZERO, geometric_series, monomial, gauss_binomial
from pfes.efun import (
    PfaffianParams, RangeError,
    discrepancy, euler_characteristic, grassmannian_E, local_contribution,
    nondeg_skew_E, pf_stringy_closed, pf_stringy_recursive, pf_stringy_rodland,
    projective_E, rank_stratum_E, stringy_degree,
)
from test_qcore import poly_exact_div


class TestProjective:
    def test_point(self):
        assert projective_E(0) == ONE

    def test_plane(self):
        assert projective_E(2) == QPoly([1, 1, 1])

    def test_five_space(self):
        assert projective_E(5) == QPoly([1] * 6)

    def test_negative_rejected(self):
        with pytest.raises(RangeError):
            projective_E(-1)


class TestGrassmannian:
    def test_two_planes_in_four_space(self):
        assert grassmannian_E(2, 4) == QPoly([1, 1, 2, 1, 1])

    def test_zero_plane(self):
        assert grassmannian_E(0, 7) == ONE

    def test_two_planes_in_five_space(self):
        assert grassmannian_E(2, 5) == QPoly([1, 1, 2, 2, 2, 1, 1])

    def test_out_of_range(self):
        with pytest.raises(RangeError):
            grassmannian_E(5, 4)
        with pytest.raises(RangeError):
            grassmannian_E(-1, 4)

    def test_flag_fibration_relation(self):
        # g_{2i,2r} (q^(2r+1) - 1) = g_{2i,2r+1} (q^(2r-2i+1) - 1)
        for r in range(0, 9):
            for i in range(0, r + 1):
                lhs = grassmannian_E(2 * i, 2 * r) * (monomial(2 * r + 1) - 1)
                rhs = grassmannian_E(2 * i, 2 * r + 1) * (monomial(2 * r - 2 * i + 1) - 1)
                assert lhs == rhs, (i, r)


class TestNondegSkew:
    def test_single_point_for_dim_two(self):
        assert nondeg_skew_E(1) == ONE

    def test_dim_four(self):
        assert nondeg_skew_E(2) == monomial(5) - monomial(2)

    def test_dim_four_count_over_f2(self):
        assert nondeg_skew_E(2)(2) == 28

    def test_dim_six_strata_fill_projective_fourteen_space(self):
        total = (nondeg_skew_E(1) * grassmannian_E(2, 6)
                 + nondeg_skew_E(2) * grassmannian_E(4, 6)
                 + nondeg_skew_E(3))
        assert total == projective_E(14)

    def test_even_partition_of_projective_space(self):
        for r in range(1, 9):
            total = ZERO
            for i in range(1, r + 1):
                total = total + nondeg_skew_E(i) * grassmannian_E(2 * i, 2 * r)
            assert total == projective_E(r * (2 * r - 1) - 1)

    def test_matches_the_triangular_recursion(self):
        # reference: the triangular system, all nonzero skew forms on C^(2i)
        # minus the lower rank strata
        recursive = []
        for i in range(1, 13):
            total = geometric_series(i * (2 * i - 1))
            for s in range(1, i):
                total = total - recursive[s - 1] * grassmannian_E(2 * s, 2 * i)
            recursive.append(total)
            assert nondeg_skew_E(i) == total, i


class TestRankStratum:
    def test_decomposable_forms_on_five_space(self):
        assert rank_stratum_E(1, 5) == grassmannian_E(3, 5)
        assert rank_stratum_E(1, 5) == grassmannian_E(2, 5)
        assert rank_stratum_E(1, 5)(2) == 155

    def test_top_stratum_dim_four(self):
        assert rank_stratum_E(2, 4) == monomial(5) - monomial(2)

    def test_odd_partition_of_projective_space(self):
        for r in range(1, 9):
            total = ZERO
            for i in range(1, r + 1):
                total = total + rank_stratum_E(i, 2 * r + 1)
            assert total == projective_E(r * (2 * r + 1) - 1)

    def test_out_of_range(self):
        with pytest.raises(RangeError):
            rank_stratum_E(3, 5)


class TestDiscrepancy:
    def test_classical_case_seven_space(self):
        assert discrepancy(3, PfaffianParams(7, 2)) == 4

    def test_eleven_space(self):
        assert discrepancy(4, PfaffianParams(11, 3)) == 6

    def test_quadratic_form_at_maximal_k(self):
        for n in (7, 9, 11, 13, 15):
            k = (n - 3) // 2
            params = PfaffianParams(n, k)
            for j in range(3, (n - 1) // 2 + 1):
                assert discrepancy(j, params) == 2 * j * j - 5 * j + 1

    def test_log_terminal_everywhere(self):
        for n in (5, 7, 9, 11, 13, 15, 17):
            for k in range(1, (n - 1) // 2):
                params = PfaffianParams(n, k)
                lo, hi = (n + 3 - 2 * k) // 2, (n - 1) // 2
                for j in range(lo, hi + 1):
                    assert discrepancy(j, params) > -1

    def test_smallest_index_value(self):
        for n in (7, 9, 11, 13):
            for k in range(1, (n - 1) // 2):
                j = (n + 3 - 2 * k) // 2
                if j > (n - 1) // 2:
                    continue  # the locus is smooth, no exceptional divisors
                assert discrepancy(j, PfaffianParams(n, k)) == n + 1 - 2 * k

    def test_out_of_range(self):
        with pytest.raises(RangeError):
            discrepancy(2, PfaffianParams(7, 2))
        with pytest.raises(RangeError):
            discrepancy(4, PfaffianParams(7, 2))


class TestLocalContribution:
    def test_top_stratum_weight_is_one(self):
        for n, k in [(5, 1), (7, 2), (9, 3), (11, 4)]:
            assert local_contribution(k, k, n) == ONE

    def test_single_factor(self):
        assert local_contribution(1, 2, 7) == monomial(2) + 1

    def test_matches_gaussian_binomial(self):
        for n in (5, 7, 9, 11, 13):
            half = (n - 1) // 2
            for k in range(1, half + 1):
                for p in range(1, k + 1):
                    assert local_contribution(p, k, n) == gauss_binomial(half - p, k - p, 2)

    def test_always_nonzero(self):
        for n in (5, 7, 9, 11):
            for k in range(1, (n - 1) // 2 + 1):
                for p in range(1, k + 1):
                    assert local_contribution(p, k, n)

    def test_out_of_range(self):
        with pytest.raises(RangeError):
            local_contribution(3, 2, 7)
        with pytest.raises(RangeError):
            local_contribution(1, 2, 8)


class TestStringy:
    def test_smooth_base_case_is_a_grassmannian(self):
        assert pf_stringy_closed(PfaffianParams(5, 1)) == QPoly([1, 1, 2, 2, 2, 1, 1])
        assert pf_stringy_closed(PfaffianParams(5, 1)) == grassmannian_E(2, 5)

    def test_full_space_at_maximal_k(self):
        for n in (5, 7, 9, 11):
            k = (n - 1) // 2
            assert pf_stringy_closed(PfaffianParams(n, k)) == projective_E(n * k - 1)

    def test_seven_space_matches_closed_quotient(self):
        expected = poly_exact_div(
            (monomial(6) - 1) * (monomial(14) - 1),
            (monomial(2) - 1) * (monomial(1) - 1))
        assert pf_stringy_closed(PfaffianParams(7, 2)) == expected

    def test_recursion_single_stratum(self):
        assert pf_stringy_recursive(PfaffianParams(5, 1)) == grassmannian_E(2, 5)

    def test_recursion_two_strata(self):
        got = pf_stringy_recursive(PfaffianParams(7, 2))
        byhand = (rank_stratum_E(1, 7) * (monomial(2) + 1) + rank_stratum_E(2, 7))
        assert got == byhand
        assert got == pf_stringy_closed(PfaffianParams(7, 2))

    def test_recursion_three_strata(self):
        assert pf_stringy_recursive(PfaffianParams(9, 3)) == pf_stringy_closed(PfaffianParams(9, 3))

    def test_classical_closed_form(self):
        assert pf_stringy_rodland(2) == poly_exact_div(
            (monomial(4) - 1) * (monomial(5) - 1),
            (monomial(2) - 1) * (monomial(1) - 1))
        assert pf_stringy_rodland(2) == grassmannian_E(2, 5)
        assert pf_stringy_rodland(3) == poly_exact_div(
            (monomial(6) - 1) * (monomial(14) - 1),
            (monomial(2) - 1) * (monomial(1) - 1))

    def test_classical_form_is_the_almost_maximal_case(self):
        assert pf_stringy_rodland(4) == pf_stringy_closed(PfaffianParams(9, 3))
        for n in (5, 7, 9, 11, 13, 15):
            assert pf_stringy_closed(PfaffianParams(n, (n - 3) // 2)) == \
                pf_stringy_rodland((n - 1) // 2)

    def test_rodland_rejects_small_r(self):
        with pytest.raises(RangeError):
            pf_stringy_rodland(1)

    def test_palindromic_with_predicted_degree(self):
        for n in (5, 7, 9, 11):
            for k in range(1, (n - 1) // 2 + 1):
                p = pf_stringy_closed(PfaffianParams(n, k))
                assert p.is_palindromic
                assert p.degree == stringy_degree(n, k)
        for r in (2, 3, 4, 5):
            assert pf_stringy_rodland(r).degree == 2 * r * r + r - 4

    def test_euler_characteristic_at_one(self):
        for n in range(5, 42, 2):
            for k in range(1, (n - 1) // 2 + 1):
                params = PfaffianParams(n, k)
                expected = n * k * math.comb((n - 1) // 2, k)
                assert pf_stringy_closed(params)(1) == expected
                assert euler_characteristic(params) == expected

    def test_pfst2k_suite_checks_the_euler_characteristic(self, monkeypatch):
        monkeypatch.setattr(suites, "euler_characteristic",
                            lambda params: euler_characteristic(params) + 1)
        rows = list(suites.pfst2k(max_n=9))
        assert rows and not any(row["passed"] for row in rows)

    def test_params_validation(self):
        with pytest.raises(RangeError):
            PfaffianParams(4, 1)
        with pytest.raises(RangeError):
            PfaffianParams(7, 0)
        with pytest.raises(RangeError):
            PfaffianParams(7, 4)


EFUN_MEMOS = (nondeg_skew_E, rank_stratum_E, pf_stringy_closed,
              pf_stringy_recursive)


def clear_efun_memos():
    for memo in EFUN_MEMOS:
        memo.cache_clear()
    qcore._GAUSS_CACHE.clear()


def efun_values(n):
    strata = [rank_stratum_E(i, n) for i in range(1, (n - 1) // 2 + 1)]
    stringy = [(pf_stringy_closed(PfaffianParams(n, k)),
                pf_stringy_recursive(PfaffianParams(n, k)))
               for k in range(1, (n - 1) // 2 + 1)]
    return strata, stringy


class TestEfunMemos:
    @pytest.fixture(autouse=True)
    def empty_memos(self):
        clear_efun_memos()
        yield
        clear_efun_memos()

    def test_memoized_values_match_fresh_computation(self):
        # one pass fills the memos, so each larger n reads strata and
        # skew-form counts cached at smaller ones
        warm = {n: efun_values(n) for n in range(5, 14, 2)}
        for n in warm:
            clear_efun_memos()
            assert efun_values(n) == warm[n], n

    def test_each_key_is_computed_once(self):
        for _ in range(2):
            for n in range(5, 14, 2):
                efun_values(n)
        keys = sum((n - 1) // 2 for n in range(5, 14, 2))
        assert [memo.cache_info().misses for memo in EFUN_MEMOS] == \
            [6, keys, keys, keys]
