"""Mirror-comparison layer: coefficient identities, stratum-weight equality,
fiber E-polynomials, and the even-dimensional anomaly."""

from collections import Counter

import pytest

from pfes.qcore import ONE, QPoly, QRational, ZERO, geometric_series, monomial, poly_exact_div
from pfes.efun import (
    RangeError, grassmannian_E, local_contribution, projective_E, rank_stratum_E,
)
from pfes.identities import isotropic_E
from pfes.mirror import (
    even_anomaly_check, even_fiber_E, fiber_E_odd, grassmannian_frame_identity,
    main_coefficient_check, main_main_check,
)


class TestFiberOdd:
    def test_generic_fiber_is_the_corank_one_case(self):
        for n in (5, 7, 9):
            expected = poly_exact_div(geometric_series(n - 1) * geometric_series(n - 1),
                                      ONE + monomial(1))
            assert fiber_E_odd(0, n) == expected

    def test_corank_three_on_five_space(self):
        assert fiber_E_odd(1, 5) == QPoly([1, 1, 2, 2, 2, 1])

    def test_matches_isotropic_plane_count(self):
        # the cut by a form of corank 2k+1 is the rank-(n-1-2k) isotropic locus
        for n in (5, 7, 9):
            for k in range(0, (n - 1) // 2):
                i = (n - 2 * k - 1) // 2
                assert fiber_E_odd(k, n) == isotropic_E(1, i, n), (k, n)

    def test_rejects_even_dimension(self):
        with pytest.raises(RangeError):
            fiber_E_odd(1, 6)


class TestAmbientCayleyBookkeeping:
    def test_full_space_projection_identity(self):
        # summing stratum E-polynomials against the fiber cut values must
        # reproduce the count of the universal pairing hypersurface, whose
        # other projection has constant projective-space fibers
        for n in (5, 7):
            total = ZERO
            for m in range(1, (n - 1) // 2 + 1):
                k = (n - 1 - 2 * m) // 2
                total = total + rank_stratum_E(m, n) * fiber_E_odd(k, n)
            hypersurface = grassmannian_E(2, n) * projective_E(n * (n - 1) // 2 - 2)
            assert total == hypersurface


class TestFrameIdentity:
    @pytest.mark.parametrize("n", [2, 4, 5, 8])
    def test_passes(self, n):
        report = grassmannian_frame_identity(n)
        assert report.passed

    def test_point_case(self):
        report = grassmannian_frame_identity(2)
        assert report.lhs == QRational(ONE)


class TestMainCoefficient:
    def test_weight_for_k_two(self):
        report = main_coefficient_check(2)
        assert report.passed
        assert report.rhs == QRational(QPoly([1, 0, 1]))

    def test_weight_for_k_three(self):
        report = main_coefficient_check(3)
        assert report.passed
        assert report.rhs == QRational(QPoly([1, 0, 1, 0, 1]))

    def test_smooth_stratum_weight_is_trivial(self):
        # k = 1 carries weight (q^2-1)/(q^2-1) = 1 directly
        assert QRational(monomial(2) - 1, monomial(2) - 1) == QRational(ONE)

    def test_range(self):
        for k in range(2, 11):
            assert main_coefficient_check(k).passed
        with pytest.raises(RangeError):
            main_coefficient_check(1)


class TestMainMain:
    def test_five_space_has_two_strata(self):
        report = main_main_check(5, 1)
        assert report.overall and report.duality_ok
        assert len(report.per_stratum) == 2

    @pytest.mark.parametrize("n,k", [(7, 1), (7, 2), (9, 2)])
    def test_points(self, n, k):
        report = main_main_check(n, k)
        assert report.overall and report.duality_ok
        assert report.overall == all(s.equal for s in report.per_stratum)

    def test_far_strata_carry_weight_zero(self):
        # beyond i = (n-1)/2 - k the second summand vanishes on both routes,
        # leaving the i-independent first summand
        report = main_main_check(7, 2)
        from pfes.efun import _rank_locus_weight
        first_only = geometric_series(7 * 2 - 1) * _rank_locus_weight(0, 2, 7)
        k_dual = 3 - 2
        for comparison in report.per_stratum:
            if comparison.index > k_dual:
                assert comparison.x_weight == first_only
                assert comparison.equal

    def test_weight_duality_across_complementary_ranks(self):
        # nonzero stratum weights on the Y side of (n, k) are exactly the
        # stratum weights of the X side at (n, (n-1)/2 - k)
        for n in (5, 7, 9, 11):
            half = (n - 1) // 2
            for k in range(1, half):
                k_dual = half - k
                if not (1 <= k_dual <= half - 1):
                    continue
                this = main_main_check(n, k)
                dual = main_main_check(n, k_dual)
                expected = list(dual.x_variety_weights)
                expected += [ZERO] * (half - len(expected))
                assert Counter(this.y_variety_weights) == Counter(expected), (n, k)

    def test_rejects_maximal_k(self):
        with pytest.raises(RangeError):
            main_main_check(7, 3)


class TestEvenCase:
    def test_generic_even_fiber(self):
        expected = poly_exact_div(
            (monomial(2) - 1) * (monomial(4) - 1),
            (monomial(1) - 1) * (monomial(1) - 1) * (monomial(1) + 1))
        assert even_fiber_E(0, 4) == expected

    def test_higher_corank_fibers_are_polynomial(self):
        for k, n in [(1, 6), (2, 8), (1, 8), (3, 8)]:
            p = even_fiber_E(k, n)
            assert not p.is_zero

    def test_matches_isotropic_count(self):
        for n in (4, 6, 8):
            for k in range(0, n // 2):
                i = (n - 2 * k) // 2
                assert even_fiber_E(k, n) == isotropic_E(1, i, n), (k, n)

    def test_rejects_odd_dimension(self):
        with pytest.raises(RangeError):
            even_fiber_E(1, 7)

    def test_anomaly(self):
        report = even_anomaly_check()
        assert report.passed
        assert report.rhs == QRational(QPoly([1, 0, 1]))
        assert "not a polynomial" in report.note
