"""Mirror-comparison layer: coefficient identities, stratum-weight equality,
fiber E-polynomials, and the even-dimensional anomaly."""

import pytest

from pfes import efun, mirror, suites
from pfes.qcore import (
    ONE, QPoly, ZERO, gauss_binomial, geometric_series, monomial, q_divide,
)
from pfes.efun import (
    RangeError, grassmannian_E, local_contribution,
    pf_stringy_rodland, projective_E, rank_stratum_E,
)
from pfes.identities import dual_local_weight, isotropic_E, row
from pfes.mirror import (
    even_anomaly_check, even_fiber_E, fiber_E_odd, main_coefficient_check,
    main_main_check,
)
from test_identities import reference_solve
from test_qcore import poly_exact_div


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
    # the frame-bundle quotient ((q^n-1)(q^n-q))/((q^2-1)(q^2-q)) is the
    # two-plane Grassmannian E-polynomial
    @pytest.mark.parametrize("n", [2, 4, 5, 8])
    def test_passes(self, n):
        num = (monomial(n) - 1) * (monomial(n) - monomial(1))
        den = (monomial(2) - 1) * (monomial(2) - monomial(1))
        assert grassmannian_E(2, n) * den == num

    def test_point_case(self):
        assert grassmannian_E(2, 2) == ONE


class TestMainCoefficient:
    # the closed value times (q-1)/(q^(2k^2-k-1)-1) is the stated weight
    def test_weight_for_k_two(self):
        assert main_coefficient_check(2) == row("main-coefficient(2)", True)
        assert (pf_stringy_rodland(2) * (monomial(1) - 1)
                == QPoly([1, 0, 1]) * (monomial(5) - 1))

    def test_weight_for_k_three(self):
        assert main_coefficient_check(3) == row("main-coefficient(3)", True)
        assert (pf_stringy_rodland(3) * (monomial(1) - 1)
                == QPoly([1, 0, 1, 0, 1]) * (monomial(14) - 1))

    def test_smooth_stratum_weight_is_trivial(self):
        # k = 1 carries weight (q^2-1)/(q^2-1) = 1 directly
        assert q_divide(ONE - monomial(2), [2], "") == ONE
        assert geometric_series(1, 2) == ONE

    def test_range(self):
        for k in range(2, 11):
            assert main_coefficient_check(k)["passed"]
        with pytest.raises(RangeError):
            main_coefficient_check(1)


class TestMainCoefficientRoute:
    # each row reads the closed value against the stratum sum at n = 2k+1
    @pytest.fixture
    def cold_strata(self):
        efun.pf_stringy_recursive.cache_clear()
        yield
        efun.pf_stringy_recursive.cache_clear()

    def test_stratum_weights_in_base_q_fail(self, monkeypatch, cold_strata):
        # local weights as Gaussian binomials in q, not q^2: every row fails
        # but k = 2, whose one stratum has weight 1 in either base
        monkeypatch.setattr(efun, "local_contribution",
                            lambda p, k, n: gauss_binomial((n - 1) // 2 - p,
                                                           k - p, 1))
        assert [r["passed"] for r in suites.main_coeff()] == [True] + [False] * 8


def shifted_fiber(fiber, shift):
    """`fiber` with its first summand, geometric_series(k, 2), shifted by
    shift(n) - 1 in place of shift(n)."""
    def mutant(k, n):
        first = geometric_series(k, 2)
        return fiber(k, n) - first.shift(shift(n)) + first.shift(shift(n) - 1)
    return mutant


class TestFiberSuite:
    def test_rows_cover_every_corank(self):
        rows = list(suites.fiber())
        assert [r["name"] for r in rows] == [
            f"fiber(k={k},n={n})" for n in range(3, 18)
            for k in range(n // 2 + 1)]
        assert all(r["passed"] for r in rows)

    @pytest.mark.parametrize("name, fiber, shift, parity", [
        ("fiber_E_odd", fiber_E_odd, lambda n: n - 1, 1),
        ("even_fiber_E", even_fiber_E, lambda n: n - 2, 0),
    ])
    def test_shifted_closed_fiber_fails(self, monkeypatch, name, fiber, shift,
                                        parity):
        # k = 0 has no kernel stratum, so only the rows with k >= 1 fail
        monkeypatch.setattr(suites, name, shifted_fiber(fiber, shift))
        failed = [r["name"] for r in suites.fiber(max_n=11) if not r["passed"]]
        assert failed == [f"fiber(k={k},n={n})" for n in range(3, 12)
                          if n % 2 == parity for k in range(1, n // 2 + 1)]


class TestMainMain:
    def test_five_space_has_two_strata(self, monkeypatch):
        strata = []

        def recording(k, i, n):
            strata.append(i)
            return dual_local_weight(k, i, n)

        monkeypatch.setattr(mirror, "dual_local_weight", recording)
        assert main_main_check(5, 1) == row("main-main(n=5,k=1)", True)
        assert strata == [1, 2]

    @pytest.mark.parametrize("n,k", [(7, 1), (7, 2), (9, 2)])
    def test_points(self, n, k):
        assert main_main_check(n, k) == row(f"main-main(n={n},k={k})", True)

    def test_far_strata_carry_weight_zero(self):
        # beyond i = (n-1)/2 - k the second summand vanishes on both routes,
        # leaving the i-independent first summand
        first_only = geometric_series(7 * 2 - 1) * gauss_binomial(3, 2, 2)
        k_dual = 3 - 2
        for i in range(k_dual + 1, 4):
            assert dual_local_weight(2, i, 7) == ZERO
            assert reference_solve(2, i, 7)[-1] == first_only
        assert main_main_check(7, 2)["passed"]

    def test_weight_duality_across_complementary_ranks(self):
        # the stratum weights on the Y side of (n, k) are exactly the
        # stratum weights of the X side at (n, (n-1)/2 - k), then zeros
        for n in (5, 7, 9, 11):
            half = (n - 1) // 2
            for k in range(1, half):
                k_dual = half - k
                y_side = [dual_local_weight(k, i, n) for i in range(1, half + 1)]
                x_side = [local_contribution(i, k_dual, n)
                          for i in range(1, k_dual + 1)]
                assert y_side == x_side + [ZERO] * (half - k_dual), (n, k)
                assert main_main_check(n, k)["passed"], (n, k)

    def test_relabeling_off_by_one_stratum_fails(self, monkeypatch):
        # the row checks dual_local_weight(k, i, n) against the weight of
        # stratum i at k' = (n-1)/2 - k; reading stratum i + 1 instead must
        # fail every (n, k), even though the recursion side still agrees
        monkeypatch.setattr(mirror, "dual_local_weight",
                            lambda k, i, n: dual_local_weight(k, i + 1, n))
        for n in (5, 7, 9, 11):
            for k in range(1, (n - 3) // 2 + 1):
                assert main_main_check(n, k) == row(f"main-main(n={n},k={k})",
                                                    False), (n, k)

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
            assert p

    def test_matches_isotropic_count(self):
        for n in (4, 6, 8):
            for k in range(0, n // 2):
                i = (n - 2 * k) // 2
                assert even_fiber_E(k, n) == isotropic_E(1, i, n), (k, n)

    def test_rejects_odd_dimension(self):
        with pytest.raises(RangeError):
            even_fiber_E(1, 7)

    def test_anomaly(self):
        assert even_anomaly_check() == row(
            "even-anomaly", True,
            note="actual corank-4 weight (q^2+q+1)/(q+1) is not a polynomial "
                 "(expected); discrepancy-2 weight equals q^2+1")
        # E(G(2,4)) (q-1)/(q^3-1), the discrepancy-2 weight, is q^2+1
        assert (grassmannian_E(2, 4) * (monomial(1) - 1)
                == QPoly([1, 0, 1]) * (monomial(3) - 1))
