"""Cut E-functions and the identity suite: isotropic-subspace counts, the
closed weighted cut formula, its triangular recursion, the alternating
binomial identity and the hypergeometric rewrites."""

import pytest

from pfes.qcore import (
    ONE, QPoly, QRational, ZERO, gauss_binomial, geometric_series, monomial,
    pochhammer, q_product, qpow,
)
from pfes import identities
from pfes.efun import RangeError
from pfes.identities import (
    CutParams, IdentityReport,
    dual_local_weight, f_circ, f_closed, isotropic_E, solve_newcor,
    verify_AC_BD, verify_hj, verify_newrec, verify_phi_reductions,
)


class TestIsotropicE:
    def test_rank_two_form_on_five_space(self):
        assert isotropic_E(1, 1, 5) == QPoly([1, 1, 2, 2, 2, 1])
        assert isotropic_E(1, 1, 5)(2) == 91

    def test_kernel_free_summand_vanishes_structurally(self):
        # every summand whose numerator range reaches index zero drops out;
        # here all of them do, matching the absence of 4-dim isotropic
        # subspaces for a rank-4 form on 5-space
        assert isotropic_E(2, 2, 5) == ZERO

    def test_rank_four_form_on_five_space(self):
        assert isotropic_E(1, 2, 5) == QPoly([1, 1, 2, 2, 1, 1])

    def test_even_ambient_dimension_allowed(self):
        # the kernel-dimension sum needs no parity assumption on n
        assert isotropic_E(1, 1, 4) == QPoly([1, 1, 2, 1])
        assert isotropic_E(1, 1, 4)(2) == 19  # cross-counted in oracle tests

    def test_domain_validation(self):
        with pytest.raises(RangeError):
            isotropic_E(0, 1, 5)
        with pytest.raises(RangeError):
            isotropic_E(1, 3, 5)


class TestFClosed:
    def test_rank_two_cut_of_five_space(self):
        assert f_closed(CutParams(5, 1, 1)) == QPoly([1, 1, 2, 2, 2, 1])
        assert f_closed(CutParams(5, 1, 1)) == isotropic_E(1, 1, 5)

    def test_rank_four_cut_is_lefschetz_like(self):
        assert f_closed(CutParams(5, 1, 2)) == QPoly([1, 1, 2, 2, 1, 1])

    def test_second_summand_vanishes_beyond_half_dim(self):
        for n in (5, 7, 9):
            half = (n - 1) // 2
            for k in range(1, half + 1):
                for i in range(half - k + 1, half + 1):
                    assert dual_local_weight(k, i, n) == ZERO

    def test_rank_one_bound_equals_isotropic_count(self):
        for n in (5, 7, 9, 11):
            for i in range(1, (n - 1) // 2 + 1):
                assert f_closed(CutParams(n, 1, i)) == isotropic_E(1, i, n)

    def test_coefficients_stay_nonnegative(self):
        # observed property, kept as a monitored regression guard
        for n in (5, 7, 9, 11):
            half = (n - 1) // 2
            for k in range(1, half + 1):
                for i in range(1, half + 1):
                    assert all(c >= 0 for c in f_closed(CutParams(n, k, i)).coeffs)


class TestFCirc:
    def test_single_term_base_case(self):
        for n in (5, 7, 9):
            for i in range(1, (n - 1) // 2 + 1):
                assert f_circ(CutParams(n, 1, i)) == f_closed(CutParams(n, 1, i))

    def test_binomial_inversion_roundtrip(self):
        for n in (5, 7, 9, 11, 13):
            half = (n - 1) // 2
            for i in range(1, half + 1):
                for k in range(1, half + 1):
                    total = ZERO
                    for p in range(1, k + 1):
                        total = total + (f_circ(CutParams(n, p, i))
                                         * gauss_binomial(half - p, k - p, 2))
                    assert total == f_closed(CutParams(n, k, i))


class TestNewrec:
    @pytest.mark.parametrize("n,k,i", [(5, 1, 1), (7, 2, 1), (9, 3, 2)])
    def test_known_points(self, n, k, i):
        report = verify_newrec(CutParams(n, k, i))
        assert report.passed and not report.skipped

    def test_grid(self):
        for n in (5, 7, 9, 11, 13):
            half = (n - 1) // 2
            for k in range(1, half + 1):
                for i in range(1, half + 1):
                    assert verify_newrec(CutParams(n, k, i)).passed, (n, k, i)


class TestSolveNewcor:
    def test_rank_one_collapses_to_isotropic_count(self):
        for n in (5, 7, 9):
            for i in range(1, (n - 1) // 2 + 1):
                assert solve_newcor(1, i, n) == [isotropic_E(1, i, n)]

    def test_two_step_solve_on_seven_space(self):
        got = solve_newcor(2, 1, 7)
        assert got == [f_closed(CutParams(7, 1, 1)), f_closed(CutParams(7, 2, 1))]

    def test_three_step_solve_on_nine_space(self):
        got = solve_newcor(3, 2, 9)
        assert got == [f_closed(CutParams(9, k, 2)) for k in (1, 2, 3)]

    def test_reproduces_closed_form_on_the_full_grid(self):
        for n in (5, 7, 9, 11, 13):
            half = (n - 1) // 2
            for i in range(1, half + 1):
                got = solve_newcor(half, i, n)
                for k in range(1, half + 1):
                    assert got[k - 1] == f_closed(CutParams(n, k, i)), (n, k, i)


class TestSolveNewcorMemo:
    @pytest.fixture(autouse=True)
    def empty_memo(self, monkeypatch):
        monkeypatch.setattr(identities, "_NEWCOR_CACHE", {})

    @pytest.mark.parametrize("short_first", [True, False])
    def test_shorter_solve_is_a_prefix(self, short_first):
        if short_first:
            short, full = solve_newcor(2, 2, 11), solve_newcor(5, 2, 11)
        else:
            full, short = solve_newcor(5, 2, 11), solve_newcor(2, 2, 11)
        assert short == full[:2]
        assert full == [f_closed(CutParams(11, k, 2)) for k in range(1, 6)]

    def test_returned_list_is_fresh(self):
        got = solve_newcor(3, 2, 9)
        got[0] = ZERO
        got.append(ONE)
        assert solve_newcor(3, 2, 9) == [f_closed(CutParams(9, k, 2)) for k in (1, 2, 3)]
        assert solve_newcor(2, 2, 9) == [f_closed(CutParams(9, k, 2)) for k in (1, 2)]

    @pytest.mark.parametrize("args", [(0, 1, 7), (4, 1, 7), (3, 4, 7), (3, 0, 7)])
    def test_invalid_arguments_raise_even_when_memoized(self, args):
        solve_newcor(3, 1, 7)
        solve_newcor(3, 3, 7)
        with pytest.raises(RangeError):
            solve_newcor(*args)


class TestHj:
    def test_empty_sum_side(self):
        for b in range(0, 6):
            report = verify_hj(0, b)
            assert report.passed
            assert report.lhs == QRational(ONE)

    def test_two_term_value(self):
        report = verify_hj(1, 1)
        assert report.passed
        assert report.lhs == QRational(QPoly([0, 1, 1]))

    def test_larger_point(self):
        assert verify_hj(3, 5).passed

    def test_full_triangle(self):
        for b in range(0, 9):
            for a in range(0, b + 1):
                assert verify_hj(a, b).passed, (a, b)

    def test_rejects_bad_order(self):
        with pytest.raises(RangeError):
            verify_hj(3, 2)


class TestRecursionSplit:
    @pytest.mark.parametrize("n,k,i", [(5, 1, 1), (7, 2, 2)])
    def test_both_halves_pass(self, n, k, i):
        reports = verify_AC_BD(CutParams(n, k, i))
        assert [r.passed for r in reports] == [True, True]

    def test_smooth_half_vanishes_at_k_one(self):
        reports = verify_AC_BD(CutParams(9, 1, 1))
        smooth = reports[0]
        assert smooth.passed
        assert smooth.lhs == QRational(ZERO)
        assert smooth.rhs == QRational(ZERO)

    def test_grid_up_to_eleven(self):
        for n in (5, 7, 9, 11):
            half = (n - 1) // 2
            for k in range(1, half + 1):
                for i in range(1, half + 1):
                    for report in verify_AC_BD(CutParams(n, k, i)):
                        assert report.passed, (report.identity_name, n, k, i)


def recursion_sum_by_pochhammer(k, n, js, value):
    """Reference: each coefficient as a Pochhammer in q^2 times a separate
    product of the remaining (1 - q^a) factors."""
    top = 2 * (k - js.start)
    den = q_product([*range(1, top + 1), *(n + 1 - 2 * j for j in js)])
    total = ZERO
    for j in js:
        pich = pochhammer(qpow(n + 3 - 4 * k + 2 * j), 2, 2 * k - 2 * j)
        if pich.is_zero:
            continue
        assert pich.shift == 0
        rest = q_product([n + 1 - 2 * k, *range(2 * k - 2 * j + 1, top + 1),
                          *(n + 1 - 2 * jp for jp in js if jp != j)])
        total = total + value(j).shift(2 * (k - j) ** 2 - (k - j)) * rest * pich.body
    return total, den


class TestRecursionSum:
    @pytest.mark.parametrize("n", [5, 7, 9, 11, 13])
    def test_matches_pochhammer_reference(self, n):
        for k in range(1, (n - 1) // 2 + 1):
            for js in (range(0, k + 1), range(1, k)):
                calls, reference_calls = [], []

                def value(j, seen):
                    seen.append(j)
                    return QPoly([j + 1, -2 * j, 3])

                got = identities._recursion_sum(k, n, js, lambda j: value(j, calls))
                want = recursion_sum_by_pochhammer(
                    k, n, js, lambda j: value(j, reference_calls))
                assert got == want, (n, k, js)
                assert calls == reference_calls, (n, k, js)


class TestPhiReductions:
    @pytest.mark.parametrize("n,k,i", [(5, 1, 1), (7, 2, 1), (9, 2, 2)])
    def test_all_three_rewrites(self, n, k, i):
        reports = verify_phi_reductions(CutParams(n, k, i))
        assert len(reports) == 3
        assert all(r.passed for r in reports)
        assert not any(r.skipped for r in reports)

    def test_degenerate_point_is_skipped_not_failed(self):
        reports = {r.identity_name: r for r in verify_phi_reductions(CutParams(5, 2, 2))}
        assert reports["phi-2phi1-smooth-part"].passed
        assert reports["phi-3phi2-cut-part"].skipped
        assert reports["phi-3phi1-isotropic"].skipped
        assert reports["phi-3phi1-isotropic"].note

    def test_grid_up_to_eleven(self):
        for n in (5, 7, 9, 11):
            half = (n - 1) // 2
            for k in range(1, half + 1):
                for i in range(1, half + 1):
                    for report in verify_phi_reductions(CutParams(n, k, i)):
                        assert report.passed or report.skipped, \
                            (report.identity_name, n, k, i)


class TestSummedPrefactorIdentity:
    def test_grassmannian_factorizes_through_odd_pochhammers(self):
        # [n choose 2k]_q = [half choose k]_{q^2} (q^{n+2-2k};q^2)_k / (q;q^2)_k
        for n in (5, 7, 9, 11, 13):
            half = (n - 1) // 2
            for k in range(1, half + 1):
                lhs = QRational(gauss_binomial(n, 2 * k, 1))
                top = pochhammer(qpow(n + 2 - 2 * k), 2, k)
                bot = pochhammer(qpow(1), 2, k)
                rhs = (QRational(gauss_binomial(half, k, 2))
                       * top.as_rational() / bot.as_rational())
                assert lhs == rhs, (n, k)


class TestReportShape:
    def test_report_invariant(self):
        report = verify_hj(2, 3)
        assert isinstance(report, IdentityReport)
        assert report.passed == (report.lhs == report.rhs)
        assert report.parameter_point == (2, 3)
