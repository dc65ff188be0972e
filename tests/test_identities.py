"""Cut E-functions and the identity suite: isotropic-subspace counts, the
closed weighted cut formula, its triangular recursion, the alternating
binomial identity and the hypergeometric rewrites."""

import json
import re

import pytest

from pfes.qcore import (
    ONE, QPoly, ZERO, gauss_binomial, monomial, q_divide, q_quotient,
)
from pfes import cli, identities
from pfes.efun import RangeError, grassmannian_E
from pfes.identities import (
    CutParams, row,
    dual_local_weight, f_circ, f_closed, isotropic_E, isotropic_subspaces_E,
    recursion_holds,
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


class TestIsotropicSubspacesE:
    def test_even_dimensions_are_isotropic_E(self):
        for n in range(2, 10):
            for i in range(1, n // 2 + 1):
                for k in range(1, n // 2 + 2):
                    assert isotropic_subspaces_E(2 * k, i, n) == \
                        isotropic_E(k, i, n), (n, i, k)

    def test_zero_form_gives_the_grassmannian(self):
        for n in range(0, 8):
            for d in range(0, n + 2):
                assert isotropic_subspaces_E(d, 0, n) == \
                    gauss_binomial(n, d, 1), (n, d)

    def test_every_line_and_the_origin_are_isotropic(self):
        for n in range(2, 8):
            for i in range(0, n // 2 + 1):
                assert isotropic_subspaces_E(0, i, n) == ONE
                assert isotropic_subspaces_E(1, i, n) == \
                    gauss_binomial(n, 1, 1), (n, i)

    def test_odd_dimension(self):
        # a 3-space isotropic for a rank-2 form on 5-space is the 3-dim
        # kernel, or meets it in one of [3, 2] planes and maps onto one of
        # the [2, 1] lines of the quotient, through q lifts each
        assert isotropic_subspaces_E(3, 1, 5) == (
            gauss_binomial(3, 2, 1) * gauss_binomial(2, 1, 1)).shift(1) \
            + ONE
        assert isotropic_subspaces_E(3, 1, 5)(3) == 157

    def test_no_isotropic_subspace_past_n_minus_i(self):
        for n in range(2, 8):
            for i in range(0, n // 2 + 1):
                for d in range(n - i + 1, n + 3):
                    assert isotropic_subspaces_E(d, i, n) == ZERO, (n, i, d)

    def test_domain_validation(self):
        for d, i, n in [(-1, 1, 5), (2, -1, 5), (2, 3, 5)]:
            with pytest.raises(RangeError):
                isotropic_subspaces_E(d, i, n)


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

    def test_dual_weight_is_the_complementary_gaussian_binomial(self):
        # [(n-1)/2 - i, k]_{q^2}, zero once k > (n-1)/2 - i: 384 points
        points = 0
        for n in range(5, 22, 2):
            half = (n - 1) // 2
            for k in range(1, half + 1):
                for i in range(1, half + 1):
                    assert (dual_local_weight(k, i, n)
                            == gauss_binomial(half - i, k, 2)), (n, k, i)
                    points += 1
        assert points == 384

    @pytest.mark.parametrize("k,i,n", [(1, 4, 7), (0, 1, 7), (1, 0, 7),
                                       (4, 1, 7)])
    def test_dual_weight_rejects_points_off_its_domain(self, k, i, n):
        with pytest.raises(RangeError):
            dual_local_weight(k, i, n)

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

    def test_alternating_inversion_of_f_closed(self):
        for n in range(5, 16, 2):
            half = (n - 1) // 2
            for k in range(1, half + 1):
                for i in range(1, half + 1):
                    total = ZERO
                    for j in range(1, k + 1):
                        term = (f_closed(CutParams(n, j, i))
                                * monomial((k - j) * (k - j - 1))
                                * gauss_binomial(half - j, k - j, 2))
                        total = total + ((-1) ** (k - j)) * term
                    assert f_circ(CutParams(n, k, i)) == total, (n, k, i)


class TestNewrec:
    @pytest.mark.parametrize("n,k,i", [(5, 1, 1), (7, 2, 1), (9, 3, 2)])
    def test_known_points(self, n, k, i):
        assert verify_newrec(CutParams(n, k, i)) == row(f"newrec({k},{i},{n})", True)

    def test_grid(self):
        for n in (5, 7, 9, 11, 13):
            half = (n - 1) // 2
            for k in range(1, half + 1):
                for i in range(1, half + 1):
                    assert verify_newrec(CutParams(n, k, i))["passed"], (n, k, i)


def reference_solve(k_max, i, n):
    """Reference: the triangular recursion solved at k = 1..k_max from its
    Grassmannian and isotropic right side alone, each f_k the right side less
    the sum over the f_j solved before it; it never reads f_closed."""
    solved = []
    for k in range(1, k_max + 1):
        acc, den = identities._recursion_sum(k, n, range(1, k),
                                             lambda j: solved[j - 1])
        rhs = identities._smooth_rhs(k, n) + identities._cut_rhs(k, i, n)
        solved.append(rhs - q_divide(acc, den, f"solve (k={k}, i={i}, n={n})"))
    return solved


class TestSolveNewcor:
    def test_rank_one_collapses_to_isotropic_count(self):
        for n in (5, 7, 9):
            for i in range(1, (n - 1) // 2 + 1):
                assert reference_solve(1, i, n) == [isotropic_E(1, i, n)]

    def test_two_step_solve_on_seven_space(self):
        got = reference_solve(2, 1, 7)
        assert got == [f_closed(CutParams(7, 1, 1)), f_closed(CutParams(7, 2, 1))]

    def test_three_step_solve_on_nine_space(self):
        got = reference_solve(3, 2, 9)
        assert got == [f_closed(CutParams(9, k, 2)) for k in (1, 2, 3)]

    def test_reproduces_closed_form_on_the_full_grid(self):
        for n in (5, 7, 9, 11, 13):
            half = (n - 1) // 2
            for i in range(1, half + 1):
                got = reference_solve(half, i, n)
                for k in range(1, half + 1):
                    assert got[k - 1] == f_closed(CutParams(n, k, i)), (n, k, i)
                    assert recursion_holds(k, i, n), (n, k, i)


class TestRecursionHolds:
    @pytest.mark.parametrize("k,i,n", [(0, 1, 7), (4, 1, 7), (3, 4, 7),
                                       (3, 0, 7), (1, 1, 8), (1, 1, 3)])
    def test_rejects_points_off_the_cut_grid(self, k, i, n):
        with pytest.raises(RangeError):
            recursion_holds(k, i, n)


# every memo of the module, so that none can be left out and serve a test
# values cached before a mutant was patched in
CUT_MEMOS = tuple(sorted(name for name, value in vars(identities).items()
                         if hasattr(value, "cache_clear")))

SMALL_CUT_GRID = [CutParams(n, k, i) for n in (5, 7, 9, 11)
                  for k in range(1, (n - 1) // 2 + 1)
                  for i in range(1, (n - 1) // 2 + 1)]


def clear_cut_memos():
    for name in CUT_MEMOS:
        getattr(identities, name).cache_clear()


def cut_values(params):
    return (f_closed(params), f_circ(params), verify_newrec(params),
            verify_AC_BD(params), verify_phi_reductions(params),
            recursion_holds(params.k, params.i, params.n))


class TestCutMemos:
    @pytest.fixture(autouse=True)
    def empty_memos(self):
        clear_cut_memos()
        yield
        clear_cut_memos()

    def test_memoized_values_match_fresh_computation(self):
        # one pass over the grid fills the memos, so later points are served
        # values cached at earlier ones; each must equal a cold computation
        warm = {params: cut_values(params) for params in SMALL_CUT_GRID}
        for params in SMALL_CUT_GRID:
            clear_cut_memos()
            assert cut_values(params) == warm[params], params

    def test_each_key_is_computed_once(self):
        for params in SMALL_CUT_GRID:
            cut_values(params)
        pairs = {(params.k, params.n) for params in SMALL_CUT_GRID}
        # verify_newrec reads the kernel at each j with a nonzero dual summand
        kernels = {(params.k, j, params.n) for params in SMALL_CUT_GRID
                   for j in range(1, min(params.k, (params.n - 1) // 2
                                         - params.i) + 1)}
        misses = {name: getattr(identities, name).cache_info().misses
                  for name in CUT_MEMOS}
        # isotropic_subspaces_E is keyed by (2k, i, n), one key per point
        per_point = ("isotropic_subspaces_E", "_cut_lhs_sum", "_f_circ_dual",
                     "dual_local_weight", "recursion_holds")
        per_pair = ("_smooth_lhs_sum", "_smooth_recursion_row",
                    "_phi_smooth_row", "_closed_smooth", "_f_circ_smooth",
                    "_newrec_smooth", "_smooth_rhs")
        assert misses == {
            **dict.fromkeys(per_point, len(SMALL_CUT_GRID)),
            **dict.fromkeys(per_pair, len(pairs)),
            # js = range(0, k+1), shared by the two recursion sums
            "_recursion_terms": len(pairs),
            "_newrec_kernel": len(kernels)}

    def test_smooth_rows_do_not_depend_on_i(self):
        rows = {}
        for params in SMALL_CUT_GRID:
            clear_cut_memos()
            k, n = params.k, params.n
            smooth = (verify_AC_BD(params)[0], verify_phi_reductions(params)[0])
            assert smooth[0]["name"] == f"cut-recursion-smooth-part({k},{n})"
            assert smooth[1]["name"] == f"phi-2phi1-smooth-part({k},{n})"
            assert rows.setdefault((params.k, params.n), smooth) == smooth, params


def verify_report(capsys, suite):
    """Exit code and failed row names of `pfes verify SUITE --format json`."""
    code = cli.main(["verify", suite, "--format", "json"])
    rows = json.loads(capsys.readouterr().out)["results"]
    return code, {r["name"] for r in rows if not r["passed"]}, rows


class TestRecursionMutants:
    """A defect in the recursion or in f_closed's dual summand must fail
    rows of the suites that read them, and never abort the report."""

    @pytest.fixture(autouse=True)
    def empty_memos(self):
        clear_cut_memos()
        yield
        clear_cut_memos()

    def test_binomial_top_off_by_one_fails_each_k_above_one(self, monkeypatch,
                                                           capsys):
        # each coefficient's [c+m-1, m]_{q^2} becomes [c+m, m]_{q^2}; at j = k
        # it is [c, 0] = 1 either way, so only the equations at k >= 2 break
        real_terms = identities._recursion_terms.__wrapped__

        def mutant_terms(*args):
            with monkeypatch.context() as patched:
                patched.setattr(identities, "gauss_binomial",
                                lambda top, bottom, base:
                                gauss_binomial(top + 1, bottom, base))
                return real_terms(*args)

        monkeypatch.setattr(identities, "_recursion_terms", mutant_terms)
        for suite in ("newcor", "main-main"):
            code, failed, rows = verify_report(capsys, suite)
            above_one = {r["name"] for r in rows
                         if re.search(r"k=(\d+)", r["name"])[1] != "1"}
            assert code == cli.EXIT_FAIL, suite
            assert failed == above_one, suite
            assert len(failed) == {"newcor": 70, "main-main": 10}[suite]

    def test_closed_dual_shift_off_by_one_fails(self, monkeypatch, capsys):
        # q^(nk) in place of q^(nk-1) on f_closed's dual-weight summand
        monkeypatch.setattr(identities, "_closed_dual", lambda k, i, n:
                            dual_local_weight(k, i, n).shift(n * k))
        for suite in ("newcor", "main-main", "ac-bd"):
            code, failed, _ = verify_report(capsys, suite)
            assert code == cli.EXIT_FAIL and failed, suite


def newrec_dual_by_p(k, i, n):
    """Reference: the dual half of verify_newrec's left side summed over p,
    [n-2p, n-2k]_q times the dual half of f_circ at p, as it was before the
    sum over j was taken outside."""
    return sum((grassmannian_E(n - 2 * k, n - 2 * p)
                * identities._f_circ_dual(p, i, n) for p in range(1, k + 1)),
               ZERO)


class TestNewrecKernel:
    @pytest.fixture(autouse=True)
    def empty_memos(self):
        clear_cut_memos()
        yield
        clear_cut_memos()

    @pytest.mark.parametrize("n", range(5, 18, 2))
    def test_swapped_sum_matches_the_sum_over_p(self, n):
        half = (n - 1) // 2
        for k in range(1, half + 1):
            assert identities._newrec_kernel(k, k, n) == ONE
            for i in range(1, half + 1):
                # the dual summands vanish past j = half - i
                swapped = sum((identities._closed_dual(j, i, n)
                               * identities._newrec_kernel(k, j, n)
                               for j in range(1, k + 1)), ZERO)
                assert swapped == newrec_dual_by_p(k, i, n), (n, k, i)

    def test_kernel_sign_dropped_fails_newrec_rows(self, monkeypatch, capsys):
        # without (-1)^(p-j) each kernel with a p = j+1 term changes by twice
        # its odd terms; the dual summand at j = 1 carries that into every
        # row with k >= 2 and a nonzero dual half (i < (n-1)/2)
        def unsigned_kernel(k, j, n):
            return sum(((gauss_binomial((n - 1) // 2 - j, p - j, 2)
                         * grassmannian_E(n - 2 * k, n - 2 * p)).shift(
                             (p - j) * (p - j - 1))
                        for p in range(j, k + 1)), ZERO)

        monkeypatch.setattr(identities, "_newrec_kernel", unsigned_kernel)
        code, failed, rows = verify_report(capsys, "newrec")
        expected = set()
        for r in rows:
            k, i, n = map(int, re.fullmatch(r"newrec\((\d+),(\d+),(\d+)\)",
                                            r["name"]).groups())
            if k >= 2 and i < (n - 1) // 2:
                expected.add(r["name"])
        assert code == cli.EXIT_FAIL
        assert len(rows) == 90
        assert failed == expected and len(failed) == 55

    def test_dual_inversion_sign_dropped_fails_the_cut_oracle(self, monkeypatch,
                                                             capsys):
        # newrec no longer reads _f_circ_dual; f_circ does, and the
        # cut-stratum oracle checks it against point counts over F_p on
        # criterion 10's grid
        def unsigned_dual(k, i, n):
            half = (n - 1) // 2
            return sum((identities._closed_dual(j, i, n).shift(
                (k - j) * (k - j - 1)) * gauss_binomial(half - j, k - j, 2)
                for j in range(1, min(k, half - i) + 1)), ZERO)

        monkeypatch.setattr(identities, "_f_circ_dual", unsigned_dual)
        mismatched = []
        for p, n in ((2, 5), (3, 5), (2, 7)):
            half = (n - 1) // 2
            for i in range(1, half + 1):
                for ph in range(1, half + 1):
                    code = cli.main(["oracle", "cut-stratum", "--p", str(p),
                                     "--n", str(n), "--rank", str(2 * ph),
                                     "--alpha-rank", str(2 * i)])
                    out = capsys.readouterr().out
                    assert out.endswith("MATCH\n"), out
                    if out.endswith("MISMATCH\n"):
                        assert code == cli.EXIT_FAIL
                        mismatched.append((p, n, i, ph))
        assert mismatched


class TestHj:
    def test_empty_sum_side(self):
        # at a = 0 the sum is the single term [2b+1, 0]_q = 1
        for b in range(0, 6):
            assert gauss_binomial(2 * b + 1, 0, 1) == ONE
            assert verify_hj(0, b) == row(f"hj(0,{b})", True)

    def test_two_term_value(self):
        # [3, 2]_q [1, 0]_{q^2} - [1, 0]_q [1, 1]_{q^2} = q + q^2
        assert (gauss_binomial(3, 2, 1) - gauss_binomial(1, 1, 2)
                == QPoly([0, 1, 1]))
        assert verify_hj(1, 1) == row("hj(1,1)", True)

    def test_larger_point(self):
        assert verify_hj(3, 5)["passed"]

    def test_full_triangle(self):
        for b in range(0, 9):
            for a in range(0, b + 1):
                assert verify_hj(a, b)["passed"], (a, b)

    def test_closed_form_shift_off_by_one_fails(self, monkeypatch):
        # q_quotient builds only the closed-form numerator here; multiplying
        # it by q puts its shift q^(2a^2-a) off by one.  The closed form is
        # zero, so unchanged, where its Pochhammer reaches 1 - q^0 (b < 2a-1).
        real = identities.q_quotient
        monkeypatch.setattr(identities, "q_quotient",
                            lambda *args: real(*args).shift(1))
        for b in range(0, 9):
            for a in range(0, b + 1):
                assert verify_hj(a, b)["passed"] == (b < 2 * a - 1), (a, b)

    def test_rejects_bad_order(self):
        with pytest.raises(RangeError):
            verify_hj(3, 2)


class TestRecursionSplit:
    @pytest.mark.parametrize("n,k,i", [(5, 1, 1), (7, 2, 2)])
    def test_both_halves_pass(self, n, k, i):
        assert verify_AC_BD(CutParams(n, k, i)) == [
            row(f"cut-recursion-smooth-part({k},{n})", True),
            row(f"cut-recursion-isotropic-part({k},{i},{n})", True)]

    def test_smooth_half_vanishes_at_k_one(self):
        assert verify_AC_BD(CutParams(9, 1, 1))[0]["passed"]
        assert identities._smooth_lhs_sum(1, 9)[0] == ZERO
        assert identities._smooth_rhs(1, 9) == ZERO

    def test_grid_up_to_eleven(self):
        for n in (5, 7, 9, 11):
            half = (n - 1) // 2
            for k in range(1, half + 1):
                for i in range(1, half + 1):
                    for report in verify_AC_BD(CutParams(n, k, i)):
                        assert report["passed"], report["name"]


def product_by_factors(exponents):
    """prod (1 - q^e) over the exponents, one factor at a time; zero when a
    factor is 1 - q^0, whatever the other exponents are."""
    exponents = list(exponents)
    if 0 in exponents:
        return ZERO
    out = ONE
    for e in exponents:
        out = out * (ONE - monomial(e))
    return out


def recursion_sum_by_pochhammer(k, n, js, value):
    """Reference: each coefficient as a Pochhammer in q^2 times a separate
    product of the remaining (1 - q^a) factors."""
    top = 2 * (k - js.start)
    den = q_quotient([*range(1, top + 1), *(n + 1 - 2 * j for j in js)], (),
                     "")
    total = ZERO
    for j in js:
        # (q^(n+3-4k+2j); q^2)_{2k-2j}
        pich = product_by_factors(n + 3 - 4 * k + 2 * j + 2 * t
                                  for t in range(2 * k - 2 * j))
        if not pich:
            continue
        rest = q_quotient([n + 1 - 2 * k, *range(2 * k - 2 * j + 1, top + 1),
                           *(n + 1 - 2 * jp for jp in js if jp != j)],
                          (), "")
        total = total + value(j).shift(2 * (k - j) ** 2 - (k - j)) * rest * pich
    return total, den


class TestRecursionSum:
    @pytest.mark.parametrize("n", [5, 7, 9, 11, 13, 15, 17])
    def test_matches_pochhammer_reference(self, n):
        # the library cancels (q;q)_{2k-2j} out of its denominator and the
        # reference does not, so the values are compared by
        # cross-multiplication
        for k in range(1, (n - 1) // 2 + 1):
            for js in (range(0, k + 1), range(1, k)):
                calls, reference_calls = [], []

                def value(j, seen):
                    seen.append(j)
                    return QPoly([j + 1, -2 * j, 3])

                total, den = identities._recursion_sum(
                    k, n, js, lambda j: value(j, calls))
                ref_total, ref_den = recursion_sum_by_pochhammer(
                    k, n, js, lambda j: value(j, reference_calls))
                assert (total * ref_den
                        == ref_total * q_quotient(den, (), "")), (n, k, js)
                assert calls == reference_calls, (n, k, js)

    def test_q2_pochhammer_is_a_binomial_times_two_q_pochhammers(self):
        # (q^(2c); q^2)_m = [c+m-1, m]_{q^2} (q;q)_m (-q;q)_m, the cell each
        # recursion coefficient is held in
        for c in range(1, 9):
            for m in range(0, 13):
                minus = ONE
                for t in range(1, m + 1):
                    minus = minus * (ONE + monomial(t))
                assert (q_quotient(range(2 * c, 2 * (c + m), 2), (), "")
                        == gauss_binomial(c + m - 1, m, 2)
                        * q_quotient(range(1, m + 1), (), "") * minus), (c, m)

    def test_denominator_is_the_linear_factors_only(self):
        for n in range(5, 18, 2):
            for k in range(1, (n - 1) // 2 + 1):
                for a, b in ((0, k + 1), (1, k)):
                    assert identities._recursion_terms(k, n, a, b)[1] == tuple(
                        n + 1 - 2 * j for j in range(a, b)), (n, k, a, b)


class TestPhiReductions:
    @pytest.mark.parametrize("n,k,i", [(5, 1, 1), (7, 2, 1), (9, 2, 2)])
    def test_all_three_rewrites(self, n, k, i):
        assert verify_phi_reductions(CutParams(n, k, i)) == [
            row(f"phi-2phi1-smooth-part({k},{n})", True),
            row(f"phi-3phi2-cut-part({k},{i},{n})", True),
            row(f"phi-3phi1-isotropic({k},{i},{n})", True)]

    def test_degenerate_point_is_skipped_not_failed(self):
        reports = {r["name"]: r for r in verify_phi_reductions(CutParams(5, 2, 2))}
        assert reports["phi-2phi1-smooth-part(2,5)"] == row(
            "phi-2phi1-smooth-part(2,5)", True)
        cut, isotropic = (reports["phi-3phi2-cut-part(2,2,5)"],
                          reports["phi-3phi1-isotropic(2,2,5)"])
        assert cut["passed"] and cut["skipped"]
        assert isotropic["passed"] and isotropic["skipped"]
        assert cut["note"] == ("lower parameter q^0 vanishes a denominator "
                               "factor within 2 terms")
        assert isotropic["note"] == ("lower parameter q^-2 vanishes a "
                                     "denominator factor within 4 terms")

    @pytest.mark.parametrize("n,k,i,name,note", [
        (7, 3, 1, "phi-3phi2-cut-part(3,1,7)",
         "lower parameter q^-2 vanishes a denominator factor within 3 terms"),
        (5, 2, 1, "phi-3phi1-isotropic(2,1,5)",
         "lower parameter q^0 vanishes a denominator factor within 4 terms"),
    ])
    def test_skip_note_names_the_vanishing_parameter(self, n, k, i, name,
                                                     note):
        reports = {r["name"]: r for r in verify_phi_reductions(CutParams(n, k, i))}
        assert reports[name] == row(name, True, True, note)

    def test_smooth_part_shift_off_by_one_fails(self, monkeypatch):
        # multiplying the z = q^2 series by q puts the q^(nk-1) in front of
        # it off by one
        real = identities.phi_eval

        def shifted_small(upper, lower, base, z, terms):
            num, den = real(upper, lower, base, z, terms)
            return (num.shift(1), den) if z == (1, 2) else (num, den)

        identities._phi_smooth_row.cache_clear()
        monkeypatch.setattr(identities, "phi_eval", shifted_small)
        try:
            for n in (5, 7, 9, 11):
                for k in range(1, (n - 1) // 2 + 1):
                    smooth = verify_phi_reductions(CutParams(n, k, 1))[0]
                    assert smooth == row(f"phi-2phi1-smooth-part({k},{n})",
                                         False)
        finally:
            identities._phi_smooth_row.cache_clear()

    def test_3phi2_prefactor_off_by_q_fails(self, monkeypatch):
        # the 3phi2 numerator (the only call with two lower parameters) times
        # q breaks the prefactor it is multiplied with, and nothing else
        real = identities.phi_eval

        def shifted_3phi2(upper, lower, base, z, terms):
            num, den = real(upper, lower, base, z, terms)
            return (num.shift(1), den) if len(lower) == 2 else (num, den)

        identities._phi_smooth_row.cache_clear()
        monkeypatch.setattr(identities, "phi_eval", shifted_3phi2)
        try:
            for n, k, i in [(7, 2, 1), (9, 2, 2), (11, 3, 2)]:
                assert verify_phi_reductions(CutParams(n, k, i)) == [
                    row(f"phi-2phi1-smooth-part({k},{n})", True),
                    row(f"phi-3phi2-cut-part({k},{i},{n})", False),
                    row(f"phi-3phi1-isotropic({k},{i},{n})", True)]
        finally:
            identities._phi_smooth_row.cache_clear()

    def test_grid_up_to_eleven(self):
        for n in (5, 7, 9, 11):
            half = (n - 1) // 2
            for k in range(1, half + 1):
                for i in range(1, half + 1):
                    for report in verify_phi_reductions(CutParams(n, k, i)):
                        assert report["passed"], report["name"]


class TestSummedPrefactorIdentity:
    def test_grassmannian_factorizes_through_odd_pochhammers(self):
        # [n choose 2k]_q = [half choose k]_{q^2} (q^{n+2-2k};q^2)_k / (q;q^2)_k
        for n in (5, 7, 9, 11, 13):
            half = (n - 1) // 2
            for k in range(1, half + 1):
                top = product_by_factors(n + 2 - 2 * k + 2 * t for t in range(k))
                bot = product_by_factors(1 + 2 * t for t in range(k))
                assert (gauss_binomial(n, 2 * k, 1) * bot
                        == gauss_binomial(half, k, 2) * top), (n, k)


class TestReportShape:
    def test_report_invariant(self):
        assert verify_hj(2, 3) == {"name": "hj(2,3)", "passed": True,
                                   "skipped": False, "note": ""}
