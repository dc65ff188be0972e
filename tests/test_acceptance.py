"""Acceptance gate: one test per exit criterion, every check exact
(integer/polynomial equality, zero tolerance).  Each test prints a one-line
verdict; run with `pytest tests/test_acceptance.py -v -s` to see them."""

from pfes.qcore import QPoly, gauss_binomial
from pfes.efun import rank_stratum_E
from pfes.identities import CutParams, f_circ, isotropic_subspaces_E
from pfes.suites import SUITES
from pfes.fq_oracle import (
    SkewFormFp, count_cut_stratum, count_isotropic, count_rank_stratum,
)
from test_fq_oracle import census_totals


def _verdict(number, text):
    print(f"ACCEPTANCE {number} PASS: {text}")


def odd_range(lo, hi):
    return [n for n in range(lo, hi + 1) if n % 2 == 1]


def _rows(*suite_names):
    """Rows of the named registry suites at their default bounds; none may
    fail."""
    rows = [row for name in suite_names for row in SUITES[name]()]
    failed = [row["name"] for row in rows if not row["passed"]]
    assert not failed, failed
    return rows


def test_criterion_01_grassmannian_two_four():
    assert gauss_binomial(4, 2, 1) == QPoly([1, 1, 2, 1, 1])
    _verdict(1, "E(G(2,4)) = q^4+q^3+2q^2+q+1 exactly")


def test_criterion_02_base_case_is_a_grassmannian():
    rows = _rows("stpf")
    assert any(row["name"] == "stpf-base(r=2)" for row in rows)
    _verdict(2, "closed stringy form at r=2 equals E(G(2,5)) exactly")


def test_criterion_03_closed_forms_agree():
    assert len(_rows("stpf")) == 1 + len(odd_range(5, 15))
    _verdict(3, "product form matches classical closed form for n = 5..15")


def test_criterion_04_recursion_reproduces_closed_form():
    _rows("pfst2k")
    _verdict(4, "stratified = closed stringy values, all palindromic, "
                "for odd n <= 17 and every k")


def test_criterion_05_grassmannian_stratum_identities():
    _rows("relg", "oddeven", "sum", "technical")
    _verdict(5, "flag-fibration, rank-partition, weighted-sum and "
                "stratified-product identities all hold on their grids")


def test_criterion_06_binomial_and_series_identities():
    rows = _rows("hj", "ac-bd", "phi")
    assert sum(row["skipped"] for row in rows) == 57
    _verdict(6, "alternating binomial identity (a<=b<=8), both recursion "
                "halves and all defined series rewrites pass for odd n <= 11")


def test_criterion_07_triangular_solve_matches_closed_form():
    _rows("newcor")
    _verdict(7, "the closed cut formula satisfies the triangular recursion "
                "for odd n <= 13 and every (k, i)")


def test_criterion_08_mirror_stratum_weights():
    # each main-main row also checks the relabeling symmetry: the Y-side
    # stratum weights at (n, k) are the X-side weights at (n, (n-1)/2 - k)
    names = [row["name"] for row in _rows("main-coeff", "main-main")]
    assert names == ([f"main-coefficient({k})" for k in range(2, 11)]
                     + [f"main-main(n={n},k={k})" for n in odd_range(5, 13)
                        for k in range(1, (n - 3) // 2 + 1)])
    _verdict(8, "stratum-weight mirror equality and weight duality hold for "
                "odd n <= 13; coefficient identity holds for k <= 10")


def test_criterion_09_even_dimensional_anomaly():
    [report] = _rows("even-anomaly")
    assert "not a polynomial" in report["note"]
    _verdict(9, "corank-4 weight is (q^2+q+1)/(q+1), non-polynomial as "
                "required; discrepancy-2 weight equals q^2+1")


def test_criterion_10_finite_field_oracle():
    # anchors
    assert count_rank_stratum(2, 5, 2) == 155
    assert count_rank_stratum(2, 4, 4) == 28
    assert count_isotropic(2, 5, 2, SkewFormFp.standard(2, 5, 1)) == 91

    sweeps = [(p, n) for p in (2, 3) for n in range(2, 7)] + [(2, 7)]
    for p, n in sweeps:
        m = n * (n - 1) // 2
        totals = census_totals(p, n)
        assert sum(totals.values()) == (p ** m - 1) // (p - 1), (p, n)
        for i in range(1, n // 2 + 1):
            assert totals[2 * i] == rank_stratum_E(i, n)(p), (p, n, i)

        for i in range(0, n // 2 + 1):
            alpha = SkewFormFp.standard(p, n, i)
            for d in range(0, n + 1):
                assert count_isotropic(p, n, d, alpha) == \
                    isotropic_subspaces_E(d, i, n)(p), (p, n, i, d)

        if n % 2 == 1 and n >= 5:
            for i in range(1, (n - 1) // 2 + 1):
                alpha = SkewFormFp.standard(p, n, i)
                for ph in range(1, (n - 1) // 2 + 1):
                    assert count_cut_stratum(p, n, 2 * ph, alpha) == \
                        f_circ(CutParams(n, ph, i))(p), (p, n, i, ph)
    _verdict(10, "rank, isotropic (every dimension) and cut counts over "
                 "F_2/F_3 (n <= 6, plus "
                 "the full n = 7 sweep over F_2) all match the symbolic "
                 "values, and rank strata partition projective space")
