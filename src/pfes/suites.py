"""The registry of verification suites: one grid and one runner per named
identity check, with the default bounds of its grid.

A runner takes one grid point and returns report rows, plain dicts with
keys name, passed, skipped and note.  `pfes verify` and the acceptance
tests both run the suites from here, so each check is written once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .qcore import QPoly, geometric_series, monomial
from .efun import (
    PfaffianParams, _rank_locus_weight, grassmannian_E, nondeg_skew_E,
    pf_stringy_closed, pf_stringy_recursive, pf_stringy_rodland, projective_E,
    rank_stratum_E, stringy_degree,
)
from .identities import (
    CutParams, f_closed, solve_newcor,
    verify_AC_BD, verify_hj, verify_newrec, verify_phi_reductions,
)
from .mirror import even_anomaly_check, main_coefficient_check, main_main_check


def _row(name: str, passed: bool, skipped: bool = False, note: str = "") -> dict:
    return {"name": name, "passed": bool(passed), "skipped": bool(skipped),
            "note": note}


def _report_row(report) -> dict:
    point = ",".join(str(x) for x in report.parameter_point)
    return _row(f"{report.identity_name}({point})", report.passed,
                report.skipped, report.note)


def _odd_range(max_n: int):
    return [n for n in range(5, max_n + 1) if n % 2 == 1]


def _grid_relg(b):
    return [(i, r) for r in range(0, b["max_r"] + 1) for i in range(0, r + 1)]

def _run_relg(point):
    i, r = point
    lhs = grassmannian_E(2 * i, 2 * r) * (monomial(2 * r + 1) - 1)
    rhs = grassmannian_E(2 * i, 2 * r + 1) * (monomial(2 * r - 2 * i + 1) - 1)
    return [_row(f"relg(i={i},r={r})", lhs == rhs)]


def _grid_r(b):
    return [(r,) for r in range(1, b["max_r"] + 1)]

def _run_oddeven(point):
    (r,) = point
    even = sum((nondeg_skew_E(i) * grassmannian_E(2 * i, 2 * r)
                for i in range(1, r + 1)), start=QPoly())
    odd = sum((nondeg_skew_E(i) * grassmannian_E(2 * i, 2 * r + 1)
               for i in range(1, r + 1)), start=QPoly())
    return [
        _row(f"oddeven-even(r={r})", even == projective_E(r * (2 * r - 1) - 1)),
        _row(f"oddeven-odd(r={r})", odd == projective_E(r * (2 * r + 1) - 1)),
    ]


def _run_sum(point):
    (r,) = point
    lhs = QPoly()
    for i in range(1, r):
        lhs = (lhs + geometric_series(r - i, 2) * nondeg_skew_E(i)
               * grassmannian_E(2 * i, 2 * r + 1))
    if r == 1:
        rhs = QPoly()
    else:
        rhs = pf_stringy_rodland(r)
    return [_row(f"sum(r={r})", lhs == rhs)]


def _grid_below_half(b):
    return [(n, k) for n in _odd_range(b["max_n"])
            for k in range(1, (n - 3) // 2 + 1)]

def _run_technical(point):
    n, k = point
    lhs = QPoly()
    for i in range(1, (n - 1) // 2 + 1):
        lhs = lhs + rank_stratum_E(i, n) * _rank_locus_weight(i, k, n)
    rhs = pf_stringy_closed(PfaffianParams(n, k))
    return [_row(f"technical(n={n},k={k})", lhs == rhs)]


def _grid_stpf(b):
    return [(n,) for n in _odd_range(b["max_n"])]

def _run_stpf(point):
    (n,) = point
    rows = []
    if n == 5:
        rows.append(_row("stpf-base(r=2)",
                         pf_stringy_rodland(2) == grassmannian_E(2, 5)))
    got = pf_stringy_closed(PfaffianParams(n, (n - 3) // 2))
    rows.append(_row(f"stpf(n={n})", got == pf_stringy_rodland((n - 1) // 2)))
    return rows


def _grid_pfst2k(b):
    return [(n, k) for n in _odd_range(b["max_n"])
            for k in range(1, (n - 1) // 2 + 1)]

def _run_pfst2k(point):
    n, k = point
    params = PfaffianParams(n, k)
    closed = pf_stringy_closed(params)
    ok = (closed == pf_stringy_recursive(params)
          and closed.is_palindromic
          and closed.degree == stringy_degree(n, k))
    return [_row(f"pfst2k(n={n},k={k})", ok)]


def _grid_cut(b):
    return [(n, k, i) for n in _odd_range(b["max_n"])
            for k in range(1, (n - 1) // 2 + 1)
            for i in range(1, (n - 1) // 2 + 1)]

def _run_newrec(point):
    n, k, i = point
    return [_report_row(verify_newrec(CutParams(n, k, i)))]

def _run_acbd(point):
    n, k, i = point
    return [_report_row(r) for r in verify_AC_BD(CutParams(n, k, i))]

def _run_phi(point):
    n, k, i = point
    return [_report_row(r) for r in verify_phi_reductions(CutParams(n, k, i))]


def _grid_newcor(b):
    return [(n, i) for n in _odd_range(b["max_n"])
            for i in range(1, (n - 1) // 2 + 1)]

def _run_newcor(point):
    n, i = point
    half = (n - 1) // 2
    solved = solve_newcor(half, i, n)
    return [_row(f"newcor(k={k},i={i},n={n})",
                 solved[k - 1] == f_closed(CutParams(n, k, i)))
            for k in range(1, half + 1)]


def _grid_hj(b):
    return [(a, bb) for bb in range(0, b["max_b"] + 1) for a in range(0, bb + 1)]

def _run_hj(point):
    a, bb = point
    return [_report_row(verify_hj(a, bb))]


def _grid_main_coeff(b):
    return [(k,) for k in range(2, b["max_k"] + 1)]

def _run_main_coeff(point):
    (k,) = point
    return [_report_row(main_coefficient_check(k))]


def _run_main_main(point):
    n, k = point
    report = main_main_check(n, k)
    return [_row(f"main-main(n={n},k={k})", report.overall and report.duality_ok)]


def _grid_even_anomaly(b):
    return [()]

def _run_even_anomaly(point):
    report = even_anomaly_check()
    return [_row("even-anomaly", report.passed, note=report.note)]


@dataclass(frozen=True)
class Suite:
    grid: Callable
    runner: Callable
    defaults: dict


SUITES: dict[str, Suite] = {
    "relg": Suite(_grid_relg, _run_relg, {"max_r": 8}),
    "oddeven": Suite(_grid_r, _run_oddeven, {"max_r": 8}),
    "sum": Suite(_grid_r, _run_sum, {"max_r": 8}),
    "technical": Suite(_grid_below_half, _run_technical, {"max_n": 17}),
    "stpf": Suite(_grid_stpf, _run_stpf, {"max_n": 15}),
    "pfst2k": Suite(_grid_pfst2k, _run_pfst2k, {"max_n": 17}),
    "newrec": Suite(_grid_cut, _run_newrec, {"max_n": 13}),
    "newcor": Suite(_grid_newcor, _run_newcor, {"max_n": 13}),
    "hj": Suite(_grid_hj, _run_hj, {"max_b": 8}),
    "ac-bd": Suite(_grid_cut, _run_acbd, {"max_n": 11}),
    "phi": Suite(_grid_cut, _run_phi, {"max_n": 11}),
    "main-coeff": Suite(_grid_main_coeff, _run_main_coeff, {"max_k": 10}),
    "main-main": Suite(_grid_below_half, _run_main_main, {"max_n": 13}),
    "even-anomaly": Suite(_grid_even_anomaly, _run_even_anomaly, {}),
}

