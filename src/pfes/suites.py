"""The registry of verification suites: one generator per named identity
check, whose keyword-only parameters are the bounds of its grid and carry
their defaults.

A suite yields report rows, plain dicts with keys name, passed, skipped
and note, built by identities.row; the verifiers in identities and mirror
return their rows themselves.  `pfes verify` and the acceptance tests both
run the suites from here, so each check is written once.
"""

from __future__ import annotations

from .qcore import QPoly, geometric_series, monomial
from .efun import (
    PfaffianParams, euler_characteristic, grassmannian_E, nondeg_skew_E,
    pf_stringy_closed, pf_stringy_recursive, pf_stringy_rodland,
    projective_E, stringy_degree,
)
from .identities import (
    CutParams, isotropic_subspaces_E, recursion_holds, row, verify_AC_BD,
    verify_hj, verify_newrec, verify_phi_reductions,
)
from .mirror import (
    even_anomaly_check, even_fiber_E, fiber_E_odd, main_coefficient_check,
    main_main_check,
)


def _odd_range(max_n: int) -> range:
    return range(5, max_n + 1, 2)


def _below_half(max_n: int):
    for n in _odd_range(max_n):
        for k in range(1, (n - 3) // 2 + 1):
            yield n, k


def _cut_grid(max_n: int):
    for n in _odd_range(max_n):
        half = (n - 1) // 2
        for k in range(1, half + 1):
            for i in range(1, half + 1):
                yield CutParams(n, k, i)


def relg(*, max_r=8):
    for r in range(0, max_r + 1):
        for i in range(0, r + 1):
            lhs = grassmannian_E(2 * i, 2 * r) * (monomial(2 * r + 1) - 1)
            rhs = (grassmannian_E(2 * i, 2 * r + 1)
                   * (monomial(2 * r - 2 * i + 1) - 1))
            yield row(f"relg(i={i},r={r})", lhs == rhs)


def oddeven(*, max_r=8):
    for r in range(1, max_r + 1):
        even = sum((nondeg_skew_E(i) * grassmannian_E(2 * i, 2 * r)
                    for i in range(1, r + 1)), start=QPoly())
        odd = sum((nondeg_skew_E(i) * grassmannian_E(2 * i, 2 * r + 1)
                   for i in range(1, r + 1)), start=QPoly())
        yield row(f"oddeven-even(r={r})",
                  even == projective_E(r * (2 * r - 1) - 1))
        yield row(f"oddeven-odd(r={r})",
                  odd == projective_E(r * (2 * r + 1) - 1))


def weighted_sum(*, max_r=8):
    for r in range(1, max_r + 1):
        lhs = QPoly()
        for i in range(1, r):
            lhs = (lhs + geometric_series(r - i, 2) * nondeg_skew_E(i)
                   * grassmannian_E(2 * i, 2 * r + 1))
        rhs = QPoly() if r == 1 else pf_stringy_rodland(r)
        yield row(f"sum(r={r})", lhs == rhs)


def technical(*, max_n=17):
    for n, k in _below_half(max_n):
        params = PfaffianParams(n, k)
        yield row(f"technical(n={n},k={k})",
                  pf_stringy_recursive(params) == pf_stringy_closed(params))


def stpf(*, max_n=15):
    for n in _odd_range(max_n):
        if n == 5:
            yield row("stpf-base(r=2)",
                      pf_stringy_rodland(2) == grassmannian_E(2, 5))
        got = pf_stringy_closed(PfaffianParams(n, (n - 3) // 2))
        yield row(f"stpf(n={n})", got == pf_stringy_rodland((n - 1) // 2))


def pfst2k(*, max_n=17):
    for n in _odd_range(max_n):
        for k in range(1, (n - 1) // 2 + 1):
            params = PfaffianParams(n, k)
            closed = pf_stringy_closed(params)
            ok = (closed == pf_stringy_recursive(params)
                  and closed.is_palindromic
                  and closed.degree == stringy_degree(n, k)
                  and closed(1) == euler_characteristic(params))
            yield row(f"pfst2k(n={n},k={k})", ok)


def newrec(*, max_n=13):
    for cut in _cut_grid(max_n):
        yield verify_newrec(cut)


def newcor(*, max_n=13):
    for n in _odd_range(max_n):
        half = (n - 1) // 2
        for i in range(1, half + 1):
            for k in range(1, half + 1):
                yield row(f"newcor(k={k},i={i},n={n})",
                          recursion_holds(k, i, n))


def hj(*, max_b=8):
    for b in range(0, max_b + 1):
        for a in range(0, b + 1):
            yield verify_hj(a, b)


def ac_bd(*, max_n=11):
    for cut in _cut_grid(max_n):
        yield from verify_AC_BD(cut)


def phi(*, max_n=11):
    for cut in _cut_grid(max_n):
        yield from verify_phi_reductions(cut)


def main_coeff(*, max_k=10):
    for k in range(2, max_k + 1):
        yield main_coefficient_check(k)


def main_main(*, max_n=13):
    for n, k in _below_half(max_n):
        yield main_main_check(n, k)


def even_anomaly():
    yield even_anomaly_check()


def fiber(*, max_n=17):
    # the fiber over a form of corank 2k+1 (odd n) or 2k (even n) is the
    # planes isotropic for it, a form of half-rank n // 2 - k
    for n in range(3, max_n + 1):
        fiber_E = fiber_E_odd if n % 2 else even_fiber_E
        for k in range(n // 2 + 1):
            yield row(f"fiber(k={k},n={n})", fiber_E(k, n)
                      == isotropic_subspaces_E(2, n // 2 - k, n))


SUITES = {
    "relg": relg,
    "oddeven": oddeven,
    "sum": weighted_sum,
    "technical": technical,
    "stpf": stpf,
    "pfst2k": pfst2k,
    "newrec": newrec,
    "newcor": newcor,
    "hj": hj,
    "ac-bd": ac_bd,
    "phi": phi,
    "main-coeff": main_coeff,
    "main-main": main_main,
    "even-anomaly": even_anomaly,
    "fiber": fiber,
}
