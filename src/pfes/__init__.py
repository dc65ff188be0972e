"""Exact q-arithmetic, stringy E-functions of skew-form rank loci, the
identity suite verifying them, and a finite-field brute-force oracle.

The oracle, `fq_oracle`, needs numpy, and the symbolic layers do not: it
and its exports are loaded on first access, through the module
`__getattr__` below (PEP 562)."""

__version__ = "0.1.0"

import importlib

from .qcore import (
    QPoly, NotPolynomial, ZeroDenominator, gauss_binomial, phi_eval,
)
from .efun import (
    PfaffianParams, RangeError, TooLarge,
    projective_E, grassmannian_E, nondeg_skew_E, rank_stratum_E,
    discrepancy, local_contribution,
    pf_stringy_closed, pf_stringy_recursive, pf_stringy_rodland,
)
from .identities import (
    CutParams, isotropic_E, isotropic_subspaces_E, f_closed, f_circ,
    recursion_holds, verify_newrec, verify_hj, verify_AC_BD,
    verify_phi_reductions,
)
from .mirror import (
    fiber_E_odd, even_fiber_E,
    main_coefficient_check, main_main_check, even_anomaly_check,
)

_ORACLE_EXPORTS = frozenset({
    "fq_oracle", "SkewFormFp", "skew_rank", "count_rank_stratum",
    "count_isotropic", "count_cut_stratum",
})


def __getattr__(name):
    if name in _ORACLE_EXPORTS:
        oracle = importlib.import_module(".fq_oracle", __name__)
        return oracle if name == "fq_oracle" else getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
