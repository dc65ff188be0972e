"""Command-line front end: exact computations, identity-grid verification,
and finite-field oracle comparisons.

Output formats: plain (bare value / per-point lines), latex (powers of uv),
json (a versioned RunReport with sorted keys).  Exit codes: 0 all pass,
1 verification failure, 2 usage or parameter error, 3 resource guard.

The one configurable setting, the oracle's enumeration guard, is
--max-enum; nothing is read from the environment.  Reports never embed
wall-clock timing (compute and verify print it to stderr), so two runs of
the same command emit byte-identical reports.

Only the oracle command loads `fq_oracle` (and numpy); compute and verify
run on the symbolic layers alone.  `main` reuses one parser per process.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import cache

from . import __version__, suites
from .qcore import QPoly, NotPolynomial, ZeroDenominator
from .efun import (
    PfaffianParams, RangeError, TooLarge, discrepancy, grassmannian_E,
    local_contribution, nondeg_skew_E, pf_stringy_closed, rank_stratum_E,
)
from .identities import (
    CutParams, f_circ, f_closed, isotropic_E, isotropic_subspaces_E,
)
from .mirror import even_fiber_E, fiber_E_odd

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


# ---------------------------------------------------------------------------
# rendering

def poly_json(p: QPoly) -> dict:
    return {"var": "q", "coeffs": list(p.coeffs)}


def render_report(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _run_report(command: str, parameters: dict, results: list) -> dict:
    return {
        "version": __version__,
        "command": command,
        "parameters": {k: parameters[k] for k in sorted(parameters)},
        "results": results,
        "timing_ms": None,
    }


def _emit_error(fmt: str, message: str, command: str) -> None:
    if fmt == "json":
        sys.stdout.write(render_report(
            {"version": __version__, "command": command, "error": message}))
    print(f"error: {message}", file=sys.stderr)


# ---------------------------------------------------------------------------
# compute

# target -> (parameter names, function of those parameters in that order)
_COMPUTE = {
    "grassmannian": (("k", "n"), grassmannian_E),
    "e-skew": (("i",), nondeg_skew_E),
    "rank-stratum": (("i", "n"), rank_stratum_E),
    "pf-stringy": (("n", "k"), lambda n, k: pf_stringy_closed(PfaffianParams(n, k))),
    "discrepancy": (("j", "n", "k"),
                    lambda j, n, k: discrepancy(j, PfaffianParams(n, k))),
    "local-contribution": (("p", "k", "n"), local_contribution),
    "isotropic": (("k", "i", "n"), isotropic_E),
    "f": (("k", "i", "n"), lambda k, i, n: f_closed(CutParams(n, k, i))),
    "f-circ": (("k", "i", "n"), lambda k, i, n: f_circ(CutParams(n, k, i))),
    "fiber-odd": (("k", "n"), fiber_E_odd),
    "fiber-even": (("k", "n"), even_fiber_E),
}


def cmd_compute(args) -> int:
    names, function = _COMPUTE[args.target]
    params = {name: getattr(args, name) for name in names}
    for name, value in params.items():
        if value is None:
            raise RangeError(f"compute {args.target} requires --{name}")
    start = time.perf_counter()
    value = function(*params.values())
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    if args.format == "plain":
        print(value)
    elif args.format == "latex":
        print(value if isinstance(value, int) else value.render("uv"))
    else:
        entry = {"name": args.target, "passed": None}
        if isinstance(value, int):
            entry["value"] = value
        else:
            entry["poly"] = poly_json(value)
        sys.stdout.write(render_report(_run_report("compute", params, [entry])))
    print(f"compute completed in {elapsed_ms} ms", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify

def cmd_verify(args) -> int:
    names = list(suites.SUITES) if args.suite == "all" else [args.suite]
    start = time.perf_counter()
    rows: list[dict] = []
    for name in names:
        run = suites.SUITES[name]
        # pass on the given flags this suite takes; it ignores the rest
        bounds = {key: getattr(args, key) for key in run.__kwdefaults__ or {}
                  if getattr(args, key) is not None}
        rows.extend(run(**bounds))
    if not rows:
        raise RangeError(f"verify {args.suite}: no grid points within the "
                         "given bounds")
    elapsed_ms = int((time.perf_counter() - start) * 1000)

    failed = sum(1 for row in rows if not row["passed"])
    skipped = sum(1 for row in rows if row["skipped"])
    passed = len(rows) - failed - skipped
    if args.format == "json":
        sys.stdout.write(render_report(_run_report(
            "verify", {"suite": args.suite}, rows)))
    else:
        for row in rows:
            status = ("SKIP" if row["skipped"]
                      else ("PASS" if row["passed"] else "FAIL"))
            note = f"  ({row['note']})" if row["note"] else ""
            print(f"{row['name']} {status}{note}")
        print(f"suite {args.suite}: {len(rows)} points, "
              f"{passed} passed, {failed} failed, {skipped} skipped")
    print(f"verify completed in {elapsed_ms} ms", file=sys.stderr)
    return EXIT_OK if failed == 0 else EXIT_FAIL


# ---------------------------------------------------------------------------
# oracle

def cmd_oracle(args) -> int:
    from . import fq_oracle  # numpy loads here, for the oracle only
    p, n = args.p, args.n
    if args.target == "rank-stratum":
        params = {"p": p, "n": n, "rank": args.rank}
        count = fq_oracle.count_rank_stratum(p, n, args.rank, args.max_enum)
        symbolic = 0 if args.rank == 0 else rank_stratum_E(args.rank // 2, n)(p)
    elif args.target == "isotropic":
        params = {"p": p, "n": n, "dim": args.dim, "alpha_rank": args.alpha_rank}
        if args.alpha_rank % 2:
            raise RangeError("--alpha-rank must be even")
        # refuse an oversized sweep before its O(n^2) form is built
        fq_oracle.SkewFormFp.check_standard(n, args.alpha_rank // 2)
        fq_oracle.subspace_guard(p, n, args.dim, args.max_enum)
        alpha = fq_oracle.SkewFormFp.standard(p, n, args.alpha_rank // 2)
        count = fq_oracle.count_isotropic(p, n, args.dim, alpha, args.max_enum)
        symbolic = isotropic_subspaces_E(args.dim, args.alpha_rank // 2, n)(p)
    else:  # cut-stratum
        params = {"p": p, "n": n, "rank": args.rank, "alpha_rank": args.alpha_rank}
        if args.alpha_rank % 2 or args.alpha_rank < 2:
            raise RangeError("--alpha-rank must be even and positive")
        cut = CutParams(n, args.rank // 2, args.alpha_rank // 2)
        fq_oracle.census_guard(p, n, args.rank, args.max_enum)
        alpha = fq_oracle.SkewFormFp.standard(p, n, args.alpha_rank // 2)
        count = fq_oracle.count_cut_stratum(p, n, args.rank, alpha, args.max_enum)
        symbolic = f_circ(cut)(p)

    match = count == symbolic
    if args.format == "json":
        row = {"name": args.target, "count": count, "symbolic": symbolic,
               "passed": match}
        sys.stdout.write(render_report(_run_report(
            "oracle", params, [row])))
    else:
        print(f"count={count} symbolic={symbolic} {'MATCH' if match else 'MISMATCH'}")
    return EXIT_OK if match else EXIT_FAIL


# ---------------------------------------------------------------------------
# parser

def _int_flags(parser, names) -> None:
    for name in sorted(names):  # --max-n sets max_n, None when not given
        parser.add_argument("--" + name.replace("_", "-"), type=int)


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pfes",
        description="Exact stringy E-functions of skew-form rank loci: "
                    "compute values, verify identity grids, cross-check "
                    "against finite-field counts.")
    sub = parser.add_subparsers(dest="command", required=True)

    comp = sub.add_parser("compute", help="print one exact value")
    comp.add_argument("target", choices=sorted(_COMPUTE))
    _int_flags(comp, {name for names, _ in _COMPUTE.values() for name in names})
    comp.add_argument("--format", choices=("plain", "latex", "json"),
                      default="plain")
    comp.set_defaults(handler=cmd_compute)

    ver = sub.add_parser("verify", help="run an identity suite over its grid")
    ver.add_argument("suite", choices=sorted(suites.SUITES) + ["all"])
    _int_flags(ver, {bound for run in suites.SUITES.values()
                     for bound in run.__kwdefaults__ or {}})
    ver.add_argument("--format", choices=("plain", "json"), default="plain")
    ver.set_defaults(handler=cmd_verify)

    orc = sub.add_parser("oracle", help="compare a brute-force count with "
                                        "the symbolic value at q = p")
    orc.add_argument("target", choices=("rank-stratum", "isotropic", "cut-stratum"))
    orc.add_argument("--p", type=int, required=True)
    orc.add_argument("--n", type=int, required=True)
    orc.add_argument("--rank", type=int, default=0)
    orc.add_argument("--dim", type=int, default=0)
    orc.add_argument("--alpha-rank", dest="alpha_rank", type=int, default=0)
    orc.add_argument("--max-enum", type=int, help="override the enumeration guard")
    orc.add_argument("--format", choices=("plain", "json"), default="plain")
    orc.set_defaults(handler=cmd_oracle)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    fmt = getattr(args, "format", "plain")
    try:
        return args.handler(args)
    except RangeError as exc:
        _emit_error(fmt, str(exc), args.command)
        return EXIT_USAGE
    except TooLarge as exc:
        _emit_error(fmt, str(exc), args.command)
        return EXIT_RESOURCE
    except (NotPolynomial, ZeroDenominator) as exc:
        _emit_error(fmt, str(exc), args.command)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
