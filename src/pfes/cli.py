"""Command-line front end: exact computations, identity-grid verification,
and finite-field oracle comparisons.

Output formats: plain (bare value / per-point lines), latex (powers of uv),
json (a versioned RunReport with sorted keys).  Exit codes: 0 all pass,
1 verification failure, 2 usage or parameter error, 3 resource guard.

The one configurable setting, the oracle's enumeration guard, is read
from --max-enum, then PFES_MAX_ENUM, then its default.  Verification
reports never embed wall-clock timing (it goes to stderr), so serial and
--parallel runs of the same command emit byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from . import __version__, suites
from .qcore import (
    QPoly, LowerParamPole, NotDivisible, NotPolynomial, ZeroDenominator,
    gauss_binomial,
)
from .efun import (
    PfaffianParams, RangeError, discrepancy, grassmannian_E,
    local_contribution, nondeg_skew_E, pf_stringy_closed, rank_stratum_E,
)
from .identities import CutParams, f_circ, f_closed, isotropic_E
from .mirror import even_fiber_E, fiber_E_odd
from .fq_oracle import SkewFormFp, TooLarge, count_cut_stratum, count_isotropic, count_rank_stratum

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


# ---------------------------------------------------------------------------
# rendering

def poly_latex(p: QPoly) -> str:
    if p.is_zero:
        return "0"
    parts = []
    for e in range(p.degree, -1, -1):
        c = p.coeffs[e]
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            var = "uv" if e == 1 else f"(uv)^{e}"
            body = var if mag == 1 else f"{mag}{var}"
        parts.append(sign + body)
    return "".join(parts)


def poly_json(p: QPoly) -> dict:
    return {"var": "q", "coeffs": list(p.coeffs)}


def render_report(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _run_report(command: str, parameters: dict, results: list, timing_ms) -> dict:
    return {
        "version": __version__,
        "command": command,
        "parameters": {k: parameters[k] for k in sorted(parameters)},
        "results": results,
        "timing_ms": timing_ms,
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
    params = {}
    for name in names:
        value = getattr(args, name)
        if value is None:
            raise RangeError(f"compute {args.target} requires --{name}")
        params[name] = value
    start = time.perf_counter()
    value = function(*params.values())
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    if args.format == "plain":
        print(value)
    elif args.format == "latex":
        print(value if isinstance(value, int) else poly_latex(value))
    else:
        entry = {"name": args.target, "passed": None}
        if isinstance(value, int):
            entry["value"] = value
        else:
            entry["poly"] = poly_json(value)
        sys.stdout.write(render_report(
            _run_report("compute", params, [entry], elapsed_ms)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify

def _suite_bounds(name: str, args) -> dict:
    bounds = dict(suites.SUITES[name].defaults)
    for key in bounds:
        flag = getattr(args, key, None)
        if flag is not None:
            bounds[key] = flag
    return bounds


def _run_point(task):
    suite, point = task
    return suites.SUITES[suite].runner(point)


def cmd_verify(args) -> int:
    names = list(suites.SUITES) if args.suite == "all" else [args.suite]
    tasks = []
    for name in names:
        for point in suites.SUITES[name].grid(_suite_bounds(name, args)):
            tasks.append((name, point))
    start = time.perf_counter()
    rows: list[dict] = []
    if args.parallel:
        with ProcessPoolExecutor() as pool:
            for batch in pool.map(_run_point, tasks):
                rows.extend(batch)
    else:
        for task in tasks:
            rows.extend(_run_point(task))
    elapsed_ms = int((time.perf_counter() - start) * 1000)

    failed = sum(1 for row in rows if not row["passed"])
    skipped = sum(1 for row in rows if row["skipped"])
    passed = len(rows) - failed - skipped
    if args.format == "json":
        sys.stdout.write(render_report(_run_report(
            "verify", {"suite": args.suite}, rows, None)))
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
    p, n = args.p, args.n
    if args.target == "rank-stratum":
        params = {"p": p, "n": n, "rank": args.rank}
        count = count_rank_stratum(p, n, args.rank, args.max_enum)
        symbolic = (0 if args.rank == 0
                    else rank_stratum_E(args.rank // 2, n)(p))
    elif args.target == "isotropic":
        params = {"p": p, "n": n, "dim": args.dim, "alpha_rank": args.alpha_rank}
        if args.alpha_rank % 2:
            raise RangeError("--alpha-rank must be even")
        alpha = SkewFormFp.standard(p, n, args.alpha_rank // 2)
        count = count_isotropic(p, n, args.dim, alpha, args.max_enum)
        if args.alpha_rank == 0 or args.dim < 2:
            symbolic = gauss_binomial(n, args.dim, 1)(p)
        elif args.dim % 2 == 0:
            symbolic = isotropic_E(args.dim // 2, args.alpha_rank // 2, n)(p)
        else:
            raise RangeError("no symbolic counterpart for odd --dim with a "
                             "nonzero form; use an even subspace dimension")
    elif args.target == "cut-stratum":
        params = {"p": p, "n": n, "rank": args.rank, "alpha_rank": args.alpha_rank}
        if args.alpha_rank % 2 or args.alpha_rank < 2:
            raise RangeError("--alpha-rank must be even and positive")
        alpha = SkewFormFp.standard(p, n, args.alpha_rank // 2)
        count = count_cut_stratum(p, n, args.rank, alpha, args.max_enum)
        symbolic = f_circ(CutParams(n, args.rank // 2, args.alpha_rank // 2))(p)
    else:
        raise RangeError(f"unknown oracle target {args.target!r}")

    match = count == symbolic
    if args.format == "json":
        row = {"name": args.target, "count": count, "symbolic": symbolic,
               "passed": match}
        sys.stdout.write(render_report(_run_report(
            "oracle", params, [row], None)))
    else:
        print(f"count={count} symbolic={symbolic} {'MATCH' if match else 'MISMATCH'}")
    return EXIT_OK if match else EXIT_FAIL


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pfes",
        description="Exact stringy E-functions of skew-form rank loci: "
                    "compute values, verify identity grids, cross-check "
                    "against finite-field counts.")
    sub = parser.add_subparsers(dest="command", required=True)

    comp = sub.add_parser("compute", help="print one exact value")
    comp.add_argument("target", choices=sorted(_COMPUTE))
    for flag in ("n", "k", "i", "j", "p"):
        comp.add_argument(f"--{flag}", type=int, default=None)
    comp.add_argument("--format", choices=("plain", "latex", "json"),
                      default="plain")
    comp.set_defaults(handler=cmd_compute)

    ver = sub.add_parser("verify", help="run an identity suite over its grid")
    ver.add_argument("suite", choices=sorted(suites.SUITES) + ["all"])
    ver.add_argument("--max-n", dest="max_n", type=int, default=None)
    ver.add_argument("--max-r", dest="max_r", type=int, default=None)
    ver.add_argument("--max-b", dest="max_b", type=int, default=None)
    ver.add_argument("--max-k", dest="max_k", type=int, default=None)
    ver.add_argument("--parallel", action="store_true")
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
    orc.add_argument("--max-enum", dest="max_enum", type=int, default=None,
                     help="override the enumeration guard (also PFES_MAX_ENUM)")
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
    except (NotPolynomial, NotDivisible, ZeroDenominator, LowerParamPole) as exc:
        _emit_error(fmt, str(exc), args.command)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
