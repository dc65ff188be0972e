"""What one benchmark iteration runs, and how each result is checked.

verify-default and verify-wide call ``pfes.cli.main`` once per suite, in
the fixed order below, in one process, so the memo caches are shared as in
``pfes verify all``.  Their grids are fixed and do not depend on the seed.
Each report is checked against the digests pinned in ``golden.json``.

oracle counts points over F_p by brute force and compares every count with
the symbolic E-polynomial evaluated at q = p.  Each form it cuts or restricts
by is the standard form of the required rank conjugated by a random
invertible matrix drawn from the seed, so any seed must pass.

Every pfes function is looked up on its module at call time, so the traced
run sees the wrappers the tracer installs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import traceback
from collections import Counter
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden.json"

# The suites of `pfes verify all` at the commit that defined the benchmark.
# Fixed here, so a suite added to the CLI later does not change the workload.
SUITE_ORDER = (
    "relg", "oddeven", "sum", "technical", "stpf", "pfst2k", "newrec",
    "newcor", "hj", "ac-bd", "phi", "main-coeff", "main-main", "even-anomaly",
)

VERIFY_ARGS = {"verify-default": (), "verify-wide": ("--max-n", "17")}

WORKLOADS = (*VERIFY_ARGS, "oracle")


def row_digest(row: dict) -> str:
    text = json.dumps(row, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def report_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_suite(cli, suite: str, extra, cache_dir=None):
    """Run one suite through the CLI; returns (exit code or None, stdout)."""
    argv = ["verify", suite, "--format", "json", *extra]
    if cache_dir is not None:
        argv = ["--cache-dir", cache_dir, *argv]
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except Exception:  # a crash fails the suite's checks; keep going
        traceback.print_exc(file=sys.stderr)
        code = None
    return code, out.getvalue()


def check_suite(code, text: str, want: dict) -> tuple[int, int]:
    """(checks attempted, checks failed) for one suite report.

    The checks are every pinned row, plus the report as a whole: its bytes
    and an exit code of 0.  A row that is missing, changed or extra fails.
    """
    if code == 0 and report_digest(text) == want["sha256"]:
        return want["rows"] + 1, 0
    try:
        rows = json.loads(text)["results"]
    except (ValueError, KeyError, TypeError):
        rows = []
    expected = Counter(want["row_digests"])
    got = Counter(row_digest(row) for row in rows)
    bad = max(sum((expected - got).values()), sum((got - expected).values()))
    return max(want["rows"], len(rows)) + 1, bad + 1


def run_verify(pfes, workload: str, golden: dict, span, cache_dir=None):
    """Run the fixed suite list and check it; returns (attempted, failed)."""
    attempted = failed = 0
    for suite in SUITE_ORDER:
        with span(f"cli.verify.{suite}") as record:
            code, text = run_suite(pfes.cli, suite, VERIFY_ARGS[workload],
                                   cache_dir)
            a, f = check_suite(code, text, golden[workload][suite])
            record["rows"] = a - 1
        attempted += a
        failed += f
    return attempted, failed


# ---------------------------------------------------------------------------
# oracle

def _invertible_mod_p(rows, p: int) -> bool:
    mat = [list(r) for r in rows]
    n = len(mat)
    for col in range(n):
        piv = next((r for r in range(col, n) if mat[r][col] % p), None)
        if piv is None:
            return False
        mat[col], mat[piv] = mat[piv], mat[col]
        inv = pow(mat[col][col], -1, p)
        for r in range(col + 1, n):
            f = mat[r][col] * inv % p
            mat[r] = [(x - f * y) % p for x, y in zip(mat[r], mat[col])]
    return True


def random_invertible(rng: random.Random, p: int, n: int):
    while True:
        g = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if _invertible_mod_p(g, p):
            return g


# (p, n, half-rank i) of each form the oracle cuts or restricts by.
ORACLE_ALPHAS = ((2, 7, 1), (3, 5, 1), (3, 5, 2), (2, 8, 2))


def oracle_inputs(pfes, seed: int) -> dict:
    """Seeded forms g^T A g, with A the standard form of half-rank i."""
    rng = random.Random(seed)
    form = pfes.fq_oracle.SkewFormFp
    return {(p, n, i): form.standard(p, n, i).conjugated(
                random_invertible(rng, p, n))
            for p, n, i in ORACLE_ALPHAS}


def run_oracle(pfes, alphas: dict, span):
    """Every brute-force count against its symbolic value at q = p;
    returns (attempted, failed)."""
    fq, efun, ident, qcore = (pfes.fq_oracle, pfes.efun, pfes.identities,
                              pfes.qcore)
    attempted = failed = 0

    def check(label, count, symbolic):
        nonlocal attempted, failed
        attempted += 1
        try:
            with span(f"oracle.{label}"):
                ok = count() == symbolic()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        if not ok:
            failed += 1
            print(f"oracle check failed: {label}", file=sys.stderr)

    def rank_strata(p, n):
        for i in range(1, n // 2 + 1):
            check(f"rank p={p} n={n} rank={2 * i}",
                  lambda: fq.count_rank_stratum(p, n, 2 * i),
                  lambda: efun.rank_stratum_E(i, n)(p))
        # the strata, rank 0 included, partition projective space
        m = n * (n - 1) // 2
        check(f"partition p={p} n={n}",
              lambda: sum(fq.count_rank_stratum(p, n, r)
                          for r in range(0, n + 1, 2)),
              lambda: (p ** m - 1) // (p - 1))

    def cut_strata(p, n, i):
        alpha = alphas[(p, n, i)]
        for k in range(1, (n - 1) // 2 + 1):
            check(f"cut p={p} n={n} i={i} rank={2 * k}",
                  lambda: fq.count_cut_stratum(p, n, 2 * k, alpha),
                  lambda: ident.f_circ(ident.CutParams(n, k, i))(p))

    def isotropic(p, n, i, dims):
        alpha = alphas[(p, n, i)]
        for d in dims:
            if d < 2:
                symbolic = lambda: qcore.gauss_binomial(n, d, 1)(p)
            else:
                symbolic = lambda: ident.isotropic_E(d // 2, i, n)(p)
            check(f"isotropic p={p} n={n} i={i} dim={d}",
                  lambda: fq.count_isotropic(p, n, d, alpha), symbolic)

    rank_strata(2, 7)
    cut_strata(2, 7, 1)
    rank_strata(3, 5)
    for i in (1, 2):
        cut_strata(3, 5, i)
        # odd dimensions >= 3 have no symbolic counterpart
        isotropic(3, 5, i, (0, 1, 2, 4))
    isotropic(2, 8, 2, (4,))

    standard = fq.SkewFormFp.standard
    check("anchor 155", lambda: fq.count_rank_stratum(2, 5, 2), lambda: 155)
    check("anchor 28", lambda: fq.count_rank_stratum(2, 4, 4), lambda: 28)
    check("anchor 91",
          lambda: fq.count_isotropic(2, 5, 2, standard(2, 5, 1)), lambda: 91)
    return attempted, failed
