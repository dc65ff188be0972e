"""Command-line surface: output formats, exit codes, determinism."""

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import pfes
from pfes import cli, efun, fq_oracle, identities, qcore, suites
from pfes.efun import (
    PfaffianParams, discrepancy, grassmannian_E, local_contribution,
    nondeg_skew_E, pf_stringy_closed, rank_stratum_E,
)
from pfes.identities import CutParams, f_circ, f_closed, isotropic_E, row
from pfes.mirror import even_fiber_E, fiber_E_odd


def run_python(*argv):
    """Run a fresh interpreter that imports this pfes."""
    src = str(Path(pfes.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_pf_stringy_plain(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "pf-stringy", "--n", "5",
                               "--k", "1", "--format", "plain")
        assert code == 0
        assert out == "q^6+q^5+2q^4+2q^3+2q^2+q+1\n"

    def test_grassmannian_latex(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "grassmannian", "--k", "2",
                               "--n", "4", "--format", "latex")
        assert code == 0
        assert out == "(uv)^4+(uv)^3+2(uv)^2+uv+1\n"

    def test_discrepancy_value(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "discrepancy", "--j", "3",
                               "--n", "7", "--k", "2")
        assert code == 0
        assert out == "4\n"

    def test_json_schema_and_roundtrip(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "f", "--k", "1", "--i", "2",
                               "--n", "5", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["version"]
        assert report["command"] == "compute"
        assert report["parameters"] == {"i": 2, "k": 1, "n": 5}
        assert report["results"][0]["poly"] == {"var": "q",
                                                "coeffs": [1, 1, 2, 2, 1, 1]}
        assert cli.render_report(report) == out
        # a verify report's rows are filled into the row template
        code, out, _ = run_cli(capsys, "verify", "all", "--max-n", "17",
                               "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert len(report["results"]) > 1000
        assert cli.render_report(report) == out
        assert json.dumps(report, indent=2, sort_keys=True) + "\n" == out

    def test_json_report_is_untimed(self, capsys):
        argv = ["compute", "f-circ", "--k", "12", "--i", "3", "--n", "33",
                "--format", "json"]
        _, first, err = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second
        assert json.loads(first)["timing_ms"] is None
        assert "compute completed in" in err

    @pytest.mark.parametrize("target, params, expected", [
        ("grassmannian", {"k": 2, "n": 5}, lambda: grassmannian_E(2, 5)),
        ("e-skew", {"i": 3}, lambda: nondeg_skew_E(3)),
        ("rank-stratum", {"i": 2, "n": 7}, lambda: rank_stratum_E(2, 7)),
        ("pf-stringy", {"n": 9, "k": 2},
         lambda: pf_stringy_closed(PfaffianParams(9, 2))),
        ("discrepancy", {"j": 4, "n": 9, "k": 3},
         lambda: discrepancy(4, PfaffianParams(9, 3))),
        ("local-contribution", {"p": 1, "k": 2, "n": 7},
         lambda: local_contribution(1, 2, 7)),
        ("isotropic", {"k": 1, "i": 2, "n": 7}, lambda: isotropic_E(1, 2, 7)),
        ("f", {"k": 2, "i": 1, "n": 7}, lambda: f_closed(CutParams(7, 2, 1))),
        ("f-circ", {"k": 2, "i": 3, "n": 9},
         lambda: f_circ(CutParams(9, 2, 3))),
        ("fiber-odd", {"k": 1, "n": 7}, lambda: fiber_E_odd(1, 7)),
        ("fiber-even", {"k": 1, "n": 6}, lambda: even_fiber_E(1, 6)),
    ])
    def test_every_target_matches_the_library(self, capsys, target, params,
                                              expected):
        argv = ["compute", target, "--format", "json"]
        for name, value in params.items():
            argv += [f"--{name}", str(value)]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        report = json.loads(out)
        assert report["parameters"] == params
        (entry,) = report["results"]
        want = expected()
        if isinstance(want, int):
            assert entry["value"] == want
        else:
            assert entry["poly"] == {"var": "q", "coeffs": list(want.coeffs)}

    def test_missing_parameter_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "compute", "grassmannian", "--k", "2")
        assert code == 2
        assert "requires --n" in err

    def test_range_error_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "compute", "grassmannian", "--k", "9",
                               "--n", "4")
        assert code == 2
        assert "error" in err

    def test_unknown_target_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "compute", "nonsense", "--n", "5")
        assert code == 2


class TestVerify:
    def test_hj_grid_counts_and_exit(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "hj", "--max-b", "8")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "suite hj: 45 points, 45 passed, 0 failed, 0 skipped"
        assert all(" PASS" in line for line in lines[:-1])

    def test_even_anomaly_reports_expected_nonpolynomial(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "even-anomaly")
        assert code == 0
        assert "not a polynomial" in out
        assert "PASS" in out

    def test_main_main_small(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "main-main", "--max-n", "9")
        assert code == 0
        assert "0 failed" in out

    def test_all_at_max_n_21_report_is_pinned(self, capsys):
        # bench/golden.json pins each suite at the default bounds and at
        # --max-n 17; this pins the whole report one step further, so any
        # changed row name, verdict, note or skip at n <= 21 shows here
        code, out, _ = run_cli(capsys, "verify", "all", "--format", "json",
                               "--max-n", "21")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "b80154686df6e27d9d0c78cd034bd7a7309cad1ff4c74cd145325530266cc852")

    def test_all_at_max_n_25_report_is_pinned(self, capsys):
        # k runs to 12 here, so this guards the recursion's vanishing
        # coefficients (a q^2-Pochhammer reaching 1 - q^0) further out
        code, out, _ = run_cli(capsys, "verify", "all", "--format", "json",
                               "--max-n", "25")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "3a1c62a6d77707a0580445ded52b071fc341735532fc7b419fa3249c69227c7d")

    def test_all_at_default_bounds_keeps_every_value_at_64_bits(
            self, capsys, monkeypatch):
        # the README's claim: at the suites' bounds no refit widens a value
        # past 64-bit digits.  The memos start empty, so every value is
        # built in this run
        for module in (efun, identities):
            for memo in vars(module).values():
                if hasattr(memo, "cache_clear"):
                    memo.cache_clear()
        qcore._GAUSS_CACHE.clear()
        widths = []
        real = qcore._refit

        def spy(*args):
            result = real(*args)
            widths.append(result[0])
            return result

        monkeypatch.setattr(qcore, "_refit", spy)
        code, _, _ = run_cli(capsys, "verify", "all", "--format", "json")
        assert code == 0
        assert widths and max(widths) == 64

    def test_json_report_is_untimed(self, capsys):
        _, first, _ = run_cli(capsys, "verify", "oddeven", "--max-r", "3",
                              "--format", "json")
        _, second, _ = run_cli(capsys, "verify", "oddeven", "--max-r", "3",
                               "--format", "json")
        assert first == second
        assert json.loads(first)["timing_ms"] is None

    def test_timing_goes_to_stderr(self, capsys):
        _, out, err = run_cli(capsys, "verify", "sum", "--max-r", "3")
        assert "completed in" in err
        assert "completed in" not in out

    def test_phi_suite_skips_degenerate_points(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "phi", "--max-n", "5")
        assert code == 0
        assert " SKIP" in out

    def test_empty_grid_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "verify", "newrec", "--max-n", "3")
        assert code == 2
        assert "points" not in out
        assert err.startswith("error: verify newrec: no grid points")

    def test_all_with_some_empty_grids_still_runs(self, capsys):
        # newrec, phi and the other odd-n suites have no points at n <= 3,
        # but relg, hj and the rest still do
        code, out, _ = run_cli(capsys, "verify", "all", "--max-n", "3")
        assert code == 0
        assert "newrec" not in out
        assert out.splitlines()[-1].startswith("suite all: ")
        assert " 0 failed, 0 skipped" in out.splitlines()[-1]

    def test_failure_exit_code(self, capsys, monkeypatch):
        # force a mismatch to exercise the failure path
        def broken(*, max_b=8):
            yield row("hj(broken)", False)

        monkeypatch.setitem(suites.SUITES, "hj", broken)
        code, out, _ = run_cli(capsys, "verify", "hj", "--max-b", "0")
        assert code == 1
        assert "FAIL" in out

    @pytest.mark.parametrize("suite, flag, value", [
        ("hj", "--max-n", "9"), ("relg", "--max-n", "9"),
        ("even-anomaly", "--max-n", "3"),
    ])
    def test_bound_the_suite_does_not_take_is_ignored(self, capsys, suite,
                                                      flag, value):
        code, plain, _ = run_cli(capsys, "verify", suite)
        assert code == 0
        code, flagged, _ = run_cli(capsys, "verify", suite, flag, value)
        assert code == 0
        assert flagged == plain


class TestRenderReport:
    """render_report fills identities.row results into a template; the text
    must be json.dumps(report, indent=2, sort_keys=True) and a newline."""

    @pytest.mark.parametrize("rows", [
        [row('quote"d', True)],
        [row("back\\slash", False, note="a\\b")],
        [row("new\nline", True, note="two\nlines\r\t")],
        [row("café", True, note="é")],
        [row("phi(q²)", False, note="q² and q^2")],
        [row("", True, note="")],
        [row("skip", True, True, "lower parameter q^0 vanishes"),
         row("plain", True), row("fail", False)],
        [row("ctrl\x00\x1f\u2028", True, True, "\U0001f600")],
    ], ids=["quote", "backslash", "newline", "e-acute", "q-squared",
            "empty", "skipped", "control"])
    def test_rows_render_as_json_dumps(self, rows):
        report = cli._run_report("verify", {"suite": "all"}, rows)
        assert cli.render_report(report) == (
            json.dumps(report, indent=2, sort_keys=True) + "\n")

    @pytest.mark.parametrize("results", [
        [], [{"name": "f", "passed": None, "value": 3}],
        [row("hj(0,0)", True), {"name": "x", "passed": True}],
    ], ids=["no-rows", "compute-row", "mixed"])
    def test_other_results_render_as_json_dumps(self, results):
        report = cli._run_report("verify", {"suite": "hj"}, results)
        assert cli.render_report(report) == (
            json.dumps(report, indent=2, sort_keys=True) + "\n")


class TestOneParser:
    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_usage_error_leaves_the_next_report_unchanged(self, capsys):
        _, before, _ = run_cli(capsys, "verify", "relg", "--format", "json")
        code, out, _ = run_cli(capsys, "verify", "nosuch")
        assert code == 2 and out == ""
        code, after, _ = run_cli(capsys, "verify", "relg", "--format", "json")
        assert code == 0
        assert after == before


def _subparser(name):
    (subparsers,) = [action for action in cli.build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    return subparsers.choices[name]


class TestRegistry:
    def test_suite_bounds_are_the_parser_bounds(self):
        bounds = set()
        for run in suites.SUITES.values():
            bounds |= set(run.__kwdefaults__ or {})
        flags = {action.dest for action in _subparser("verify")._actions
                 if any(s.startswith("--max-") for s in action.option_strings)}
        assert bounds == flags

    def test_default_bounds(self):
        defaults = {name: run.__kwdefaults__ or {}
                    for name, run in suites.SUITES.items()}
        assert defaults == {
            "relg": {"max_r": 8}, "oddeven": {"max_r": 8},
            "sum": {"max_r": 8}, "technical": {"max_n": 17},
            "stpf": {"max_n": 15}, "pfst2k": {"max_n": 17},
            "newrec": {"max_n": 13}, "newcor": {"max_n": 13},
            "hj": {"max_b": 8}, "ac-bd": {"max_n": 11},
            "phi": {"max_n": 11}, "main-coeff": {"max_k": 10},
            "main-main": {"max_n": 13}, "even-anomaly": {},
            "fiber": {"max_n": 17},
        }

    def test_suite_choices_are_the_registry(self):
        (suite,) = [action for action in _subparser("verify")._actions
                    if action.dest == "suite"]
        assert list(suite.choices) == sorted(suites.SUITES) + ["all"]

    @pytest.mark.parametrize("label, names", [
        ("Verify suites:", sorted(suites.SUITES) + ["all"]),
        ("Compute targets:", sorted(cli._COMPUTE)),
    ])
    def test_readme_lists_every_name(self, label, names):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        listed = re.search(re.escape(label) + r"(.*?)\.\s", readme, re.S)
        assert sorted(re.findall(r"`([^`]+)`", listed.group(1))) == sorted(names)



def _option_strings(name=None):
    parser = cli.build_parser() if name is None else _subparser(name)
    return {s for action in parser._actions for s in action.option_strings}


class TestFlagsFromTheirTables:
    @pytest.fixture(autouse=True)
    def fresh_parser(self):
        # the parser is cached per process; rebuild it around each change
        cli.build_parser.cache_clear()
        yield
        cli.build_parser.cache_clear()

    def test_option_strings(self):
        common = {"-h", "--help", "--format"}
        assert _option_strings() == {"-h", "--help"}
        assert _option_strings("compute") == common | {
            "--n", "--k", "--i", "--j", "--p"}
        assert _option_strings("verify") == common | {
            "--max-n", "--max-r", "--max-b", "--max-k"}
        assert _option_strings("oracle") == common | {
            "--p", "--n", "--rank", "--dim", "--alpha-rank", "--max-enum"}

    def test_a_new_suite_bound_gets_its_flag(self, capsys, monkeypatch):
        def dummy(*, max_z=1):
            yield row(f"dummy(z={max_z})", True)

        monkeypatch.setitem(suites.SUITES, "dummy", dummy)
        cli.build_parser.cache_clear()
        code, out, _ = run_cli(capsys, "verify", "dummy", "--max-z", "3")
        assert code == 0
        assert out.startswith("dummy(z=3) PASS\n")
        code, out, _ = run_cli(capsys, "verify", "dummy")
        assert out.startswith("dummy(z=1) PASS\n")

    def test_a_new_compute_parameter_gets_its_flag(self, capsys, monkeypatch):
        monkeypatch.setitem(cli._COMPUTE, "dummy",
                            (("z", "n"), lambda z, n: z * n))
        cli.build_parser.cache_clear()
        code, out, _ = run_cli(capsys, "compute", "dummy", "--z", "3",
                               "--n", "7")
        assert (code, out) == (0, "21\n")
        code, _, err = run_cli(capsys, "compute", "dummy", "--n", "7")
        assert code == 2
        assert err == "error: compute dummy requires --z\n"


class TestOneIsotropicMemo:
    def test_fiber_reads_the_counts_the_cut_suites_cached(self, capsys):
        memo = identities.isotropic_subspaces_E
        memo.cache_clear()
        assert run_cli(capsys, "verify", "newrec")[0] == 0
        before = memo.cache_info()
        assert before.hits == 0  # newrec asks for each (2k, i, n) once
        assert run_cli(capsys, "verify", "fiber")[0] == 0
        assert memo.cache_info().hits > 0


class TestOracleRefusesBeforeItBuilds:
    @pytest.mark.parametrize("argv, message", [
        (("cut-stratum", "--rank", "2", "--alpha-rank", "2"),
         r"sweep of all skew forms on F_2\^2001 needs at least 2\^2001000 "),
        (("isotropic", "--dim", "1", "--alpha-rank", "2"),
         r"sweep of 1-subspaces of F_2\^2001 needs \d{603} "),
    ])
    def test_no_form_for_a_refused_sweep(self, capsys, monkeypatch, argv,
                                         message):
        def no_form(*args):
            raise AssertionError("built the form of a refused sweep")

        monkeypatch.setattr(fq_oracle.SkewFormFp, "standard", no_form)
        code, out, err = run_cli(capsys, "oracle", *argv, "--p", "2",
                                 "--n", "2001")
        assert (code, out) == (3, "")
        assert re.fullmatch("error: " + message + r"candidates, guard is "
                            r"16777216 \(override with --max-enum or "
                            r"max_enum\)\n", err)


class TestOracle:
    def test_isotropic_match(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "isotropic", "--p", "2",
                               "--n", "5", "--dim", "2", "--alpha-rank", "2")
        assert code == 0
        assert out == "count=91 symbolic=91 MATCH\n"

    def test_rank_stratum_match(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "rank-stratum", "--p", "2",
                               "--n", "4", "--rank", "4")
        assert code == 0
        assert out == "count=28 symbolic=28 MATCH\n"

    def test_cut_stratum_match(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "cut-stratum", "--p", "2",
                               "--n", "5", "--rank", "2", "--alpha-rank", "4")
        assert code == 0
        assert "MATCH" in out

    def test_guard_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "oracle", "rank-stratum", "--p", "3",
                               "--n", "8", "--rank", "2")
        assert code == 3
        assert "guard" in err

    @pytest.mark.parametrize("argv", [
        ("rank-stratum", "--p", "2", "--n", "200", "--rank", "2"),
        ("isotropic", "--p", "2", "--n", "600", "--dim", "300",
         "--alpha-rank", "2"),
        ("rank-stratum", "--p", "2147483647", "--n", "1000", "--rank", "2"),
    ])
    def test_guard_on_a_count_too_long_to_print(self, argv):
        proc = run_python("-m", "pfes.cli", "oracle", *argv)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert re.fullmatch(r"error: sweep of .* needs at least 2\^\d+ "
                            r"candidates, guard is 16777216 .*\n", proc.stderr)

    def test_mismatch_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(fq_oracle, "count_rank_stratum",
                            lambda *a, **kw: 12345)
        code, out, _ = run_cli(capsys, "oracle", "rank-stratum", "--p", "2",
                               "--n", "4", "--rank", "4")
        assert code == 1
        assert "MISMATCH" in out

    def test_negative_guard_flag_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "oracle", "rank-stratum", "--p", "2",
                               "--n", "4", "--rank", "2", "--max-enum", "-1")
        assert code == 2
        assert err.startswith("error: max_enum must be a non-negative integer")

    def test_cut_parameters_checked_before_counting(self, capsys, monkeypatch):
        def no_count(*args, **kwargs):
            raise AssertionError("counted before checking the cut parameters")

        monkeypatch.setattr(fq_oracle, "count_cut_stratum", no_count)
        code, _, err = run_cli(capsys, "oracle", "cut-stratum", "--p", "2",
                               "--n", "5", "--rank", "0", "--alpha-rank", "2")
        assert code == 2
        assert "k must satisfy 1 <= k" in err

    def test_odd_isotropic_dimension_match(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "isotropic", "--p", "3",
                               "--n", "5", "--dim", "3", "--alpha-rank", "2")
        assert code == 0
        assert out == "count=157 symbolic=157 MATCH\n"

    @pytest.mark.parametrize("dim, count", [(0, 1), (4, 0)])
    def test_one_subspace_at_the_largest_prime(self, capsys, dim, count):
        code, out, _ = run_cli(capsys, "oracle", "isotropic",
                               "--p", "2147483647", "--n", "4",
                               "--dim", str(dim), "--alpha-rank", "2")
        assert code == 0
        assert out == f"count={count} symbolic={count} MATCH\n"

    def test_isotropic_dimension_past_n_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "oracle", "isotropic", "--p", "2",
                                 "--n", "4", "--dim", "5", "--alpha-rank", "2")
        assert code == 2
        assert out == ""
        assert err == "error: need 0 <= dim_sub <= n, got 5\n"

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("argv", [
        ("rank-stratum", "--n", "5", "--rank", "2"),
        ("isotropic", "--n", "5", "--dim", "2", "--alpha-rank", "2"),
        ("isotropic", "--n", "5", "--dim", "3", "--alpha-rank", "4"),
        ("cut-stratum", "--n", "5", "--rank", "2", "--alpha-rank", "2"),
    ])
    def test_json_report_holds_plain_integers(self, capsys, p, argv):
        code, out, _ = run_cli(capsys, "oracle", *argv, "--p", str(p),
                               "--format", "json")
        assert code == 0
        [result] = json.loads(out)["results"]
        assert type(result["count"]) is int
        assert result["count"] == result["symbolic"]
        assert result["passed"] is True

    def test_bad_prime_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "oracle", "rank-stratum", "--p", "4",
                             "--n", "4", "--rank", "2")
        assert code == 2

    @pytest.mark.parametrize("p, n, extra", [
        (2 ** 1100 + 1, 4, ()),             # beyond a float
        (10 ** 18 + 3, 4, ()),              # a prime, but trial division is long
        (3037000507, 2, ("--max-enum", "100000000000")),  # past int64 sums
    ])
    def test_huge_prime_is_usage_error(self, capsys, p, n, extra):
        code, _, err = run_cli(capsys, "oracle", "rank-stratum", "--p", str(p),
                               "--n", str(n), "--rank", "2", *extra)
        assert code == 2
        assert err.startswith("error: p must be a prime below 2^31")


class TestConsoleScript:
    def test_entry_point_installed(self):
        # without the console script on PATH, run the module it points to
        argv = ["compute", "grassmannian", "--k", "2", "--n", "4"]
        exe = shutil.which("pfes")
        if exe:
            proc = subprocess.run([exe, *argv], capture_output=True, text=True)
        else:
            proc = run_python("-m", "pfes.cli", *argv)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "q^4+q^3+2q^2+q+1"


class TestNumpyStaysUnloaded:
    def test_only_the_oracle_loads_numpy(self):
        script = textwrap.dedent("""
            import contextlib, io, sys
            from pfes import cli
            codes, loaded = [], []
            with contextlib.redirect_stdout(io.StringIO()), \\
                    contextlib.redirect_stderr(io.StringIO()):
                codes.append(cli.main(["verify", "all"]))
                codes.append(cli.main(["compute", "pf-stringy", "--n", "7",
                                       "--k", "2"]))
                loaded.append("numpy" in sys.modules)
                codes.append(cli.main(["oracle", "rank-stratum", "--p", "2",
                                       "--n", "4", "--rank", "4"]))
                loaded.append("numpy" in sys.modules)
            print(codes, loaded)
        """)
        proc = run_python("-c", script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[0, 0, 0] [False, True]\n"
