"""Command-line surface: output formats, exit codes, determinism."""

import json
import shutil
import subprocess

import pytest

from pfes import cli, suites
from pfes.efun import (
    PfaffianParams, discrepancy, grassmannian_E, local_contribution,
    nondeg_skew_E, pf_stringy_closed, rank_stratum_E,
)
from pfes.identities import CutParams, f_circ, f_closed, isotropic_E
from pfes.mirror import even_fiber_E, fiber_E_odd


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

    def test_parallel_and_serial_reports_identical(self, capsys):
        _, serial, _ = run_cli(capsys, "verify", "relg", "--max-r", "4")
        _, parallel, _ = run_cli(capsys, "verify", "relg", "--max-r", "4",
                                 "--parallel")
        assert serial == parallel

    def test_parallel_json_identical_and_untimed(self, capsys):
        _, serial, _ = run_cli(capsys, "verify", "oddeven", "--max-r", "3",
                               "--format", "json")
        _, parallel, _ = run_cli(capsys, "verify", "oddeven", "--max-r", "3",
                                 "--parallel", "--format", "json")
        assert serial == parallel
        assert json.loads(serial)["timing_ms"] is None

    def test_timing_goes_to_stderr(self, capsys):
        _, out, err = run_cli(capsys, "verify", "sum", "--max-r", "3")
        assert "completed in" in err
        assert "completed in" not in out

    def test_phi_suite_skips_degenerate_points(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "phi", "--max-n", "5")
        assert code == 0
        assert " SKIP" in out

    def test_failure_exit_code(self, capsys, monkeypatch):
        # force a mismatch to exercise the failure path
        monkeypatch.setitem(
            suites.SUITES, "hj",
            suites.Suite(suites.SUITES["hj"].grid,
                         lambda point: [suites._row("hj(broken)", False)],
                         suites.SUITES["hj"].defaults))
        code, out, _ = run_cli(capsys, "verify", "hj", "--max-b", "0")
        assert code == 1
        assert "FAIL" in out


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

    def test_mismatch_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "count_rank_stratum",
                            lambda *a, **kw: 12345)
        code, out, _ = run_cli(capsys, "oracle", "rank-stratum", "--p", "2",
                               "--n", "4", "--rank", "4")
        assert code == 1
        assert "MISMATCH" in out

    def test_bad_prime_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "oracle", "rank-stratum", "--p", "4",
                             "--n", "4", "--rank", "2")
        assert code == 2


class TestConsoleScript:
    def test_entry_point_installed(self):
        exe = shutil.which("pfes")
        if exe is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run([exe, "compute", "grassmannian", "--k", "2",
                               "--n", "4"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "q^4+q^3+2q^2+q+1"
