"""Behaviour lock: every `pfes verify <suite> --format json` report at the
default bounds is byte-identical to the one pinned in bench/golden.json,
serially and with --parallel.  The pinned bytes include the exact set of
skipped `phi` points, so a pass that turns into a skip is caught too."""

import contextlib
import hashlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from pfes import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "_bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SUITE_ORDER = _load_workloads().SUITE_ORDER
GOLDEN = json.loads((BENCH / "golden.json").read_text())["verify-default"]


@pytest.mark.parametrize("extra", [(), ("--parallel",)],
                         ids=["serial", "parallel"])
def test_verify_reports_match_golden(extra):
    mismatched = []
    for suite in SUITE_ORDER:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["verify", suite, "--format", "json", *extra])
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        if code != 0 or digest != GOLDEN[suite]["sha256"]:
            mismatched.append(suite)
    assert not mismatched
