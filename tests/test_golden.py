"""Behaviour lock: every `pfes verify <suite> --format json` report at the
default bounds is byte-identical to the one pinned in bench/golden.json, and
so is every report at `--max-n 17`, whose high-degree products take the
Kronecker multiply.  The pinned bytes include the exact set of skipped `phi`
points, so a pass that turns into a skip is caught too.  The oracle workload
runs here too, so every pfes name it calls stays importable and right."""

import contextlib
import hashlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

import pfes
from pfes import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "_bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads()
GOLDEN = json.loads((BENCH / "golden.json").read_text())


@pytest.mark.parametrize("workload", ["verify-default", "verify-wide"],
                         ids=["serial", "wide-serial"])
def test_verify_reports_match_golden(workload):
    args = WORKLOADS.VERIFY_ARGS[workload]
    mismatched = []
    for suite in WORKLOADS.SUITE_ORDER:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["verify", suite, "--format", "json", *args])
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        if code != 0 or digest != GOLDEN[workload][suite]["sha256"]:
            mismatched.append(suite)
    assert not mismatched


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_oracle_workload_passes_every_check(seed):
    def span(label):
        return contextlib.nullcontext({})

    alphas = WORKLOADS.oracle_inputs(pfes, seed)
    assert WORKLOADS.run_oracle(pfes, alphas, span) == (26, 0)
