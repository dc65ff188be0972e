"""Outside-in instrumentation of pfes for the traced benchmark run.

Nothing here edits pfes.  ``Tracer.patch`` replaces a function or method
with a counting wrapper in every pfes module namespace and class that holds
it, so calls made through names imported with ``from .x import y`` are
counted too.  qcore primitives get aggregate counters only; spans are kept
for suite and oracle-call boundaries, where there are few of them.  A target
that no longer exists is recorded as absent and does not fail the run.

Self time is a call's duration minus the time spent in wrapped calls it
made; inclusive time counts both.
"""

from __future__ import annotations

import contextlib
import functools
import resource
import sys
import threading
import time
from collections import defaultdict


@contextlib.contextmanager
def no_span(name):
    yield {}


class PeakRSS:
    """Samples this process's resident set size from a thread, to find the
    peak during one call without resetting the kernel's high-water mark."""

    def __init__(self, interval=0.002):
        self.interval = interval
        self.page = resource.getpagesize()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self.start = self.peak = self.rss()
        self._thread.start()

    def rss(self) -> int:
        with open("/proc/self/statm", "rb") as handle:
            return int(handle.read().split()[1]) * self.page

    def _sample(self):
        while not self._stop.wait(self.interval):
            self.peak = max(self.peak, self.rss())

    def stop(self) -> float:
        """Stops sampling; returns the growth over the start, in MB."""
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, self.rss())
        return (self.peak - self.start) / 2 ** 20


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.values = defaultdict(float)
        self.absent: list[str] = []
        self.spans: list[dict] = []
        self._stack: list[float] = []
        self._origin = time.perf_counter()

    # -- wrapping ---------------------------------------------------------

    def patch(self, owner, attr: str, name: str, before=None, after=None):
        """Wrap ``owner.attr`` under metric prefix ``name``.

        ``before(args, kwargs)`` runs ahead of the call and its result is
        passed to ``after(args, kwargs, result, seconds, token)``.
        """
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            self.absent.append(name)
            return
        wrapper = self._wrap(name, original, before, after)
        self.calls[name] = 0  # report layers the workload never calls
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").split(".")[0] == "pfes":
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                elif isinstance(value, type):
                    for slot, member in list(vars(value).items()):
                        if member is original:
                            setattr(value, slot, wrapper)

    def _wrap(self, name, fn, before, after):
        calls, incl, self_s = self.calls, self.incl, self.self_s
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(args, kwargs) if before else None
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                nested = stack.pop()
                calls[name] += 1
                incl[name] += elapsed
                self_s[name] += elapsed - nested
                if stack:
                    stack[-1] += elapsed
            if after:
                after(args, kwargs, result, elapsed, token)
            return result

        return wrapper

    # -- spans ------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name):
        record = {"name": name, "start": time.perf_counter() - self._origin}
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self._origin
            self.spans.append(record)

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict:
        out = dict(self.values)
        for name, count in self.calls.items():
            out[f"{name}.calls"] = count
            out[f"{name}.incl_s"] = self.incl[name]
            out[f"{name}.self_s"] = self.self_s[name]
        for record in self.spans:
            if record["name"].startswith("cli.verify."):
                out[f"{record['name']}.s"] = record["end"] - record["start"]
                out[f"{record['name']}.rows"] = record["rows"]
        return out


def subspace_count(p: int, n: int, d: int) -> int:
    """Number of d-dimensional subspaces of F_p^n, in plain integers."""
    num = den = 1
    for t in range(d):
        num *= p ** (n - t) - 1
        den *= p ** (t + 1) - 1
    return num // den


def instrument(pfes) -> Tracer:
    """Wrap the pfes layers the per-module metrics are taken from."""
    tracer = Tracer()
    values = tracer.values
    qcore = pfes.qcore

    def after_mul(args, kwargs, result, seconds, token):
        values["qcore.mul.max_degree"] = max(values["qcore.mul.max_degree"],
                                             len(result.coeffs) - 1)
        bits = max(map(int.bit_length, result.coeffs), default=0)
        values["qcore.mul.max_coeff_bits"] = max(
            values["qcore.mul.max_coeff_bits"], bits)

    gauss_cache = getattr(qcore, "_GAUSS_CACHE", None)

    def before_gauss(args, kwargs):
        key = (*args, *kwargs.values())
        key = key if len(key) == 3 else (*key, 1)
        return key, key not in gauss_cache

    def after_gauss(args, kwargs, result, seconds, token):
        # a miss is a call that put its key into the memo
        key, was_absent = token
        if was_absent and key in gauss_cache:
            values["qcore.gauss_binomial.misses"] += 1

    newcor_keys = set()

    def before_newcor(args, kwargs):
        # solve_newcor(k_max, i, n) solves the triangular system of (i, n)
        newcor_keys.add(tuple(args[1:3]))
        values["identities.solve_newcor.distinct_keys"] = len(newcor_keys)

    census_s, census_forms = defaultdict(float), defaultdict(int)

    def after_census(args, kwargs, result, seconds, token):
        p, n = args[0], args[1]
        forms = p ** (n * (n - 1) // 2)
        census_s[p, n] += seconds
        census_forms[p, n] += forms
        values["fq_oracle.census.sweeps"] += 1
        values["kernels.census.forms"] += forms
        values[f"kernels.census.ns_per_form.p{p}n{n}"] = (
            census_s[p, n] * 1e9 / census_forms[p, n])

    def after_count(args, kwargs, result, seconds, token):
        values["fq_oracle.count.calls"] += 1

    isotropic_s = [0.0]

    def before_isotropic(args, kwargs):
        # dimensions below 2 are answered without a sweep
        return PeakRSS() if args[2] >= 2 else None

    def after_isotropic(args, kwargs, result, seconds, sampler):
        after_count(args, kwargs, result, seconds, sampler)
        if sampler is None:
            return
        values["fq_oracle.isotropic.peak_mb"] = max(
            values["fq_oracle.isotropic.peak_mb"], sampler.stop())
        values["fq_oracle.isotropic.subspaces"] += subspace_count(*args[:3])
        isotropic_s[0] += seconds
        values["fq_oracle.isotropic.ns_per_subspace"] = (
            isotropic_s[0] * 1e9 / values["fq_oracle.isotropic.subspaces"])

    patch = tracer.patch
    patch(getattr(qcore, "QPoly", None), "__mul__", "qcore.mul",
          after=after_mul)
    patch(qcore, "poly_exact_div", "qcore.exact_div")
    patch(qcore, "poly_gcd", "qcore.gcd")
    if gauss_cache is None:
        tracer.absent.append("qcore.gauss_binomial.misses")
        patch(qcore, "gauss_binomial", "qcore.gauss_binomial")
    else:
        patch(qcore, "gauss_binomial", "qcore.gauss_binomial",
              before_gauss, after_gauss)
    patch(qcore, "phi_eval", "qcore.phi_eval")
    for fn in ("nondeg_skew_E", "rank_stratum_E", "local_contribution",
               "pf_stringy_closed"):
        patch(pfes.efun, fn, f"efun.{fn}")
    patch(pfes.identities, "solve_newcor", "identities.solve_newcor",
          before_newcor)
    for fn in ("isotropic_E", "f_closed", "f_circ", "verify_newrec",
               "verify_AC_BD", "verify_phi_reductions"):
        patch(pfes.identities, fn, f"identities.{fn}")
    for fn in ("main_main_check", "main_coefficient_check"):
        patch(pfes.mirror, fn, f"mirror.{fn}")
    patch(pfes.cli, "render_report", "cli.render_report")
    for fn in ("count_rank_stratum", "count_cut_stratum"):
        patch(pfes.fq_oracle, fn, f"fq_oracle.{fn}", after=after_count)
    patch(pfes.fq_oracle, "count_isotropic", "fq_oracle.count_isotropic",
          before_isotropic, after_isotropic)
    patch(sys.modules.get("pfes._kernels"), "census", "_kernels.census",
          after=after_census)
    return tracer

