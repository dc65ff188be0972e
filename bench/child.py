"""One benchmark iteration in a fresh interpreter.

Imports pfes from the ``src`` directory next to this one, builds the
workload's inputs, runs and checks the workload once, and prints one JSON
line with its timings, check counts and, in traced mode, the per-module
counters.  Exits non-zero only when it cannot set up: a failed check is
reported in the JSON, not as an exit code.

Modes: ``plain`` (untraced), ``traced`` (every layer wrapped), ``cache``
(a verify workload with ``--cache-dir``, only the caching layer wrapped),
and ``setup`` (set up, then stop).
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

import tracer as tracing  # noqa: E402  (this directory is sys.path[0])
import workloads  # noqa: E402


def import_pfes():
    sys.path.insert(0, str(SRC))
    try:
        import pfes
        import pfes.cli  # noqa: F401  (loads every module cli imports)
    except ImportError as exc:
        sys.exit(f"cannot import pfes from {SRC}: {exc}")
    if not Path(pfes.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"pfes was imported from {pfes.__file__}, not from {SRC}")
    return pfes


def environment(pfes) -> dict:
    numpy = sys.modules.get("numpy")
    backend = getattr(sys.modules.get("pfes._kernels"), "active_backend", None)
    return {
        "python": sys.version.split()[0],
        "numpy": getattr(numpy, "__version__", None),
        "numba_installed": importlib.util.find_spec("numba") is not None,
        "census_backend": backend() if callable(backend) else "absent",
    }


def instrument_caching(pfes):
    """Wrap only the disk cache's load and save; None when it is gone."""
    try:
        caching = importlib.import_module("pfes.caching")
    except ImportError:
        return None
    tracer = tracing.Tracer()
    tracer.patch(caching, "load_cache_dir", "caching.load")
    tracer.patch(caching, "save_cache_dir", "caching.save")
    return None if tracer.absent else tracer


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", default="plain",
                        choices=("plain", "traced", "cache", "setup"))
    parser.add_argument("--cache-dir", default=None)
    args = parser.parse_args()

    pfes = import_pfes()
    out = {"env": environment(pfes), "absent": []}
    is_verify = args.workload in workloads.VERIFY_ARGS
    if is_verify:
        golden = json.loads(workloads.GOLDEN.read_text())
    else:
        alphas = workloads.oracle_inputs(pfes, args.seed)
        out["alphas"] = {f"p{p}n{n}i{i}": list(form.entries)
                         for (p, n, i), form in alphas.items()}

    tracer, span, cache_dir = None, tracing.no_span, None
    if args.mode == "setup":
        out["ready"] = time.monotonic()
        print(json.dumps(out))
        return 0
    if args.mode == "traced":
        tracer = tracing.instrument(pfes)
        span = tracer.span
    elif args.mode == "cache":
        if not is_verify or args.cache_dir is None:
            sys.exit("cache mode needs a verify workload and --cache-dir")
        tracer = instrument_caching(pfes)
        if tracer is None:
            out.update(ready=time.monotonic(), wall_s=0.0, attempted=0,
                       failed=0, absent=["caching"])
            print(json.dumps(out))
            return 0
        cache_dir = args.cache_dir

    out["ready"] = time.monotonic()
    start = time.perf_counter()
    if is_verify:
        attempted, failed = workloads.run_verify(pfes, args.workload, golden,
                                                 span, cache_dir)
    else:
        attempted, failed = workloads.run_oracle(pfes, alphas, span)
    out["wall_s"] = time.perf_counter() - start

    usage = resource.getrusage(resource.RUSAGE_SELF)
    out.update(cpu_s=usage.ru_utime + usage.ru_stime,
               rss_mb=usage.ru_maxrss / 1024,
               attempted=attempted, failed=failed)
    if tracer is not None:
        out["metrics"] = tracer.metrics()
        out["absent"] = tracer.absent
        out["spans"] = tracer.spans
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
