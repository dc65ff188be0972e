"""pfes benchmark: runs one workload repeatedly, each iteration in a fresh
interpreter, and prints the metrics named in BENCHMARK.json.

    python3 bench/run.py --workload verify-wide --seed 1 --seconds 40 --trace 0

Untraced runs (--trace 0) report the end-to-end metrics: the median wall
time, set-up time and peak RSS over the iterations that fit in --seconds.
Traced runs (--trace 1) make one cold and one warm --cache-dir pass of
verify-wide, then alternate untraced and traced iterations for the rest of
--seconds, and report the per-module metrics.  A line before the result holds the run record: the
machine, versions, src/pfes line count, per-iteration figures and, for
traced runs, the spans.  The last line of stdout is the result.

Exits non-zero, without a result, when pfes cannot be imported from src/
or an iteration crashes or overruns.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

# The run must end within 180 s; leave room for the parent's own exit.
RUN_LIMIT_S = 170
# Set-up is timed in every iteration; workloads with few iterations per run
# are topped up with set-up-only children so its median has this many samples.
SETUP_SAMPLES = 7
# Children start as a CLI user's process would: with empty memo and census
# caches, the default enumeration guard, and bytecode cached on import.
CLEARED_ENV = ("PFES_BACKEND", "PFES_MAX_ENUM", "PFES_CACHE_DIR",
               "PYTHONDONTWRITEBYTECODE")


class IterationError(RuntimeError):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_child(workload, seed, mode, deadline, cache_dir=None) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    if cache_dir is not None:
        cmd += ["--cache-dir", cache_dir]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), text=True,
                              capture_output=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired as exc:
        raise IterationError(f"{mode} iteration overran the run limit") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise IterationError(f"{mode} iteration exited {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - spawned
    result["elapsed_s"] = time.monotonic() - spawned
    return result


def repeat(seconds, deadline, *modes, **kwargs) -> list[list[dict]]:
    """Run each mode in turn, as many rounds as fit in `seconds` judging by
    the median round so far, and at least one."""
    runs = [[] for _ in modes]
    start = time.monotonic()
    rounds = []
    while True:
        began = time.monotonic()
        for mode, out in zip(modes, runs):
            out.append(run_child(mode=mode, deadline=deadline, **kwargs))
        rounds.append(time.monotonic() - began)
        if time.monotonic() - start + statistics.median(rounds) > seconds:
            return runs


def median_of(iterations, key):
    return statistics.median(it[key] for it in iterations)


def src_lines() -> int:
    return sum(len(path.read_text().splitlines())
               for path in (ROOT / "src" / "pfes").rglob("*.py"))


def machine() -> dict:
    ram = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return {"cores": os.cpu_count(), "ram_gb": round(ram / 2 ** 30, 2),
            "platform": platform.platform()}


def end_to_end(iterations, probes) -> dict:
    return {"wall_s": median_of(iterations, "wall_s"),
            "setup_s": median_of(iterations + probes, "setup_s"),
            "peak_rss_mb": median_of(iterations, "rss_mb")}


def caching_passes(seed, deadline) -> tuple[dict, list[dict]]:
    """One cold and one warm --cache-dir pass of verify-wide."""
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    cache_dir = tempfile.mkdtemp(dir=scratch)
    try:
        cold, warm = (run_child("verify-wide", seed, "cache", deadline,
                                cache_dir) for _ in range(2))
        size = sum(f.stat().st_size for f in Path(cache_dir).iterdir())
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    if "caching" in cold["absent"]:
        return {}, [cold, warm]
    metrics = {
        "caching.load_s": warm["metrics"].get("caching.load.incl_s", 0.0),
        "caching.save_s": cold["metrics"].get("caching.save.incl_s", 0.0),
        "caching.file_kb": size / 1024,
        "caching.warm_saving_s": cold["wall_s"] - warm["wall_s"],
    }
    return metrics, [cold, warm]


def per_layer(plain, traced, caching) -> dict:
    keys = set().union(*(it["metrics"] for it in traced))
    out = {key: statistics.median(it["metrics"].get(key, 0) for it in traced)
           for key in keys}
    out.update(caching)
    out["process.cpu_s"] = median_of(plain, "cpu_s")
    out["trace.overhead_ratio"] = (median_of(traced, "wall_s")
                                   / median_of(plain, "wall_s"))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "pfes" / "__init__.py").is_file():
        print(f"error: no pfes package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    common = {"workload": args.workload, "seed": args.seed}
    try:
        if args.trace:
            started = time.monotonic()
            caching, cache_runs = caching_passes(args.seed, deadline)
            plain, traced = repeat(
                args.seconds - (time.monotonic() - started), deadline,
                "plain", "traced", **common)
            measured = per_layer(plain, traced, caching)
            declared = spec["per_layer"]
            iterations, probes = plain + traced + cache_runs, []
        else:
            (plain,) = repeat(args.seconds, deadline, "plain", **common)
            probes = [run_child(mode="setup", deadline=deadline, **common)
                      for _ in range(SETUP_SAMPLES - len(plain))]
            measured = end_to_end(plain, probes)
            declared = spec["end_to_end"]
            iterations = plain
    except IterationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(it["attempted"] for it in iterations)
    failed = sum(it["failed"] for it in iterations)
    record = {
        **common, "seconds": args.seconds, "trace": args.trace,
        "machine": machine(), "env": iterations[0]["env"],
        "src_pfes_lines": src_lines(),
        "fail_ratio": failed / attempted if attempted else None,
        "checks_attempted": attempted,
        "iterations": [{k: it.get(k) for k in ("wall_s", "setup_s", "cpu_s",
                                               "rss_mb", "failed")}
                       for it in iterations],
        "setup_probes_s": [it["setup_s"] for it in probes],
        "absent": sorted({name for it in iterations for name in it["absent"]}),
        "not_measured": [m["name"] for m in declared
                         if m["name"] not in measured],
    }
    if args.workload == "oracle":
        record["alphas"] = iterations[0]["alphas"]
    else:
        record["note"] = ("the verify grids are fixed; the seed does not "
                          "change this workload's inputs")
    if args.trace:
        record["spans"] = traced[0]["spans"]
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": measured.get(m["name"], 0.0),
                                "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
