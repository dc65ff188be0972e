"""Write golden.json: the digest, row count, skip count and row digests of
every suite report of the verify workloads, from the pfes in ../src.

Run it only when a change to the reports is intended:
    python3 bench/pin.py
"""

from __future__ import annotations

import json

import child
import workloads


def main():
    pfes = child.import_pfes()
    golden = {}
    for workload in workloads.VERIFY_ARGS:
        golden[workload] = {}
        for suite in workloads.SUITE_ORDER:
            code, text = workloads.run_suite(
                pfes.cli, suite, workloads.VERIFY_ARGS[workload])
            if code != 0:
                raise SystemExit(f"{workload} {suite} exited {code}")
            rows = json.loads(text)["results"]
            golden[workload][suite] = {
                "sha256": workloads.report_digest(text),
                "rows": len(rows),
                "skips": sum(row["skipped"] for row in rows),
                "row_digests": [workloads.row_digest(row) for row in rows],
            }
        print(workload,
              sum(s["rows"] for s in golden[workload].values()), "rows,",
              sum(s["skips"] for s in golden[workload].values()), "skips")
    workloads.GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")


if __name__ == "__main__":
    main()
