"""Check that the golden gate can fail: corrupt one golden entry that every
round runs, run the benchmark against the corrupted copy, and require a
non-zero exit, `correct: false` and at least one failed query.

    python3 bench/selftest.py                 # every workload
    python3 bench/selftest.py levels cli      # some of them
"""

from __future__ import annotations

import json
import subprocess
import sys

import run
import worker
import workloads


def gate_fails(workload: str) -> bool:
    golden = json.loads((run.BENCH / "golden.json").read_text())
    api = worker.import_library(workload)
    key = workloads.WORKLOADS[workload].build(api)[0][0].key
    golden[key] = "corrupted: " + golden[key]
    run.OUT.mkdir(exist_ok=True)
    corrupt = run.OUT / f"golden-corrupt-{workload}.json"
    corrupt.write_text(json.dumps(golden))
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "0", "--golden", str(corrupt)],
        capture_output=True, text=True, timeout=180)
    corrupt.unlink()
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    ok = proc.returncode != 0 and result["correct"] is False and result["failed"] >= 1
    print(f"{workload}: corrupted {key!r}: exit {proc.returncode}, "
          f"failed {result['failed']} of {result['attempted']} -> {'gate fails' if ok else 'GATE DID NOT FAIL'}")
    return ok


def main() -> int:
    names = sys.argv[1:] or list(workloads.WORKLOADS)
    results = [gate_fails(name) for name in names]
    return 0 if all(results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
