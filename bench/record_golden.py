"""Record the exact output of every query any seed can draw, at the current
commit, into bench/golden.json.  Run it only when a change is meant to alter
answers; the benchmark fails every query whose output differs from it.

    python3 bench/record_golden.py
"""

from __future__ import annotations

import json
import sys

import tracer
import worker
import workloads


def main() -> int:
    golden: dict[str, str] = {}
    for name in workloads.WORKLOADS:
        api = worker.import_library(name)
        pool = [q for seq in workloads.WORKLOADS[name].build(api) for q in seq]
        if len(pool) < 100:
            print(f"{name}: pool has {len(pool)} queries; p90 needs at least 100", file=sys.stderr)
            return 1
        for q in pool:
            tracer.clear_memo_tables()
            out, err = worker.run_cli(q) if q.argv else worker.run_in_process(q)
            if err is not None:
                print(f"{q.key}: {err}", file=sys.stderr)
                return 1
            entry = workloads.fingerprint(out)
            if golden.setdefault(q.key, entry) != entry:
                print(f"{q.key}: two queries share this key", file=sys.stderr)
                return 1
        print(f"{name}: {len(golden)} entries so far")
    with open(worker.BENCH / "golden.json", "w") as fh:
        json.dump(golden, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
