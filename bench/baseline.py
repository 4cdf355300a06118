"""Run every workload once untraced and once traced, print the end-to-end
metrics of each by name and unit, and record both reports in
bench/baseline.json.

    python3 bench/baseline.py [--seed 1] [--seconds N]

--seconds defaults to `run_seconds` in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import run


def main() -> int:
    bench_cfg = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench_cfg["run_seconds"])
    args = ap.parse_args()

    baseline = {}
    status = 0
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            status = status or proc.returncode
            path = run.OUT / f"report-{workload}-seed{args.seed}-trace{trace}.json"
            baseline.setdefault(workload, {})["traced" if trace else "untraced"] = json.loads(path.read_text())
        metrics = baseline[workload]["untraced"]["metrics"]
        for name in [*run.declared_metrics(0), "failed_frac"]:
            print(f"{workload:9s} {name:16s} {metrics[name]['value']:>14.6g} {metrics[name]['unit']}")

    out = run.BENCH / "baseline.json"
    out.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out.relative_to(run.ROOT)}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
