"""fidmod benchmark: one workload, one seed, closed loop with one client.

    python3 bench/run.py --workload levels --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from its
`src/`.  Set-up is measured in several fresh interpreters and the workload
runs in one more, so every process starts cold.  `--trace 0` reports the
end-to-end metrics, `--trace 1` the per-layer ones.  Every query's output
is checked against bench/golden.json; any mismatch fails the run.  The last
line of stdout is a JSON object with `correct`, `attempted`, `failed` and
`metrics`; the full report goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("levels", "targeted", "session", "cli")

#: Fresh interpreters timed for setup_s, half before and half after the
#: workload runs, so that one slow stretch of the host does not hold them
#: all; the median is reported.
SETUP_PROBES = 12
#: A run must end within 180 s; this bounds the measured process.
WORKER_TIMEOUT_S = 165

#: Calls predicted to be zero, and the workloads they are zero on.
ZERO_PREDICTIONS = [
    ("pieri.bounded_chain_count.calls", ("levels",)),
    ("pieri.pieri_product.calls", ("targeted",)),
    *((name, ("levels", "targeted", "session")) for name in (
        "characters.induce_trivial_product.calls", "characters.decompose.calls",
        "characters.character_value.memo_hits", "characters.character_value.memo_misses")),
]
#: Calls predicted to be non-zero, and the workloads they are non-zero on:
#: the mirror of the zeros, so a zero cannot come from a missed wrapper.
NONZERO_PREDICTIONS = [
    ("pieri.bounded_chain_count.calls", ("targeted", "session")),
    ("pieri.pieri_product.calls", ("levels", "session")),
    ("characters.induce_trivial_product.calls", ("cli",)),
    ("characters.decompose.calls", ("cli",)),
]


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit for the result line, as BENCHMARK.json lists them."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}


def unit_of(name: str, declared: dict[str, str]) -> str:
    """Unit of a metric: as BENCHMARK.json declares it, or, for metrics that
    appear in the report alone, from the name's suffix."""
    if name in declared:
        return declared[name]
    for suffix, unit in (("_ms", "ms"), ("per_s", "1/s"), ("_s", "s"), ("_mb", "MB"),
                         ("_ratio", "ratio"), ("_frac", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def provenance(args, info: dict) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "samples": info.get("samples"),
        "orders": info.get("orders"),
        "rounds": info.get("rounds"),
        "percentiles": "nearest-rank p50 and p90 over the best-of-k wall times "
                       "of every (order, query) pair",
        "setup_probes": SETUP_PROBES,
    }


def child_env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0"}


def worker_cmd(role: str, args) -> list[str]:
    return [sys.executable, str(BENCH / "worker.py"), "--role", role,
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--golden", str(args.golden)]


def setup_seconds(args, probes: int) -> list[float]:
    """Wall times from starting a fresh interpreter to fidmod imported and
    the workload's specs built, one per probe."""
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        with subprocess.Popen(worker_cmd("setup", args), stdout=subprocess.PIPE,
                              env=child_env(), text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
    return times


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--golden", type=Path, default=BENCH / "golden.json",
                    help="golden outputs to gate on (the self-test passes a corrupted copy)")
    args = ap.parse_args()

    if not (ROOT / "src" / "fidmod" / "__init__.py").is_file():
        print(f"error: no fidmod sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not args.golden.is_file():
        print(f"error: golden file {args.golden} is missing", file=sys.stderr)
        return 2

    setup_times = [] if args.trace else setup_seconds(args, SETUP_PROBES // 2)
    try:
        proc = subprocess.run(worker_cmd("run", args), stdout=subprocess.PIPE, env=child_env(),
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: workload did not finish within {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"error: worker exited with code {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    measured = dict(result["metrics"])
    if not args.trace:
        setup_times += setup_seconds(args, SETUP_PROBES - len(setup_times))
        measured["setup_s"] = statistics.median(setup_times)
    attempted, failed = result["attempted"], result["failed"]
    measured["failed_frac"] = failed / attempted

    problems = list(result["failures"])
    if args.trace:
        problems += [f"predicted zero, measured {name} = {measured[name]}"
                     for name, zero_on in ZERO_PREDICTIONS
                     if args.workload in zero_on and measured[name] != 0]
        problems += [f"predicted non-zero, measured {name} = 0"
                     for name, nonzero_on in NONZERO_PREDICTIONS
                     if args.workload in nonzero_on and measured[name] == 0]

    declared = {**declared_metrics(0), **declared_metrics(1)}
    report = {"provenance": provenance(args, result["info"]),
              "metrics": {k: {"value": v, "unit": unit_of(k, declared)} for k, v in sorted(measured.items())},
              "attempted": attempted, "failed": failed, "problems": problems}
    OUT.mkdir(exist_ok=True)
    report_path = OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1) + "\n")

    print("provenance " + json.dumps(report["provenance"], sort_keys=True))
    for name, m in report["metrics"].items():
        print(f"{args.workload:9s} {name:52s} {m['value']:>16.6g} {m['unit']}")
    for line in problems:
        print(f"FAIL {line}", file=sys.stderr)

    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": measured[n], "unit": u} for n, u in declared_metrics(args.trace).items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
