"""Measured process of one benchmark run; started by run.py in a fresh
interpreter so that its peak RSS belongs to the workload alone.

  --role setup  import fidmod, build the workload's query pool, print "ready"
  --role run    run the workload closed-loop (one client, one query at a
                time) and print one JSON line of results
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import itertools
import json
import math
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(SRC))

import tracer  # noqa: E402
import workloads  # noqa: E402

CLI_TIMEOUT_S = 60
#: Timings of each (order, query) where the order matters (`session`);
#: elsewhere every query is timed once per round, on each CPU in turn.
ORDER_REPEATS = 4


def nearest_rank(sorted_values: list[float], p: float) -> float:
    """Smallest sample with at least a share p of the samples at or below it."""
    return sorted_values[max(0, math.ceil(p * len(sorted_values)) - 1)]


def import_library(workload: str):
    import fidmod

    if Path(fidmod.__file__).resolve().parent != SRC / "fidmod":
        raise SystemExit(f"fidmod imported from {fidmod.__file__}, not from {SRC}")
    if workload == "cli":
        import fidmod.cli  # noqa: F401
    return fidmod


def cli_env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(SRC)}


class Gate:
    """Compares every output with its golden entry."""

    def __init__(self, golden: dict[str, str]):
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, key: str, output: str | None, error: str | None = None) -> None:
        self.attempted += 1
        expected = self.golden.get(key)
        if error is None and expected is not None and workloads.fingerprint(output) == expected:
            return
        self.failed += 1
        if len(self.messages) < 20:
            why = error or ("no golden entry" if expected is None else
                            f"got {workloads.fingerprint(output)!r}, golden {expected!r}")
            self.messages.append(f"{key}: {why}")


def run_in_process(q: workloads.Query, call=None) -> tuple[str | None, str | None]:
    try:
        result = (call or q.call)()
    except Exception as exc:  # a failing query is counted, not fatal
        return None, f"{type(exc).__name__}: {exc}"
    return q.canon(result), None


def run_cli(q: workloads.Query, launcher: Path | None = None, spans_path: Path | None = None):
    cmd = [sys.executable, "-m", "fidmod"] if launcher is None else [sys.executable, str(launcher)]
    env = cli_env()
    if spans_path is not None:
        env["FIDBENCH_SPANS"] = str(spans_path)
    try:
        proc = subprocess.run(cmd + list(q.argv), input=q.stdin, capture_output=True,
                              env=env, timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {CLI_TIMEOUT_S} s"
    if proc.returncode != 0:
        return workloads.cli_output(proc.returncode, proc.stdout), (
            f"exit {proc.returncode}: {proc.stderr.decode(errors='replace').strip()[:200]}")
    return workloads.cli_output(proc.returncode, proc.stdout), None


def pinned_rounds(rounds):
    """Yield (order number, order) for each (CPU slot, order number, order)
    in `rounds`, first moving this process (and the CLI children it starts)
    to the allowed CPU of that slot.

    On a shared host one CPU can run at half speed for seconds while another
    tenant uses its core; running an order once on each CPU means each
    query's best time comes from every CPU.
    """
    cpus = sorted(os.sched_getaffinity(0))
    try:
        for slot, number, batch in rounds:
            os.sched_setaffinity(0, {cpus[slot % len(cpus)]})
            yield number, batch
    finally:
        os.sched_setaffinity(0, cpus)


def start_round() -> None:
    """Every round starts from empty memo tables, so each of a query's
    timings sees the same partly warm state (in `session`, the state the
    queries before it in the seeded order leave behind)."""
    tracer.clear_memo_tables()
    gc.collect()


def timed_loop(workload: str, rounds, gate: Gate, deadline_s: float | None = None,
               k: int = 1, min_samples: int = 0):
    """Run rounds of (CPU slot, order number, order) until `deadline_s` has
    passed and at least `min_samples` (order number, query) pairs have k
    timings (or, with no deadline, exactly the given rounds).  Returns the
    wall times of each (order number, query)."""
    cold = workloads.WORKLOADS[workload].cold
    times: dict[tuple[int, str], list[float]] = {}
    complete = 0
    t_start = time.perf_counter()
    with contextlib.closing(pinned_rounds(rounds)) as pinned:
        for number, batch in pinned:
            start_round()
            for q in batch:
                if (deadline_s is not None and complete >= min_samples
                        and time.perf_counter() - t_start >= deadline_s):
                    return times
                if cold:
                    tracer.clear_memo_tables()
                    gc.collect()
                t0 = time.perf_counter()
                out, err = run_cli(q) if q.argv else run_in_process(q)
                timings = times.setdefault((number, q.key), [])
                timings.append(time.perf_counter() - t0)
                complete += len(timings) == k
                gate.check(q.key, out, err)
    return times


def measured_rounds(workload: str, pool, seed: int, seconds: float, k: int):
    """Endless (CPU slot, order number, order) rounds for a run of `seconds`
    that times each (order, query) k times.

    Where the order does not matter, every round runs the first order, on
    the CPUs in turn.  Where it does, the first k-th of the run draws a new
    order for each round; the rest replays those orders in passes, each
    pass shifted to the next CPU.  A query's k timings in one order are
    then about a k-th of the run apart, so its best of them is seldom taken
    in one slow stretch of the host, and the percentiles average over many
    orders rather than hang on one.
    """
    orders = workloads.seeded_orders(pool, seed)
    if not workloads.WORKLOADS[workload].reuse:
        first = next(orders)
        for index in itertools.count():
            yield index, 0, first
    drawn: list[list] = []
    t0 = time.perf_counter()
    while not drawn or time.perf_counter() - t0 < seconds / k:
        drawn.append(next(orders))
        yield len(drawn) - 1, len(drawn) - 1, drawn[-1]
    for rerun in itertools.count(1):
        for number, order in enumerate(drawn):
            yield number + rerun, number, order


def measure(workload: str, seed: int, seconds: float, gate: Gate) -> tuple[dict, dict]:
    api = import_library(workload)
    pool = workloads.WORKLOADS[workload].build(api)
    k = ORDER_REPEATS if workloads.WORKLOADS[workload].reuse else len(os.sched_getaffinity(0))
    t0 = time.perf_counter()
    times = timed_loop(workload, measured_rounds(workload, pool, seed, seconds, k), gate,
                       seconds, k, min_samples=sum(map(len, pool)))
    wall = time.perf_counter() - t0
    completed = sum(len(v) for v in times.values())
    # Contention from other tenants only ever adds time, so a query's best
    # of k in one order is its least disturbed measurement there; a query of
    # an order the deadline cut short has fewer than k timings and is left
    # out.
    best = sorted(min(v) for v in times.values() if len(v) >= k)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF)
    metrics = {
        "latency_p50_ms": nearest_rank(best, 0.50) * 1e3,
        "latency_p90_ms": nearest_rank(best, 0.90) * 1e3,
        "queries_per_s": completed / wall,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }
    return metrics, {"samples": len(best), "orders": len({n for (n, _), v in times.items() if len(v) >= k}),
                     "rounds": max(len(v) for v in times.values()),
                     "queries_run": completed, "wall_s": wall}


class LayerTotals:
    """Per-layer sums over a traced pass: span aggregates and memo deltas."""

    def __init__(self) -> None:
        self.spans: dict[str, list[float]] = {}
        self.memo: dict[str, list[int]] = {}
        self.process_overhead_s = 0.0

    def add_spans(self, agg: dict[str, list[float]]) -> None:
        for name, row in agg.items():
            acc = self.spans.setdefault(name, [0, 0.0, 0.0])
            for i, v in enumerate(row):
                acc[i] += v

    def add_memo(self, delta: dict[str, list[int]]) -> None:
        for name, row in delta.items():
            acc = self.memo.setdefault(name, [0, 0, 0])
            for i, v in enumerate(row):
                acc[i] += v

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name in tracer.TRACED + ["cli.main"]:
            calls, _, self_s = self.spans.get(name, [0, 0.0, 0.0])
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        for layer in ("pieri", "free_modules", "stability", "characters", "partitions", "cli"):
            out[f"{layer}.self_s"] = sum(
                row[2] for name, row in self.spans.items() if name.startswith(layer + "."))
        for prefix in tracer.MEMO_TABLES:
            hits, misses, entries = self.memo.get(prefix, [0, 0, 0])
            out[f"{prefix}.memo_hits"] = hits
            out[f"{prefix}.memo_misses"] = misses
            out[f"{prefix}.memo_entries"] = entries
        hits, misses, _ = self.memo.get("pieri.all", [0, 0, 0])
        out["pieri.memo_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        out["cli.process_overhead_s"] = self.process_overhead_s
        return out


def traced_pass(workload: str, order, gate: Gate, tag: str) -> tuple[LayerTotals, float]:
    """Run one round of `order` with spans installed; returns the layer
    totals and the summed per-query seconds."""
    totals = LayerTotals()
    total_s = 0.0
    OUT.mkdir(exist_ok=True)
    if workload == "cli":
        # The launcher installs the same wrappers in each CLI process; fail
        # here, once, if any of them would wrap nothing.
        probe = tracer.Tracer()
        probe.install()
        probe.uninstall()
        spans_path = OUT / f"spans-{tag}-cli.json"
        for q in order:
            spans_path.unlink(missing_ok=True)
            t0 = time.perf_counter()
            out, err = run_cli(q, launcher=BENCH / "cli_launcher.py", spans_path=spans_path)
            wall = time.perf_counter() - t0
            total_s += wall
            gate.check(q.key, out, err)
            if not spans_path.exists():
                continue
            with open(spans_path) as fh:
                dumped = json.load(fh)
            agg = tracer.aggregate(dumped["spans"])
            totals.add_spans(agg)
            totals.add_memo(dumped["memo"])
            totals.process_overhead_s += wall - agg.get("cli.main", [0, 0.0, 0.0])[1]
        spans_path.unlink(missing_ok=True)
        return totals, total_s

    cold = workloads.WORKLOADS[workload].cold
    api = import_library(workload)
    tr = tracer.Tracer()
    tr.install()
    try:
        # Build the pool again under the tracer so spec construction counts.
        pool = {q.key: q for seq in workloads.WORKLOADS[workload].build(api) for q in seq}
        start_round()
        for q in (pool[q.key] for q in order):
            if cold:
                tracer.clear_memo_tables()
                gc.collect()
            before = tracer.memo_snapshot()
            t0 = time.perf_counter()
            out, err = run_in_process(q, tr.wrap("bench.query", q.call))
            total_s += time.perf_counter() - t0
            totals.add_memo(tracer.memo_delta(before, tracer.memo_snapshot()))
            gate.check(q.key, out, err)
    finally:
        tr.uninstall()
    totals.add_spans(tracer.aggregate(tr.spans))
    tr.dump(OUT / f"spans-{tag}.json")
    return totals, total_s


def trace(workload: str, seed: int, gate: Gate) -> tuple[dict, dict]:
    api = import_library(workload)
    order = next(workloads.seeded_orders(workloads.WORKLOADS[workload].build(api), seed))
    untraced_s = sum(sum(v) for v in timed_loop(workload, [(0, 0, order)], gate, None).values())
    totals, traced_s = traced_pass(workload, order, gate, f"{workload}-seed{seed}")
    metrics = totals.metrics()
    metrics["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    return metrics, {"samples": len(order), "rounds": 1,
                     "traced_s": traced_s, "untraced_s": untraced_s}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--role", choices=("setup", "run"), required=True)
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--golden", type=Path, required=True)
    args = ap.parse_args()

    if args.role == "setup":
        api = import_library(args.workload)
        workloads.WORKLOADS[args.workload].build(api)
        print("ready", flush=True)
        return 0

    with open(args.golden) as fh:
        gate = Gate(json.load(fh))
    if args.trace:
        metrics, info = trace(args.workload, args.seed, gate)
    else:
        metrics, info = measure(args.workload, args.seed, args.seconds, gate)
    print(json.dumps({"attempted": gate.attempted, "failed": gate.failed,
                      "failures": gate.messages, "metrics": metrics, "info": info}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
