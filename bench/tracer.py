"""Layer spans and memo counters, installed from outside the library.

Each traced function is wrapped at the bindings its callers look up (the
`fidmod` package namespace and every submodule that imported it by name),
never at the recursive name inside `pieri` or `characters`: one targeted
multiplicity makes millions of memo hits, and a span per recursion step
would measure the tracer.  Inner-loop helpers such as `contains` stay
unwrapped, so their time counts as their caller's self time.

Spans are kept in memory as (name, start, end, parent) and written out when
the traced run ends.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Callable

#: Span name (layer.function) of every wrapped function.  The layer is the
#: `fidmod` submodule that defines it.
TRACED = [
    "pieri.bounded_chain_count",
    "pieri.pieri_product",
    "free_modules.decompose_at",
    "free_modules.constituent_multiplicity",
    "free_modules.padded_multiplicity",
    "free_modules.stabilized_padded_multiplicity",
    "stability.multiplicity_series",
    "stability.fit_polynomial",
    "stability.fit_exponential_polynomial",
    "characters.induce_trivial_product",
    "characters.decompose",
    "partitions.dim_irreducible",
]
#: Layers whose own module bindings stay unwrapped (their functions recurse
#: through those bindings).
RECURSIVE_LAYERS = {"pieri", "characters"}

#: Metric prefix -> (layer, attribute) of each reported memo table.
MEMO_TABLES = {
    "pieri.bounded_chain_count": ("pieri", "bounded_chain_count"),
    "pieri.chain_counts": ("pieri", "_chain_counts"),
    "pieri.strip_predecessors": ("pieri", "_strip_predecessors"),
    "characters.character_value": ("characters", "character_value"),
}


def _fidmod_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "fidmod" or name.startswith("fidmod."))]


def memo_tables(layer: str | None = None) -> list:
    """Distinct functools caches in loaded fidmod modules (one layer, or all)."""
    seen: dict[int, object] = {}
    for mod in _fidmod_modules():
        if layer is not None and mod.__name__ != f"fidmod.{layer}":
            continue
        for value in vars(mod).values():
            if callable(getattr(value, "cache_info", None)) and callable(getattr(value, "cache_clear", None)):
                seen.setdefault(id(value), value)
    return list(seen.values())


def clear_memo_tables() -> None:
    for table in memo_tables():
        table.cache_clear()


def memo_snapshot() -> dict[str, list[int]]:
    """[hits, misses, entries] per reported table, plus `pieri.all` summed
    over every cache in the pieri module (for the hit ratio)."""
    out = {}
    for prefix, (layer, attr) in MEMO_TABLES.items():
        table = getattr(sys.modules.get(f"fidmod.{layer}"), attr, None)
        info = table.cache_info() if callable(getattr(table, "cache_info", None)) else None
        out[prefix] = [info.hits, info.misses, info.currsize] if info else [0, 0, 0]
    infos = [t.cache_info() for t in memo_tables("pieri")]
    out["pieri.all"] = [sum(i.hits for i in infos), sum(i.misses for i in infos),
                        sum(i.currsize for i in infos)]
    return out


def memo_delta(before: dict, after: dict) -> dict[str, list[int]]:
    return {k: [a - b for a, b in zip(after[k], before[k])] for k in after}


class Tracer:
    """In-memory span recorder; `install` swaps wrappers into the bindings."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)

        return traced

    def install(self) -> None:
        """Wrap every traced function at each binding that holds it.  Raises
        if a traced name wraps no binding: its calls would read 0 whether
        or not the library makes them."""
        modules = _fidmod_modules()
        unwrapped = []
        for name in TRACED:
            layer, attr = name.split(".")
            original = getattr(sys.modules.get(f"fidmod.{layer}"), attr, None)
            wrapped = 0
            if original is not None:
                wrapper = self.wrap(name, original)
                for mod in modules:
                    if mod.__name__ == f"fidmod.{layer}" and layer in RECURSIVE_LAYERS:
                        continue
                    for binding, value in list(vars(mod).items()):
                        if value is original:
                            self._saved.append((mod, binding, value))
                            setattr(mod, binding, wrapper)
                            wrapped += 1
            if not wrapped:
                unwrapped.append(name)
        if unwrapped:
            self.uninstall()
            raise RuntimeError(f"tracer found no binding to wrap for {', '.join(unwrapped)}")

    def uninstall(self) -> None:
        for mod, binding, value in reversed(self._saved):
            setattr(mod, binding, value)
        self._saved.clear()

    def dump(self, path, **extra) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, **extra}, fh)


def aggregate(spans) -> dict[str, list[float]]:
    """name -> [calls, total seconds, self seconds].  Self time is the
    span's duration minus the durations of its direct children."""
    child_time: dict[int, float] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    out: dict[str, list[float]] = {}
    for idx, (name, start, end, parent) in enumerate(spans):
        row = out.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - start
        row[2] += (end - start) - child_time.get(idx, 0.0)
    return out
