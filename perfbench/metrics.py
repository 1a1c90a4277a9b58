"""Metric names, item statistics and the per-layer values of a trace.

``BENCHMARK.json`` at the repository root is the one list of metrics with
their units and directions; ``spec`` reads it.  This module adds only what
that file has no place for: ``MOVES``, the end-to-end metrics
(``workload.metric``) each per-layer metric is expected to move.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

CATALOG = "catalog.pass_s"
CONJECTURE = "conjecture.pass_s"
BRAID = "braid.pass_s"

# per-layer metric name prefix -> end-to-end metrics it should move; the
# first matching prefix applies
MOVES = (
    ("invariants.kauffman_bracket.calls", (CATALOG,)),
    ("invariants.kauffman_bracket.", (CATALOG, "catalog.item_tail_ms")),
    ("invariants.load_jones_refs.", ("catalog.setup_s",)),
    ("catalog.load_catalog.", ("catalog.setup_s",)),
    ("invariants.", (CATALOG,)),
    ("catalog.", (CATALOG,)),
    ("embed.realize.failed", (CONJECTURE,)),
    ("embed.", (CATALOG, CONJECTURE)),
    ("codes.", (CONJECTURE,)),
    ("search.", (CONJECTURE,)),
    ("warp.", (BRAID, "braid.item_tail_ms")),
    ("braid.", (BRAID,)),
    ("cli.", (CATALOG, CONJECTURE, BRAID)),
    ("trace.", ()),
)

FIELDS = ("calls", "busy_s", "self_s", "failed")


def spec() -> tuple[list[tuple[str, str]], list[tuple[str, str]]]:
    """(name, unit) of the end-to-end and of the per-layer metrics."""
    data = json.loads(BENCHMARK_JSON.read_text())
    return (
        [(m["name"], m["unit"]) for m in data["end_to_end"]],
        [(m["name"], m["unit"]) for m in data["per_layer"]],
    )


def moves(name: str) -> tuple[str, ...] | None:
    """End-to-end metrics a per-layer metric should move (None: unpaired)."""
    return next((targets for prefix, targets in MOVES if name.startswith(prefix)), None)


def item_stats(latencies: list[float], passes: int) -> dict:
    """Median and tail item latency (seconds in, ms out).

    ``latencies`` holds one latency per item: its median over the run's
    passes.  Every run times each item at least ``passes`` times, so the
    ranks count each item as that many samples, a number that does not
    change with the speed of the machine.  The tail is the highest
    percentile that still has at least ten samples beyond it (with ten
    samples or fewer, the slowest item).
    """
    ordered = sorted(latencies)
    n = len(ordered) * passes
    if n > 10:
        tail, pct = ordered[(n - 11) // passes], 100.0 * (n - 10) / n
    else:
        tail, pct = ordered[-1], 100.0
    return {
        "item_p50_ms": 1000.0 * statistics.median(ordered),
        "item_tail_ms": 1000.0 * tail,
        "item_tail_pct": round(pct, 2),
        "item_samples": n,
    }


def layer_values(names, snapshot: dict, counters: dict) -> dict:
    """Per-layer metric values for one traced pass (trace.* and cli.* are
    filled in by the caller)."""
    values = {}
    for name in names:
        head, _, field = name.rpartition(".")
        if field in FIELDS and head.count(".") == 1:
            values[name] = snapshot.get(head, {}).get(field, 0)
        elif ".busy_s.c" in name:
            fn, _, tag = name.partition(".busy_s.")
            values[name] = snapshot.get(f"{fn}.{tag}", {}).get("busy_s", 0.0)
    realize = snapshot.get("embed.realize", {})
    values["embed.realize.ok_ratio"] = (
        (realize["calls"] - realize["failed"]) / realize["calls"] if realize.get("calls") else 0.0
    )
    candidates = classes = 0
    for c in range(3, 9):
        entry = snapshot.get(f"search.enumerate_alternating.c{c}", {})
        candidates += entry.get("calls", 0) * math.factorial(c)
        classes += entry.get("yields", 0)
        values[f"search.classes.c{c}"] = entry.get("yields", 0)
    values["search.candidates"] = candidates
    values["search.yield_ratio"] = classes / candidates if candidates else 0.0
    for name in ("braid.steps.smooth", "braid.steps.remove"):
        values[name] = counters.get(name, 0)
    return values
