"""One workload in a fresh interpreter; prints one JSON line.

Started by ``run.py`` as ``python3 -E -s perfbench/worker.py ...``.  The
``--t0-ns`` argument is the CLOCK_MONOTONIC reading the parent took just
before starting this process, so ``setup_s`` runs from interpreter start
to the moment the workload's inputs are ready.  It is scaled to nominal
seconds by reference slices run right after it in the same process.

Only the modules set-up needs are imported before ``setup_s`` is taken;
the harness imports the rest afterwards, so ``setup_s`` holds the
interpreter, the package and the building of the inputs.

Untraced (``--trace 0``) the worker runs whole passes over the inputs for
``--seconds`` and reports pass wall times and item latencies (scaled to
nominal seconds, see ``calibrate.py``), peak RSS and check results.
Traced (``--trace 1``) it spends a third of the time on untraced passes,
replays one pass through ``cli.main``, traces the set-up loads once, and
spends another third on traced passes.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

from calibrate import NOMINAL_S, reference_slice

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Timed runs make at least MIN_PASSES passes, and metrics.item_stats ranks
# each item as that many samples, so the tail is the same percentile in
# every run: the second-slowest item, which is c = 7 for conjecture and a
# 12-crossing row for catalog.
MIN_PASSES = 6
MIN_TRACED_PASSES = 3
# reference slices: one every SLICE_EVERY_S during passes, and SETUP_SLICES
# right after set-up
SLICE_EVERY_S = 0.1
SLICES_AROUND = 4
SETUP_SLICES = 5


class Pass:
    """One pass: scaled and unscaled wall time, scaled item times,
    counters, the trace snapshot (None untraced) and the unscaled time
    inside top-level spans.  ``speed`` is the pass's scaling factor."""

    def __init__(self, wall_s, raw_s, item_s, counters, layers, top_level_s):
        self.wall_s = wall_s
        self.raw_s = raw_s
        self.speed = wall_s / raw_s if raw_s else 1.0
        self.item_s = item_s
        self.counters = counters
        self.layers = layers
        self.top_level_s = top_level_s


def background() -> str | None:
    """Other threads or child processes of this process, which could run
    during a reference slice and so hide a slowdown in the scaled times."""
    try:
        tasks = os.listdir("/proc/self/task")
        children = [
            pid
            for task in tasks
            for pid in Path(f"/proc/self/task/{task}/children").read_text().split()
        ]
    except OSError:
        import threading

        tasks, children = range(threading.active_count()), []
    if len(tasks) > 1 or children:
        return f"{len(tasks)} threads and {len(children)} child processes around the reference slices"
    return None


class Checks:
    """Attempted and failed checks, with the first few problems kept."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(problem)

    def check_item(self, workload, index: int, out) -> None:
        if isinstance(out, Exception):
            self.record(f"item {index} raised {type(out).__name__}: {out}")
        else:
            self.record(workload.check_item(index, out))

    def check_pass(self, workload, tail, layers, busy) -> None:
        if isinstance(tail, Exception):
            self.record(f"pass-level call raised {type(tail).__name__}: {tail}")
        else:
            for problem in workload.check_pass(tail, layers) or [None]:
                self.record(problem)
        self.record(busy)


def one_pass(workload, checks: Checks, tracer=None) -> Pass:
    """Run every item once, checking and dropping each output as soon as
    it is timed, so outputs do not pile up on the heap between items.

    An item that raises is counted as failed.  Reference slices run at the
    start and the end of the pass and from an interval timer every
    SLICE_EVERY_S, also inside long items; a slice's time is taken out of
    the item it interrupted and out of the tracer's open spans.  Items are
    scaled to nominal seconds (see ``calibrate.py``).  An item's time
    integrates the machine's slowness over its span, which the timer
    samples evenly, so an item with at least two slices inside it is
    scaled by their mean; a shorter one by the median of the SLICES_AROUND
    slices before and after it.  A ``background()`` problem seen at a
    slice fails the pass.
    """
    import bisect
    import signal
    import statistics
    from array import array

    clock = time.perf_counter
    spans, counters = [], {}
    slices: list[tuple[float, float, float]] = []  # start, slice time, time taken
    busy = background()
    taking = False

    def take_slice():
        nonlocal busy, taking
        if taking:  # the timer fired inside a slice
            return
        taking = True
        start = clock()
        busy = busy or background()
        value = reference_slice()
        took = clock() - start
        slices.append((start, value, took))
        if tracer is not None:
            tracer.pause(took)
        taking = False

    for _ in range(SLICES_AROUND):
        take_slice()
    if tracer is not None:
        tracer.reset()
    previous = signal.signal(signal.SIGALRM, lambda signum, frame: take_slice())
    signal.setitimer(signal.ITIMER_REAL, SLICE_EVERY_S, SLICE_EVERY_S)
    try:
        for index, item in enumerate(workload.items):
            start = clock()
            try:
                out = workload.run_item(item)
            except Exception as exc:  # a failing item is counted, the pass goes on
                out = exc
            spans.append((start, clock()))
            checks.check_item(workload, index, out)
            if not isinstance(out, Exception):
                for name, count in workload.counters(out).items():
                    counters[name] = counters.get(name, 0) + count
            out = None
        start = clock()
        try:
            tail = workload.finish_pass()
        except Exception as exc:
            tail = exc
        spans.append((start, clock()))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    layers = tracer.snapshot() if tracer is not None else None
    top_level = tracer.top_level_s if tracer is not None else 0.0
    for _ in range(SLICES_AROUND):
        take_slice()
    checks.check_pass(workload, tail, layers, busy)

    # the items' times, then finish_pass's; unscaled and scaled
    at = [start for start, _, _ in slices]
    raw, scaled = array("d"), array("d")
    for start, end in spans:
        first, last = bisect.bisect(at, start), bisect.bisect(at, end)
        inside = slices[first:last]
        if len(inside) >= 2:
            slow = statistics.fmean(value for _, value, _ in inside)
        else:
            around = slices[max(0, first - SLICES_AROUND):last + SLICES_AROUND]
            slow = statistics.median(value for _, value, _ in around)
        raw.append(end - start - sum(took for _, _, took in inside))
        scaled.append(raw[-1] * NOMINAL_S / slow)
    return Pass(sum(scaled), sum(raw), scaled[:-1], counters, layers, top_level)


def run_passes(workload, seconds: float, checks: Checks, tracer=None, least=MIN_PASSES) -> list[Pass]:
    """Whole passes until ``seconds`` is spent, but at least ``least``.
    With a tracer, each pass carries its own trace snapshot."""
    import statistics

    passes = []
    start = time.perf_counter()
    while True:
        passes.append(one_pass(workload, checks, tracer))
        elapsed = time.perf_counter() - start
        typical = statistics.median(p.raw_s for p in passes)
        if len(passes) >= least and elapsed + typical > seconds:
            return passes


def cli_replay(workload, checks: Checks) -> float:
    """Send one pass's inputs through ``cli.main`` and compare with the
    library's outputs for the same inputs; returns the CLI's busy time."""
    import contextlib
    import io
    import tempfile

    from rollercoaster import cli

    try:
        outputs = [workload.run_item(item) for item in workload.items]
    except Exception as exc:
        checks.record(f"CLI replay skipped: an item raised {type(exc).__name__}: {exc}")
        return 0.0
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    busy = 0.0
    with tempfile.TemporaryDirectory(dir=build) as tmp:
        for argv, check in workload.cli_calls(outputs, Path(tmp) / "cli-out.json"):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                start = time.perf_counter()
                code = cli.main(argv)
                busy += time.perf_counter() - start
            checks.record(check(code, stdout.getvalue()))
    return busy


def speed_of(passes) -> float:
    """Median scaling factor of the passes, for times taken outside them."""
    import statistics

    return statistics.median(p.speed for p in passes)


def timed(workload, seconds: float) -> dict:
    import resource
    import statistics

    from metrics import item_stats

    checks = Checks()
    passes = run_passes(workload, seconds, checks)
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "raw_pass_s": [p.raw_s for p in passes],
        "speed": speed_of(passes),
        "pass_s": [p.wall_s for p in passes],
        **item_stats(
            [statistics.median(times) for times in zip(*(p.item_s for p in passes))], MIN_PASSES
        ),
        "peak_rss_kib": peak_rss_kib,
        **vars(checks),
    }


def traced(workload, seconds: float) -> dict:
    """Per-layer values in nominal seconds: median over the traced passes,
    plus one traced set-up load."""
    import statistics

    from metrics import layer_values, spec
    from tracer import Tracer

    per_layer = spec()[1]
    names = [name for name, _ in per_layer]
    checks = Checks()
    plain = run_passes(workload, seconds / 3, checks, least=MIN_TRACED_PASSES)
    cli_busy = cli_replay(workload, checks) * speed_of(plain)

    tracer = Tracer()
    tracer.install()
    try:
        workload.load()
        setup = layer_values(names, tracer.snapshot(), {})
        passes = run_passes(workload, seconds / 3, checks, tracer, MIN_TRACED_PASSES)
    finally:
        tracer.uninstall()
    setup_speed = speed_of(passes)

    per_pass = []
    for p in passes:
        values = layer_values(names, p.layers, p.counters)
        values["trace.unattributed_s"] = p.raw_s - p.top_level_s
        for name, unit in per_layer:
            if unit == "s":
                values[name] = values.get(name, 0.0) * p.speed + setup.get(name, 0.0) * setup_speed
            elif not name.endswith("_ratio"):
                values[name] = values.get(name, 0) + setup.get(name, 0)
        per_pass.append(values)
    layers = {}
    for name, unit in per_layer:
        middle = statistics.median_low if unit == "count" else statistics.median
        layers[name] = middle(values[name] for values in per_pass)
    layers["cli.main.busy_s"] = cli_busy
    layers["trace.overhead_s"] = statistics.median(p.wall_s for p in passes) - statistics.median(
        p.wall_s for p in plain
    )
    return {"layers": layers, "traced_passes": len(passes), **vars(checks)}


def parse_args(argv: list[str]) -> dict:
    """``--name value`` pairs and the flags ``--setup-only`` and ``--tiny``
    (argparse is not imported, to keep it out of ``setup_s``)."""
    args = {"trace": "0", "setup_only": False, "tiny": False}
    words = iter(argv)
    for word in words:
        key = word.removeprefix("--").replace("-", "_")
        args[key] = True if key in ("setup_only", "tiny") else next(words)
    return {
        **args,
        "seed": int(args["seed"]),
        "seconds": float(args["seconds"]),
        "trace": int(args["trace"]),
        "t0_ns": int(args["t0_ns"]),
    }


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    package = Path(workloads.catalog.__file__).resolve()
    if ROOT / "src" not in package.parents:
        print(f"rollercoaster imported from {package}, not from this checkout", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args["workload"]](args["seed"], tiny=args["tiny"])
    setup_s = (time.monotonic_ns() - args["t0_ns"]) / 1e9
    import statistics

    slow = statistics.median(reference_slice() for _ in range(SETUP_SLICES))
    result = {"setup_s": setup_s * NOMINAL_S / slow, "raw_setup_s": setup_s}
    if not args["setup_only"]:
        result["inputs"] = workload.describe()
        run = traced if args["trace"] else timed
        result.update(run(workload, args["seconds"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
