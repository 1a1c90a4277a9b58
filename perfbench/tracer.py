"""Per-layer tracing from outside the program.

A layer is one ``rollercoaster`` module.  ``Tracer.install`` replaces each
public function defined in a layer's file by a timing wrapper, both in the
defining module and in every ``rollercoaster`` module that imported it by
name, so calls made through either binding are seen.  ``uninstall`` puts
the original functions back.

Every call is a span.  A span that closes folds its duration into an
in-memory aggregate for its function (and for its tag, when the function
has one): calls, busy time, self time (busy time minus the time of the
spans it opened), and raised exceptions.  Nothing is written while
spans are open; ``snapshot`` reads the aggregates out at the end.  A full
span log is not kept because the conjecture workload opens several
hundred thousand spans per pass.

A generator function is timed while it is consumed: each resumption is a
span of its own, and the number of items it yields is counted.

Time the harness spends inside a span on its own work (reference slices
run from a timer) is reported with ``pause`` and left out of every span
that was open meanwhile.  The pause total is read after the span's start
time and before its end time, so a pause that falls between the two reads
stays in the span rather than making it negative.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = ("codes", "warp", "braid", "embed", "invariants", "catalog", "search", "cli")

# Functions whose spans are also split by a property of their arguments.
TAGGERS = {
    "invariants.kauffman_bracket": lambda diagram, *a, **k: f"c{diagram.size:02d}",
    "search.enumerate_alternating": lambda c, *a, **k: f"c{c}",
}


class Tracer:
    def __init__(self):
        self.stats: dict[tuple[str, str | None], list] = {}
        self.top_level_s = 0.0
        self._stack: list[float] = []
        self._paused = [0.0]
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.stats = {}
        self.top_level_s = 0.0

    def pause(self, seconds: float) -> None:
        """Leave ``seconds`` of harness work out of the open spans."""
        self._paused[0] += seconds

    def _close(self, key, tag, duration, failed, calls, yielded) -> None:
        child = self._stack.pop()
        if self._stack:
            self._stack[-1] += duration
        else:
            self.top_level_s += duration
        agg = self.stats.get((key, tag))
        if agg is None:
            agg = self.stats[(key, tag)] = [0, 0, 0.0, 0.0, 0]
        agg[0] += calls
        agg[1] += failed
        agg[2] += duration
        agg[3] += duration - child
        agg[4] += yielded

    def _wrap(self, key, fn):
        tagger = TAGGERS.get(key)
        stack, close, clock, paused = self._stack, self._close, time.perf_counter, self._paused

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                tag = tagger(*args, **kwargs) if tagger else None
                stack.append(0.0)
                start, before = clock(), paused[0]
                failed = True
                try:
                    gen = fn(*args, **kwargs)
                    failed = False
                finally:
                    close(key, tag, before - paused[0] + clock() - start, failed, 1, 0)
                while True:
                    stack.append(0.0)
                    start, before = clock(), paused[0]
                    failed, yielded = True, 0
                    try:
                        item = next(gen)
                        failed, yielded = False, 1
                    except StopIteration:
                        failed = False
                        return
                    finally:
                        close(key, tag, before - paused[0] + clock() - start, failed, 0, yielded)
                    yield item

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tag = tagger(*args, **kwargs) if tagger else None
            stack.append(0.0)
            start, before = clock(), paused[0]
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                close(key, tag, before - paused[0] + clock() - start, failed, 1, 0)

        return traced

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module("rollercoaster")]
        modules += [importlib.import_module(f"rollercoaster.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules[1:]):
            for name, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not name.startswith("_")
                ):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{name}", obj)
        for module in modules:
            for name, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._undo.append((module, name, obj))
                    setattr(module, name, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            module, name, original = self._undo.pop()
            setattr(module, name, original)

    def snapshot(self) -> dict:
        """Aggregates keyed ``layer.function``; a tagged function also has
        one entry per tag, keyed ``layer.function.tag``."""
        out: dict[str, dict] = {}
        fields = ("calls", "failed", "busy_s", "self_s", "yields")
        for (key, tag), values in self.stats.items():
            for name in (key,) if tag is None else (key, f"{key}.{tag}"):
                agg = out.setdefault(name, dict.fromkeys(fields, 0))
                for field, value in zip(fields, values):
                    agg[field] += value
        return out
