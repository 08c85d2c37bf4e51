"""In-memory span tracing of gradion's layers, installed from outside the package.

`Tracer.install` replaces each traced public function with a wrapper in
every loaded ``gradion`` module that holds a reference to it (the defining
module, the package namespace, and modules that imported the name, such as
``gradion.search.solve_equilibrium``), and `Tracer.uninstall` puts the
originals back. A wrapper records a span only while a root span is open,
so work the benchmark does between tasks is never attributed to a layer.

A span is (name, start, end, parent, task id). Self time is a span's
duration minus the time its child spans cover. Spans are kept in memory for
the current root and folded into per-name totals when the root closes.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

#: (layer module, public function) pairs that get a span
TRACED = (
    ("trap", "solve_equilibrium"),
    ("trap", "normal_modes"),
    ("couplings", "compute_couplings"),
    ("search", "maximize_J_multitrap"),
    ("pulses", "commensurate_pulse"),
    ("pulses", "build_cnot"),
    ("pulses", "serialize_schedule"),
    ("pulses", "parse_schedule"),
    ("pulses", "segment_unitary"),
    ("teleport", "run_teleport"),
    ("teleport", "protocol_schedules"),
    ("integrate", "integrate_segment_unitary"),
    ("integrate", "segment_hamiltonians"),
    ("cli", "main"),
)

LAYERS = ("trap", "couplings", "search", "pulses", "teleport", "integrate", "cli")


class Tracer:
    """Span recorder plus exact counters, keyed by ``layer.function`` names.

    ``calls`` and ``counts`` accumulate only while ``counting`` is true, so a
    caller can restrict them to a fixed, seed-determined set of tasks.
    ``calls`` and ``self_s`` are keyed by (root name, span name).
    """

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, task, child_s]
        self.stack: list[int] = []
        self.root_name: str | None = None
        self.task: int | None = None
        self.counting = False
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.self_s: dict[tuple[str, str], float] = defaultdict(float)
        self.root_wall_s: dict[str, float] = defaultdict(float)
        self._distinct: set = set()
        self._patched: list[tuple[object, str, object, object]] = []

    # -- spans ---------------------------------------------------------------

    def open_root(self, name: str, task: int) -> None:
        self.root_name, self.task = name, task
        self._distinct = set()
        self._enter(name)

    def close_root(self) -> float:
        """Close the root span, fold its tree into the totals, return its wall time."""
        self._exit()
        root = self.spans[0]
        for name, start, end, _parent, _task, child_s in self.spans:
            self.self_s[(self.root_name, name)] += (end - start) - child_s
        if self.counting:
            self.counts["pulses.commensurate_pulse.distinct"] += len(self._distinct)
        wall = root[2] - root[1]
        self.root_wall_s[self.root_name] += wall
        self.spans, self.stack = [], []
        self.root_name = self.task = None
        return wall

    def _enter(self, name: str) -> None:
        parent = self.stack[-1] if self.stack else None
        self.stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.task, 0.0])

    def _exit(self) -> None:
        end = time.perf_counter()
        span = self.spans[self.stack.pop()]
        span[2] = end
        if span[3] is not None:
            self.spans[span[3]][5] += end - span[1]

    # -- wrappers ------------------------------------------------------------

    def _observe(self, name: str, args, result) -> None:
        """Exact counters read from a traced call's arguments and result."""
        if name == "trap.solve_equilibrium":
            self.counts["trap.newton_iterations"] += result.iterations
        elif name == "search.maximize_J_multitrap":
            self.counts["search.evaluations"] += result.evaluations
        elif name == "pulses.commensurate_pulse":
            w, theta, rabi = args[0], args[1], args[2]
            self._distinct.add((tuple(float(x) for x in w), float(theta), float(rabi)))
        elif name == "pulses.serialize_schedule" and self.root_name == "task":
            self.counts["pulses.schedule_bytes"] += len(result.encode())

    def _wrap(self, name: str, fn, rejections: tuple):
        tracer = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                if tracer.task is None:
                    yield from fn(*args, **kwargs)
                    return
                if tracer.counting:
                    tracer.calls[(tracer.root_name, name)] += 1
                inner = fn(*args, **kwargs)
                while True:
                    tracer._enter(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit()
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.task is None:
                return fn(*args, **kwargs)
            if tracer.counting:
                tracer.calls[(tracer.root_name, name)] += 1
            tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            except rejections:
                if tracer.counting:
                    tracer.counts["trap.rejected"] += 1
                raise
            finally:
                tracer._exit()
            if tracer.counting:
                tracer._observe(name, args, result)
            return result
        return wrapper

    def _find_references(self) -> list[tuple[object, str, object, object]]:
        """(module, attribute, original, wrapper) for every reference to a TRACED function."""
        import gradion.trap as trap
        rejections = (trap.ConvergenceError, trap.UnstableModesError)
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "gradion" or key.startswith("gradion."))]
        patches = []
        for layer, fname in TRACED:
            original = getattr(sys.modules[f"gradion.{layer}"], fname)
            wrapper = self._wrap(f"{layer}.{fname}", original,
                                 rejections if layer == "trap" else ())
            for module in modules:
                patches.extend((module, attr, original, wrapper)
                               for attr, value in vars(module).items() if value is original)
        return patches

    def install(self) -> None:
        """Wrap every TRACED function wherever a gradion module references it."""
        if not self._patched:
            self._patched = self._find_references()
        for module, attr, _original, wrapper in self._patched:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _wrapper in self._patched:
            setattr(module, attr, original)
