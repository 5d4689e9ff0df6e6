"""Outside-in tracing of the package's public layer entry points.

:func:`instrument` wraps the public functions of each layer for the
duration of a ``with`` block and restores every patched attribute on
exit, so an untraced run installs nothing.  Each call becomes a span --
name, start, end, parent span, the current op id and a small ``info``
payload read off the call's arguments or result -- kept in memory by a
:class:`SpanRecorder` and written once, at the end, as a Chrome
``traceEvents`` document that ``repro trace-summary`` reads back.

Wrapped (span name: target):

* ``feeders.resolve_feeder``, ``formulation.build_centralized_lp``,
  ``decomposition.decompose``, ``methods.make_method_solver``,
  ``core.projection_data`` and ``core.compute_residuals`` -- module
  functions, replaced in every loaded ``repro`` module that binds them;
* ``core.run`` (``ADMMLoop.run``), on whose entry the strategy's
  ``global_step``/``local_step``/``dual_step``/``residuals`` hooks
  become ``core.global``/``core.local``/``core.dual``/``core.residual``;
* ``core.batch_solve`` (``BatchedLocalSolver.solve``);
* ``serve.plan_for``, ``serve.step``, ``serve.build_scenario``,
  ``serve.lookup``, ``serve.store``, ``serve.next_batch``;
* ``fleet.submit``, ``fleet.poll``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import weakref
from contextlib import contextmanager

_MISSING = object()

#: (module, function, span name) of the wrapped module-level functions.
MODULE_FUNCTIONS = (
    ("repro.io.resolve", "resolve_feeder", "feeders.resolve_feeder"),
    ("repro.formulation.centralized", "build_centralized_lp",
     "formulation.build_centralized_lp"),
    ("repro.decomposition.decomposed", "decompose", "decomposition.decompose"),
    ("repro.methods.facade", "make_method_solver", "methods.make_method_solver"),
    ("repro.core.batch", "projection_data", "core.projection_data"),
    ("repro.core.residuals", "compute_residuals", "core.compute_residuals"),
)

#: Strategy hooks wrapped on entry to ``ADMMLoop.run``.
LOOP_HOOKS = (
    ("global_step", "core.global"),
    ("local_step", "core.local"),
    ("dual_step", "core.dual"),
    ("residuals", "core.residual"),
)


class SpanRecorder:
    """In-memory span store.

    A span is ``(name, start, end, parent, op, info)``; its id is its
    index in :attr:`spans` and ``parent`` is ``-1`` for a root.  ``op``
    is whatever the caller set on :attr:`op` when the span opened.
    """

    def __init__(self):
        self.spans: list = []
        self.op = None
        self._stack: list[int] = []
        self._solver_stats: dict = {}

    def call(self, name, fn, args, kwargs, observe=None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``;
        ``observe(args, result)`` fills the span's ``info``."""
        spans = self.spans
        sid = len(spans)
        spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        op = self.op
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            spans[sid] = (name, t0, time.perf_counter(), parent, op, "raised")
            raise
        finally:
            self._stack.pop()
        t1 = time.perf_counter()
        info = observe(args, result) if observe is not None else None
        spans[sid] = (name, t0, t1, parent, op, info)
        return result

    @contextmanager
    def span(self, name, info=None):
        """A span around benchmark code (set-up phases, ops, rounds)."""
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        op = self.op
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[sid] = (name, t0, time.perf_counter(), parent, op, info)

    def solver_stats(self, solver) -> tuple[int, float]:
        """``(bytes of projection tensors read per local update, pad
        efficiency)`` of a ``BatchedLocalSolver``, cached per instance."""
        key = id(solver)
        hit = self._solver_stats.get(key)
        if hit is not None and hit[0]() is solver:
            return hit[1]
        padded = solver.padded_elements
        itemsize = solver.buckets[0].proj.itemsize if solver.buckets else 0
        useful = int((solver.sizes.astype("int64") ** 2).sum())
        stats = (padded * itemsize, useful / padded if padded else 0.0)
        self._solver_stats[key] = (weakref.ref(solver), stats)
        return stats


def _observe_run(args, outcome):
    strategy = args[0].strategy
    # Stacked serving strategies carry their scenario count K.
    return (outcome.iterations, getattr(strategy, "k_n", None))


def _observe_lookup(args, hit):
    return hit is not None


def _observe_step(args, responses):
    return (id(args[0]), tuple((r.request_id, r.iterations) for r in responses))


def _observe_next_batch(args, batch):
    return tuple(r.request_id for r in batch)


def _observe_submit(args, rejection):
    return args[1].request_id


def _targets(recorder: SpanRecorder) -> list[tuple]:
    """``(owner, attribute, span name, observe)`` of every callable
    :func:`instrument` wraps as is (``ADMMLoop.run`` is handled apart)."""
    from repro.core.batch import BatchedLocalSolver
    from repro.fleet.frontend import FleetFrontend
    from repro.serve.engine import ScenarioEngine, TopologyPlan
    from repro.serve.scheduler import BatchScheduler
    from repro.serve.warmstart import WarmStartCache

    targets = []
    for module_name, func_name, span_name in MODULE_FUNCTIONS:
        original = getattr(importlib.import_module(module_name), func_name)
        for module in _repro_modules():
            for attr, value in vars(module).items():
                if value is original:
                    targets.append((module, attr, span_name, None))

    def observe_solve(args, result):
        return recorder.solver_stats(args[0])

    targets += [
        (BatchedLocalSolver, "solve", "core.batch_solve", observe_solve),
        (ScenarioEngine, "plan_for", "serve.plan_for", None),
        (ScenarioEngine, "step", "serve.step", _observe_step),
        (TopologyPlan, "build_scenario", "serve.build_scenario", None),
        (WarmStartCache, "lookup", "serve.lookup", _observe_lookup),
        (WarmStartCache, "store", "serve.store", None),
        (BatchScheduler, "next_batch", "serve.next_batch", _observe_next_batch),
        (FleetFrontend, "submit", "fleet.submit", _observe_submit),
        (FleetFrontend, "poll", "fleet.poll", None),
    ]
    return targets


def patch_points() -> list[tuple[object, str]]:
    """Every ``(owner, attribute)`` :func:`instrument` replaces."""
    from repro.core.loop import ADMMLoop

    points = [(owner, attr) for owner, attr, _, _ in _targets(SpanRecorder())]
    return points + [(ADMMLoop, "run")]


def _repro_modules():
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


@contextmanager
def instrument(recorder: SpanRecorder):
    """Wrap the layer entry points while the block runs; restore on exit."""
    from repro.core.loop import ADMMLoop

    restore: list[tuple[object, str, object]] = []

    def replace(owner, attr, value):
        restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    try:
        wrappers: dict[int, object] = {}
        for owner, attr, span_name, observe in _targets(recorder):
            original = vars(owner)[attr]
            # One wrapper per original, however many modules bind it.
            wrapper = wrappers.get(id(original))
            if wrapper is None:
                wrapper = _wrap_function(recorder, span_name, original, observe)
                wrappers[id(original)] = wrapper
            replace(owner, attr, wrapper)

        run = vars(ADMMLoop)["run"]

        @functools.wraps(run)
        def traced_run(loop, *args, **kwargs):
            strategy = loop.strategy
            saved = []
            for hook, span_name in LOOP_HOOKS:
                bound = getattr(strategy, hook)
                if bound is None:
                    continue
                saved.append((hook, vars(strategy).get(hook, _MISSING)))
                setattr(strategy, hook, _wrap_function(recorder, span_name, bound))
            try:
                return recorder.call(
                    "core.run", run, (loop, *args), kwargs, _observe_run
                )
            finally:
                for hook, previous in saved:
                    if previous is _MISSING:
                        delattr(strategy, hook)
                    else:
                        setattr(strategy, hook, previous)

        replace(ADMMLoop, "run", traced_run)
        yield recorder
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


def _wrap_function(recorder, name, fn, observe=None):
    call = recorder.call

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return call(name, fn, args, kwargs, observe)

    return wrapper


# ----------------------------------------------------------------------
# Analysis and export


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, t0, t1, parent, op, info in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((t0, t1))
    out = []
    for sid, (name, t0, t1, parent, op, info) in enumerate(spans):
        covered = 0.0
        kids = children.get(sid)
        if kids:
            kids.sort()
            cur_lo = cur_hi = None
            for lo, hi in kids:
                lo, hi = max(lo, t0), min(hi, t1)
                if hi <= lo:
                    continue
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
        out.append((t1 - t0) - covered)
    return out


def chrome_trace(spans) -> dict:
    """The spans as a Chrome ``traceEvents`` document (one wall track)."""
    origin = min((s[1] for s in spans), default=0.0)
    events = []
    for sid, (name, t0, t1, parent, op, info) in enumerate(spans):
        events.append({
            "name": name,
            "cat": name.split(".", 1)[0],
            "ph": "X",
            "ts": round((t0 - origin) * 1e6, 3),
            "dur": round((t1 - t0) * 1e6, 3),
            "pid": 1,
            "tid": 0,
            "args": {"id": sid, "parent": parent, "op": op},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(spans, path) -> None:
    with open(path, "w") as fh:
        json.dump(chrome_trace(spans), fh, separators=(",", ":"))
