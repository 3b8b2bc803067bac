"""In-memory span recorder wrapped around the simulator's public functions.

The traced runs of the benchmark install these wrappers from the
benchmark's own files; nothing inside ``repro`` is edited.  A span is
``(name, start, end, parent, thread, counts)``: the parent is the span
that was open on the same thread or asyncio task when the call started
(tracked with a :mod:`contextvars` stack, so interleaved coroutines on
one event loop nest correctly).  Spans stay in memory and are written
out once, at the end of the run, with each layer's total and self time
(duration minus the part covered by its child spans).
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import threading
import time

_STACK: contextvars.ContextVar[tuple[int, ...]] = contextvars.ContextVar(
    "scbench_span_stack", default=()
)


class Tracer:
    """Records the spans of one traced run."""

    def __init__(self) -> None:
        #: [name, start, end, parent index, thread id, counts or None]
        self.spans: list[list] = []
        self._lock = threading.Lock()

    # -- recording ---------------------------------------------------------
    def _open(self, name: str, counts: dict | None) -> tuple[int, contextvars.Token]:
        stack = _STACK.get()
        with self._lock:
            idx = len(self.spans)
            self.spans.append(
                [name, time.perf_counter(), None, stack[-1] if stack else -1,
                 threading.get_ident(), counts]
            )
        return idx, _STACK.set(stack + (idx,))

    def _close(self, idx: int, token: contextvars.Token) -> None:
        self.spans[idx][2] = time.perf_counter()
        _STACK.reset(token)

    def wrap(self, fn, name: str, counter=None):
        """Return ``fn`` recording a span ``name`` around every call.

        ``counter(args)`` may return layer counts (work done) computed
        from the call's arguments; they are stored with the span.
        """
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                idx, token = self._open(name, counter(args) if counter else None)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    self._close(idx, token)

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx, token = self._open(name, counter(args) if counter else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, token)

        return traced

    def patch(self, owner, attr: str, name: str, counter=None) -> None:
        """Replace ``owner.attr`` with a traced wrapper."""
        original = getattr(owner, attr)
        wrapped = self.wrap(original, name, counter)
        # lru_cache'd functions are also called through their cache API
        for extra in ("cache_clear", "cache_info"):
            if hasattr(original, extra):
                setattr(wrapped, extra, getattr(original, extra))
        setattr(owner, attr, wrapped)

    # -- reporting ---------------------------------------------------------
    def dump(self, path, extra: dict | None = None) -> None:
        """Write the spans and their per-layer table as JSON."""
        doc = {"layers": layer_table(self.spans), "spans": self.spans}
        doc.update(extra or {})
        with open(path, "w") as fh:
            json.dump(doc, fh)


def layer_table(rows: list[list], t0: float = float("-inf"),
                t1: float = float("inf")) -> dict[str, dict[str, float]]:
    """Per span name: calls, total and self seconds, and summed counts.

    Only finished spans that start inside ``[t0, t1)`` count.  Self time is a
    span's duration minus the part of it its child spans cover.
    """
    child_time = [0.0] * len(rows)
    for _name, start, end, parent, *_ in rows:
        if parent >= 0 and end is not None:
            child_time[parent] += end - start
    table: dict[str, dict[str, float]] = {}
    for i, (name, start, end, _parent, _thread, counts) in enumerate(rows):
        if end is None or not t0 <= start < t1:  # unfinished, or outside
            continue
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child_time[i]
        for key, value in (counts or {}).items():
            row[key] = row.get(key, 0.0) + value
    return table


def _count_sc_matmul(args) -> dict:
    """Modelled BISC work of one product: ``sum |w|`` cycles on each lane."""
    import numpy as np

    w, x = args[0], args[1]
    return {"mac_cycles": float(np.abs(w).sum()) * x.shape[1]}


def _count_images(args) -> dict:
    return {"images": float(sum(len(x) for x in args[1]))}


def install_simulator(tracer: Tracer) -> None:
    """Wrap the public functions of the model, nn and arithmetic layers."""
    import repro.core.mvm as mvm
    import repro.experiments.common as common
    import repro.nn as nn
    import repro.nn.calibration as calibration
    import repro.nn.engines as engines
    import repro.nn.layers.conv as conv
    import repro.parallel as parallel
    import repro.parallel.compiled as compiled
    import repro.sc.multipliers as multipliers
    from repro.nn.layers import Dense, MaxPool2D
    from repro.parallel.cache import ScheduleCache
    from repro.parallel.engine import BatchInferenceEngine

    # a function is wrapped where it is defined and in every module that
    # imports it by name, since callers look it up in their own module
    tracer.patch(common, "get_trained_model", "common.get_trained_model")
    for owner in (compiled, parallel):
        tracer.patch(owner, "ensure_compiled", "compiled.ensure_compiled")
    for owner in (calibration, nn):
        tracer.patch(owner, "attach_engines", "calibration.attach_engines")
    for owner in (multipliers, engines):
        tracer.patch(owner, "lfsr_ud_table", "multipliers.lfsr_ud_table")
    for owner in (mvm, engines):
        tracer.patch(owner, "sc_matmul", "mvm.sc_matmul", _count_sc_matmul)
    for cls, kind in (
        (engines.FixedPointEngine, "fixed"),
        (engines.LfsrScEngine, "lfsr-sc"),
        (engines.ProposedScEngine, "proposed-sc"),
    ):
        tracer.patch(cls, "matmul", f"engines.{kind}.matmul")
    tracer.patch(conv, "im2col", "im2col.im2col")
    tracer.patch(Dense, "forward", "layers.dense.forward")
    tracer.patch(MaxPool2D, "forward", "layers.pool.forward")
    tracer.patch(ScheduleCache, "sc_matmul", "cache.sc_matmul")
    tracer.patch(
        BatchInferenceEngine, "logits_grouped", "engine.logits_grouped", _count_images
    )


def install_serving(tracer: Tracer) -> None:
    """Wrap the serving plane's public entry points (server process only)."""
    from repro.serve.pool import EnginePool
    from repro.serve.service import InferenceService

    install_simulator(tracer)
    tracer.patch(EnginePool, "run_grouped", "pool.run_grouped")
    tracer.patch(InferenceService, "predict", "service.predict")
