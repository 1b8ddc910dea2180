"""Span tracing for the benchmark's traced run, placed from outside ``src/``.

Nothing under ``src/`` knows about tracing.  :class:`Tracer` wraps public
functions *as the calling module binds them* (``repro.sta.engine.settle_units``
is the name the engine resolves at call time, so replacing that module
attribute times every engine call and nothing else), a few class methods
(``TimingEngine.run``, ``TransientAnalysis.run_many``,
``NDTable.contract_leading``) and the methods of individual store instances.
:meth:`Tracer.uninstall` puts every original back, so an untraced repetition
in the same process runs the unmodified code.

Each span records its id, its parent span (the innermost open span on the
same thread) and a request id shared by every span of one request; a root
span starts a request unless the caller names one (the server spans reuse
the id of the client request they serve).  Spans are kept in memory and
written once, at exit, as Chrome trace-event JSON.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np


@dataclass
class Span:
    sid: int
    parent: Optional[int]
    rid: str
    name: str
    tid: int
    start: float
    end: float = 0.0
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Thread-aware span stack plus the list of finished spans."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.origin = time.perf_counter()
        #: While set (see :meth:`Tracer.paused`) wrapped calls record nothing.
        self.paused = False
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        """The innermost open span of this thread."""
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name: str, rid: Optional[str] = None, **args: Any) -> Span:
        stack = self._stack()
        parent = self.current()
        sid = next(self._ids)
        if rid is None:
            rid = parent.rid if parent is not None else f"{name}#{sid}"
        span = Span(
            sid=sid,
            parent=parent.sid if parent is not None else None,
            rid=rid,
            name=name,
            tid=threading.get_ident(),
            start=time.perf_counter(),
            args=dict(args),
        )
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    def span(self, name: str, rid: Optional[str] = None, **args: Any):
        return _SpanContext(self, name, rid, args)


class _SpanContext:
    def __init__(self, recorder: Recorder, name: str, rid, args) -> None:
        self.recorder, self.name, self.rid, self.args = recorder, name, rid, args
        self.span: Optional[Span] = None

    def __enter__(self) -> Span:
        self.span = self.recorder.open(self.name, self.rid, **self.args)
        return self.span

    def __exit__(self, *exc) -> None:
        self.recorder.close(self.span)


class _NullContext:
    def __enter__(self):
        return None

    def __exit__(self, *exc) -> None:
        return None


def payload_bytes(value: Any, depth: int = 6) -> int:
    """Array bytes reachable from a stored value (waveforms, tensors, dicts)."""
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if depth == 0 or value is None or isinstance(value, (str, bytes, int, float)):
        return 0
    if isinstance(value, dict):
        items = value.values()
    elif isinstance(value, (list, tuple)):
        items = value
    elif hasattr(value, "__dict__"):
        items = vars(value).values()
    else:  # __slots__ classes (LevelTensor)
        items = [getattr(value, name, None) for name in getattr(type(value), "__slots__", ())]
    return sum(payload_bytes(item, depth - 1) for item in items)


class Tracer:
    """Installs and removes the benchmark's spans around ``repro`` calls."""

    def __init__(self) -> None:
        self.recorder = Recorder()
        self.active = False
        self._undo: List[Tuple[Any, str, bool, Any]] = []
        self._request_counts: Dict[str, int] = defaultdict(int)
        self._counts_lock = threading.Lock()

    # -- spans opened by the benchmark itself ---------------------------
    def span(self, name: str, rid: Optional[str] = None, **args: Any):
        if not self.active or self.recorder.paused:
            return _NullContext()
        return self.recorder.span(name, rid, **args)

    @contextmanager
    def paused(self):
        """Record nothing inside (the benchmark's own correctness checks)."""
        previous, self.recorder.paused = self.recorder.paused, True
        try:
            yield
        finally:
            self.recorder.paused = previous

    # -- patching -------------------------------------------------------
    def _wrap(
        self,
        original: Callable,
        name: str,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
        rid_of: Optional[Callable] = None,
    ) -> Callable:
        recorder = self.recorder

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if recorder.paused:
                return original(*args, **kwargs)
            extra = before(args, kwargs) if before is not None else {}
            rid = rid_of(args, kwargs) if rid_of is not None else None
            span = recorder.open(name, rid, **extra)
            try:
                result = original(*args, **kwargs)
                if after is not None:
                    span.args.update(after(args, kwargs, result))
                return result
            finally:
                recorder.close(span)

        return traced

    def patch(self, owner: Any, attr: str, name: str, **hooks) -> None:
        """Replace ``owner.attr`` (a module, class or instance attribute)."""
        own = getattr(owner, "__dict__", {})
        self._undo.append((owner, attr, attr in own, own.get(attr)))
        setattr(owner, attr, self._wrap(getattr(owner, attr), name, **hooks))

    def watch_store(self, store: Any) -> Any:
        """Time one store instance's reads and writes (no-op when inactive)."""
        if not self.active or store is None or "lookup" in vars(store):
            return store
        self.patch(
            store, "lookup", "runtime.store_get",
            after=lambda a, k, result: {"hit": bool(result[0])},
        )
        self.patch(
            store, "store", "runtime.store_put",
            before=lambda a, k: {"items": 1, "bytes": payload_bytes(a[1])},
        )
        if hasattr(store, "store_many"):
            # Materialize the items once so the span can size them.
            inner = store.store_many
            self._undo.append((store, "store_many", False, None))
            store.store_many = lambda items: inner(list(items))
            self.patch(
                store, "store_many", "runtime.store_put",
                before=lambda a, k: {
                    "items": len(a[0]),
                    "bytes": sum(payload_bytes(value) for _, value in a[0]),
                },
            )
        return store

    def watch_service(self, service: Any) -> None:
        """Server-side spans: one per handled request, keyed like the client's."""
        if not self.active or "handle" in vars(service):
            return
        counts, lock = self._request_counts, self._counts_lock

        def rid_of(args, kwargs):
            request = args[0]
            session = request.get("session") or request.get("op", "op")
            with lock:
                counts[session] += 1
                return f"{session}#{counts[session]}"

        self.patch(
            service, "handle", "server.handle",
            before=lambda a, k: {"op": a[0].get("op")}, rid_of=rid_of,
        )
        self.watch_store(service.store)

    def install(self) -> None:
        """Wrap the layer entry points named in the benchmark's README."""
        from repro.characterization import characterize as characterize_mod
        from repro.characterization import nldm as nldm_mod
        from repro.characterization import probe as probe_mod
        from repro.csm import simulate as simulate_mod
        from repro.experiments import common as common_mod
        from repro.lut.table import NDTable
        from repro.runtime.server import registry as registry_mod
        from repro.spice.transient import TransientAnalysis
        from repro.sta import engine as engine_mod
        from repro.sta import generate as generate_mod
        from repro.sta import hybrid as hybrid_mod
        from repro.sta import models as models_mod

        self.active = True
        one = lambda a, k: {"batch": 1}  # noqa: E731
        for module in (nldm_mod, probe_mod):
            self.patch(module, "transient_analysis", "spice.transient", before=one)
        self.patch(
            TransientAnalysis, "run_many", "spice.transient",
            before=lambda a, k: {"batch": len(a[1]), "many": True},
        )
        self.patch(characterize_mod, "run_characterization", "characterization.csm")
        self.patch(characterize_mod, "run_nldm_characterization", "characterization.nldm")

        def jobs_after(a, k, results):
            hits = sum(1 for result in results if result.cache_hit)
            return {"jobs": len(results), "hits": hits}

        for module in (models_mod, common_mod):
            self.patch(module, "run_jobs", "characterization.run_jobs", after=jobs_after)
        self.patch(
            engine_mod, "settle_units", "csm.settle",
            before=lambda a, k: {"units": len(a[0])},
        )
        self.patch(
            engine_mod, "integrate_model_many", "csm.integrate",
            before=lambda a, k: {"rows": len(a[0])},
        )
        self.patch(NDTable, "contract_leading", "lut.contract")
        for attr in ("contract_leading_shared", "contract_leading_spans"):
            self.patch(simulate_mod, attr, "lut.contract")

        def run_after(a, k, result):
            engine = a[0]
            stats = engine.last_stats
            out = {"engine": type(engine).__name__}
            if stats is not None:
                out.update(stats.as_dict())
                out["cone_hits"] = stats.cone_hits
            try:
                out["levels"] = len(engine.levels())
            except Exception:  # pragma: no cover - structural views optional
                pass
            if hasattr(result, "csm_fraction"):
                out["csm_fraction"] = float(result.csm_fraction)
                out["iterations"] = len(result.iterations)
            return out

        self.patch(engine_mod.TimingEngine, "run", "sta.run", after=run_after)
        for module in (registry_mod, generate_mod):
            self.patch(module, "primary_input_waveforms", "sta.stimulus")
        for module in (engine_mod, hybrid_mod):
            self.patch(module, "crossing_times", "waveform.crossing")
        for module in (engine_mod, registry_mod):
            self.patch(module, "content_hash", "runtime.hash")

    def uninstall(self) -> None:
        for owner, attr, had_own, original in reversed(self._undo):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._undo.clear()
        self.active = False

    # -- output ---------------------------------------------------------
    def chrome_trace(self) -> Dict[str, Any]:
        origin = self.recorder.origin
        tids: Dict[int, int] = {}
        events = []
        for span in sorted(self.recorder.spans, key=lambda s: s.start):
            tid = tids.setdefault(span.tid, len(tids) + 1)
            args = {"id": span.rid, "span": span.sid, "parent": span.parent}
            args.update({key: _jsonable(value) for key, value in span.args.items()})
            events.append(
                {
                    "name": span.name,
                    "cat": span.name.split(".", 1)[0],
                    "ph": "X",
                    "ts": round((span.start - origin) * 1e6, 3),
                    "dur": round(span.duration * 1e6, 3),
                    "pid": os.getpid(),
                    "tid": tid,
                    "args": args,
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: os.PathLike) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle)


def _jsonable(value: Any) -> Any:
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, np.generic):
        return value.item()
    return str(value)


@dataclass
class LayerRow:
    count: int = 0  # outermost spans of this name (nested re-entries excluded)
    busy: float = 0.0  # wall time covered by spans of this name, on any thread
    self_time: float = 0.0  # span time not covered by any of its child spans


def covered(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_table(spans: List[Span]) -> Dict[str, LayerRow]:
    """Count, busy and self time per span name.

    Child spans may run on worker threads, concurrently with each other, so
    both busy and self time take the union of intervals, never their sum.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    rows: Dict[str, LayerRow] = defaultdict(LayerRow)
    for name, group in _by_name(spans).items():
        row = rows[name]
        outer = outermost(spans, name)
        row.count = len(outer)
        row.busy = covered([(span.start, span.end) for span in outer])
        for span in group:
            inside = [
                (max(start, span.start), min(end, span.end))
                for start, end in children[span.sid]
                if end > span.start and start < span.end
            ]
            row.self_time += span.duration - covered(inside)
    return dict(rows)


def _by_name(spans: List[Span]) -> Dict[str, List[Span]]:
    groups: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        groups[span.name].append(span)
    return groups


def format_layer_table(rows: Dict[str, LayerRow]) -> str:
    lines = [f"{'span':<28} {'count':>8} {'busy_s':>10} {'self_s':>10}"]
    for name in sorted(rows):
        row = rows[name]
        lines.append(
            f"{name:<28} {row.count:>8d} {row.busy:>10.4f} {row.self_time:>10.4f}"
        )
    return "\n".join(lines)


def outermost(spans: List[Span], name: str) -> List[Span]:
    """Spans called ``name`` with no ancestor of the same name."""
    by_id = {span.sid: span for span in spans}
    result = []
    for span in spans:
        if span.name != name:
            continue
        ancestor = by_id.get(span.parent) if span.parent is not None else None
        while ancestor is not None and ancestor.name != name:
            ancestor = by_id.get(ancestor.parent) if ancestor.parent is not None else None
        if ancestor is None:
            result.append(span)
    return result
