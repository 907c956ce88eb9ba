"""Runtime span tracing around the program's public calls.

The benchmark records spans from its own files only: :class:`Tracer`
replaces a public function or method with a wrapper that records one
:class:`Span` per call and restores the original on :meth:`Tracer.restore`.
Functions are wrapped *where they are looked up*: ``algorithms/bsr.py``
imports ``bound_pair`` by name, so :data:`LAYER_CALLS` patches that
module's binding as well as ``repro.bounds.iterative``'s.

The current span lives in a :class:`contextvars.ContextVar`, so nesting
is tracked per thread and per asyncio task.  A call handed to an
executor thread starts in a fresh context and is therefore recorded
without a parent; linking those spans needs tracing inside the program.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Iterable


@dataclass
class Span:
    """One timed call."""

    id: int
    name: str
    start: float
    end: float | None = None
    parent: int | None = None
    thread: int = 0
    request: str | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Each span's duration minus the part its children cover.

    Children are the spans naming it as parent; their intervals are
    clipped to the parent's and merged first, so overlapping children
    (e.g. concurrent callbacks) are not subtracted twice.
    """
    spans = [span for span in spans if span.end is not None]
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for lo, hi in sorted(children.get(span.id, [])):
            lo, hi = max(lo, cursor), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span.id] = span.duration - covered
    return result


class Tracer:
    """Collect spans in memory; patch public calls to produce them."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[int | None] = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        #: Request id of the HTTP request being served in this context.
        self.request: contextvars.ContextVar[str | None] = contextvars.ContextVar(
            "perfbench_request", default=None
        )
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def open(self, name: str, **attrs) -> Span:
        span = Span(
            id=next(self._ids),
            name=name,
            start=self.clock(),
            parent=self._current.get(),
            thread=threading.get_ident(),
            request=self.request.get(),
            attrs=attrs,
        )
        self.spans.append(span)
        return span

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """Time a block as a span; nested calls become its children."""
        span = self.open(name, **attrs)
        token = self._current.set(span.id)
        try:
            yield span
        finally:
            span.end = self.clock()
            self._current.reset(token)

    # ------------------------------------------------------------------
    def wrap(
        self,
        fn: Callable,
        name: str | Callable[..., str],
        *,
        record: Callable[[Span, Any, tuple], None] | None = None,
        until_resolved: bool = False,
        first_per_view: bool = False,
    ) -> Callable:
        """A traced stand-in for *fn*.

        ``name`` may be a callable of the call's arguments.  ``record``
        sees ``(span, result, args)`` after the call, to attach counts.
        ``until_resolved`` keeps the span open until the returned future
        resolves (it is then never the parent of later calls).
        ``first_per_view`` traces only the first call per ``WorldView``,
        the one that computes a memoised product; the mark that it ran
        lives in the view's own cache (``WorldView.cached``), so a new
        view never inherits an old one's.
        A generator function gets one span per item it produces, so the
        consumer's work between items is not counted as the generator's.
        """
        tracer = self
        marker = ("perfbench.traced", getattr(fn, "__qualname__", repr(fn)))

        def label(args, kwargs) -> str:
            return name(*args, **kwargs) if callable(name) else name

        def skip(args) -> bool:
            if not first_per_view:
                return False
            first = []
            args[0].cached(marker, lambda: first.append(True))
            return not first

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                with tracer.span(label(args, kwargs)) as span:
                    result = await fn(*args, **kwargs)
                    if record is not None:
                        record(span, result, args)
                    return result

            return traced_async

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                items = fn(*args, **kwargs)
                while True:
                    with tracer.span(label(args, kwargs)) as span:
                        try:
                            item = next(items)
                        except StopIteration:
                            span.attrs["idle"] = True  # exhausted, no item
                            return
                    yield item

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if skip(args):
                return fn(*args, **kwargs)
            if until_resolved:
                span = tracer.open(label(args, kwargs))
                future = fn(*args, **kwargs)

                def close(_future, span=span):
                    span.end = tracer.clock()

                future.add_done_callback(close)
                return future
            with tracer.span(label(args, kwargs)) as span:
                result = fn(*args, **kwargs)
                if record is not None:
                    record(span, result, args)
                return result

        return traced

    def patch(self, owner: Any, attr: str, name, **options) -> None:
        """Replace ``owner.attr`` with a traced wrapper (undone by restore)."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, **options))

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def closed_spans(self) -> list[Span]:
        return [span for span in self.spans if span.end is not None]

    def dump(self, path) -> None:
        """Write every closed span as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.closed_spans():
                handle.write(json.dumps(asdict(span), default=str) + "\n")


def load_spans(path) -> list[Span]:
    with open(path, encoding="utf-8") as handle:
        return [Span(**json.loads(line)) for line in handle if line.strip()]


# ----------------------------------------------------------------------
# What gets wrapped
# ----------------------------------------------------------------------
def _record_refresh(span: Span, report, _args) -> None:
    span.attrs.update(
        mode=report.mode,
        bounds_recomputed=int(report.bounds_recomputed),
        worlds_repaired=int(report.worlds_repaired),
    )


def _query_name(_monitor, family, **_params) -> str:
    return f"queries.{family}"


#: ``(module, attribute path, span name, options)``.  A dotted attribute
#: path names a method on a class; a plain one a module-level binding.
LAYER_CALLS: tuple[tuple[str, str, Any, dict], ...] = (
    ("repro.bounds.iterative", "bound_pair", "bounds.pair", {}),
    ("repro.algorithms.bsr", "bound_pair", "bounds.pair", {}),
    ("repro.algorithms.bsrbk", "bound_pair", "bounds.pair", {}),
    ("repro.streaming.monitor", "bound_pair", "bounds.pair", {}),
    ("repro.bounds.candidates", "reduce_candidates", "bounds.reduce", {}),
    ("repro.algorithms.bsr", "reduce_candidates", "bounds.reduce", {}),
    ("repro.algorithms.bsrbk", "reduce_candidates", "bounds.reduce", {}),
    ("repro.streaming.monitor", "reduce_candidates", "bounds.reduce", {}),
    ("repro.algorithms.bsr", "assemble_answer", "algorithms.assemble", {}),
    ("repro.algorithms.bsrbk", "assemble_answer", "algorithms.assemble", {}),
    ("repro.streaming.monitor", "assemble_answer", "algorithms.assemble", {}),
    ("repro.bounds.incremental", "IncrementalBoundPair.refresh", "bounds.incremental", {}),
    ("repro.sampling.indexed", "IndexedReverseSampler.run", "sampling.run", {}),
    # Both outcomes_for_worlds and the monitor's repair loop go through it.
    ("repro.sampling.indexed", "IndexedReverseSampler.iter_world_blocks", "sampling.repair", {}),
    ("repro.sampling.worldstate", "WorldView.defaulted", "sampling.view", {"first_per_view": True}),
    ("repro.sampling.worldstate", "WorldView.contagion", "sampling.view", {"first_per_view": True}),
    ("repro.queries.skyline", "skyline_mask", "queries.skyline_mask", {}),
    ("repro.streaming.monitor", "TopKMonitor.query", _query_name, {}),
    ("repro.streaming.monitor", "TopKMonitor.refresh", "streaming.refresh", {"record": _record_refresh}),
    ("repro.serving.service", "RiskService.submit_and_sync", "serving.submit_sync", {}),
    ("repro.serving.service", "RiskService.query_topk", "serving.query", {}),
    ("repro.serving.service", "RiskService.snapshot_to_disk", "persistence.snapshot", {}),
    ("repro.serving.pool", "ServingPool.apply", "serving.apply", {"until_resolved": True}),
    ("repro.persistence.wal", "WriteAheadLog.append_events", "persistence.append", {}),
    ("repro.persistence.wal", "WriteAheadLog.sync", "persistence.fsync", {}),
    ("repro.persistence.wal", "WriteAheadLog.read_batches", "persistence.read", {}),
    ("repro.frontend.admission", "AdmissionController.admit", "frontend.admit", {}),
    ("repro.replication.shipper", "WalShipper.step", "replication.step", {}),
    ("repro.replication.failover", "FailoverCoordinator.promote", "replication.promote", {}),
)


def install(tracer: Tracer) -> None:
    """Patch every call in :data:`LAYER_CALLS` plus the HTTP wire calls."""
    for module_name, path, name, options in LAYER_CALLS:
        owner = importlib.import_module(module_name)
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        tracer.patch(owner, attr, name, **options)
    server = importlib.import_module("repro.frontend.server")

    def tag_request(span: Span, request, _args) -> None:
        if request is None:
            span.attrs["idle"] = True  # connection closed, nothing parsed
            return
        rid = request.headers.get("x-request-id")
        span.request = rid
        tracer.request.set(rid)

    tracer.patch(server, "read_request", "frontend.parse", record=tag_request)
    tracer.patch(server, "write_response", "frontend.write")
