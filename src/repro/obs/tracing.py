"""Spans and tracing: where does the wall-clock time of a run go?

A :class:`Span` measures one named region of code with monotonic
timestamps (``time.perf_counter_ns``); spans nest, so a trace of one
``explore`` run shows each candidate evaluation inside the exploration,
each partitioning plan inside the candidate, and so on.  The
:class:`Tracer` collects finished spans thread-safely and exports them
in two formats:

* **JSONL** (:meth:`Tracer.export_jsonl`) — one span per line, trivially
  greppable and streamable;
* **Chrome trace_event JSON** (:meth:`Tracer.export_chrome`) — loadable
  directly in ``chrome://tracing`` or https://ui.perfetto.dev for a
  flame-chart view of the flow.

Instrumentation sites call the module-level :func:`span` helper, which
is a **no-op unless a tracer is installed** (:func:`install_tracer`):
without one it returns a shared stateless null context manager, so the
instrumented code pays a single global read per call site.

Distributed tracing
-------------------
One request to the router fabric crosses three process layers (router,
service node, pool worker), each with its own tracer.  Three pieces
make their spans stitch into one timeline:

* **trace context** — every span carries a ``trace_id`` plus its own
  ``span_id`` and ``parent_span_id`` (W3C-traceparent style).  The
  context rides the wire in the proto ``Request`` and is re-entered in
  the receiving process with :func:`trace_context`; spans opened under
  it link to the remote parent, so the whole fabric shares one tree.
* **a wall-clock anchor** — each tracer records ``time.time_ns`` next
  to its monotonic epoch at construction.  Timestamps stay monotonic
  in-process (immune to clock steps mid-run), but the anchor lets
  :mod:`repro.obs.stitch` place every process's spans on one absolute
  axis.  JSONL exports start with a ``trace_meta`` line carrying the
  anchor, the pid and a human process name.
* **foreign spans** (:meth:`Tracer.add_foreign`) — a process without
  its own export path (a pool worker that may be chaos-killed at any
  time) times its stages with absolute wall-clock timestamps and ships
  them home in its reply; the parent re-records them, preserving the
  worker's pid/tid so the stitched trace shows the worker as its own
  process row.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, IO, List, Optional

__all__ = [
    "Span",
    "SpanRecord",
    "Tracer",
    "current_trace_context",
    "get_tracer",
    "install_tracer",
    "new_span_id",
    "new_trace_id",
    "record_span",
    "span",
    "trace_context",
    "traced",
    "uninstall_tracer",
]


#: The per-process source of trace and span ids: seeded from
#: ``os.urandom`` once, and again in every forked child (so a child's
#: ids never repeat its parent's), so drawing an id makes no syscall.
_ids = random.Random(os.urandom(32))


def _reseed_ids() -> None:
    _ids.seed(os.urandom(32))


os.register_at_fork(after_in_child=_reseed_ids)


def new_trace_id() -> str:
    """A fresh 128-bit trace id (32 lowercase hex chars)."""
    return f"{_ids.getrandbits(128):032x}"


def new_span_id() -> str:
    """A fresh 64-bit span id (16 lowercase hex chars)."""
    return f"{_ids.getrandbits(64):016x}"


@dataclass(frozen=True)
class SpanRecord:
    """One finished span: name, timing and structural position."""

    name: str
    start_us: float  # monotonic microseconds since the tracer epoch
    duration_us: float
    thread_id: int
    depth: int
    parent: Optional[str]
    args: Dict[str, Any] = field(default_factory=dict)
    trace_id: Optional[str] = None
    span_id: Optional[str] = None
    parent_span_id: Optional[str] = None
    pid: int = 0

    def as_dict(self) -> Dict[str, Any]:
        out = {
            "name": self.name,
            "ts_us": round(self.start_us, 3),
            "dur_us": round(self.duration_us, 3),
            "tid": self.thread_id,
            "depth": self.depth,
            "parent": self.parent,
            "args": self.args,
        }
        if self.trace_id is not None:
            out["trace_id"] = self.trace_id
        if self.span_id is not None:
            out["span_id"] = self.span_id
        if self.parent_span_id is not None:
            out["parent_span_id"] = self.parent_span_id
        if self.pid:
            out["pid"] = self.pid
        return out

    def as_chrome_event(self, pid: int) -> Dict[str, Any]:
        """A Chrome ``trace_event`` complete ("X") event."""
        args = dict(self.args)
        if self.trace_id is not None:
            args["trace_id"] = self.trace_id
        if self.span_id is not None:
            args["span_id"] = self.span_id
        if self.parent_span_id is not None:
            args["parent_span_id"] = self.parent_span_id
        return {
            "name": self.name,
            "ph": "X",
            "ts": round(self.start_us, 3),
            "dur": round(self.duration_us, 3),
            "pid": self.pid or pid,
            "tid": self.thread_id,
            "args": args,
        }


class _TraceContext:
    """Thread-local ``(trace_id, parent_span_id)`` the next span joins."""

    __slots__ = ("trace_id", "parent_span_id")

    def __init__(self, trace_id: str, parent_span_id: Optional[str]):
        self.trace_id = trace_id
        self.parent_span_id = parent_span_id


_context_local = threading.local()


def _context_stack() -> List[_TraceContext]:
    stack = getattr(_context_local, "stack", None)
    if stack is None:
        stack = []
        _context_local.stack = stack
    return stack


def current_trace_context() -> Optional[_TraceContext]:
    """The innermost active trace context on this thread, if any."""
    stack = getattr(_context_local, "stack", None)
    return stack[-1] if stack else None


class trace_context:
    """Context manager joining this thread's spans to a remote trace.

    While active, spans opened on this thread record ``trace_id`` and
    link their ``parent_span_id`` chain back to ``parent_span_id``
    (the caller's span id in another process).  Passing
    ``trace_id=None`` is a no-op — call sites can apply it
    unconditionally for requests with or without a wire context.
    """

    __slots__ = ("_ctx",)

    def __init__(
        self,
        trace_id: Optional[str],
        parent_span_id: Optional[str] = None,
    ) -> None:
        self._ctx = (
            _TraceContext(trace_id, parent_span_id)
            if trace_id is not None
            else None
        )

    def __enter__(self) -> "trace_context":
        if self._ctx is not None:
            _context_stack().append(self._ctx)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._ctx is not None:
            stack = _context_stack()
            if stack and stack[-1] is self._ctx:
                stack.pop()
        return False


class Span:
    """Context manager timing one named region (created by a tracer)."""

    __slots__ = (
        "_tracer", "name", "args", "_start_ns", "_depth", "_parent",
        "trace_id", "span_id", "parent_span_id",
    )

    def __init__(self, tracer: "Tracer", name: str, args: Dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.args = args
        self._start_ns = 0
        self._depth = 0
        self._parent: Optional[str] = None
        self.trace_id: Optional[str] = None
        self.span_id: Optional[str] = None
        self.parent_span_id: Optional[str] = None

    def annotate(self, **kwargs: Any) -> "Span":
        """Attach extra key/value arguments to the span."""
        self.args.update(kwargs)
        return self

    def __enter__(self) -> "Span":
        stack = self._tracer._stack()
        if stack:
            enclosing = stack[-1]
            self._parent = enclosing.name
            self.trace_id = enclosing.trace_id
            self.parent_span_id = enclosing.span_id
        else:
            ctx = current_trace_context()
            if ctx is not None:
                self.trace_id = ctx.trace_id
                self.parent_span_id = ctx.parent_span_id
        if self.trace_id is not None:
            self.span_id = self._tracer._next_span_id()
        self._depth = len(stack)
        stack.append(self)
        self._start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end_ns = time.perf_counter_ns()
        stack = self._tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        self._tracer._record(self, self._start_ns, end_ns)
        return False


class _NullSpan:
    """Shared stateless no-op span used when no tracer is installed."""

    __slots__ = ()

    def annotate(self, **kwargs: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Tracer:
    """Thread-safe in-process span collector.

    All timestamps are monotonic nanoseconds relative to the tracer's
    construction, exported as microseconds (the trace_event unit).
    ``epoch_unix_us`` records the wall clock at the same instant, so a
    stitcher can align several processes' traces on one absolute axis
    (see :func:`repro.obs.stitch.stitch_traces`).
    """

    def __init__(self, name: Optional[str] = None) -> None:
        self._epoch_ns = time.perf_counter_ns()
        self.epoch_unix_us = time.time_ns() / 1e3
        self.name = name or f"pid-{os.getpid()}"
        self.pid = os.getpid()
        self._lock = threading.Lock()
        self._records: List[SpanRecord] = []
        self._local = threading.local()
        # Span ids only need uniqueness across the processes of one
        # fabric run: pid plus a random salt plus a counter is cheap
        # enough for hot spans and unique enough for stitching.
        self._id_prefix = f"{os.getpid() & 0xFFFF:04x}{os.urandom(2).hex()}"
        self._id_seq = itertools.count(1)

    def _next_span_id(self) -> str:
        return f"{self._id_prefix}{next(self._id_seq) & 0xFFFFFFFF:08x}"

    # -- recording -----------------------------------------------------
    def span(self, name: str, **args: Any) -> Span:
        """A new (not yet entered) span owned by this tracer."""
        return Span(self, name, args)

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _record(self, span_obj: Span, start_ns: int, end_ns: int) -> None:
        record = SpanRecord(
            name=span_obj.name,
            start_us=(start_ns - self._epoch_ns) / 1e3,
            duration_us=(end_ns - start_ns) / 1e3,
            thread_id=threading.get_ident() & 0xFFFFFFFF,
            depth=span_obj._depth,
            parent=span_obj._parent,
            args=dict(span_obj.args),
            trace_id=span_obj.trace_id,
            span_id=span_obj.span_id,
            parent_span_id=span_obj.parent_span_id,
            # pid stays 0 for locally recorded spans: the exporter's
            # trace_meta header names the owning process once, and
            # only foreign (relayed) spans need a per-record pid.
        )
        with self._lock:
            self._records.append(record)

    def add_complete(
        self,
        name: str,
        start_ns: int,
        end_ns: int,
        trace_id: Optional[str] = None,
        span_id: Optional[str] = None,
        parent_span_id: Optional[str] = None,
        **args: Any,
    ) -> None:
        """Record an externally timed region (no nesting bookkeeping).

        Used by call sites whose begin/end do not bracket a ``with``
        block (e.g. a request's full router residency, which starts at
        submission and ends when its response slot resolves on another
        thread).  Trace-context ids may be passed explicitly.
        """
        record = SpanRecord(
            name=name,
            start_us=(start_ns - self._epoch_ns) / 1e3,
            duration_us=(end_ns - start_ns) / 1e3,
            thread_id=threading.get_ident() & 0xFFFFFFFF,
            depth=0,
            parent=None,
            args=args,
            trace_id=trace_id,
            span_id=span_id,
            parent_span_id=parent_span_id,
        )
        with self._lock:
            self._records.append(record)

    def add_foreign(self, rec: Dict[str, Any]) -> None:
        """Re-record a span timed in *another* process.

        ``rec`` uses absolute wall-clock timestamps (``ts_unix_us``,
        ``dur_us``) plus the remote ``pid``/``tid`` and optional trace
        ids; this tracer converts the timestamp onto its own epoch so
        one export stays internally consistent, while the preserved
        pid keeps the remote process on its own row after stitching.
        """
        record = SpanRecord(
            name=str(rec["name"]),
            start_us=float(rec["ts_unix_us"]) - self.epoch_unix_us,
            duration_us=float(rec["dur_us"]),
            thread_id=int(rec.get("tid", 0)),
            depth=int(rec.get("depth", 0)),
            parent=rec.get("parent"),
            args=dict(rec.get("args", {})),
            trace_id=rec.get("trace_id"),
            span_id=rec.get("span_id"),
            parent_span_id=rec.get("parent_span_id"),
            pid=int(rec.get("pid", 0)),
        )
        with self._lock:
            self._records.append(record)

    # -- inspection ----------------------------------------------------
    @property
    def records(self) -> List[SpanRecord]:
        """A snapshot of all finished spans, in completion order."""
        with self._lock:
            return list(self._records)

    def clear(self) -> None:
        with self._lock:
            self._records.clear()

    # -- exporters -----------------------------------------------------
    def meta(self) -> Dict[str, Any]:
        """The ``trace_meta`` header: who recorded this file, and how
        its monotonic timestamps map onto the wall clock."""
        return {
            "kind": "trace_meta",
            "process": self.name,
            "pid": self.pid,
            "epoch_unix_us": round(self.epoch_unix_us, 3),
        }

    def to_jsonl(self, fileobj: IO[str]) -> int:
        """Write a ``trace_meta`` header line, then one JSON object per
        span; returns the span count (the header is not counted)."""
        records = self.records
        fileobj.write(json.dumps(self.meta()) + "\n")
        for record in records:
            fileobj.write(json.dumps(record.as_dict()) + "\n")
        return len(records)

    def export_jsonl(self, path: str) -> int:
        with open(path, "w", encoding="utf-8") as fh:
            return self.to_jsonl(fh)

    def chrome_events(self) -> List[Dict[str, Any]]:
        pid = self.pid
        return [r.as_chrome_event(pid) for r in self.records]

    def to_chrome(self, fileobj: IO[str]) -> int:
        """Write a ``chrome://tracing``-loadable JSON document."""
        events = self.chrome_events()
        json.dump(
            {"traceEvents": events, "displayTimeUnit": "ms"},
            fileobj,
            indent=1,
        )
        return len(events)

    def export_chrome(self, path: str) -> int:
        with open(path, "w", encoding="utf-8") as fh:
            return self.to_chrome(fh)


# ---------------------------------------------------------------------
# Global installation: one process-wide tracer, read without locking on
# the hot path (module-global load), written under a lock.
_install_lock = threading.Lock()
_tracer: Optional[Tracer] = None


def install_tracer(tracer: Optional[Tracer] = None) -> Tracer:
    """Install (and return) the process-wide tracer."""
    global _tracer
    with _install_lock:
        _tracer = tracer if tracer is not None else Tracer()
        return _tracer


def uninstall_tracer() -> Optional[Tracer]:
    """Remove and return the installed tracer (if any)."""
    global _tracer
    with _install_lock:
        tracer, _tracer = _tracer, None
        return tracer


def get_tracer() -> Optional[Tracer]:
    return _tracer


def span(name: str, **args: Any):
    """A span on the installed tracer, or a shared no-op without one."""
    tracer = _tracer
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, **args)


def record_span(name: str, start_ns: int, end_ns: int, **args: Any) -> None:
    """Record an externally timed span if a tracer is installed.

    ``trace_id``/``span_id``/``parent_span_id`` keyword arguments are
    promoted onto the record itself; everything else lands in ``args``.
    """
    tracer = _tracer
    if tracer is not None:
        tracer.add_complete(
            name,
            start_ns,
            end_ns,
            trace_id=args.pop("trace_id", None),
            span_id=args.pop("span_id", None),
            parent_span_id=args.pop("parent_span_id", None),
            **args,
        )


def traced(name: str):
    """Decorator: wrap every call of a function in a named span.

    With no tracer installed the wrapper short-circuits to the plain
    function call.
    """

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any):
            tracer = _tracer
            if tracer is None:
                return fn(*args, **kwargs)
            with tracer.span(name):
                return fn(*args, **kwargs)

        return wrapper

    return decorate
