"""Bounded admission queue with deadlines, retries and graceful drain.

The scheduler is the service's front door.  It enforces three
invariants the load test leans on:

* **bounded memory** — at most ``max_queue`` requests wait at any time;
  over-admission either blocks the submitter (backpressure) or is
  rejected *with a response*, never silently dropped;
* **every admitted request resolves** — each :class:`WorkItem` carries
  a :class:`ResultSlot` that is set exactly once (first writer wins) on
  success, error, timeout, rejection or cancellation;
* **clean drain** — :meth:`close` stops admission, after which workers
  keep pulling until the queue is empty and every popped item has
  resolved; :meth:`flush_cancelled` resolves any stragglers on a
  non-draining shutdown.

Per-request deadlines are stamped at admission (``monotonic + timeout``)
and checked by the executor before each expensive stage; expired items
get a ``timeout`` response instead of burning a worker.
"""

from __future__ import annotations

import logging
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..stencil.spec import StencilSpec
from .fingerprint import CompileOptions
from .proto import Response

__all__ = ["QueueClosedError", "ResultSlot", "Scheduler", "WorkItem"]

_log = logging.getLogger(__name__)


class QueueClosedError(RuntimeError):
    """Submission after :meth:`Scheduler.close` (drain in progress)."""


class ResultSlot:
    """A write-once response cell the submitter blocks on.

    Resolutions are typed :class:`repro.service.proto.Response`
    objects.  Resolving is atomic: of any number of racing resolvers
    exactly one wins, and only the winner wakes the waiters, runs the
    done callbacks and then the drain hook (``on_resolve``).  Because
    the callbacks run first, a reply a callback writes is out before
    the scheduler counts its request as drained.

    :meth:`resolve` is :meth:`claim` followed by :meth:`publish`; a
    resolver with bookkeeping that every observer must see (the
    executor's per-request metrics) claims, records, then publishes.

    Waiters block on one lock that is held from construction until
    publication, so a slot costs two plain locks, not an
    :class:`threading.Event` (a condition variable, plus a fresh lock
    per wait).
    """

    __slots__ = (
        "_gate", "_response", "_on_resolve", "_lock", "_callbacks",
        "_published",
    )

    def __init__(self, on_resolve=None) -> None:
        #: Held until :meth:`publish`; a waiter acquires and releases it.
        self._gate = threading.Lock()
        self._gate.acquire()
        self._published = False
        #: The claimed response; None until some resolver wins.
        self._response: Optional[Response] = None
        self._on_resolve = on_resolve
        self._lock = threading.Lock()
        #: Pending done callbacks; None once published.
        self._callbacks: Optional[List[Callable[[Response], None]]] = []

    def resolve(self, response: Response) -> bool:
        """Set and publish the response; False if already resolved."""
        if not self.claim(response):
            return False
        self.publish()
        return True

    def claim(self, response: Response) -> bool:
        """Win the slot for ``response`` without publishing it yet.

        Returns False if another resolver already won.  Nobody sees
        the response until the winner calls :meth:`publish`.
        """
        with self._lock:
            if self._response is not None:
                return False
            self._response = response
        return True

    def publish(self) -> None:
        """Deliver the claimed response, once.

        Wakes the waiters, runs every done callback on this thread,
        then the drain hook.  A callback that raises is logged and
        skipped, like :class:`concurrent.futures.Future` does, so the
        rest still run and the resolver never sees the error.
        """
        with self._lock:
            callbacks, self._callbacks = self._callbacks, None
        if callbacks is None:
            return
        assert self._response is not None, "publish() before claim()"
        self._published = True
        self._gate.release()
        for fn in callbacks:
            self._run_callback(fn)
        if self._on_resolve is not None:
            self._on_resolve()

    def add_done_callback(self, fn: Callable[[Response], None]) -> None:
        """Call ``fn(response)`` once the slot resolves.

        Registered before publication, ``fn`` runs exactly once on the
        resolving thread; registered after, it runs at once on the
        caller's thread.
        """
        with self._lock:
            if self._callbacks is not None:
                self._callbacks.append(fn)
                return
        self._run_callback(fn)

    def _run_callback(self, fn: Callable[[Response], None]) -> None:
        try:
            fn(self._response)
        except Exception:
            _log.exception("ResultSlot done callback %r raised", fn)

    def done(self) -> bool:
        return self._published

    def result(self, timeout: Optional[float] = None) -> Response:
        if not self._published:
            if not self._gate.acquire(
                timeout=-1 if timeout is None else max(0.0, timeout)
            ):
                raise TimeoutError("no response within the wait timeout")
            self._gate.release()  # let the next waiter through
        assert self._response is not None
        return self._response


@dataclass
class WorkItem:
    """One admitted request travelling through the pipeline."""

    request_id: str
    spec: StencilSpec
    options: CompileOptions
    fingerprint: str
    seed: int
    deadline: float  # time.monotonic() deadline
    slot: ResultSlot
    #: The stages this item executes (a tuple of
    #: :class:`repro.service.workload.PlannedStage`), always set by the
    #: service: a proto:1 request or a one-stage workload is a 1-tuple
    #: whose fingerprint is the item's.  ``spec``/``options`` mirror
    #: stage 0; with more stages ``fingerprint`` is the workload
    #: fingerprint.
    stages: tuple = ()
    #: Display name for multi-stage items (e.g. ``DENOISE->RICIAN``);
    #: responses fall back to ``spec.name`` when unset.
    label: Optional[str] = None
    validate: Optional[bool] = None  # None = sampled by the executor
    retries_left: int = 0
    attempts: int = 0
    #: Shard-routing offset, bumped when a retry must land on a
    #: *sibling* shard (e.g. after a worker crash killed the home
    #: shard's process mid-request).  Ignored by the thread executor.
    shard_hops: int = 0
    admitted_at: float = field(default_factory=time.monotonic)
    #: perf_counter_ns at admission, for span timestamps (the float
    #: ``admitted_at`` stays for deadline math).
    admitted_ns: int = field(default_factory=time.perf_counter_ns)
    #: Distributed-trace context inherited from the wire request: the
    #: trace every stage span of this item joins, and the caller's
    #: span id the node-side root span hangs off.
    trace_id: Optional[str] = None
    parent_span_id: Optional[str] = None
    #: The typed wire request this item was parsed from (None for
    #: synthetic items built directly in tests).
    request: Optional[Any] = None  # proto.Request
    raw: Dict[str, Any] = field(default_factory=dict)

    def expired(self, now: Optional[float] = None) -> bool:
        return (now or time.monotonic()) > self.deadline


class Scheduler:
    """Bounded FIFO of :class:`WorkItem` with drain accounting.

    Both the queue and its bound are :class:`queue.SimpleQueue`
    objects, whose put and (timed) get run in C: ``_queue`` holds the
    items, ``_free`` one token per free place.  Admission takes a
    token (waiting for one if asked to), a consumer returns one per
    item it takes.
    """

    def __init__(
        self,
        max_queue: int = 256,
        registry=None,
    ) -> None:
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        self.max_queue = max_queue
        self._queue: "queue.SimpleQueue[WorkItem]" = queue.SimpleQueue()
        self._free: "queue.SimpleQueue[None]" = queue.SimpleQueue()
        for _ in range(max_queue):
            self._free.put(None)
        self._closed = threading.Event()
        self._unresolved = 0
        self._unresolved_lock = threading.Lock()
        self._all_resolved = threading.Condition(self._unresolved_lock)
        self._registry = registry
        self._depth_gauge = (
            registry.gauge("service_queue_depth") if registry else None
        )

    # -- bookkeeping ---------------------------------------------------
    def _track(self) -> None:
        with self._unresolved_lock:
            self._unresolved += 1

    def _untrack(self) -> None:
        with self._all_resolved:
            self._unresolved -= 1
            if self._unresolved <= 0:
                self._all_resolved.notify_all()

    def _update_depth(self) -> None:
        if self._depth_gauge is not None:
            self._depth_gauge.set(self._queue.qsize())

    @property
    def closed(self) -> bool:
        return self._closed.is_set()

    @property
    def unresolved(self) -> int:
        """Admitted requests whose response has not been set yet."""
        with self._unresolved_lock:
            return self._unresolved

    def queue_depth(self) -> int:
        return self._queue.qsize()

    # -- admission -----------------------------------------------------
    def make_slot(self) -> ResultSlot:
        """A slot wired into the drain accounting.

        Callers must eventually :meth:`ResultSlot.resolve` it — either
        by admitting the item or by resolving a rejection directly.
        """
        self._track()
        return ResultSlot(on_resolve=self._untrack)

    def submit(
        self,
        item: WorkItem,
        block: bool = True,
        timeout: Optional[float] = None,
    ) -> bool:
        """Admit one item.  Returns False when the bounded queue is
        full (non-blocking or timed-out admission); the caller then
        resolves the slot with a rejection response.  Raises
        :class:`QueueClosedError` once draining has begun."""
        if self._closed.is_set():
            raise QueueClosedError("service is draining")
        try:
            self._free.get(block=block, timeout=timeout)
        except queue.Empty:
            return False
        self._queue.put(item)
        self._update_depth()
        return True

    def requeue(self, item: WorkItem) -> bool:
        """Re-admit a retried item even while draining (it was already
        admitted once, so the drain must still resolve it).  Only fails
        when the queue is physically full."""
        try:
            self._free.get_nowait()
        except queue.Empty:
            return False
        self._queue.put(item)
        self._update_depth()
        return True

    # -- consumption ---------------------------------------------------
    def next_batch(
        self, max_batch: int, wait_s: float = 0.05
    ) -> List[WorkItem]:
        """Up to ``max_batch`` items; blocks ``wait_s`` for the first."""
        items: List[WorkItem] = []
        try:
            items.append(self._queue.get(timeout=wait_s))
        except queue.Empty:
            return items
        while len(items) < max_batch and not self._queue.empty():
            try:
                items.append(self._queue.get_nowait())
            except queue.Empty:  # another worker took it
                break
        for _ in items:
            self._free.put(None)
        self._update_depth()
        return items

    def idle(self) -> bool:
        """True when draining is finished: closed, empty, all resolved."""
        return (
            self._closed.is_set()
            and self._queue.empty()
            and self.unresolved == 0
        )

    # -- shutdown ------------------------------------------------------
    def close(self) -> None:
        """Stop admitting new work (drain begins)."""
        self._closed.set()

    def wait_drained(self, timeout: Optional[float] = None) -> bool:
        """Block until every admitted request has resolved."""
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        with self._all_resolved:
            while self._unresolved > 0:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._all_resolved.wait(remaining)
        return True

    def flush_cancelled(self, make_response) -> int:
        """Resolve everything still queued with a cancellation response
        (``make_response(item) -> dict``).  Used by non-drain shutdown
        so nothing is ever dropped without a response."""
        flushed = 0
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            self._free.put(None)
            if item.slot.resolve(make_response(item)):
                flushed += 1
        self._update_depth()
        return flushed
