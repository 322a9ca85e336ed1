"""The stencil service facade and its JSON request/response surface.

:class:`StencilService` wires the four lower layers together —
fingerprinting, the two-tier plan cache, the bounded scheduler and the
worker-pool executor — behind two calls:

* :meth:`StencilService.submit` — admit one request, get a
  :class:`~repro.service.scheduler.ResultSlot` to block on;
* :meth:`StencilService.handle` — synchronous submit-and-wait.

Request JSON (one object per request; unknown keys are ignored)::

    {"id": "r1", "benchmark": "DENOISE", "grid": [24, 32],
     "streams": 1, "seed": 2014, "timeout_s": 30.0, "validate": true}

or, for a custom stencil, ``"spec": {...}`` with
:meth:`StencilSpec.to_json` output instead of ``"benchmark"``.
Responses always carry ``id`` and ``status`` (``ok``, ``invalid``,
``rejected``, ``timeout``, ``error``, ``validation_failed``,
``circuit_open`` or ``cancelled``); successful ones add the plan
fingerprint, cache outcome, output digest and design summary.

Two execution back ends share this surface
(``ServiceConfig.worker_mode``): ``"thread"`` workers inside this
process, or ``"process"`` — the crash-isolated, fingerprint-sharded
pool of :mod:`repro.service.pool` with supervised worker restarts and
per-plan circuit breaking (required for chaos fault injection).

Every stage is instrumented through :mod:`repro.obs`: spans per request
stage and counters/histograms for cache outcomes, queue depth and
end-to-end latency live in :attr:`StencilService.metrics`.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..obs.metrics import MetricsRegistry, get_metrics
from ..obs.tracing import span, trace_context
from ..lower.engine import LoweringConfig
from .chaos import ChaosConfig
from .executor import make_executor, make_response, observe_stage
from .plancache import PlanCache
from .proto import ProtoError, Request, Response, error_response
from .pool import ProcessPlanExecutor  # noqa: F401 (registers backend)
from .scheduler import QueueClosedError, ResultSlot, Scheduler, WorkItem
from .workload import (
    WorkloadError,
    WorkloadPlan,
    plan_workload,
    resolve_request,
)

__all__ = [
    "EXECUTION_BACKENDS",
    "LOWER_CONVERTERS",
    "ServiceConfig",
    "StencilService",
]

#: Request execution strategies, orthogonal to ``worker_mode``:
#: ``"interpreted"`` runs the paper-exact golden reference per request,
#: ``"compiled"`` runs batched lowered kernels (:mod:`repro.lower`).
EXECUTION_BACKENDS = ("interpreted", "compiled")

#: Converter targets behind the compiled backend's ``BufferProgram``
#: IR: ``"numpy"`` is the vectorized ufunc replay, ``"c"`` generates C
#: built via cffi (degrading per build to ``"numpy"`` when no C
#: toolchain is present).  Meaningless with ``backend="interpreted"``.
LOWER_CONVERTERS = ("numpy", "c")


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one service instance (all bounded by default)."""

    workers: int = 4
    max_queue: int = 256
    max_batch: int = 16
    default_timeout_s: float = 30.0
    max_retries: int = 2
    retry_backoff_s: float = 0.02
    validate_every: int = 0  # 0 disables the sampled canary
    canary_cell_limit: int = 20_000
    canary_hot_weight: float = 4.0  # fresh-plan sampling bias
    canary_hot_window: int = 64
    cache_entries: int = 128
    cache_bytes: int = 16 * 1024 * 1024
    cache_dir: Optional[str] = None
    #: Cross-process compile coherence over a shared ``cache_dir``
    #: (lease files; see :mod:`repro.service.lease`).  No effect
    #: without a ``cache_dir``.
    use_leases: bool = True
    lease_ttl_s: float = 120.0
    worker_mode: str = "thread"  # "thread" | "process"
    backend: str = "interpreted"  # "interpreted" | "compiled"
    #: The one carrier of every lowering knob (converter, gather
    #: limits, artifact dir).  Normally derived in ``__post_init__``
    #: from the legacy convenience fields below plus ``cache_dir``;
    #: pass an explicit :class:`LoweringConfig` to set everything in
    #: one place (the legacy fields are then overwritten to mirror it).
    lowering: Optional[LoweringConfig] = None
    converter: str = "numpy"  # "numpy" | "c" (compiled backend only)
    #: Gather domains whose bounding box exceeds this many points are
    #: lowered chunked instead of eagerly tabulated.  ``None`` keeps
    #: the library default (:data:`repro.lower.GATHER_POINT_LIMIT`);
    #: benches and CI set it low to exercise chunking on small grids.
    gather_limit: Optional[int] = None
    #: Refuse to lower gather domains whose bounding box exceeds this
    #: many points (fallback reason ``gather_limit``).  ``None`` keeps
    #: the library default (:data:`repro.lower.GATHER_HARD_LIMIT`).
    gather_hard_limit: Optional[int] = None
    breaker_threshold: int = 3  # lethal events before the circuit opens
    breaker_cooldown_s: float = 5.0
    hang_timeout_s: float = 60.0  # unresponsive-worker kill deadline
    chaos: Optional[ChaosConfig] = None  # process mode only

    def __post_init__(self) -> None:
        if self.backend not in EXECUTION_BACKENDS:
            raise ValueError(
                f"backend must be one of "
                f"{', '.join(repr(n) for n in EXECUTION_BACKENDS)}, "
                f"got {self.backend!r}"
            )
        if self.lowering is None:
            # Derive the single carrier from the legacy convenience
            # fields (validated first so the error messages stay
            # field-specific).
            if self.converter not in LOWER_CONVERTERS:
                raise ValueError(
                    f"converter must be one of "
                    f"{', '.join(repr(n) for n in LOWER_CONVERTERS)}, "
                    f"got {self.converter!r}"
                )
            if self.gather_limit is not None and self.gather_limit < 1:
                raise ValueError(
                    f"gather_limit must be positive, got "
                    f"{self.gather_limit!r}"
                )
            if (
                self.gather_hard_limit is not None
                and self.gather_hard_limit < 1
            ):
                raise ValueError(
                    f"gather_hard_limit must be positive, got "
                    f"{self.gather_hard_limit!r}"
                )
            kwargs = {"converter": self.converter}
            if self.gather_limit is not None:
                kwargs["gather_limit"] = int(self.gather_limit)
            if self.gather_hard_limit is not None:
                kwargs["gather_hard_limit"] = int(
                    self.gather_hard_limit
                )
            if self.cache_dir:
                # The plan cache's directory doubles as the converter
                # artifact directory (<fp>.c.so sits next to the plan
                # and program sidecars it belongs to).
                kwargs["artifact_dir"] = str(self.cache_dir)
            object.__setattr__(
                self, "lowering", LoweringConfig(**kwargs)
            )
        else:
            if not isinstance(self.lowering, LoweringConfig):
                raise ValueError(
                    "lowering must be a LoweringConfig, got "
                    f"{self.lowering!r}"
                )
            if self.lowering.converter not in LOWER_CONVERTERS:
                raise ValueError(
                    f"converter must be one of "
                    f"{', '.join(repr(n) for n in LOWER_CONVERTERS)}, "
                    f"got {self.lowering.converter!r}"
                )
            if (
                self.lowering.artifact_dir is None
                and self.cache_dir
            ):
                object.__setattr__(
                    self,
                    "lowering",
                    LoweringConfig(
                        converter=self.lowering.converter,
                        gather_limit=self.lowering.gather_limit,
                        gather_hard_limit=(
                            self.lowering.gather_hard_limit
                        ),
                        artifact_dir=str(self.cache_dir),
                    ),
                )
            # Keep the legacy mirror fields consistent for readers.
            object.__setattr__(
                self, "converter", self.lowering.converter
            )
            object.__setattr__(
                self, "gather_limit", self.lowering.gather_limit
            )
            object.__setattr__(
                self,
                "gather_hard_limit",
                self.lowering.gather_hard_limit,
            )
        if self.worker_mode not in ("thread", "process"):
            raise ValueError(
                f"worker_mode must be one of 'thread', 'process', "
                f"got {self.worker_mode!r}"
            )
        if self.chaos is not None and self.chaos.enabled() and (
            self.worker_mode != "process"
        ):
            raise ValueError(
                "chaos fault injection kills workers; it requires "
                "worker_mode='process' (crash-isolated workers)"
            )


class StencilService:
    """A long-running compile-and-execute service over stencil specs."""

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        registry: Optional[MetricsRegistry] = None,
        fault_hook=None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.metrics = (
            registry or get_metrics() or MetricsRegistry()
        )
        self.cache = PlanCache(
            max_entries=self.config.cache_entries,
            max_bytes=self.config.cache_bytes,
            disk_dir=self.config.cache_dir,
            registry=self.metrics,
            use_leases=self.config.use_leases,
            lease_ttl_s=self.config.lease_ttl_s,
        )
        self.scheduler = Scheduler(
            max_queue=self.config.max_queue, registry=self.metrics
        )
        shared = dict(
            cache=self.cache,
            scheduler=self.scheduler,
            registry=self.metrics,
            workers=self.config.workers,
            max_batch=self.config.max_batch,
            validate_every=self.config.validate_every,
            canary_cell_limit=self.config.canary_cell_limit,
            retry_backoff_s=self.config.retry_backoff_s,
            canary_hot_weight=self.config.canary_hot_weight,
            canary_hot_window=self.config.canary_hot_window,
        )
        # worker_mode picks the pool shape; each executor reads the
        # backend (where its kernels come from) off the config.
        self.executor = make_executor(
            self.config.worker_mode,
            config=self.config,
            shared=shared,
            fault_hook=fault_hook,
        )
        self._started = False
        self._seq = 0

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "StencilService":
        if not self._started:
            self.executor.start()
            self._started = True
        return self

    def shutdown(
        self, drain: bool = True, timeout: Optional[float] = 60.0
    ) -> bool:
        """Stop the service.

        With ``drain=True`` (the default) admission closes and every
        already-admitted request still gets a real response before the
        workers exit.  With ``drain=False`` queued-but-unstarted
        requests resolve immediately with ``status="cancelled"``.
        Returns True when everything resolved within ``timeout``.
        """
        self.scheduler.close()
        if not drain:
            self.scheduler.flush_cancelled(
                lambda item: make_response(
                    item, "cancelled", error="service shut down"
                )
            )
        drained = self.scheduler.wait_drained(timeout)
        self.executor.stop()
        self._started = False
        return drained

    def __enter__(self) -> "StencilService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(drain=exc_type is None)

    # -- request parsing -----------------------------------------------
    def _count_workload(self, req: Request, plan: WorkloadPlan) -> None:
        self.metrics.counter(
            "service_workload_requests_total",
            {"kind": req.workload.kind},
        ).inc()
        self.metrics.counter("service_workload_stages_total").inc(
            len(plan.stages)
        )
        if plan.fused_edges:
            self.metrics.counter("service_workload_fused_total").inc(
                plan.fused_edges
            )

    def _parse(self, req: Request, request_id: str) -> WorkItem:
        label = None
        if req.workload is not None:
            plan = plan_workload(
                req.workload, grid=req.grid, streams=req.streams
            )
            self._count_workload(req, plan)
            stages, plan_fp = plan.stages, plan.fingerprint
            if len(stages) > 1:
                label = plan.label
        else:
            stages = resolve_request(req)
            plan_fp = stages[0].fingerprint
        timeout_s = (
            self.config.default_timeout_s
            if req.timeout_s is None
            else req.timeout_s
        )
        return WorkItem(
            request_id=request_id,
            spec=stages[0].spec,
            options=stages[0].options,
            fingerprint=plan_fp,
            stages=stages,
            label=label,
            seed=req.seed,
            deadline=time.monotonic() + timeout_s,
            slot=self.scheduler.make_slot(),
            validate=req.validate,
            retries_left=(
                self.config.max_retries
                if req.retries is None
                else req.retries
            ),
            trace_id=req.trace_id,
            parent_span_id=req.parent_span_id,
            request=req,
            raw=req.raw or req.to_json(),
        )

    # -- submission ----------------------------------------------------
    def _next_id(self, req: Request) -> str:
        if req.id is not None:
            return req.id
        self._seq += 1
        return f"req-{self._seq}"

    def _count(self, status: str) -> None:
        self.metrics.counter(
            "service_requests_total", {"status": status}
        ).inc()

    def _resolve_invalid(
        self, request_id, message: str, kind: str = "bad_request"
    ) -> ResultSlot:
        slot = self.scheduler.make_slot()
        slot.resolve(
            error_response(request_id, "invalid", message, kind=kind)
        )
        self._count("invalid")
        return slot

    def submit(
        self,
        request,
        block: bool = True,
        admission_timeout: Optional[float] = None,
    ) -> ResultSlot:
        """Admit one request; always returns a slot that will resolve.

        ``request`` is either a typed :class:`repro.service.proto.Request`
        or a wire dict — ``proto: 2`` with a ``workload`` object,
        ``proto: 1`` with ``benchmark``/``spec`` (counted on the
        ``service_proto_v1_total`` deprecation counter), or a legacy
        bare dict, which passes the compatibility shim and increments
        ``service_proto_legacy_total``.  Parse
        failures, a full queue (non-blocking admission) and a draining
        service all resolve the slot immediately with ``invalid`` /
        ``rejected`` responses — a submitter can always block on the
        slot, nothing is dropped without a response.
        """
        if not self._started:
            self.start()
        if isinstance(request, dict) and "control" in request:
            return self._handle_control(request)
        if isinstance(request, Request):
            req = request
        else:
            try:
                req = Request.from_json(request, registry=self.metrics)
            except ProtoError as exc:
                return self._resolve_invalid(
                    request.get("id") if isinstance(request, dict)
                    else None,
                    str(exc),
                    kind=exc.kind,
                )
        request_id = self._next_id(req)
        admit_start_ns = time.perf_counter_ns()
        try:
            with trace_context(req.trace_id, req.parent_span_id), span(
                "service.admit", request=request_id
            ):
                try:
                    item = self._parse(req, request_id)
                except WorkloadError as exc:
                    return self._resolve_invalid(
                        request_id, str(exc), kind="bad_workload"
                    )
                except (KeyError, TypeError, ValueError) as exc:
                    # str(KeyError) wraps the message in repr quotes.
                    message = (
                        exc.args[0]
                        if isinstance(exc, KeyError) and exc.args
                        else str(exc)
                    )
                    return self._resolve_invalid(request_id, message)
                try:
                    admitted = self.scheduler.submit(
                        item, block=block, timeout=admission_timeout
                    )
                except QueueClosedError:
                    admitted = False
                if not admitted:
                    self.metrics.counter("service_rejected_total").inc()
                    self._resolve_rejection(item)
                return item.slot
        finally:
            observe_stage(
                self.metrics,
                "admit",
                (time.perf_counter_ns() - admit_start_ns) / 1e6,
            )

    def _handle_control(self, request: Dict[str, Any]) -> ResultSlot:
        """Answer an out-of-band control request on the same pipe.

        Control documents are dicts with a ``control`` verb instead of
        a benchmark/spec; they ride the ordinary request channel so the
        router needs no side band.  ``{"control": "metrics"}`` answers
        with an ``ok`` response whose ``summary`` is this node's full
        metrics snapshot — the router merges these into the fabric
        registry (see :meth:`MetricsRegistry.merge_snapshot`).
        """
        request_id = (
            None if request.get("id") is None else str(request["id"])
        )
        slot = self.scheduler.make_slot()
        verb = request.get("control")
        if verb == "metrics":
            slot.resolve(
                Response(
                    id=request_id,
                    status="ok",
                    summary=self.metrics.snapshot(),
                )
            )
        elif verb == "ping":
            # Liveness probe.  The TCP transport answers pings at the
            # socket layer (out of band); this in-band fallback keeps
            # the verb meaningful over plain pipes too.
            summary = {"pong": True}
            if "t" in request:
                summary["t"] = request["t"]
            slot.resolve(
                Response(id=request_id, status="ok", summary=summary)
            )
        else:
            slot.resolve(
                error_response(
                    request_id,
                    "invalid",
                    f"unknown control verb {verb!r}",
                    kind="bad_request",
                )
            )
        return slot

    def _resolve_rejection(self, item: WorkItem) -> None:
        if self.scheduler.closed:
            reason, kind = "service is draining", "draining"
        else:
            reason = f"queue full ({self.scheduler.max_queue})"
            kind = "queue_full"
        item.slot.resolve(
            make_response(
                item, "rejected", error=reason, error_kind=kind
            )
        )
        self._count("rejected")

    def submit_json(self, line: str, **kwargs) -> ResultSlot:
        """Submit one JSON-encoded request line."""
        try:
            request = json.loads(line)
            if not isinstance(request, dict):
                raise ValueError("request must be a JSON object")
        except ValueError as exc:
            return self._resolve_invalid(
                None, f"bad request JSON: {exc}"
            )
        return self.submit(request, **kwargs)

    def handle(
        self,
        request,
        wait_timeout: Optional[float] = None,
    ):
        """Synchronous convenience: submit and wait for the response."""
        return self.submit(request).result(wait_timeout)
