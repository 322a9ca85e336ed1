"""repro.service — a concurrent compile-and-execute stencil service.

The deterministic Fig 11 pipeline compiles one spec into one plan, so a
serving layer only ever needs to pay that cost once per distinct
(spec, options) content hash.  This package turns the reproduction into
a long-running service around that observation:

* :mod:`repro.service.fingerprint` — canonical, version-stamped content
  hashes of ``StencilSpec`` + compile options;
* :mod:`repro.service.plancache` — two-tier plan cache (bounded
  in-memory LRU over on-disk JSON) with single-flight stampede
  protection;
* :mod:`repro.service.scheduler` — bounded admission queue with
  per-request deadlines and graceful drain;
* :mod:`repro.service.executor` — worker-pool batch executor that
  groups requests by fingerprint, runs the vectorized golden path and
  cycle-sim-validates a weighted 1-in-N sample against the cached
  plan;
* :mod:`repro.service.pool` — the crash-isolated process-pool
  executor: fingerprint-sharded ``multiprocessing`` workers with
  supervised restarts, sibling-shard retries and per-plan circuit
  breaking;
* :mod:`repro.service.chaos` — deterministic fault injection (worker
  kills/hangs/slowdowns, cached-plan field fuzzing, disk-tier
  corruption) for the chaos campaign tests;
* :mod:`repro.service.proto` — the versioned wire protocol: typed
  ``Request`` / ``Response`` dataclasses (``proto: 2`` workload
  envelope, ``proto: 1`` flat benchmark/spec) with a closed status
  and error-kind taxonomy; every request names its ``proto``;
* :mod:`repro.service.workload` — typed ``single``/``iterate``/
  ``graph`` workload descriptions with structural validation and
  content-addressed fingerprints, and the planner that lowers them
  onto the chaining/fusion machinery as per-stage compile plans;
* :mod:`repro.service.api` — the :class:`StencilService` facade plus
  the JSON request/response surface behind ``repro serve`` /
  ``repro submit``;
* :mod:`repro.service.router` — the multi-node front end:
  rendezvous-hashes each request's plan fingerprint onto one of N
  service nodes, collapses identical in-flight requests globally and
  fails requests over to the next node in rendezvous order when a
  node's connection is lost (``repro route``);
* :mod:`repro.service.transport` — the TCP socket transport, the
  router's one data plane to every node: connect-time handshakes,
  reconnect with seeded full-jitter backoff, heartbeat wedge detection
  and seeded socket-level fault injection (``repro serve --listen``,
  ``repro route`` / ``--connect``);
* :mod:`repro.service.lease` — cross-process single-flight lease
  files in a shared ``cache_dir``, so N routers sharing a cache
  perform exactly one cold compile per fingerprint (pid-liveness
  staleness, fsync'd atomic stealing, crashed-run cleanup).
"""

from .api import ServiceConfig, StencilService
from .chaos import ChaosConfig, ChaosInjector, PlanFuzzer
from .executor import (
    CanarySampler,
    PlanExecutor,
    PlanValidationError,
    compile_plan,
    make_response,
    validate_plan,
)
from .pool import CircuitBreaker, ProcessPlanExecutor, shard_of
from .fingerprint import (
    FINGERPRINT_VERSION,
    CompileOptions,
    fingerprint,
)
from .plancache import CachedPlan, CacheStats, PlanCache
from .proto import (
    ERROR_KINDS,
    PROTO_VERSION,
    STATUSES,
    ErrorInfo,
    ProtoError,
    Request,
    Response,
    error_response,
)
from .lease import FileLease, LeaseInfo, cleanup_stale_artifacts
from .router import NodeConfig, Router, RouterConfig, rendezvous_order
from .scheduler import (
    QueueClosedError,
    ResultSlot,
    Scheduler,
    WorkItem,
)
from .workload import (
    KernelRef,
    PlannedStage,
    Workload,
    WorkloadError,
    WorkloadPlan,
    plan_workload,
    request_fingerprint,
)
from .transport import (
    BackoffPolicy,
    HandshakeError,
    Heartbeat,
    Hello,
    NodeUnavailableError,
    SocketChaos,
    SocketConnection,
    SocketServer,
    TransportError,
    connect_with_backoff,
    parse_address,
)

__all__ = [
    "BackoffPolicy",
    "CachedPlan",
    "CacheStats",
    "CanarySampler",
    "ChaosConfig",
    "ChaosInjector",
    "CircuitBreaker",
    "CompileOptions",
    "ERROR_KINDS",
    "ErrorInfo",
    "FINGERPRINT_VERSION",
    "FileLease",
    "HandshakeError",
    "Heartbeat",
    "Hello",
    "KernelRef",
    "LeaseInfo",
    "NodeConfig",
    "NodeUnavailableError",
    "PROTO_VERSION",
    "PlanCache",
    "PlanExecutor",
    "PlanFuzzer",
    "PlanValidationError",
    "PlannedStage",
    "ProcessPlanExecutor",
    "ProtoError",
    "QueueClosedError",
    "Request",
    "Response",
    "ResultSlot",
    "Router",
    "RouterConfig",
    "STATUSES",
    "Scheduler",
    "ServiceConfig",
    "SocketChaos",
    "SocketConnection",
    "SocketServer",
    "StencilService",
    "TransportError",
    "WorkItem",
    "Workload",
    "WorkloadError",
    "WorkloadPlan",
    "cleanup_stale_artifacts",
    "compile_plan",
    "connect_with_backoff",
    "error_response",
    "fingerprint",
    "make_response",
    "parse_address",
    "plan_workload",
    "rendezvous_order",
    "request_fingerprint",
    "shard_of",
    "validate_plan",
]
