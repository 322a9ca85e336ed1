"""The service's versioned wire protocol: typed requests and responses.

Every JSONL line that crosses a service boundary — ``repro submit``,
``repro serve``, the multi-node router of :mod:`repro.service.router`
and the router/node connections underneath it — is one of two
documents:

* a :class:`Request` — ``proto: 2`` with one structured ``workload``
  object (:class:`repro.service.workload.Workload`: ``single`` /
  ``iterate`` / ``graph``), or ``proto: 1`` with exactly one of the
  legacy ``benchmark``/``spec`` fields, plus grid/seed/timeout/
  validate/retry knobs either way;
* a :class:`Response` (a closed ``status`` vocabulary, and on failure
  a structured ``error`` object with a closed ``kind`` taxonomy and a
  free-text ``detail``).

Versioning rules
----------------
``proto`` is an integer and every request names it; the service
speaks every version in :data:`ACCEPTED_PROTO_VERSIONS` and emits
:data:`PROTO_VERSION` (2).  A ``proto: 1`` request parses through a
compatibility shim — its ``benchmark``/``spec`` pair is equivalent to
a ``single`` workload (see :meth:`Request.effective_workload`) — and
is counted on the ``service_proto_v1_total`` deprecation counter.  A
document without ``proto``, or with an unknown value, is rejected up
front with ``error.kind = "unsupported_proto"`` rather than
half-parsed, a mistyped field (``"validate": "false"``, a fractional
``seed``) with ``error.kind = "bad_request"``, and a malformed
``workload`` object (cyclic graph, dangling edge, ``steps < 1``…)
with ``error.kind = "bad_workload"``.

Error taxonomy
--------------
``status`` stays the eight values the service has always emitted
(:data:`STATUSES`); the new ``error.kind`` (:data:`ERROR_KINDS`)
subdivides the failure statuses so clients can branch without string
matching — e.g. ``circuit_open`` responses carry
``retry_after_s`` (the breaker cooldown remaining) and
``kind = "circuit_open"``, while a crashed node surfaces as
``kind = "worker_lost"``.  ``to_json``/``from_json`` round-trip
losslessly (property-tested) and ``from_json`` validates both closed
vocabularies, so a response that leaves one process always parses in
the next.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, List, Optional, Tuple

from .workload import Workload, WorkloadError

__all__ = [
    "ACCEPTED_PROTO_VERSIONS",
    "ERROR_KINDS",
    "PROTO_VERSION",
    "STATUSES",
    "ErrorInfo",
    "ProtoError",
    "Request",
    "Response",
    "default_error_kind",
]

#: Bump on any incompatible change to the request/response shapes.
PROTO_VERSION = 2

#: Every version this service still parses (proto:1 via the shim).
ACCEPTED_PROTO_VERSIONS = (1, 2)

#: The closed response-status vocabulary (unchanged since PR 2/3).
STATUSES = (
    "ok",
    "invalid",
    "rejected",
    "timeout",
    "error",
    "validation_failed",
    "circuit_open",
    "cancelled",
)

#: The closed ``error.kind`` taxonomy subdividing failure statuses.
ERROR_KINDS = (
    "bad_request",       # unparseable / self-contradictory request
    "bad_workload",      # structurally invalid ``workload`` object
    "unsupported_proto",  # unknown ``proto`` version
    "queue_full",        # bounded admission queue rejected the request
    "draining",          # service is shutting down gracefully
    "deadline",          # per-request deadline expired
    "compile_failed",    # the Fig 11 pipeline raised
    "execution_failed",  # golden execution raised / retries exhausted
    "plan_validation",   # structural check or cycle-sim canary tripped
    "circuit_open",      # per-plan breaker is quarantining this plan
    "worker_lost",       # worker process / service node died or hung
    "handshake_failed",  # socket peer spoke an incompatible dialect
    "node_unavailable",  # reconnect/backoff budget exhausted, no node
    "cancelled",         # non-drain shutdown resolved the request
    "internal",          # anything that escaped the taxonomy
)

#: The default ``error.kind`` for each failure status.
_STATUS_DEFAULT_KIND = {
    "invalid": "bad_request",
    "rejected": "queue_full",
    "timeout": "deadline",
    "error": "execution_failed",
    "validation_failed": "plan_validation",
    "circuit_open": "circuit_open",
    "cancelled": "cancelled",
}


def default_error_kind(status: str) -> str:
    """The taxonomy kind implied by a failure ``status`` alone."""
    return _STATUS_DEFAULT_KIND.get(status, "internal")


class ProtoError(ValueError):
    """A document that does not parse as this protocol version.

    ``kind`` is the :data:`ERROR_KINDS` entry the rejection maps to
    (``bad_request`` or ``unsupported_proto``), so the caller can
    build a well-formed error :class:`Response` from the exception.
    """

    def __init__(self, message: str, kind: str = "bad_request") -> None:
        super().__init__(message)
        self.kind = kind


@dataclass(frozen=True)
class ErrorInfo:
    """Structured failure payload: a closed ``kind`` plus free text."""

    kind: str
    detail: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ERROR_KINDS:
            raise ProtoError(
                f"unknown error kind {self.kind!r} "
                f"(expected one of {', '.join(ERROR_KINDS)})"
            )

    def to_json(self) -> dict:
        return {"kind": self.kind, "detail": self.detail}

    @classmethod
    def from_json(cls, data: Any) -> "ErrorInfo":
        if not isinstance(data, dict):
            raise ProtoError("error must be an object")
        return cls(
            kind=str(data.get("kind", "internal")),
            detail=str(data.get("detail", "")),
        )


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_proto_version(data: Dict[str, Any]) -> int:
    """Validate and return ``data['proto']``.

    Raises :class:`ProtoError` (kind ``unsupported_proto``) when the
    field is absent or outside :data:`ACCEPTED_PROTO_VERSIONS`.
    """
    version = data.get("proto")
    if not _is_int(version) or version not in ACCEPTED_PROTO_VERSIONS:
        problem = (
            "missing 'proto' field"
            if version is None
            else f"unsupported proto version {version!r}"
        )
        accepted = " and ".join(map(str, ACCEPTED_PROTO_VERSIONS))
        raise ProtoError(
            f"{problem} (this service speaks proto {accepted})",
            kind="unsupported_proto",
        )
    return version


#: The Python types each JSON type name accepts (``bool`` only for
#: ``"a boolean"``: JSON ``true`` is not an integer).
_JSON_TYPES = {
    "a boolean": (bool,),
    "an integer": (int,),
    "a number": (int, float),
}


def _field(
    data: Dict[str, Any], name: str, expected: str, default: Any = None
) -> Any:
    """``data[name]`` checked against a JSON type; absent/null → default."""
    value = data.get(name)
    if value is None:
        return default
    types = _JSON_TYPES[expected]
    if not isinstance(value, types) or (
        isinstance(value, bool) and bool not in types
    ):
        raise ProtoError(f"{name!r} must be {expected}, got {value!r}")
    return value


def _parse_grid(value: Any) -> Optional[Tuple[int, ...]]:
    """Normalize ``[24, 32]`` / ``"24x32"`` / None to a tuple."""
    if value is None:
        return None
    if isinstance(value, str):
        parts = tuple(int(p) for p in value.lower().split("x"))
    elif isinstance(value, (list, tuple)) and all(map(_is_int, value)):
        parts = tuple(value)
    else:
        raise ProtoError(
            f"grid must be a list of integers or 'HxW': {value!r}"
        )
    if not parts or min(parts) <= 0:
        raise ProtoError(f"grid extents must be positive: {value!r}")
    return parts


@dataclass(frozen=True)
class Request:
    """One compile-and-execute request.

    Exactly one of ``workload`` (a typed
    :class:`~repro.service.workload.Workload` — the ``proto: 2``
    envelope), ``benchmark`` (a registered kernel name) or ``spec``
    (:meth:`StencilSpec.to_json` output) must be set; the last two
    are the ``proto: 1`` shape, equivalent to a ``single`` workload
    (:meth:`effective_workload`).  ``proto`` is derived from the form
    used when not given explicitly.  The rest are optional knobs with
    service-side defaults.  ``raw`` is the original wire dict
    (excluded from equality) so downstream hooks can see request
    fields outside the protocol.

    ``trace_id``/``parent_span_id`` are the W3C-traceparent-style
    distributed-tracing context (32/16 lowercase hex): the originating
    process stamps them so every hop — router, node, pool worker —
    records its spans into the same trace.  Both are optional and do
    not participate in plan fingerprinting.
    """

    id: Optional[str] = None
    benchmark: Optional[str] = None
    spec: Optional[dict] = None
    workload: Optional[Workload] = None
    grid: Optional[Tuple[int, ...]] = None
    streams: int = 1
    seed: int = 2014
    timeout_s: Optional[float] = None
    validate: Optional[bool] = None
    retries: Optional[int] = None
    trace_id: Optional[str] = None
    parent_span_id: Optional[str] = None
    proto: Optional[int] = None
    raw: Dict[str, Any] = field(
        default_factory=dict, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        forms = (
            (self.benchmark is not None)
            + (self.spec is not None)
            + (self.workload is not None)
        )
        if forms != 1:
            raise ProtoError(
                "request needs exactly one of 'workload', "
                "'benchmark' or 'spec'"
            )
        expected = 2 if self.workload is not None else 1
        if self.proto is None:
            object.__setattr__(self, "proto", expected)
        elif self.proto != expected:
            raise ProtoError(
                (
                    "'workload' requires proto: 2"
                    if expected == 2
                    else "proto 2 requests describe their work in a "
                    "'workload' object, not top-level "
                    "'benchmark'/'spec'"
                ),
                kind="bad_workload",
            )
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ProtoError("timeout_s must be positive")
        if self.retries is not None and self.retries < 0:
            raise ProtoError("retries must be >= 0")
        if self.streams < 1:
            raise ProtoError("streams must be >= 1")

    def to_json(self) -> dict:
        out: Dict[str, Any] = {"proto": self.proto}
        if self.id is not None:
            out["id"] = self.id
        if self.benchmark is not None:
            out["benchmark"] = self.benchmark
        if self.spec is not None:
            out["spec"] = self.spec
        if self.workload is not None:
            out["workload"] = self.workload.to_json()
        if self.grid is not None:
            out["grid"] = list(self.grid)
        if self.streams != 1:
            out["streams"] = self.streams
        if self.seed != 2014:
            out["seed"] = self.seed
        if self.timeout_s is not None:
            out["timeout_s"] = self.timeout_s
        if self.validate is not None:
            out["validate"] = self.validate
        if self.retries is not None:
            out["retries"] = self.retries
        if self.trace_id is not None:
            out["trace_id"] = self.trace_id
        if self.parent_span_id is not None:
            out["parent_span_id"] = self.parent_span_id
        return out

    @classmethod
    def from_json(
        cls, data: Any, registry=None
    ) -> "Request":
        """Parse a wire dict; every request must name its ``proto``.

        A ``proto: 1`` request is counted on ``registry``'s
        ``service_proto_v1_total`` deprecation counter.  Unknown keys
        are ignored (and preserved in ``raw``); a missing or unknown
        ``proto`` is rejected (``error.kind = "unsupported_proto"``),
        and so is a field of the wrong JSON type (``bad_request``):
        ``validate`` is a boolean, ``seed``/``streams``/``retries``
        and grid extents are integers, ``timeout_s`` is a number.  A
        ``proto: 2`` request must carry a valid ``workload`` object
        (``error.kind = "bad_workload"`` otherwise).
        """
        if not isinstance(data, dict):
            raise ProtoError("request must be a JSON object")
        version = _check_proto_version(data)
        if version == 1 and registry is not None:
            registry.counter("service_proto_v1_total").inc()
        workload_raw = data.get("workload")
        workload: Optional[Workload] = None
        if version == 2:
            if (
                data.get("benchmark") is not None
                or data.get("spec") is not None
            ):
                raise ProtoError(
                    "proto 2 requests describe their work in a "
                    "'workload' object, not top-level "
                    "'benchmark'/'spec'",
                    kind="bad_workload",
                )
            if workload_raw is None:
                raise ProtoError(
                    "proto 2 requests need a 'workload' object",
                    kind="bad_workload",
                )
            try:
                workload = Workload.from_json(workload_raw)
            except WorkloadError as exc:
                raise ProtoError(
                    str(exc), kind="bad_workload"
                ) from exc
        elif workload_raw is not None:
            raise ProtoError(
                "'workload' requires proto: 2",
                kind="bad_workload",
            )
        try:
            spec = data.get("spec")
            if spec is not None and not isinstance(spec, dict):
                raise ProtoError("'spec' must be a JSON object")
            request_id = data.get("id")
            return cls(
                id=None if request_id is None else str(request_id),
                benchmark=(
                    None
                    if data.get("benchmark") is None
                    else str(data["benchmark"])
                ),
                spec=spec,
                workload=workload,
                grid=_parse_grid(data.get("grid")),
                streams=_field(data, "streams", "an integer", 1),
                seed=_field(data, "seed", "an integer", 2014),
                timeout_s=_field(data, "timeout_s", "a number"),
                validate=_field(data, "validate", "a boolean"),
                retries=_field(data, "retries", "an integer"),
                trace_id=(
                    None
                    if data.get("trace_id") is None
                    else str(data["trace_id"])
                ),
                parent_span_id=(
                    None
                    if data.get("parent_span_id") is None
                    else str(data["parent_span_id"])
                ),
                raw=dict(data),
            )
        except ProtoError:
            raise
        except (TypeError, ValueError) as exc:
            raise ProtoError(str(exc)) from exc

    def with_id(self, request_id: str) -> "Request":
        return replace(self, id=request_id)

    def with_trace(
        self, trace_id: str, parent_span_id: Optional[str] = None
    ) -> "Request":
        """A copy carrying the given distributed-trace context."""
        return replace(
            self, trace_id=trace_id, parent_span_id=parent_span_id
        )

    def effective_workload(self) -> Workload:
        """This request as a typed workload (the proto:1 → 2 shim).

        A legacy ``benchmark``/``spec`` request is exactly a
        ``single`` workload of that kernel; proto:2 requests return
        their workload unchanged.
        """
        if self.workload is not None:
            return self.workload
        return Workload.single(
            benchmark=self.benchmark, spec=self.spec
        )

    def resolve_spec(self):
        """``(StencilSpec, CompileOptions)`` for a legacy request.

        Resolution can fail on content (unknown benchmark name, a
        malformed embedded spec); those surface as the underlying
        ``KeyError``/``ValueError`` for the service to map to an
        ``invalid`` response.  Workload requests are lowered through
        :func:`repro.service.workload.plan_workload` instead.
        """
        from ..stencil.kernels import get_benchmark
        from ..stencil.spec import StencilSpec
        from .fingerprint import CompileOptions

        if self.workload is not None:
            raise ValueError(
                "workload requests are planned via plan_workload()"
            )
        if self.benchmark is not None:
            spec = get_benchmark(self.benchmark)
        else:
            spec = StencilSpec.from_json(self.spec)
        if self.grid is not None:
            spec = spec.with_grid(self.grid)
        return spec, CompileOptions(offchip_streams=self.streams)


@dataclass
class Response:
    """One service response.

    ``status`` is always one of :data:`STATUSES`; every non-``ok``
    response carries a structured :class:`ErrorInfo`.  Responses to
    multi-stage workloads additionally carry ``stages`` — one dict per
    pipeline stage (name, fingerprint, per-stage checksum, output
    count) so clients can validate every hand-off without the
    intermediate grids ever crossing the wire.  Fields are read as
    attributes; :meth:`to_json` is the wire encoding.
    """

    id: Optional[str]
    status: str
    proto: int = PROTO_VERSION
    benchmark: Optional[str] = None
    fingerprint: Optional[str] = None
    latency_ms: Optional[float] = None
    attempts: Optional[int] = None
    cache: Optional[str] = None
    n_outputs: Optional[int] = None
    mean: Optional[float] = None
    checksum: Optional[str] = None
    validated: Optional[bool] = None
    summary: Optional[dict] = None
    stages: Optional[List[dict]] = None
    retry_after_s: Optional[float] = None
    node: Optional[int] = None
    trace_id: Optional[str] = None
    error: Optional[ErrorInfo] = None

    def __post_init__(self) -> None:
        if self.status not in STATUSES:
            raise ProtoError(
                f"unknown status {self.status!r} "
                f"(expected one of {', '.join(STATUSES)})"
            )
        if self.status != "ok" and self.error is None:
            self.error = ErrorInfo(
                kind=default_error_kind(self.status), detail=""
            )

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_json(self) -> dict:
        out: Dict[str, Any] = {
            "proto": self.proto,
            "id": self.id,
            "status": self.status,
        }
        values = self.__dict__
        for name in _RESPONSE_OPTIONAL:
            value = values[name]
            if value is not None:
                out[name] = value
        if self.error is not None:
            out["error"] = self.error.to_json()
        return out

    @classmethod
    def from_json(cls, data: Any) -> "Response":
        """Parse and *validate* a wire response dict.

        Both closed vocabularies are enforced; responses written by
        an incompatible future version fail here instead of leaking
        malformed fields downstream.
        """
        if not isinstance(data, dict):
            raise ProtoError("response must be a JSON object")
        _check_proto_version(data)
        if "status" not in data:
            raise ProtoError("response is missing 'status'")
        kwargs: Dict[str, Any] = {
            k: v for k, v in data.items() if k in _RESPONSE_FIELDS
        }
        if "error" in data and data["error"] is not None:
            kwargs["error"] = ErrorInfo.from_json(data["error"])
        else:
            kwargs.pop("error", None)
        request_id = kwargs.get("id")
        kwargs["id"] = None if request_id is None else str(request_id)
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ProtoError(str(exc)) from exc


#: The wire keys :meth:`Response.from_json` accepts.
_RESPONSE_FIELDS = frozenset(f.name for f in fields(Response))

#: The fields :meth:`Response.to_json` writes when set, in wire order
#: (after ``proto``/``id``/``status``, before ``error``).
_RESPONSE_OPTIONAL = tuple(
    f.name
    for f in fields(Response)
    if f.name not in ("id", "status", "proto", "error")
)


def error_response(
    request_id: Optional[str],
    status: str,
    detail: str,
    kind: Optional[str] = None,
    **extra: Any,
) -> Response:
    """A failure :class:`Response` with a well-formed error object."""
    return Response(
        id=request_id,
        status=status,
        error=ErrorInfo(
            kind=kind or default_error_kind(status), detail=detail
        ),
        **extra,
    )


__all__.append("error_response")
