"""Worker-pool batch executor around one execution core.

Workers pull batches off the :class:`~repro.service.scheduler.Scheduler`
and group them by fingerprint, so one cache lookup per stage (and at
most one compile, thanks to single-flight) serves the whole group.

Every request is a pipeline of one or more
:class:`~repro.service.workload.PlannedStage` — a proto:1 request is
the one-stage case, an ``iterate(t)`` or ``graph`` workload has more —
and every executor and backend runs it through one pure function,
:func:`run_stages`.  It executes each stage batched over the group's
seeds: through compiled kernels (:mod:`repro.lower`) when the backend
supplies them, else through the *vectorized golden path*
(:mod:`repro.stencil.golden`, the paper-exact NumPy evaluation), with
the Fig 13c reshape hand-off between stages.  It returns a SHA-256
digest per stage, one NumPy (pairwise) mean of the final output and
the canary verdict — never the raw grid.  Backends differ only in
where kernels come from: a :class:`~repro.lower.engine.CompiledEngine`
or none.

Two executors share everything else through :class:`ExecutorBase`
(expiry, per-stage cache lookup, canary policy, responses):

* :class:`PlanExecutor` — N worker *threads* in this process (low
  latency, but heavy compiles contend on the GIL and a crashing
  request takes the process down);
* :class:`~repro.service.pool.ProcessPlanExecutor` — crash-isolated
  worker *processes* sharded by fingerprint, with supervised restarts
  and per-fingerprint circuit breaking; each worker calls the same
  core.

Correctness canary
------------------
A sampled subset of executions is additionally validated by the
cycle-level simulator *against the cached plan*: structural fields
(filter order, bank count, buffer total) must match a freshly rebuilt
chain, and the memory system is re-simulated with the FIFO depths
stored in the cache entry.  A corrupted entry (for example a flipped
FIFO depth) therefore either fails a structural check, deadlocks the
chain (violating deadlock-free condition 2) or produces outputs that
diverge from the golden reference — all are caught, counted, and evict
the poisoned entry from every cache tier.  Sampling is *weighted*
(:class:`CanarySampler`): freshly compiled and freshly
disk-promoted plans — where corruption is likeliest — are validated
several times more often than long-cached ones.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..flow.automation import compile_accelerator
from ..integration.chaining import intermediate_grid_shape
from ..lower.engine import CompiledEngine, LoweringConfig
from ..lower.program import LoweringUnsupported, ProgramMismatchError
from ..microarch.memory_system import build_memory_system
from ..microarch.tradeoff import with_offchip_streams
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import get_tracer, record_span, span, trace_context
from ..sim.engine import ChainSimulator, DeadlockError
from ..stencil.golden import golden_output_sequence, make_input
from ..stencil.spec import StencilSpec
from .fingerprint import CompileOptions
from .plancache import CachedPlan, PlanCache
from .proto import ErrorInfo, Response, default_error_kind
from .scheduler import Scheduler, WorkItem

try:  # pragma: no cover - 3.8+ always has typing.Protocol
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[misc]
        return cls

__all__ = [
    "LATENCY_BUCKETS_MS",
    "STAGE_BUCKETS_MS",
    "observe_stage",
    "CanarySampler",
    "Executor",
    "ExecutorBase",
    "ItemResult",
    "PlanExecutor",
    "PlanValidationError",
    "StagesRun",
    "compile_failure",
    "compile_plan",
    "execute_pipeline",
    "execute_stencil",
    "executor_backends",
    "lower_stages",
    "make_executor",
    "make_response",
    "path_counts",
    "register_executor",
    "run_stages",
    "stage_summaries",
    "validate_pipeline",
    "validate_plan",
    "worse_cache_outcome",
]

#: Millisecond buckets shared by the service latency histograms.
LATENCY_BUCKETS_MS = (
    0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 5000,
)

#: Finer-grained buckets for per-stage attribution: stages like a
#: memory cache hit or admission run tens of microseconds, while a cold
#: compile runs hundreds of milliseconds — one bucket ladder must
#: resolve both.  Every process uses these exact bounds so fabric-wide
#: histogram merges (:meth:`MetricsRegistry.merge_snapshot`) line up.
STAGE_BUCKETS_MS = (
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
    25, 50, 100, 250, 500, 1000, 5000,
)


def observe_stage(
    registry: MetricsRegistry,
    stage: str,
    ms: float,
    name: str = "service_stage_ms",
) -> None:
    """Record one named stage's duration in the shared stage histogram.

    Stage digests (``repro top``, the router bench) read these back
    through :meth:`Histogram.quantile`, so p50/p95/p99 per stage come
    from one code path instead of ad-hoc percentile math.
    """
    registry.histogram(
        name, {"stage": stage}, buckets=STAGE_BUCKETS_MS
    ).observe(ms)


class PlanValidationError(RuntimeError):
    """The structural checks or cycle-sim canary contradicted a plan."""


#: Cache-outcome severity order for folding per-stage outcomes into
#: one response field (a pipeline that compiled any stage is a miss).
_CACHE_OUTCOME_RANK = {"hit": 0, "coalesced": 1, "disk": 2, "miss": 3}

#: :meth:`PlanCache.lookup` tier -> cache outcome.
_TIER_OUTCOME = {"memory": "hit", "disk": "disk", "miss": "miss"}


def worse_cache_outcome(a: str, b: str) -> str:
    """The more expensive of two plan-cache outcomes."""
    if _CACHE_OUTCOME_RANK.get(b, 0) > _CACHE_OUTCOME_RANK.get(a, 0):
        return b
    return a


def compile_plan(
    spec: StencilSpec, options: CompileOptions, fp: str
) -> CachedPlan:
    """Run the full Fig 11 flow and reduce it to a cacheable plan."""
    with span(
        "service.compile",
        benchmark=spec.name,
        streams=options.offchip_streams,
    ):
        design = compile_accelerator(
            spec, offchip_streams=options.offchip_streams
        )
        system = design.memory_system
        return CachedPlan(
            fingerprint=fp,
            spec=spec.to_json(),
            options=options.to_json(),
            fifo_capacities=system.fifo_capacities(),
            filter_order=list(system.plan.filter_order),
            num_banks=system.num_banks,
            total_buffer=system.total_buffer_size,
            summary={
                k: v for k, v in design.summary().items()
            },
        )


def execute_stencil(
    spec: StencilSpec, seed: int
) -> Tuple[np.ndarray, List[float], str]:
    """The golden execution path: ``(input grid, outputs, digest)``."""
    grid = make_input(spec, seed=seed)
    outputs = golden_output_sequence(spec, grid)
    digest = hashlib.sha256(
        np.asarray(outputs, dtype=np.float64).tobytes()
    ).hexdigest()
    return grid, outputs, digest


def execute_pipeline(stages, seed: int):
    """Golden chained execution of a multi-stage workload plan.

    Returns ``(input grid, [(outputs array, digest), ...])`` — one
    entry per stage.  The hand-off is the Fig 13c property: stage k's
    lexicographic output sequence reshaped to its iteration-domain box
    *is* stage k+1's input grid, so intermediates never leave the
    process (and never cross the wire).  Stage digests are computed
    exactly like :func:`execute_stencil`'s — SHA-256 over the
    C-contiguous float64 output bytes — so a pipeline stage digest is
    bit-comparable with the equivalent single-kernel request's.
    """
    grid = make_input(stages[0].spec, seed=seed)
    current = grid
    results = []
    for idx, stage in enumerate(stages):
        with span(
            "service.stage",
            stage=stage.index,
            benchmark=stage.spec.name,
        ):
            outputs = golden_output_sequence(stage.spec, current)
        arr = np.ascontiguousarray(
            np.asarray(outputs, dtype=np.float64)
        )
        digest = hashlib.sha256(arr.data).hexdigest()
        results.append((arr, digest))
        if idx + 1 < len(stages):
            current = arr.reshape(intermediate_grid_shape(stage.spec))
    return grid, results


def stage_summaries(stages, results) -> List[dict]:
    """The per-stage response dicts (``Response.stages``)."""
    return [
        {
            "stage": stage.index,
            "name": stage.spec.name,
            "fingerprint": stage.fingerprint,
            "checksum": digest[:16],
            "n_outputs": int(arr.size),
        }
        for stage, (arr, digest) in zip(stages, results)
    ]


def validate_pipeline(stages, plans, grid, results) -> None:
    """Cycle-sim canary for every stage of a pipeline.

    Each stage's cached plan is validated against the rebuilt chain
    with that stage's actual input grid (recovered by replaying the
    reshape hand-off) and its golden outputs.
    """
    current = grid
    for idx, (stage, plan, (arr, _)) in enumerate(
        zip(stages, plans, results)
    ):
        validate_plan(stage.spec, stage.options, plan, current, arr)
        if idx + 1 < len(stages):
            current = arr.reshape(intermediate_grid_shape(stage.spec))


def validate_plan(
    spec: StencilSpec,
    options: CompileOptions,
    plan: CachedPlan,
    grid: np.ndarray,
    golden: List[float],
) -> None:
    """Check a cached plan against a freshly rebuilt memory system.

    Structural fields are compared first (cheap, catches reordered or
    dropped filters, wrong bank counts, corrupted buffer totals); the
    chain is then cycle-simulated with the *cached* FIFO depths, which
    catches depth corruption as a deadlock or a divergence from the
    golden reference.  Raises :class:`PlanValidationError` on any
    mismatch; process-pool workers run this too, so it touches no
    registry — callers count successes/failures themselves.
    """
    with span(
        "service.validate",
        benchmark=spec.name,
        fingerprint=plan.fingerprint[:12],
    ):
        system = build_memory_system(spec.analysis())
        if options.offchip_streams > 1:
            system = with_offchip_streams(
                system, options.offchip_streams
            )
        if list(plan.filter_order) != list(system.plan.filter_order):
            raise PlanValidationError(
                "cached plan's filter order diverges from the "
                "rebuilt chain"
            )
        if plan.num_banks != system.num_banks:
            raise PlanValidationError(
                f"cached plan claims {plan.num_banks} banks but the "
                f"rebuilt chain has {system.num_banks}"
            )
        if plan.total_buffer != system.total_buffer_size:
            raise PlanValidationError(
                "cached plan's total buffer size diverges from the "
                "rebuilt chain"
            )
        if len(plan.fifo_capacities) != len(system.fifos):
            raise PlanValidationError(
                f"cached plan has {len(plan.fifo_capacities)} FIFOs "
                f"but the rebuilt chain has {len(system.fifos)}"
            )
        if any(c < 1 for c in plan.fifo_capacities):
            raise PlanValidationError(
                "cached plan holds a non-positive FIFO depth (every "
                "reuse FIFO needs at least one slot)"
            )
        override = {
            f.fifo_id: cap
            for f, cap in zip(system.fifos, plan.fifo_capacities)
        }
        try:
            result = ChainSimulator(
                spec,
                system,
                grid,
                fifo_capacity_override=override,
            ).run()
        except DeadlockError as exc:
            raise PlanValidationError(
                "cached plan deadlocks the chain (condition 2 "
                f"violated): {exc}"
            ) from exc
        if not np.allclose(result.output_values(), golden):
            raise PlanValidationError(
                "cycle-sim outputs diverge from the golden "
                "reference under the cached FIFO depths"
            )


def compile_failure(stages, stage, exc: Exception) -> str:
    """The error detail of a failed stage compile."""
    where = (
        f" (stage {stage.index}, {stage.spec.name})"
        if len(stages) > 1
        else ""
    )
    return f"compile failed{where}: {exc}"


# ---------------------------------------------------------------------
# The execution core
# ---------------------------------------------------------------------

@dataclass
class ItemResult:
    """One request's outcome from :func:`run_stages`."""

    #: ``(C-contiguous float64 output, SHA-256 hex digest)`` per stage.
    results: List[Tuple[np.ndarray, str]] = field(default_factory=list)
    n_outputs: int = 0
    #: NumPy's pairwise mean of the final stage's outputs (0.0 if none).
    mean: float = 0.0
    validated: Optional[bool] = None
    #: ``None`` on success; ``"validation"`` when the canary refuted a
    #: plan, ``"exception"`` for a retryable execution failure.
    error_kind: Optional[str] = None
    error: str = ""
    #: ``perf_counter_ns`` when this item's own work began — its
    #: interpreted chain, or the digests and mean of its compiled
    #: outputs — and that work's wall time.  The canary follows at
    #: once; its wall time is 0 when the item was not validated.
    started_ns: int = 0
    execute_ns: int = 0
    canary_ns: int = 0

    def reply(self, stages) -> Dict[str, Any]:
        """The JSON-safe result every executor builds its response
        from (and the pool ships home from its workers)."""
        if self.error_kind is not None:
            return {
                "ok": False,
                "error_kind": self.error_kind,
                "error": self.error,
            }
        return {
            "ok": True,
            "n_outputs": self.n_outputs,
            "mean": self.mean,
            "checksum": self.results[-1][1][:16],
            "validated": self.validated,
            "stages": (
                stage_summaries(stages, self.results)
                if len(stages) > 1
                else None
            ),
        }


@dataclass
class StagesRun:
    """What :func:`run_stages` did for one group, as data."""

    items: List[ItemResult]
    #: True when the compiled kernels produced the outputs.
    compiled: bool = False
    #: Why the kernels were abandoned for the interpreted path.
    kernel_error: Optional[str] = None
    #: ``perf_counter_ns`` when the run began (the batched kernel pass
    #: starts there), and that pass's wall time (0 when interpreted).
    started_ns: int = 0
    kernel_ns: int = 0

    @property
    def execute_ns(self) -> int:
        """Execution wall time: the kernel pass plus every item's own
        work (not the canaries or ``on_item`` callbacks)."""
        return self.kernel_ns + sum(item.execute_ns for item in self.items)


def _run_kernels(stages, kernels, seeds, engine: CompiledEngine):
    """Every stage as one batched ``run_many`` over the group; returns
    each item's per-stage outputs (C-contiguous float64)."""
    current = [engine.input_grid(stages[0].spec, seed) for seed in seeds]
    per_item: List[List[np.ndarray]] = [[] for _ in seeds]
    for idx, (stage, kernel) in enumerate(zip(stages, kernels)):
        arrs = [
            np.ascontiguousarray(row, dtype=np.float64)
            for row in kernel.run_many(current)
        ]
        for outputs, arr in zip(per_item, arrs):
            outputs.append(arr)
        if idx + 1 < len(stages):
            shape = intermediate_grid_shape(stage.spec)
            current = [arr.reshape(shape) for arr in arrs]
    return per_item


def _item_results(stages, seed: int, outputs):
    """``(input grid, [(output, digest), ...])`` of one item.

    ``outputs`` are its compiled stage outputs, or ``None`` to run the
    interpreted golden chain; compiled results carry no input grid
    (the canary regenerates it with the golden replay).
    """
    if outputs is None:
        return execute_pipeline(stages, seed)
    # Hash each buffer itself: the bytes of ``arr.tobytes()`` without
    # copying a megabyte per request on large grids.
    return None, [
        (arr, hashlib.sha256(arr.data).hexdigest()) for arr in outputs
    ]


def _canary(stages, plans, seed: int, results, grid) -> None:
    """Validate one item's results; ``grid`` is None for compiled ones.

    A compiled result first proves bit-identity, stage by stage,
    against the interpreted :func:`execute_pipeline`; then every
    stage's plan is cycle-simulated (:func:`validate_pipeline`).
    """
    if grid is None:
        grid, golden = execute_pipeline(stages, seed)
        for stage, (_, got), (_, want) in zip(stages, results, golden):
            if got != want:
                raise PlanValidationError(
                    f"compiled stage {stage.index} ({stage.spec.name}) "
                    "outputs diverge from the golden reference"
                )
        results = golden
    validate_pipeline(stages, plans, grid, results)


def _finish_item(stages, plans, seed: int, outputs, validate: bool):
    """One item's digests, mean and (if asked) canary, timed."""
    started = time.perf_counter_ns()
    try:
        grid, results = _item_results(stages, seed, outputs)
    except Exception as exc:
        item = ItemResult(error_kind="exception", error=str(exc))
    else:
        final = results[-1][0]
        item = ItemResult(
            results=results,
            n_outputs=int(final.size),
            mean=float(np.mean(final)) if final.size else 0.0,
        )
    item.started_ns = started
    item.execute_ns = time.perf_counter_ns() - started
    if validate and item.error_kind is None:
        started = time.perf_counter_ns()
        try:
            _canary(stages, plans, seed, item.results, grid)
            item.validated = True
        except PlanValidationError as exc:
            item.error_kind, item.error = "validation", str(exc)
        except Exception as exc:
            item.error_kind, item.error = "exception", str(exc)
        item.canary_ns = time.perf_counter_ns() - started
    return item


def run_stages(
    stages,
    plans: List[CachedPlan],
    kernels: Optional[List[Any]],
    seeds: List[int],
    validate: Optional[List[bool]] = None,
    engine: Optional[CompiledEngine] = None,
    on_item: Optional[Callable[[int, ItemResult], None]] = None,
    traces: Optional[List[Tuple[Optional[str], Optional[str]]]] = None,
) -> StagesRun:
    """Execute one same-fingerprint group: the one execution core.

    ``stages`` and ``plans`` are the decoded pipeline and its cached
    plans.  ``kernels`` is ``None`` for the interpreted path, or one
    compiled kernel per stage, fed input grids from ``engine`` and run
    batched over the group; a kernel that raises is a lowering gap, so
    the group then runs interpreted (``kernel_error`` says why).
    ``validate[i]`` asks for the canary on item ``i``; ``traces[i]``
    is item ``i``'s ``(trace_id, parent_span_id)``, under which its own
    work and canary run, so the spans they open (``service.stage``,
    ``service.validate``) join that request's trace.

    Items then finish one at a time — digests, mean, canary — and
    ``on_item(i, result)`` sees each as soon as it is final, so a
    caller can answer early requests (whose clients then queue their
    next ones) while later items are still being hashed.  No I/O and
    no metrics: callers record the returned timings and counts.
    """
    validate = validate or [False] * len(seeds)
    traces = traces or [(None, None)] * len(seeds)
    run = StagesRun(items=[], started_ns=time.perf_counter_ns())
    compiled = None
    if kernels is not None:
        try:
            compiled = _run_kernels(stages, kernels, seeds, engine)
            run.compiled = True
        except Exception as exc:
            run.kernel_error = str(exc) or type(exc).__name__
        run.kernel_ns = time.perf_counter_ns() - run.started_ns
    for index, seed in enumerate(seeds):
        with trace_context(*traces[index]):
            item = _finish_item(
                stages,
                plans,
                seed,
                compiled and compiled[index],
                validate[index],
            )
        run.items.append(item)
        if on_item is not None:
            on_item(index, item)
    return run


def lower_stages(
    engine: CompiledEngine,
    stages,
    plans: List[CachedPlan],
    config: Optional[LoweringConfig] = None,
) -> Tuple[Optional[List[Any]], Dict[str, Any]]:
    """Lower every stage's plan through ``engine``.

    Returns ``(kernels, lower)``.  ``kernels`` is ``None`` when the
    lowering refuses any stage: the whole chain then runs interpreted,
    because the hand-off bytes must come from one path.  ``lower`` is
    the JSON-safe lowering report :meth:`ExecutorBase._fold_lower`
    records: one entry per freshly built kernel, the programs to
    persist as plan sidecars, and the refusal reason.  A corrupt
    stored program raises :class:`PlanValidationError` (after
    forgetting every stage's kernels) — never a wrong answer.
    """
    lower: Dict[str, Any] = {}
    kernels = []
    try:
        for stage, plan in zip(stages, plans):
            result = engine.kernel_for(plan, spec=stage.spec, config=config)
            if result.built:
                lower.setdefault("built", []).append(
                    {
                        "outcome": (
                            "lowered"
                            if result.program_json is not None
                            else "cached"
                        ),
                        "converter": result.converter,
                        "converter_fallback": (
                            result.converter_fallback is not None
                        ),
                        "bufferize_ms": result.bufferize_ms,
                        "convert_ms": result.convert_ms,
                    }
                )
            if result.program_json is not None:
                plan.buffer_program = result.program_json
                lower.setdefault("programs", {})[
                    plan.fingerprint
                ] = result.program_json
            kernels.append(result.kernel)
    except LoweringUnsupported as exc:
        lower["refused"] = exc.reason
        return None, lower
    except ProgramMismatchError as exc:
        for stage in stages:
            engine.forget(stage.fingerprint)
        raise PlanValidationError(str(exc)) from exc
    return kernels, lower


def path_counts(
    run: StagesRun, refused: Optional[str] = None
) -> Dict[str, Any]:
    """The lowering-report entries of one run: how many items ran
    compiled, or fell back and why (``refused`` is the lowering's
    refusal reason, if it refused)."""
    n = len(run.items)
    if run.kernel_error is not None:
        return {"fallback": {"kernel_error": n}, "kernel_errors": 1}
    if refused is not None:
        return {"fallback": {refused: n}}
    return {"compiled": n} if run.compiled else {}


def make_response(
    item: WorkItem,
    status: str,
    error: Optional[str] = None,
    error_kind: Optional[str] = None,
    **fields: Any,
) -> Response:
    """The typed response shared by every resolution path.

    ``error`` is the human-readable detail; ``error_kind`` pins the
    taxonomy entry (defaults to the status's canonical kind).
    """
    info = None
    if error is not None or status != "ok":
        info = ErrorInfo(
            kind=error_kind or default_error_kind(status),
            detail=error or "",
        )
    return Response(
        id=item.request_id,
        status=status,
        benchmark=item.label or item.spec.name,
        fingerprint=item.fingerprint,
        latency_ms=round(
            (time.monotonic() - item.admitted_at) * 1e3, 3
        ),
        attempts=item.attempts,
        error=info,
        **fields,
    )


class CanarySampler:
    """Weighted 1-in-N canary sampling biased toward fresh plans.

    A shared credit accumulator advances by ``hot_weight`` for
    executions of *fresh* fingerprints (compiled or promoted from the
    disk tier within the last ``hot_window`` executions of that plan)
    and by 1 for everything else; a validation fires each time the
    credit crosses ``every``.  Long-run effect: cold traffic is still
    sampled at the configured 1-in-N floor, while the plans likeliest
    to be corrupted — the ones that just entered a cache tier — are
    validated ``hot_weight``× as often per request.  Deterministic
    (no RNG), so the weighting distribution is unit-testable exactly.
    """

    def __init__(
        self,
        every: int,
        hot_weight: float = 4.0,
        hot_window: int = 64,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if hot_weight < 1.0:
            raise ValueError("hot_weight must be >= 1")
        self.every = every
        self.hot_weight = hot_weight
        self.hot_window = hot_window
        self._registry = registry
        self._credit = 0.0
        self._hot: Dict[str, int] = {}
        self._lock = threading.Lock()

    def note_fresh(self, fp: str, reason: str) -> None:
        """Mark a fingerprint hot (``reason``: compiled | promoted)."""
        if self.every <= 0:
            return
        with self._lock:
            self._hot[fp] = self.hot_window
        if self._registry is not None:
            self._registry.counter(
                "service_canary_fresh_total", {"reason": reason}
            ).inc()

    def should_validate(self, fp: str) -> bool:
        if self.every <= 0:
            return False
        with self._lock:
            weight = 1.0
            left = self._hot.get(fp)
            if left is not None:
                weight = self.hot_weight
                if left <= 1:
                    del self._hot[fp]
                else:
                    self._hot[fp] = left - 1
            self._credit += weight
            if self._credit >= self.every:
                # Cap the carry so a hot burst samples once, not twice.
                self._credit = min(
                    self._credit - self.every, float(self.every)
                )
                return True
            return False


class ExecutorBase:
    """The group processor, resolution paths and canary policy shared
    by both executors; subclasses supply :meth:`_execute`."""

    #: This process's compiled-kernel source (``None``: interpreted, or
    #: kernels live in pool workers).
    engine: Optional[CompiledEngine] = None

    def __init__(
        self,
        cache: PlanCache,
        scheduler: Scheduler,
        registry: MetricsRegistry,
        workers: int = 4,
        max_batch: int = 16,
        validate_every: int = 0,
        canary_cell_limit: int = 20_000,
        retry_backoff_s: float = 0.02,
        canary_hot_weight: float = 4.0,
        canary_hot_window: int = 64,
    ) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        self.cache = cache
        self.scheduler = scheduler
        self.registry = registry
        self.workers = workers
        self.max_batch = max(1, max_batch)
        self.validate_every = validate_every
        self.canary_cell_limit = canary_cell_limit
        self.retry_backoff_s = retry_backoff_s
        self.sampler = CanarySampler(
            every=validate_every,
            hot_weight=canary_hot_weight,
            hot_window=canary_hot_window,
            registry=registry,
        )

    # -- canary policy -------------------------------------------------
    def _note_cache_outcome(self, fp: str, outcome: str) -> None:
        if outcome == "miss":
            self.sampler.note_fresh(fp, "compiled")
        elif outcome == "disk":
            self.sampler.note_fresh(fp, "promoted")

    def _should_validate(self, item: WorkItem) -> bool:
        if item.validate is not None:
            return item.validate
        if self.validate_every <= 0:
            return False
        cells = 1
        for g in item.spec.grid:
            cells *= g
        if cells > self.canary_cell_limit:
            self.registry.counter(
                "service_validation_skipped_total"
            ).inc()
            return False
        return self.sampler.should_validate(item.fingerprint)

    # -- resolution paths ----------------------------------------------
    def _resolve(self, item: WorkItem, response: Response) -> None:
        if response.trace_id is None:
            response.trace_id = item.trace_id
        if item.slot.resolve(response):
            end_ns = time.perf_counter_ns()
            record_span(
                "service.request",
                item.admitted_ns,
                end_ns,
                trace_id=item.trace_id,
                parent_span_id=item.parent_span_id,
                request=item.request_id,
                status=response.status,
            )
            observe_stage(
                self.registry,
                "node_total",
                (end_ns - item.admitted_ns) / 1e6,
            )
            if response.latency_ms is not None:
                self.registry.record_exemplar(
                    "service_request_latency_ms",
                    response.latency_ms,
                    {
                        "request": item.request_id,
                        "benchmark": item.spec.name,
                        "status": response.status,
                    },
                )
            self.registry.counter(
                "service_requests_total",
                {"status": response.status},
            ).inc()
            self.registry.histogram(
                "service_request_latency_ms",
                buckets=LATENCY_BUCKETS_MS,
            ).observe(response.latency_ms)

    def _resolve_timeout(self, item: WorkItem) -> None:
        self._resolve(
            item,
            make_response(
                item, "timeout", error="deadline exceeded in queue"
            ),
        )

    def _resolve_validation_failure(
        self, item: WorkItem, cache_outcome: str, error: str
    ) -> None:
        # Every stage's plan is suspect (for one stage, that is the
        # request's own fingerprint).
        for stage in item.stages:
            self.cache.invalidate(stage.fingerprint)
            if self.engine is not None:
                self.engine.forget(stage.fingerprint)
        self.registry.counter(
            "service_validation_failures_total"
        ).inc()
        self._resolve(
            item,
            make_response(
                item,
                "validation_failed",
                cache=cache_outcome,
                validated=False,
                error=error,
            ),
        )

    def _requeue(self, item: WorkItem) -> bool:
        """Re-admit a retried item (subclasses may redirect shards)."""
        return self.scheduler.requeue(item)

    def _retry_or_fail(
        self,
        item: WorkItem,
        error: str,
        backoff: bool = True,
        kind: Optional[str] = None,
    ) -> None:
        if item.retries_left > 0 and not item.expired():
            item.retries_left -= 1
            self.registry.counter("service_retries_total").inc()
            if backoff:
                delay = self.retry_backoff_s * (
                    2 ** max(item.attempts - 1, 0)
                )
                time.sleep(min(delay, 1.0))
            if self._requeue(item):
                return
            error = f"{error} (retry requeue failed: queue full)"
        self._resolve(
            item,
            make_response(item, "error", error=error, error_kind=kind),
        )

    # -- the group processor -------------------------------------------
    def _process_group(self, items: List[WorkItem], *where: Any) -> None:
        """One same-fingerprint group: expire what waited too long,
        then hand the rest to the backend's :meth:`_execute`."""
        dequeued_ns = time.perf_counter_ns()
        live: List[WorkItem] = []
        for item in items:
            observe_stage(
                self.registry,
                "queue_wait",
                (dequeued_ns - item.admitted_ns) / 1e6,
            )
            if item.expired():
                self._resolve_timeout(item)
            else:
                live.append(item)
        if live:
            self._execute(live, *where)

    def _execute(self, live: List[WorkItem], *where: Any) -> None:
        raise NotImplementedError

    def _lookup_plans(
        self, live: List[WorkItem], compile: bool
    ) -> Optional[Tuple[List[Optional[CachedPlan]], str, float]]:
        """One plan-cache round trip per stage, serving the group.

        Each stage is an ordinary plan under its own fingerprint, so a
        pipeline stage and the equivalent single-kernel request share
        one cache entry.  With ``compile`` a miss compiles here under
        the cache's single flight; without it the plan stays ``None``
        for the pool worker to compile.  Returns ``(plans, worst
        outcome, lookup ms)``, or ``None`` once a failed compile has
        resolved the group.
        """
        exemplar = live[0]
        plans: List[Optional[CachedPlan]] = []
        worst = "hit"
        total_ms = 0.0
        for stage in exemplar.stages:
            fp = stage.fingerprint
            started = time.perf_counter()
            try:
                with trace_context(
                    exemplar.trace_id, exemplar.parent_span_id
                ), span(
                    "service.cache_lookup",
                    fingerprint=fp[:12],
                    stage=stage.index,
                    group=len(live),
                ) as lookup_span:
                    if compile:
                        plan, outcome = self.cache.get_or_compile(
                            fp,
                            lambda: compile_plan(
                                stage.spec, stage.options, fp
                            ),
                        )
                    else:
                        plan, tier = self.cache.lookup(fp)
                        outcome = _TIER_OUTCOME[tier]
                    lookup_span.annotate(outcome=outcome)
            except Exception as exc:
                for item in live:
                    self._retry_or_fail(
                        item,
                        compile_failure(exemplar.stages, stage, exc),
                        kind="compile_failed",
                    )
                return None
            ms = (time.perf_counter() - started) * 1e3
            total_ms += ms
            # "compile" holds the cold path; warm lookups (memory or
            # disk promotion) are attributed to "cache_lookup".
            observe_stage(
                self.registry,
                "compile" if compile and outcome == "miss"
                else "cache_lookup",
                ms,
            )
            self.registry.counter(
                "service_cache_total", {"outcome": outcome}
            ).inc()
            if compile:
                self.registry.histogram(
                    "service_compile_ms",
                    {"cache": outcome},
                    buckets=LATENCY_BUCKETS_MS,
                ).observe(ms)
            self._note_cache_outcome(fp, outcome)
            worst = worse_cache_outcome(worst, outcome)
            plans.append(plan)
        return plans, worst, total_ms

    def _finish(
        self,
        item: WorkItem,
        result: Dict[str, Any],
        plans: List[Optional[CachedPlan]],
        outcome: str,
    ) -> None:
        """Resolve one item from its :meth:`ItemResult.reply`."""
        if result["ok"]:
            final = plans[-1]
            self._resolve(
                item,
                make_response(
                    item,
                    "ok",
                    cache=outcome,
                    n_outputs=result["n_outputs"],
                    mean=result["mean"],
                    checksum=result["checksum"],
                    validated=result["validated"],
                    summary=final.summary if final is not None else {},
                    stages=result.get("stages"),
                ),
            )
        elif result["error_kind"] == "validation":
            self._resolve_validation_failure(item, outcome, result["error"])
        else:
            self._retry_or_fail(item, result["error"])

    def _fold_lower(
        self, lower: Dict[str, Any], plans: List[Optional[CachedPlan]]
    ) -> None:
        """Record a lowering report (:func:`lower_stages`,
        :func:`path_counts`) and persist its programs as the plans'
        cache sidecars, so restarts and pool workers skip straight to
        convert."""
        if not lower:  # a warm group: nothing built, nothing to count
            return
        programs = lower.get("programs") or {}
        for plan in plans:
            program = None if plan is None else programs.get(
                plan.fingerprint
            )
            if program is not None:
                plan.buffer_program = program
                self.cache.put(plan)
        for built in lower.get("built", ()):
            observe_stage(
                self.registry, "lower_bufferize", built["bufferize_ms"]
            )
            observe_stage(
                self.registry, "lower_convert", built["convert_ms"]
            )
            self.registry.counter(
                "service_lower_total", {"outcome": built["outcome"]}
            ).inc()
            self.registry.counter(
                "service_lower_converter_total",
                {"converter": built["converter"]},
            ).inc()
            if built["converter_fallback"]:
                self.registry.counter(
                    "service_lower_converter_fallback_total"
                ).inc()
        if lower.get("compiled"):
            self.registry.counter(
                "service_lower_requests_total", {"path": "compiled"}
            ).inc(lower["compiled"])
        for reason, count in (lower.get("fallback") or {}).items():
            self.registry.counter(
                "service_lower_fallback_total", {"reason": reason}
            ).inc(count)
            self.registry.counter(
                "service_lower_requests_total", {"path": "fallback"}
            ).inc(count)
        if lower.get("kernel_errors"):
            self.registry.counter(
                "service_lower_kernel_errors_total"
            ).inc(lower["kernel_errors"])


@runtime_checkable
class Executor(Protocol):
    """The contract every execution backend satisfies.

    A backend drains the shared :class:`Scheduler`, resolves every
    admitted :class:`WorkItem` exactly once, and exposes two
    lifecycle calls.  :class:`StencilService` (and the router's node
    spawner) select a backend *by name* through the factory registry
    below — there is no backend ``if``/``else`` anywhere else.
    """

    def start(self) -> None:
        """Begin draining the scheduler."""

    def stop(self, join_timeout: float = 10.0) -> None:
        """Stop after the scheduler is idle; join worker resources."""


#: name -> factory(config, shared, fault_hook) for executor backends.
_EXECUTOR_BACKENDS: Dict[str, Callable[..., "ExecutorBase"]] = {}


def register_executor(name: str) -> Callable:
    """Class decorator-style registration of one executor backend.

    The registered callable receives ``(config, shared, fault_hook)``
    where ``config`` is the :class:`~repro.service.api.ServiceConfig`
    and ``shared`` the kwargs every :class:`ExecutorBase` takes.
    """

    def _register(factory: Callable[..., "ExecutorBase"]):
        _EXECUTOR_BACKENDS[name] = factory
        return factory

    return _register


def executor_backends() -> Tuple[str, ...]:
    """The registered backend names (sorted, for error messages)."""
    return tuple(sorted(_EXECUTOR_BACKENDS))


def make_executor(
    name: str, config: Any, shared: Dict[str, Any], fault_hook=None
) -> "ExecutorBase":
    """Instantiate the backend registered under ``name``."""
    try:
        factory = _EXECUTOR_BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown executor backend {name!r} (registered: "
            f"{', '.join(executor_backends())})"
        ) from None
    return factory(config, shared, fault_hook)


class PlanExecutor(ExecutorBase):
    """N worker threads draining the scheduler in fingerprint groups.

    ``engine`` picks the backend: ``None`` runs the interpreted golden
    path, a :class:`~repro.lower.engine.CompiledEngine` lowers each
    plan once and runs its kernels.
    """

    def __init__(
        self,
        cache: PlanCache,
        scheduler: Scheduler,
        registry: MetricsRegistry,
        fault_hook: Optional[Callable[[WorkItem], None]] = None,
        engine: Optional[CompiledEngine] = None,
        **kwargs: Any,
    ) -> None:
        super().__init__(cache, scheduler, registry, **kwargs)
        self.fault_hook = fault_hook
        self.engine = engine
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        for k in range(self.workers):
            t = threading.Thread(
                target=self._worker_loop,
                name=f"repro-service-worker-{k}",
                daemon=True,
            )
            t.start()
            self._threads.append(t)

    def stop(self, join_timeout: float = 10.0) -> None:
        """Signal workers to exit once the scheduler is idle and join."""
        self._stop.set()
        for t in self._threads:
            t.join(join_timeout)
        self._threads.clear()

    # -- worker loop ---------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            batch = self.scheduler.next_batch(
                self.max_batch, wait_s=0.05
            )
            if not batch:
                if self._stop.is_set() and self.scheduler.queue_depth() == 0:
                    break
                if self.scheduler.idle():
                    break
                continue
            groups: Dict[str, List[WorkItem]] = {}
            for item in batch:
                groups.setdefault(item.fingerprint, []).append(item)
            for items in groups.values():
                self._process_group(items)

    def _execute(self, live: List[WorkItem]) -> None:
        """Compile/fetch and lower every stage, then run the group
        through the core in this thread."""
        looked = self._lookup_plans(live, compile=True)
        if looked is None:
            return
        plans, outcome, _ = looked
        stages = live[0].stages
        kernels, lower = None, {}
        if self.engine is not None:
            try:
                kernels, lower = lower_stages(self.engine, stages, plans)
            except PlanValidationError as exc:
                for item in live:
                    self._resolve_validation_failure(
                        item, outcome, str(exc)
                    )
                return
            self._fold_lower(lower, plans)
        runnable: List[WorkItem] = []
        for item in live:
            if item.expired():
                self._resolve_timeout(item)
                continue
            item.attempts += 1
            try:
                if self.fault_hook is not None:
                    self.fault_hook(item)
            except Exception as exc:
                self._retry_or_fail(item, str(exc))
                continue
            runnable.append(item)
        if not runnable:
            return

        def finish(index: int, result: ItemResult) -> None:
            self._finish(
                runnable[index], result.reply(stages), plans, outcome
            )

        validate = [self._should_validate(item) for item in runnable]
        if any(validate):
            self.registry.counter("service_validation_total").inc(
                sum(validate)
            )
        run = run_stages(
            stages,
            plans,
            kernels,
            [item.seed for item in runnable],
            validate,
            engine=self.engine,
            on_item=finish,
            traces=[(item.trace_id, item.parent_span_id) for item in runnable],
        )
        self._fold_lower(path_counts(run, lower.get("refused")), plans)
        execute_ms = run.execute_ns / 1e6
        observe_stage(self.registry, "execute", execute_ms)
        if run.compiled:
            observe_stage(self.registry, "lower_execute", execute_ms)
        for result in run.items:
            if result.canary_ns:
                observe_stage(
                    self.registry, "canary", result.canary_ns / 1e6
                )
        if get_tracer() is None:
            return
        exemplar = runnable[0]
        label = exemplar.label or exemplar.spec.name
        if run.kernel_ns:
            # One batched kernel pass serves the group: one span, in
            # the first request's trace.
            record_span(
                "lower.execute",
                run.started_ns,
                run.started_ns + run.kernel_ns,
                trace_id=exemplar.trace_id,
                parent_span_id=exemplar.parent_span_id,
                benchmark=label,
                batch=len(runnable),
            )
        for item, result in zip(runnable, run.items):
            record_span(
                "lower.execute" if run.compiled else "service.execute",
                result.started_ns,
                result.started_ns + result.execute_ns,
                trace_id=item.trace_id,
                parent_span_id=item.parent_span_id,
                benchmark=label,
                request=item.request_id,
            )


@register_executor("thread")
def _make_thread_executor(config, shared, fault_hook) -> PlanExecutor:
    """``worker_mode="thread"``: N threads inside this process, with
    one :class:`CompiledEngine` for the compiled backend."""
    engine = (
        CompiledEngine(config=config.lowering)
        if config.backend == "compiled"
        else None
    )
    return PlanExecutor(fault_hook=fault_hook, engine=engine, **shared)
