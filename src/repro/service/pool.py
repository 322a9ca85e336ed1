"""Crash-isolated process-pool executor with supervised workers.

The thread executor keeps every request inside one Python process: a
pathological plan, an OOM-ish grid or a poisoned cache entry can stall
the GIL or take the whole server down.  This module shards execution
across ``multiprocessing`` worker processes instead, keyed by plan
fingerprint, so a request can segfault, hang, leak or be chaos-killed
and the blast radius is exactly one worker:

* **sharding** — ``shard = sha256(fingerprint) % workers``: every
  request for one plan lands on the same worker, which serializes
  compiles per fingerprint (process-level single-flight) and keeps the
  worker's local plan cache hot;
* **supervision** — a worker that exits, segfaults or stops answering
  is reaped and respawned, both in-call (the shard runner notices the
  death or the hang deadline) and by a background supervisor sweep
  that restarts workers killed while idle;
* **sibling retry** — requests in flight on a crashed or hung worker
  are retried on a *sibling* shard (``shard + hops``), bounded by the
  scheduler's existing retry budget and per-request deadlines, so a
  worker-local fault never costs a request its answer;
* **circuit breaking** — a per-fingerprint
  :class:`CircuitBreaker` counts worker deaths attributable to each
  plan; a plan that repeatedly kills workers trips its breaker open
  (its cache entry is also evicted as suspect), gets fast structured
  ``circuit_open`` rejections for a cooldown, then a half-open probe
  decides between closing the breaker and re-opening it.  Other
  fingerprints keep serving throughout.  A batched job that dies is
  charged to no one: its items re-run alone, so one poisoned request
  never quarantines the requests it was batched with.

The wire protocol between the parent and a worker is JSON-safe dicts
over a ``multiprocessing.Pipe``: specs, options and plans already have
canonical JSON codecs (the content-addressed cache depends on them),
so nothing else needs to pickle.  Chaos fault injection
(:mod:`repro.service.chaos`) runs *inside* the worker, which is the
point: an injected kill takes a real process down and the supervision
machinery — not the test — has to recover.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import queue
import threading
import time
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

from ..obs.metrics import MetricsRegistry
from ..obs.tracing import get_tracer, new_span_id, span, trace_context
from ..lower.engine import CompiledEngine
from ..stencil.spec import StencilSpec
from .chaos import ChaosConfig, ChaosInjector
from .executor import (
    LATENCY_BUCKETS_MS,
    ExecutorBase,
    PlanValidationError,
    Usage,
    compile_failure,
    compile_plan,
    lower_stages,
    make_response,
    observe_stage,
    path_counts,
    run_stages,
    self_usage,
)
from .fingerprint import CompileOptions
from .plancache import CachedPlan, PlanCache
from .scheduler import Scheduler, WorkItem
from .workload import PlannedStage

__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "WORKER_PLAN_ENTRIES",
    "CircuitBreaker",
    "ProcessPlanExecutor",
    "shard_of",
]

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"

#: Gauge encoding of breaker states for the Prometheus export.
_BREAKER_STATE_VALUE = {
    BREAKER_CLOSED: 0,
    BREAKER_OPEN: 1,
    BREAKER_HALF_OPEN: 2,
}


def shard_of(fingerprint: str, workers: int, hops: int = 0) -> int:
    """Stable fingerprint-to-shard routing (``hops`` picks siblings)."""
    digest = hashlib.sha256(fingerprint.encode("utf-8")).digest()
    home = int.from_bytes(digest[:4], "big") % workers
    return (home + hops) % workers


class CircuitBreaker:
    """closed -> open -> half-open quarantine for one fingerprint.

    ``record_failure`` counts *worker-lethal* events (a crash or hang
    while executing this plan).  ``threshold`` consecutive failures
    open the breaker; after ``cooldown_s`` the next ``allow`` moves it
    to half-open, where a single success closes it again and any
    failure re-opens it immediately.
    """

    def __init__(
        self,
        threshold: int = 3,
        cooldown_s: float = 5.0,
        clock=time.monotonic,
    ) -> None:
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self._clock = clock
        self._lock = threading.Lock()
        self.state = BREAKER_CLOSED
        self.failures = 0
        self._opened_at: Optional[float] = None

    def allow(self) -> bool:
        """May a request for this fingerprint proceed right now?"""
        with self._lock:
            if self.state == BREAKER_OPEN:
                if (
                    self._clock() - self._opened_at >= self.cooldown_s
                ):
                    self.state = BREAKER_HALF_OPEN
                    return True
                return False
            return True

    def record_success(self) -> Optional[str]:
        """Returns the new state if a transition happened."""
        with self._lock:
            self.failures = 0
            if self.state == BREAKER_HALF_OPEN:
                self.state = BREAKER_CLOSED
                return BREAKER_CLOSED
            return None

    def record_failure(self) -> Optional[str]:
        """Returns ``"open"`` when this failure tripped the breaker."""
        with self._lock:
            self.failures += 1
            tripped = (
                self.state == BREAKER_HALF_OPEN
                or self.failures >= self.threshold
            )
            if tripped and self.state != BREAKER_OPEN:
                self.state = BREAKER_OPEN
                self._opened_at = self._clock()
                return BREAKER_OPEN
            if tripped:  # already open (concurrent shard failures)
                self._opened_at = self._clock()
            return None

    def retry_after_s(self) -> float:
        """Cooldown seconds left before the next half-open probe.

        Zero unless the breaker is currently open; clients receiving a
        ``circuit_open`` response can back off exactly this long
        instead of guessing.
        """
        with self._lock:
            if self.state != BREAKER_OPEN or self._opened_at is None:
                return 0.0
            elapsed = self._clock() - self._opened_at
            return max(0.0, self.cooldown_s - elapsed)


# ---------------------------------------------------------------------
# Worker-process side
# ---------------------------------------------------------------------

def _reset_forked_observability() -> None:
    """Give a forked worker fresh obs globals.

    A fork can land while a parent thread holds the tracer/metrics
    install locks or a tracer's record lock; the child would deadlock
    on first use.  Workers do not report to the parent registry
    anyway, so simply discard the inherited state.
    """
    from ..obs import metrics as _metrics, tracing as _tracing

    _tracing._install_lock = threading.Lock()
    _tracing._tracer = None
    _metrics._install_lock = threading.Lock()
    _metrics._registry = None


class _WorkerSpans:
    """Collects worker-side stage spans for the reply.

    A pool worker has no tracer of its own (it may be chaos-killed at
    any instant, so it can never own an export file).  Instead each
    stage is timed with *absolute* wall-clock timestamps
    (``time.time_ns``) and shipped home in the job reply; the parent
    re-records them through :meth:`Tracer.add_foreign`, which maps the
    absolute time onto its own epoch while preserving this process's
    pid/tid — so the stitched trace shows the worker as its own
    process row.  Only execs that carry a ``trace_id`` produce spans;
    untraced traffic pays two clock reads and an ``if``.
    """

    __slots__ = ("records",)

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []

    def add(
        self,
        name: str,
        start_unix_ns: int,
        end_unix_ns: int,
        trace_id: Optional[str],
        parent_span_id: Optional[str],
        **args: Any,
    ) -> None:
        if trace_id is None:
            return
        self.records.append(
            {
                "name": name,
                "ts_unix_us": start_unix_ns / 1e3,
                "dur_us": (end_unix_ns - start_unix_ns) / 1e3,
                "pid": os.getpid(),
                "tid": threading.get_ident() & 0xFFFFFFFF,
                "trace_id": trace_id,
                "span_id": new_span_id(),
                "parent_span_id": parent_span_id,
                "args": args,
            }
        )


def _exec_trace(exc_spec: Dict[str, Any]) -> Tuple[Optional[str], Optional[str]]:
    return exc_spec.get("trace_id"), exc_spec.get("parent_span_id")


#: Bound on each pool worker's local plan memo (least recently used
#: evicted).  Sharding sends every group of a fingerprint to one
#: worker, so a few dozen entries hold a shard's hot plans.
WORKER_PLAN_ENTRIES = 64


def _worker_plan(
    plans: "OrderedDict[str, CachedPlan]", st: Dict[str, Any]
) -> Optional[CachedPlan]:
    """The plan one job stage runs against (``None``: compile it)."""
    fp = st["fingerprint"]
    if st.get("plan") is None:
        # A parent-side miss is authoritative: the plan may have been
        # invalidated (poisoned entry, tripped breaker), so a stale
        # worker-local copy must not resurrect it.
        plans.pop(fp, None)
        return None
    # The shared cache hit.  The transmitted plan is what the parent
    # is vouching for, so it is what the canary must validate — a
    # worker-local copy may only stand in for it when the content is
    # identical, otherwise a poisoned shared entry would be validated
    # against a clean local copy and survive.
    plan = CachedPlan.from_json(st["plan"])
    local = plans.get(fp)
    if local is not None and local.to_json() == plan.to_json():
        return local
    return plan


def _remember_plan(
    plans: "OrderedDict[str, CachedPlan]", plan: CachedPlan
) -> None:
    plans[plan.fingerprint] = plan
    plans.move_to_end(plan.fingerprint)
    while len(plans) > WORKER_PLAN_ENTRIES:
        plans.popitem(last=False)


def _run_job(
    job: Dict[str, Any],
    plans: "OrderedDict[str, CachedPlan]",
    chaos: Optional[ChaosInjector],
    engine: Optional[CompiledEngine] = None,
) -> Dict[str, Any]:
    """Execute one fingerprint group inside the worker process.

    Decodes the job's stages, compiles any stage the parent missed (a
    compile that crashes takes down only this worker), lowers through
    ``engine`` (``None`` runs interpreted), and runs the group through
    :func:`run_stages`.  The reply ships home the compiled plans, the
    per-exec results, the worker's spans and its lowering report.
    """
    execs = job["execs"]
    spans = _WorkerSpans()
    # Compiles and lowering serve the whole group; their spans go to
    # the first traced exec.
    group_trace = next(
        (t for t in map(_exec_trace, execs) if t[0] is not None),
        (None, None),
    )
    stages: List[PlannedStage] = []
    stage_plans: List[CachedPlan] = []
    compiled_plans: Dict[str, dict] = {}
    compile_ms = 0.0
    for index, st in enumerate(job["stages"]):
        spec = StencilSpec.from_json(st["spec"])
        stage = PlannedStage(
            index=index,
            name=st.get("name") or spec.name,
            spec=spec,
            options=CompileOptions.from_json(st["options"]),
            fingerprint=st["fingerprint"],
        )
        plan = _worker_plan(plans, st)
        if plan is None:
            started = time.perf_counter()
            compile_start_unix = time.time_ns()
            try:
                plan = compile_plan(
                    spec, stage.options, stage.fingerprint
                )
            except Exception as exc:
                return {
                    "kind": "error",
                    "error": compile_failure(job["stages"], stage, exc),
                }
            compile_ms += (time.perf_counter() - started) * 1e3
            spans.add(
                "worker.compile",
                compile_start_unix,
                time.time_ns(),
                *group_trace,
                fingerprint=stage.fingerprint[:12],
                stage=index,
            )
            compiled_plans[stage.fingerprint] = plan.to_json()
        _remember_plan(plans, plan)
        stages.append(stage)
        stage_plans.append(plan)

    lower: Dict[str, Any] = {}

    def reply(results: List[Dict[str, Any]]) -> Dict[str, Any]:
        return {
            "kind": "result",
            "plans": compiled_plans,
            "compile_ms": compile_ms,
            "execs": results,
            "spans": spans.records,
            "lower": lower,
        }

    kernels = None
    if engine is not None:
        lower_start_unix = time.time_ns()
        try:
            kernels, lower = lower_stages(engine, stages, stage_plans)
        except PlanValidationError as exc:
            # A transmitted plan carries a corrupt stored program:
            # every exec fails validation so the parent invalidates
            # the shared entries — never a wrong answer.
            for stage in stages:
                plans.pop(stage.fingerprint, None)
            return reply(
                [
                    {
                        "id": e["id"],
                        "ok": False,
                        "error_kind": "validation",
                        "error": str(exc),
                    }
                    for e in execs
                ]
            )
        if lower.get("built"):
            spans.add(
                "worker.lower",
                lower_start_unix,
                time.time_ns(),
                *group_trace,
                stages=len(stages),
            )
    if chaos is not None:
        for e in execs:
            chaos.apply(e["id"], e.get("attempt", 0), job["fingerprint"])
    exec_start_unix = time.time_ns()
    run = run_stages(
        stages,
        stage_plans,
        kernels,
        [e["seed"] for e in execs],
        [bool(e.get("validate")) for e in execs],
        engine=engine,
    )
    lower.update(path_counts(run, lower.pop("refused", None)))
    # The spans tile the run, so the worker_* stage histograms sum to
    # its real time: one span for a fused kernel pass (the group's,
    # like worker.lower), then per exec its own work and its canary.
    if run.kernel_ns:
        spans.add(
            "worker.execute",
            exec_start_unix,
            exec_start_unix + run.kernel_ns,
            *group_trace,
            benchmark=stages[-1].spec.name,
            stages=len(stages),
            batch=len(execs),
        )
    results = []
    for e, item in zip(execs, run.items):
        trace = _exec_trace(e)
        start = exec_start_unix + item.started_ns - run.started_ns
        spans.add(
            "worker.execute",
            start,
            start + item.execute_ns,
            *trace,
            request=e["id"],
            benchmark=stages[-1].spec.name,
            stages=len(stages),
        )
        if item.canary_ns:
            start += item.execute_ns
            spans.add(
                "worker.validate",
                start,
                start + item.canary_ns,
                *trace,
                request=e["id"],
            )
        if item.error_kind == "validation":
            for stage in stages:  # the parent will invalidate too
                plans.pop(stage.fingerprint, None)
                if engine is not None:
                    engine.forget(stage.fingerprint)
        results.append({"id": e["id"], **item.reply(stages)})
    return reply(results)


def _worker_main(
    conn,
    shard_id: int,
    chaos_json: Optional[dict],
    converter: Optional[str],
    artifact_dir: Optional[str],
) -> None:
    """The worker-process loop: recv a job, run it, send the reply.

    A compiled pool (``converter`` set) builds this worker's one
    engine, with its own kernel and grid caches; an interpreted pool
    builds none.
    """
    _reset_forked_observability()
    chaos = (
        ChaosInjector(ChaosConfig.from_json(chaos_json))
        if chaos_json
        else None
    )
    plans: "OrderedDict[str, CachedPlan]" = OrderedDict()
    engine = (
        CompiledEngine(converter, artifact_dir) if converter else None
    )
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        kind = msg.get("kind")
        if kind == "stop":
            break
        if kind == "ping":
            conn.send({"kind": "pong", "shard": shard_id})
            continue
        try:
            reply = _run_job(msg, plans, chaos, engine)
        except Exception as exc:  # belt and braces: never die silently
            reply = {"kind": "error", "error": f"worker error: {exc}"}
        # A worker may be the fork server's child, not the node's, so
        # the node's RUSAGE_CHILDREN cannot be relied on to see it:
        # each reply carries the worker's own usage so far instead.
        reply["rusage"] = self_usage()
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
    os._exit(0)


# ---------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------

class _WorkerShard:
    """Parent-side handle of one worker process and its feed queue."""

    def __init__(self, index: int, ctx, worker_args: Tuple) -> None:
        self.index = index
        self.ctx = ctx
        #: :func:`_worker_main`'s arguments after the shard index.
        self.worker_args = worker_args
        self.proc = None
        self.conn = None
        self.lock = threading.Lock()
        self.queue: "queue.Queue" = queue.Queue()
        #: The live worker's last reported usage, and the sum of the
        #: final reports of the workers reaped before it.
        self.usage: Usage = (0.0, 0.0, 0)
        self.retired: Usage = (0.0, 0.0, 0)
        self.usage_lock = threading.Lock()

    def recv(self) -> Dict[str, Any]:
        """One reply from the worker, noting the usage it reports."""
        reply = self.conn.recv()
        with self.usage_lock:
            self.usage = reply.get("rusage", self.usage)
        return reply

    def total_usage(self) -> Usage:
        with self.usage_lock:
            return _add_usage(self.retired, self.usage)

    def spawn(self) -> None:
        parent_conn, child_conn = self.ctx.Pipe()
        proc = self.ctx.Process(
            target=_worker_main,
            args=(child_conn, self.index, *self.worker_args),
            daemon=True,
            name=f"repro-pool-worker-{self.index}",
        )
        proc.start()
        child_conn.close()  # parent must not hold the child's end open
        self.proc, self.conn = proc, parent_conn

    def alive(self) -> bool:
        return self.proc is not None and self.proc.is_alive()

    def reap(self) -> None:
        """Kill (if needed) and forget the current worker process."""
        if self.conn is not None:
            try:
                self.conn.close()
            except OSError:
                pass
        if self.proc is not None:
            if self.proc.is_alive():
                self.proc.kill()
            self.proc.join(5.0)
        self.proc = self.conn = None
        with self.usage_lock:
            self.retired = _add_usage(self.retired, self.usage)
            self.usage = (0.0, 0.0, 0)


def _add_usage(a: Usage, b: Usage) -> Usage:
    return a[0] + b[0], a[1] + b[1], a[2] + b[2]


class ProcessPlanExecutor(ExecutorBase):
    """Fingerprint-sharded, supervised ``multiprocessing`` executor.

    Drop-in lifecycle-compatible with the thread
    :class:`~repro.service.executor.PlanExecutor` (``start`` /
    ``stop`` draining the same :class:`Scheduler`), but every unit of
    real work happens in a crash-isolated worker process.
    ``converter`` picks the backend: ``None`` runs interpreted, a
    converter name gives each worker its own
    :class:`~repro.lower.engine.CompiledEngine`.
    """

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
        breaker_threshold: int = 3,
        breaker_cooldown_s: float = 5.0,
        hang_timeout_s: float = 60.0,
        chaos: Optional[ChaosConfig] = None,
        mp_start_method: Optional[str] = None,
        converter: Optional[str] = None,
        artifact_dir: Optional[str] = None,
        **canary_kwargs: Any,
    ) -> None:
        super().__init__(
            cache=cache,
            scheduler=scheduler,
            registry=registry,
            workers=workers,
            max_batch=max_batch,
            validate_every=validate_every,
            canary_cell_limit=canary_cell_limit,
            retry_backoff_s=retry_backoff_s,
            **canary_kwargs,
        )
        if hang_timeout_s <= 0:
            raise ValueError("hang_timeout_s must be positive")
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown_s = breaker_cooldown_s
        self.hang_timeout_s = hang_timeout_s
        self.chaos = chaos
        if mp_start_method is None:
            # Workers are started from a multithreaded parent
            # (dispatcher, shard runners, supervisor, user threads);
            # plain "fork" would inherit any lock held at fork time in
            # the locked state and can deadlock the child.  The worker
            # protocol is JSON-pure and needs no inherited state, so
            # default to "forkserver" (forks from a clean,
            # single-threaded server) or "spawn", keeping "fork" as an
            # explicit opt-in.
            methods = multiprocessing.get_all_start_methods()
            for preferred in ("forkserver", "spawn", "fork"):
                if preferred in methods:
                    mp_start_method = preferred
                    break
        self._ctx = multiprocessing.get_context(mp_start_method)
        if mp_start_method == "forkserver":
            # Import the worker's module tree once in the fork server
            # so each worker fork starts warm instead of re-importing.
            self._ctx.set_forkserver_preload(["repro.service.pool"])
        chaos_json = (
            chaos.to_json() if chaos and chaos.enabled() else None
        )
        # The backend travels with the spawn arguments, not the jobs.
        self._shards = [
            _WorkerShard(
                k, self._ctx, (chaos_json, converter, artifact_dir)
            )
            for k in range(workers)
        ]
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._breaker_lock = threading.Lock()
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()
        self._dispatch_done = threading.Event()
        self._inflight = 0
        self._inflight_lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        self._stop.clear()
        self._dispatch_done.clear()
        for shard in self._shards:
            with shard.lock:
                if not shard.alive():
                    shard.spawn()
        dispatcher = threading.Thread(
            target=self._dispatch_loop,
            name="repro-pool-dispatch",
            daemon=True,
        )
        dispatcher.start()
        self._threads.append(dispatcher)
        for shard in self._shards:
            t = threading.Thread(
                target=self._shard_loop,
                args=(shard,),
                name=f"repro-pool-shard-{shard.index}",
                daemon=True,
            )
            t.start()
            self._threads.append(t)
        supervisor = threading.Thread(
            target=self._supervise_loop,
            name="repro-pool-supervisor",
            daemon=True,
        )
        supervisor.start()
        self._threads.append(supervisor)

    def stop(self, join_timeout: float = 10.0) -> None:
        self._stop.set()
        for t in self._threads:
            t.join(join_timeout)
        self._threads.clear()
        for shard in self._shards:
            # A runner wedged mid-call holds shard.lock; don't let it
            # hang shutdown — the workers are daemons and get reaped
            # regardless.
            acquired = shard.lock.acquire(timeout=join_timeout)
            try:
                if shard.conn is not None and shard.alive():
                    try:
                        shard.conn.send({"kind": "stop"})
                        shard.proc.join(1.0)
                    except (BrokenPipeError, OSError):
                        pass
                shard.reap()
            finally:
                if acquired:
                    shard.lock.release()

    def worker_usage(self) -> Usage:
        """Every worker's reported usage, live and reaped."""
        total: Usage = (0.0, 0.0, 0)
        for shard in self._shards:
            total = _add_usage(total, shard.total_usage())
        return total

    # -- breaker plumbing ----------------------------------------------
    def _breaker(self, fp: str) -> CircuitBreaker:
        with self._breaker_lock:
            breaker = self._breakers.get(fp)
            if breaker is None:
                breaker = CircuitBreaker(
                    threshold=self.breaker_threshold,
                    cooldown_s=self.breaker_cooldown_s,
                )
                self._breakers[fp] = breaker
            return breaker

    def breaker_state(self, fp: str) -> str:
        with self._breaker_lock:
            breaker = self._breakers.get(fp)
        return breaker.state if breaker is not None else BREAKER_CLOSED

    def _publish_breaker(self, fp: str, state: str) -> None:
        self.registry.gauge(
            "service_breaker_state", {"fingerprint": fp[:12]}
        ).set(_BREAKER_STATE_VALUE[state])
        self.registry.counter(
            "service_breaker_transitions_total", {"to": state}
        ).inc()

    def _record_lethal(self, fp: str, reason: str) -> None:
        """A worker died or hung while executing ``fp``."""
        tripped = self._breaker(fp).record_failure()
        if tripped == BREAKER_OPEN:
            self._publish_breaker(fp, BREAKER_OPEN)
            # The plan is the prime suspect: evict it so the
            # half-open probe recompiles from scratch.
            self.cache.invalidate(fp)
        self.registry.counter(
            "service_pool_jobs_total", {"outcome": reason}
        ).inc()

    # -- supervision ---------------------------------------------------
    def _restart_worker(self, shard: _WorkerShard, reason: str) -> None:
        """Reap and respawn one worker (caller holds ``shard.lock``)."""
        shard.reap()
        shard.spawn()
        self.registry.counter(
            "service_worker_restarts_total", {"reason": reason}
        ).inc()

    def _supervise_loop(self) -> None:
        """Respawn workers that die while idle (e.g. external kills)."""
        while not self._stop.wait(0.1):
            for shard in self._shards:
                if not shard.lock.acquire(blocking=False):
                    continue  # mid-call; the shard runner handles it
                try:
                    if shard.proc is not None and not shard.alive():
                        self._restart_worker(shard, "idle_death")
                finally:
                    shard.lock.release()

    # -- dispatch ------------------------------------------------------
    def _track_inflight(self, delta: int) -> None:
        with self._inflight_lock:
            self._inflight += delta

    def _inflight_count(self) -> int:
        with self._inflight_lock:
            return self._inflight

    def _route(self, item: WorkItem) -> None:
        shard = self._shards[
            shard_of(item.fingerprint, self.workers, item.shard_hops)
        ]
        self._track_inflight(+1)
        shard.queue.put(item)
        self.registry.gauge(
            "service_shard_queue_depth", {"shard": str(shard.index)}
        ).set(shard.queue.qsize())

    def _requeue(self, item: WorkItem) -> bool:
        """Crash/hang retries go straight to the sibling shard's
        queue (the scheduler would re-route to the same home shard
        and its internal queues are unbounded anyway)."""
        self._route(item)
        return True

    def _dispatch_loop(self) -> None:
        while True:
            batch = self.scheduler.next_batch(
                self.max_batch, wait_s=0.05
            )
            if not batch:
                if (
                    self._stop.is_set()
                    and self.scheduler.queue_depth() == 0
                ):
                    break
                if self.scheduler.idle():
                    break
                continue
            for item in batch:
                self._route(item)
        self._dispatch_done.set()

    def _shard_loop(self, shard: _WorkerShard) -> None:
        while True:
            try:
                item = shard.queue.get(timeout=0.05)
            except queue.Empty:
                if (
                    self._dispatch_done.is_set()
                    and shard.queue.empty()
                    and self._inflight_count() == 0
                ):
                    break
                continue
            # Drain whatever else is queued for this shard and batch
            # same-fingerprint items into one worker round trip.
            items = [item]
            while len(items) < self.max_batch:
                try:
                    items.append(shard.queue.get_nowait())
                except queue.Empty:
                    break
            self.registry.gauge(
                "service_shard_queue_depth",
                {"shard": str(shard.index)},
            ).set(shard.queue.qsize())
            groups: Dict[str, List[WorkItem]] = {}
            for it in items:
                groups.setdefault(it.fingerprint, []).append(it)
            try:
                for group in groups.values():
                    self._process_group(group, shard)
            finally:
                self._track_inflight(-len(items))

    # -- the worker round trip -----------------------------------------
    def _call_worker(
        self, shard: _WorkerShard, job: Dict[str, Any], budget_s: float
    ) -> Tuple[str, Optional[Dict[str, Any]]]:
        """``("ok", reply)``, ``("died", None)`` or ``("hung", None)``.

        Caller holds ``shard.lock`` for the whole round trip: the
        supervisor's non-blocking acquire reads a held lock as "a call
        is in flight", which is only true if the lock really is held
        from send to reply (and through any in-call restart).
        """
        for attempt in range(2):
            if not shard.alive():
                self._restart_worker(shard, "idle_death")
            try:
                shard.conn.send(job)
                break
            except (BrokenPipeError, OSError):
                # Died between jobs; a fresh worker gets one more try.
                if attempt == 1:
                    return "died", None
                self._restart_worker(shard, "idle_death")
        deadline = time.monotonic() + budget_s
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return "hung", None
            try:
                if shard.conn.poll(min(0.05, remaining)):
                    return "ok", shard.recv()
            except (EOFError, OSError):
                return "died", None
            if not shard.alive():
                # One last drain: the reply may have raced the death.
                try:
                    if shard.conn.poll(0):
                        return "ok", shard.recv()
                except (EOFError, OSError):
                    pass
                return "died", None

    def _execute(
        self,
        live: List[WorkItem],
        shard: _WorkerShard,
        rerun: bool = False,
    ) -> None:
        """One group's worker round trip.

        The breaker stays keyed on the request/workload fingerprint (a
        pipeline that kills workers quarantines as one unit), while
        plan-cache traffic happens per stage fingerprint.

        A batched job dies (or hangs) as one, whichever item caused
        it, so it charges nobody: each item re-runs alone on the same
        attempt number (``rerun``), and only an item that is lethal by
        itself charges the breaker and its retry budget.
        """
        exemplar = live[0]
        fp = exemplar.fingerprint
        breaker = self._breaker(fp)
        if not breaker.allow():
            retry_after = round(breaker.retry_after_s(), 3)
            for item in live:
                self._resolve(
                    item,
                    make_response(
                        item,
                        "circuit_open",
                        error=(
                            "circuit breaker open: this plan "
                            "repeatedly crashed workers"
                        ),
                        error_kind="circuit_open",
                        retry_after_s=retry_after,
                    ),
                )
            return
        if breaker.state == BREAKER_HALF_OPEN:
            self._publish_breaker(fp, BREAKER_HALF_OPEN)

        looked = self._lookup_plans(live, compile=False)
        if looked is None:
            return
        plans, outcome, lookup_ms = looked
        execs = []
        for item in live:
            if not rerun:
                item.attempts += 1
            validate = self._should_validate(item)
            if validate:
                self.registry.counter("service_validation_total").inc()
            execs.append(
                {
                    "id": item.request_id,
                    "seed": item.seed,
                    "validate": validate,
                    "attempt": item.attempts,
                    "trace_id": item.trace_id,
                    "parent_span_id": item.parent_span_id,
                }
            )
        job = {
            "kind": "job",
            "fingerprint": fp,
            "stages": [
                {
                    "fingerprint": stage.fingerprint,
                    "name": stage.name,
                    "spec": stage.spec.to_json(),
                    "options": stage.options.to_json(),
                    "plan": None if plan is None else plan.to_json(),
                }
                for stage, plan in zip(exemplar.stages, plans)
            ],
            "execs": execs,
        }
        budget_s = min(
            max(item.deadline for item in live)
            - time.monotonic()
            + 0.25,
            self.hang_timeout_s,
        )
        budget_s = max(budget_s, 0.05)

        # Hold the shard lock across the whole round trip (and the
        # restart that follows a crash/hang) so the supervisor never
        # reaps or respawns this worker mid-call out from under us.
        call_start_ns = time.perf_counter_ns()
        with trace_context(
            exemplar.trace_id, exemplar.parent_span_id
        ), span(
            "service.pool_call",
            shard=shard.index,
            fingerprint=fp[:12],
            group=len(live),
        ):
            with shard.lock:
                status, reply = self._call_worker(shard, job, budget_s)
                if status != "ok":
                    self._restart_worker(
                        shard, "death" if status == "died" else "hang"
                    )
        observe_stage(
            self.registry,
            "pool_roundtrip",
            (time.perf_counter_ns() - call_start_ns) / 1e6,
        )
        if reply is not None:
            self._harvest_worker_spans(reply)
        if status != "ok":
            reason = (
                "worker_death" if status == "died" else "worker_hang"
            )
            if len(live) > 1:
                self.registry.counter(
                    "service_pool_jobs_total", {"outcome": reason}
                ).inc()
                self.registry.counter("service_pool_isolated_total").inc(
                    len(live)
                )
                for item in live:
                    if item.expired():
                        self._resolve_timeout(item)
                    else:
                        self._execute([item], shard, rerun=True)
                return
            self._record_lethal(fp, reason)
            for item in live:
                if item.expired():
                    self._resolve_timeout(item)
                else:
                    item.shard_hops += 1
                    self._retry_or_fail(
                        item,
                        f"worker {status} while executing plan "
                        f"{fp[:12]}",
                        backoff=False,
                        kind="worker_lost",
                    )
            return

        if reply.get("kind") == "error":
            # An application-level failure (e.g. compile error): the
            # worker survived, so the breaker records a success.
            self._on_breaker_success(fp, breaker)
            self.registry.counter(
                "service_pool_jobs_total", {"outcome": "compile_error"}
            ).inc()
            for item in live:
                self._retry_or_fail(
                    item, reply["error"], kind="compile_failed"
                )
            return

        # Harvest worker-side stage compiles into the shared cache.
        # A worker actually ran the Fig 11 flow: count the real
        # compile, so single-flight tests can assert exact counts.
        harvested = {
            plan_fp: CachedPlan.from_json(plan_json)
            for plan_fp, plan_json in (reply.get("plans") or {}).items()
        }
        programs = (reply.get("lower") or {}).get("programs") or {}
        for plan in harvested.values():
            # Store the worker's program with the plan: a plan stored
            # without one takes the converter artifacts the worker
            # just built in ``cache_dir`` away with its sidecar.
            plan.buffer_program = programs.get(plan.fingerprint)
            self.cache.put(plan)
            self.registry.counter("service_plan_compiles_total").inc()
        plans = [
            harvested.get(stage.fingerprint, plan)
            for stage, plan in zip(exemplar.stages, plans)
        ]
        self._fold_lower(reply.get("lower") or {}, plans)
        self.registry.histogram(
            "service_compile_ms",
            {"cache": outcome},
            buckets=LATENCY_BUCKETS_MS,
        ).observe(
            reply["compile_ms"] if outcome == "miss" else lookup_ms
        )
        self._on_breaker_success(fp, breaker)
        self.registry.counter(
            "service_pool_jobs_total", {"outcome": "ok"}
        ).inc()

        by_id = {item.request_id: item for item in live}
        for result in reply["execs"]:
            item = by_id.pop(result["id"], None)
            if item is not None:
                self._finish(item, result, plans, outcome)
        # Anything the worker did not answer for still gets a response.
        for item in by_id.values():
            self._retry_or_fail(
                item, "worker reply missing this request"
            )

    def _harvest_worker_spans(self, reply: Dict[str, Any]) -> None:
        """Fold the worker's stage spans into this process's tracer
        and the stage histograms (``worker.execute`` → stage
        ``worker_execute`` and so on)."""
        records = reply.get("spans") or []
        if not records:
            return
        tracer = get_tracer()
        for rec in records:
            try:
                if tracer is not None:
                    tracer.add_foreign(rec)
                observe_stage(
                    self.registry,
                    str(rec["name"]).replace(".", "_"),
                    float(rec["dur_us"]) / 1e3,
                )
            except (KeyError, TypeError, ValueError):
                continue  # a malformed span never fails the request

    def _on_breaker_success(
        self, fp: str, breaker: CircuitBreaker
    ) -> None:
        closed = breaker.record_success()
        if closed == BREAKER_CLOSED:
            self._publish_breaker(fp, BREAKER_CLOSED)
