"""The traced run: each layer timed from outside, through its public call.

Three passes split the run's seconds:

1. **routed** — one client through a fresh fabric (as in the untraced
   run); per request line, its median minus the service pass's is the
   router hop, and the router's ``router_dispatch_total`` counters
   give the placement share;
2. **service** — one client through an in-process
   :class:`StencilService` with the nodes' configuration, fed the same
   JSONL lines (``submit_json`` plus reply serialization, as a node
   does);
3. **replay** — the same lines run layer by layer through the public
   calls the service makes, each call wrapped in a bench-side span
   (one trace id per request) on a tracer that is never installed, so
   the program's own spans stay off.

Warm measurements are warm: when a lookup, lowering or input grid is
cold on first use, the call is repeated and the repeat is the warm
sample, while the cold call is reported on its own (``compile_ms``,
``build_ms``) and counts toward the request's node-side time.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import tempfile
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.integration.chaining import intermediate_grid_shape
from repro.lower.engine import CompiledEngine
from repro.lower.program import OP_PUSH
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer, new_span_id, new_trace_id
from repro.service import ServiceConfig, StencilService
from repro.service.executor import (
    compile_plan,
    execute_stencil,
    stage_summaries,
    validate_plan,
    worse_cache_outcome,
)
from repro.service.plancache import PlanCache
from repro.service.proto import Request, Response
from repro.service.workload import plan_workload, request_fingerprint

from endtoend import Fabrics, closed_loop, count_failed, metric, warm_up
from workloads import Answer, Cursor, Golden, Traffic, answer_of

#: Replayed requests written to the trace file (all are timed); keeps
#: the file small enough for Perfetto.
TRACED_REQUESTS = 500


def _digest(row: np.ndarray, final: bool):
    """The executor's reduction: SHA-256 over the C-contiguous float64
    output, plus ``np.mean`` on the final stage."""
    arr = np.ascontiguousarray(row, dtype=np.float64)
    digest = hashlib.sha256(arr.data).hexdigest()
    mean = (float(np.mean(arr)) if arr.size else 0.0) if final else None
    return arr, digest, mean


def _bytes_per_point(programs) -> Tuple[float, float]:
    """Computed and model bytes per final output point.

    *Computed*: 8 B per read and per op result of each stage's
    ``BufferProgram``, per stage output.  *Model* (the paper's): each
    stage reads every input point once and writes every output once.
    Both are summed over stages and divided by the final outputs.
    """
    final = programs[-1].n_outputs
    computed = sum(
        8 * (len(p.reads) + sum(op["op"] not in OP_PUSH for op in p.ops))
        * p.n_outputs
        for p in programs
    )
    model = sum(8 * math.prod(p.grid) + 8 * p.n_outputs for p in programs)
    return computed / final, model / final


class Replay:
    """Runs request lines through the layers' calls, timing each one."""

    def __init__(self, cache_dir: str, tracer: Tracer) -> None:
        self.cache = PlanCache(disk_dir=cache_dir)
        self.engine = CompiledEngine()
        self.tracer = tracer
        #: metric name -> one value per request (or per cold call)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.lookups = 0
        self.misses = 0
        self.requests = 0
        self._grids = set()
        #: (trace id, root span id) while the request in flight is
        #: traced, else None
        self._trace: Optional[Tuple[str, str]] = None

    def _timed(self, name, fn, *args, **kwargs):
        """``(fn(...), µs)``, recorded as one span of this request."""
        start = time.perf_counter_ns()
        out = fn(*args, **kwargs)
        end = time.perf_counter_ns()
        if self._trace is not None:
            trace_id, root = self._trace
            self.tracer.add_complete(
                name, start, end, trace_id=trace_id,
                span_id=new_span_id(), parent_span_id=root,
            )
        return out, (end - start) / 1e3

    def _lookup(self, spec, options, fp):
        compiled = []

        def compile_fn():
            plan, us = self._timed(
                "executor.compile", compile_plan, spec, options, fp
            )
            compiled.append(us / 1e3)
            return plan

        (plan, outcome), us = self._timed(
            "plancache.lookup", self.cache.get_or_compile, fp, compile_fn
        )
        self.lookups += 1
        warm = us
        if outcome != "hit":
            self.misses += 1
            self.samples["executor.compile_ms"] += compiled
            _, warm = self._timed(
                "plancache.lookup", self.cache.get_or_compile, fp,
                compile_fn,
            )
        self.samples["plancache.lookup_us"].append(warm)
        return plan, outcome, us

    def _kernel(self, plan, spec):
        result, us = self._timed(
            "lower.kernel_for", self.engine.kernel_for, plan, spec=spec
        )
        warm = us
        if result.built:
            self.samples["lower.build_ms"].append(
                result.bufferize_ms + result.convert_ms
            )
            _, warm = self._timed(
                "lower.kernel_for", self.engine.kernel_for, plan, spec=spec
            )
        self.samples["lower.kernel_for_us"].append(warm)
        return result.kernel, us

    def _input_grid(self, spec, seed):
        key = (tuple(spec.grid), seed)
        grid, us = self._timed(
            "lower.input_grid", self.engine.input_grid, spec, seed
        )
        warm = us
        if key not in self._grids:
            self._grids.add(key)
            _, warm = self._timed(
                "lower.input_grid", self.engine.input_grid, spec, seed
            )
        self.samples["lower.input_grid_us"].append(warm)
        return grid, us

    def _canary(self, spec, options, plan, seed, digest):
        """The compiled executor's canary: the interpreted golden must
        reproduce the digest, then ``validate_plan`` cycle-simulates."""
        grid, outputs, golden_digest = execute_stencil(spec, seed)
        if golden_digest != digest:
            raise RuntimeError(
                f"compiled {spec.name} digest diverges from the golden"
            )
        validate_plan(spec, options, plan, grid, outputs)

    def request(self, line: str) -> Tuple[Answer, float]:
        """Replay one line; returns its answer and node-side µs."""
        self._trace = None
        if self.requests < TRACED_REQUESTS:
            self._trace = (new_trace_id(), new_span_id())
        self.requests += 1
        begin = time.perf_counter_ns()
        add = self.samples
        req, decode_us = self._timed(
            "proto.decode", lambda: Request.from_json(json.loads(line))
        )
        fp, us = self._timed("fingerprint.route", request_fingerprint, req)
        add["fingerprint.route_us"].append(us)
        planned = None
        if req.workload is None:
            (spec, options), us = self._timed(
                "workload.plan", req.resolve_spec
            )
            stages = [(spec, options, fp)]
        else:
            plan, us = self._timed(
                "workload.plan", plan_workload, req.workload,
                grid=req.grid, streams=req.streams,
            )
            planned = plan.stages
            stages = [(s.spec, s.options, s.fingerprint) for s in planned]
        add["workload.plan_us"].append(us)

        node_us = decode_us
        plans, kernels, cache = [], [], "hit"
        for spec, options, stage_fp in stages:
            plan, outcome, us = self._lookup(spec, options, stage_fp)
            kernel, build_us = self._kernel(plan, spec)
            node_us += us + build_us
            plans.append(plan)
            kernels.append(kernel)
            cache = worse_cache_outcome(cache, outcome)
        current, us = self._input_grid(stages[0][0], req.seed)
        node_us += us

        kernel_us = digest_us = 0.0
        results = []
        for idx, ((spec, _, _), kernel) in enumerate(zip(stages, kernels)):
            row, us = self._timed("lower.kernel", kernel.run, current)
            kernel_us += us
            final = idx + 1 == len(stages)
            (arr, digest, mean), us = self._timed(
                "executor.digest", _digest, row, final
            )
            digest_us += us
            results.append((arr, digest))
            if not final:
                current = arr.reshape(intermediate_grid_shape(spec))
        node_us += kernel_us + digest_us

        validated = None
        if req.validate:
            if len(stages) != 1:
                raise ValueError("the replay validates single kernels only")
            spec, options, _ = stages[0]
            _, us = self._timed(
                "executor.validate", self._canary, spec, options, plans[0],
                req.seed, results[0][1],
            )
            add["executor.validate_ms"].append(us / 1e3)
            node_us += us
            validated = True

        arr, digest = results[-1]
        response = Response(
            id=req.id,
            status="ok",
            benchmark="->".join(s[0].name for s in stages),
            fingerprint=fp,
            latency_ms=(time.perf_counter_ns() - begin) / 1e6,
            attempts=1,
            cache=cache,
            n_outputs=int(arr.size),
            mean=mean,
            checksum=digest[:16],
            validated=validated,
            summary=plans[-1].summary,
            stages=(
                stage_summaries(planned, results)
                if planned is not None and len(planned) > 1
                else None
            ),
        )
        _, encode_us = self._timed(
            "proto.encode", lambda: json.dumps(response.to_json())
        )
        node_us += encode_us
        if self._trace is not None:
            self.tracer.add_complete(
                "request", begin, time.perf_counter_ns(),
                trace_id=self._trace[0], span_id=self._trace[1],
                stages=len(stages),
            )

        computed, model = _bytes_per_point([k.program for k in kernels])
        add["proto.decode_us"].append(decode_us)
        add["proto.encode_us"].append(encode_us)
        add["lower.kernel_us"].append(kernel_us)
        add["executor.digest_us"].append(digest_us)
        add["workload.stages"].append(len(stages))
        add["kernel.computed_bytes_per_point"].append(computed)
        add["kernel.model_bytes_per_point"].append(model)
        return answer_of(response), node_us


def _routed_pass(fabrics: Fabrics, traffic: Traffic, seconds: float):
    registry = MetricsRegistry()
    router, _ = fabrics.start(traffic.warmup, registry=registry)

    def dispatched():
        return [
            registry.counter("router_dispatch_total", {"node": str(i)}).value
            for i in range(router.config.nodes)
        ]

    try:
        before = dispatched()
        samples, _ = closed_loop(router.submit_json, traffic, seconds, 1)
        per_node = [b - a for a, b in zip(before, dispatched())]
    finally:
        fabrics.close_later(router)
    return samples, max(per_node) / sum(per_node)


def _service_pass(traffic: Traffic, seconds: float, workdir: str):
    config = ServiceConfig(
        workers=1,
        backend="compiled",
        converter="numpy",
        cache_dir=tempfile.mkdtemp(prefix="cache-", dir=workdir),
    )
    with StencilService(config, registry=MetricsRegistry()) as service:
        warm_up(service.submit_json, traffic.warmup)
        samples, _ = closed_loop(service.submit_json, traffic, seconds, 1)
    return samples


def _replay_pass(traffic, seconds, workdir, tracer):
    replay = Replay(tempfile.mkdtemp(prefix="cache-", dir=workdir), tracer)
    cursor = Cursor(traffic)
    # A warm stream replays every distinct line at least once, so each
    # fingerprint's cold calls are in the sample.
    least = len(traffic.lines) if traffic.repeat else 1
    replayed = []
    deadline = time.perf_counter() + seconds
    while True:
        line = cursor.next()
        if line is None:
            break
        replayed.append((line, *replay.request(line)))
        if time.perf_counter() >= deadline and len(replayed) >= least:
            break
    return replay, replayed


def _per_line_us(samples) -> Dict[str, float]:
    """Median µs per distinct line of ``(line, µs)`` pairs."""
    by_line = defaultdict(list)
    for line, us in samples:
        by_line[line].append(us)
    return {line: statistics.median(v) for line, v in by_line.items()}


def _gap_us(minuend: Dict[str, float], subtrahend: Dict[str, float]):
    """Median over shared lines of the per-line difference, and the
    number of lines.  Pairing by line keeps a workload that mixes a
    cheap and a costly request from differencing unrelated medians."""
    shared = minuend.keys() & subtrahend.keys()
    gaps = [minuend[line] - subtrahend[line] for line in shared]
    return statistics.median(gaps), len(gaps)


def _latencies_us(samples):
    return [(line, s * 1e6) for line, s, _ in samples if s is not None]


def run(
    traffic: Traffic,
    seconds: float,
    fabrics: Fabrics,
    golden: Golden,
    trace_path: str,
) -> dict:
    """One traced run; returns the per-layer metrics."""
    tracer = Tracer(name=f"e2e-{traffic.name}")
    share = seconds / 3
    routed, dispatch_share = _routed_pass(fabrics, traffic, share)
    served = _service_pass(traffic, share, fabrics.workdir)
    replay, replayed = _replay_pass(traffic, share, fabrics.workdir, tracer)
    tracer.export_chrome(trace_path)

    failed = count_failed(routed, golden) + count_failed(served, golden)
    failed += sum(answer != golden(line) for line, answer, _ in replayed)
    attempted = len(routed) + len(served) + len(replayed)

    samples = replay.samples
    served_us = _latencies_us(served)
    service = _per_line_us(served_us)
    unattributed, n_unattributed = _gap_us(
        service, _per_line_us((line, us) for line, _, us in replayed)
    )
    hop, n_hop = _gap_us(_per_line_us(_latencies_us(routed)), service)

    def med(name: str, unit: str) -> dict:
        return metric(
            statistics.median(samples[name]), unit, len(samples[name])
        )

    metrics = {
        "proto.decode_us": med("proto.decode_us", "us"),
        "proto.encode_us": med("proto.encode_us", "us"),
        "fingerprint.route_us": med("fingerprint.route_us", "us"),
        "plancache.lookup_us": med("plancache.lookup_us", "us"),
        "lower.kernel_for_us": med("lower.kernel_for_us", "us"),
        "service.request_us": metric(
            statistics.median(us for _, us in served_us), "us",
            len(served_us),
        ),
        "service.unattributed_us": metric(unattributed, "us", n_unattributed),
        "router.hop_us": metric(hop, "us", n_hop),
        "router.dispatch_share_max": metric(
            dispatch_share, "fraction", len(routed)
        ),
        "workload.plan_us": med("workload.plan_us", "us"),
        "workload.stages": med("workload.stages", "count"),
        "lower.input_grid_us": med("lower.input_grid_us", "us"),
        "lower.kernel_us": med("lower.kernel_us", "us"),
        "executor.digest_us": med("executor.digest_us", "us"),
        "kernel.computed_bytes_per_point": med(
            "kernel.computed_bytes_per_point", "B"
        ),
        "kernel.model_bytes_per_point": med(
            "kernel.model_bytes_per_point", "B"
        ),
        "executor.compile_ms": med("executor.compile_ms", "ms"),
        "lower.build_ms": med("lower.build_ms", "ms"),
        "plancache.miss_ratio": metric(
            replay.misses / replay.lookups, "fraction", replay.lookups
        ),
    }
    if samples["executor.validate_ms"]:
        metrics["executor.validate_ms"] = med("executor.validate_ms", "ms")
    return {"metrics": metrics, "attempted": attempted, "failed": failed}
