"""Service throughput — the repro.service layer under a mixed load.

Not a paper artifact; it tracks the serving layer's own engineering:
end-to-end requests per second over the full benchmark suite, the
cold-compile vs warm cache-hit cost split, and the cache hit rate.
Besides the harness's automatic ``BENCH_bench_service_throughput.json``
record, this bench writes a dedicated
``benchmarks/results/BENCH_service_throughput.json`` with the derived
throughput numbers.
"""

import gc
import json
import os
import statistics
import tempfile
import threading
import time

from conftest import emit

from repro.obs.metrics import MetricsRegistry
from repro.service import ServiceConfig, StencilService

#: Reduced grids: execution stays sub-millisecond, so the bench mostly
#: measures the serving machinery (queue, cache, batching) itself.
SERVICE_GRIDS = {
    "DENOISE": (24, 32),
    "RICIAN": (24, 32),
    "SOBEL": (20, 24),
    "BICUBIC": (22, 26),
    "DENOISE_3D": (8, 9, 10),
    "SEGMENTATION_3D": (8, 9, 10),
}

N_REQUESTS = 240

#: Warm backend comparison: one hot fingerprint on a grid large enough
#: that per-request execution dominates the serving machinery.  RICIAN
#: has the widest interpreted-vs-vectorized gap of the paper suite (a
#: short op chain over 4 reads, so the compiled kernel is almost pure
#: ndarray traffic while the interpreted golden path still boxes every
#: output into a Python float).
WARM_BACKEND_SPEC = ("RICIAN", (224, 256))
WARM_BACKEND_SEEDS = 2
WARM_BACKEND_CLIENTS = 4
WARM_BACKEND_REQUESTS = {"interpreted": 48, "compiled": 480}
#: Interleaved timed pairs (one interpreted pass, one compiled pass)
#: of the backend comparison.
WARM_BACKEND_PAIRS = 5
#: The compiled backend's contract from the lowering PR: >= 10x warm
#: requests-per-second over the interpreted path on the spec above,
#: as the median compiled/interpreted ratio over the interleaved pairs.
MIN_COMPILED_SPEEDUP = 10.0
#: The compiled side's own guard, which a faster interpreted path
#: cannot loosen: the service's best compiled warm rps must reach this
#: share of the compiled path's bare work rate — one kernel run, the
#: SHA-256 digest and the mean per request, timed outside the service
#: once it has closed (0.68-0.97 on a 2-vCPU Xeon).
MIN_COMPILED_WORK_SHARE = 0.6

#: Mixed compiled-coverage workload: multi-stream partitions and
#: gather-heavy skewed domains ride along with plain box requests, and
#: at least this share must execute compiled (the fallback set is
#: supposed to be ~empty now).
COVERAGE_REQUESTS = 96
MIN_COMPILED_SHARE = 0.95

#: Per-converter warm comparison (compiled backend, same checksums):
#: the generated-C kernels must beat the NumPy converter's warm rps on
#: at least one benchmark.
CONVERTER_SPECS = {
    "SOBEL": (224, 256),
    "RICIAN": (224, 256),
}
CONVERTER_REQUESTS = 240

#: proto:2 workload contract: a warm t-step iterate workload (one
#: round trip, intermediates server-side) vs the same chain driven by
#: the client as t sequential per-step requests.
ITERATE_STEPS = 8
ITERATE_GRID = (24, 28)
ITERATE_ROUNDS = 24
MIN_ITERATE_SPEEDUP = 3.0
WORKLOAD_MIX_REQUESTS = 48


def _warm_backend_requests(n):
    name, grid = WARM_BACKEND_SPEC
    return [
        {
            "proto": 1,
            "id": f"warm-{k}",
            "benchmark": name,
            "grid": list(grid),
            "seed": k % WARM_BACKEND_SEEDS,
            "timeout_s": 300.0,
        }
        for k in range(n)
    ]


class _WarmBackend:
    """One execution backend's warm service, timed pass by pass.

    A single worker keeps the measurement clean on small hosts (no
    GIL convoy between workers); the warm-up compiles the plan, lowers
    it (compiled backend) and pins the per-seed checksums that every
    timed reply must then reproduce — the bench doubles as a backend
    differential test.  Concurrent submitter threads keep the worker's
    pipeline full (a submit-wait-submit loop would leave it idle
    between waves).
    """

    def __init__(self, backend):
        self.backend = backend
        self.n = WARM_BACKEND_REQUESTS[backend]
        self.svc = StencilService(
            ServiceConfig(
                workers=1, max_queue=64, max_batch=16, backend=backend
            ),
            registry=MetricsRegistry(),
        ).start()
        self.checksums = {}
        for req in _warm_backend_requests(WARM_BACKEND_SEEDS):
            reply = self.svc.handle(req, wait_timeout=300.0)
            assert reply.status == "ok"
            self.checksums[req["seed"]] = reply.checksum
        self.rps = []
        self.wall_s = None

    def timed_pass(self):
        """One timed pass of ``n`` requests; returns its rps."""
        failures = []

        def client(requests):
            for req in requests:
                reply = self.svc.submit(req).result(300.0)
                if (
                    reply.status != "ok"
                    or reply.checksum != self.checksums[req["seed"]]
                ):
                    failures.append((req["id"], reply.to_json()))
                    return

        requests = _warm_backend_requests(self.n)
        shard = (self.n + WARM_BACKEND_CLIENTS - 1) // WARM_BACKEND_CLIENTS
        gc.collect()  # start each timed pass from a clean heap
        threads = [
            threading.Thread(
                target=client,
                args=(requests[k * shard:(k + 1) * shard],),
            )
            for k in range(WARM_BACKEND_CLIENTS)
        ]
        started = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        self.wall_s = time.perf_counter() - started
        assert not failures, failures[:2]
        self.rps.append(self.n / self.wall_s)
        return self.rps[-1]

    def close(self):
        self.svc.shutdown()

    def record(self):
        return {
            "backend": self.backend,
            "requests": self.n,
            "workers": 1,
            "clients": WARM_BACKEND_CLIENTS,
            "wall_s": round(self.wall_s, 6),
            "warm_rps": round(max(self.rps), 2),
            "pass_rps": [round(rps, 2) for rps in self.rps],
            "checksums": self.checksums,
        }


def _warm_backend_passes(pairs=WARM_BACKEND_PAIRS):
    """Both backends' warm records and the compiled/interpreted rps
    ratio of each interleaved pair of timed passes.

    The two services run side by side and their passes alternate
    (which backend goes first alternates too), so both sides of a
    ratio see the same host phase; a slow phase minutes apart cannot
    land in it.
    """
    sides = {
        name: _WarmBackend(name) for name in ("interpreted", "compiled")
    }
    ratios = []
    try:
        for k in range(pairs):
            order = ["interpreted", "compiled"]
            if k % 2:
                order.reverse()
            rps = {name: sides[name].timed_pass() for name in order}
            ratios.append(rps["compiled"] / rps["interpreted"])
    finally:
        for side in sides.values():
            side.close()
    records = {name: side.record() for name, side in sides.items()}
    # After the services are gone, so the timer disturbs no pass.
    compiled = records["compiled"]
    work_rps = _compiled_work_timer(compiled["requests"])
    work = max(work_rps() for _ in range(3))
    compiled["work_rps"] = round(work, 2)
    compiled["work_share"] = round(compiled["warm_rps"] / work, 3)
    return records, ratios


def _compiled_work_timer(n):
    """A callable timing the compiled path's bare work outside the
    service: ``n`` requests of one kernel run on the cached input grid,
    the SHA-256 digest of the output and its mean, as requests per
    second.  The serving machinery and the execution core add their
    cost on top of this; nothing on the interpreted side moves it."""
    import hashlib

    import numpy as np

    from repro.lower.engine import CompiledEngine
    from repro.service.executor import compile_plan
    from repro.service.fingerprint import CompileOptions, fingerprint
    from repro.stencil.kernels import BENCHMARKS_BY_NAME

    name, grid = WARM_BACKEND_SPEC
    spec = BENCHMARKS_BY_NAME[name].with_grid(grid)
    options = CompileOptions()
    plan = compile_plan(spec, options, fingerprint(spec, options))
    engine = CompiledEngine()
    kernel = engine.kernel_for(plan, spec=spec).kernel
    grids = [
        engine.input_grid(spec, seed) for seed in range(WARM_BACKEND_SEEDS)
    ]

    def rps():
        gc.collect()
        started = time.perf_counter()
        for k in range(n):
            out = np.ascontiguousarray(
                kernel.run(grids[k % len(grids)]), dtype=np.float64
            )
            hashlib.sha256(out.data).hexdigest()
            float(np.mean(out))
        return n / (time.perf_counter() - started)

    return rps


def _warm_converter_pass(name, grid, converter, passes=3):
    """Warm same-fingerprint throughput of one compiled converter."""
    config = ServiceConfig(
        workers=1,
        max_queue=64,
        max_batch=16,
        backend="compiled",
        converter=converter,
    )
    n = CONVERTER_REQUESTS

    def make_requests(count):
        return [
            {
                "proto": 1,
                "id": f"conv-{k}",
                "benchmark": name,
                "grid": list(grid),
                "seed": k % WARM_BACKEND_SEEDS,
                "timeout_s": 300.0,
            }
            for k in range(count)
        ]

    checksums = {}
    best_rps = 0.0
    wall_s = None
    registry = MetricsRegistry()
    with StencilService(config, registry=registry) as svc:
        for req in make_requests(WARM_BACKEND_SEEDS):
            reply = svc.handle(req, wait_timeout=300.0)
            assert reply.status == "ok"
            checksums[req["seed"]] = reply.checksum

        failures = []

        def client(requests):
            for req in requests:
                reply = svc.submit(req).result(300.0)
                if (
                    reply.status != "ok"
                    or reply.checksum != checksums[req["seed"]]
                ):
                    failures.append((req["id"], reply.to_json()))
                    return

        for _ in range(passes):
            requests = make_requests(n)
            shard = (
                n + WARM_BACKEND_CLIENTS - 1
            ) // WARM_BACKEND_CLIENTS
            gc.collect()
            threads = [
                threading.Thread(
                    target=client,
                    args=(requests[k * shard:(k + 1) * shard],),
                )
                for k in range(WARM_BACKEND_CLIENTS)
            ]
            started = time.perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            wall_s = time.perf_counter() - started
            assert not failures, failures[:2]
            best_rps = max(best_rps, n / wall_s)
        counters = registry.snapshot()["counters"]
    used = {
        key.split('converter="')[1].rstrip('"}'): int(value)
        for key, value in counters.items()
        if key.startswith("service_lower_converter_total{")
    }
    return {
        "converter": converter,
        "converter_used": used,
        "requests": n,
        "wall_s": round(wall_s, 6),
        "warm_rps": round(best_rps, 2),
        "checksums": checksums,
    }


def _converter_comparison():
    """Warm rps per converter per benchmark (same checksums), plus the
    C-over-NumPy speedups the acceptance contract reads."""
    out = {}
    speedups = {}
    for name, grid in sorted(CONVERTER_SPECS.items()):
        passes = {
            conv: _warm_converter_pass(name, grid, conv)
            for conv in ("numpy", "c")
        }
        # Bit identity across converters: the C kernels must answer
        # with the NumPy converter's exact checksums.
        assert (
            passes["numpy"]["checksums"] == passes["c"]["checksums"]
        ), f"{name}: converters disagree on checksums"
        for record in passes.values():
            record.pop("checksums")
        speedup = round(
            passes["c"]["warm_rps"] / passes["numpy"]["warm_rps"], 3
        )
        speedups[name] = speedup
        out[name] = {
            "grid": list(grid),
            "numpy": passes["numpy"],
            "c": passes["c"],
            "c_speedup": speedup,
        }
    return out, speedups


def _coverage_requests(n):
    """Mixed workload over the previously-fallback shapes: rotating
    1/2/3-stream partitions of the box suite plus gather-heavy skewed
    parallelogram domains."""
    from repro.stencil import skewed_denoise

    names = sorted(SERVICE_GRIDS)
    skewed = [
        skewed_denoise(12, 16).to_json(),
        skewed_denoise(16, 20).to_json(),
    ]
    requests = []
    for k in range(n):
        if k % 4 == 3:
            requests.append(
                {
                    "proto": 1,
                    "id": f"cov-{k}",
                    "spec": skewed[k % len(skewed)],
                    "seed": k % 5,
                    "timeout_s": 300.0,
                }
            )
            continue
        name = names[k % len(names)]
        req = {
            "proto": 1,
            "id": f"cov-{k}",
            "benchmark": name,
            "grid": list(SERVICE_GRIDS[name]),
            "seed": k % 5,
            "timeout_s": 300.0,
        }
        streams = 1 + (k % 3)
        if streams > 1:
            req["streams"] = streams
        requests.append(req)
    return requests


def _compiled_coverage_pass():
    """The satellite ratchet: a compiled service fed the shapes that
    used to fall back (multi-stream, oversized gather) must keep its
    compiled share >= MIN_COMPILED_SHARE while answering the
    interpreted path's exact checksums."""
    from repro.service.executor import execute_stencil
    from repro.stencil import skewed_denoise
    from repro.stencil.kernels import BENCHMARKS_BY_NAME
    from repro.stencil.spec import StencilSpec

    registry = MetricsRegistry()
    config = ServiceConfig(
        workers=4,
        max_queue=64,
        max_batch=16,
        backend="compiled",
        # Low chunking threshold: the small skewed domains above it
        # exercise the chunked gather replay, not just the eager table.
        gather_limit=256,
    )
    requests = _coverage_requests(COVERAGE_REQUESTS)

    expected = {}

    def expected_checksum(req):
        if "spec" in req:
            spec = StencilSpec.from_json(req["spec"])
        else:
            spec = BENCHMARKS_BY_NAME[req["benchmark"]].with_grid(
                tuple(req["grid"])
            )
        key = (spec.name, tuple(spec.grid), req["seed"])
        if key not in expected:
            _, _, digest = execute_stencil(spec, req["seed"])
            expected[key] = digest[:16]
        return expected[key]

    started = time.perf_counter()
    with StencilService(config, registry=registry) as svc:
        slots = [svc.submit(req) for req in requests]
        replies = [slot.result(300.0) for slot in slots]
    wall_s = time.perf_counter() - started
    assert all(r.status == "ok" for r in replies)
    for req, reply in zip(requests, replies):
        assert reply.checksum == expected_checksum(req), (
            req["id"],
            reply.to_json(),
        )

    counters = registry.snapshot()["counters"]
    compiled = int(
        counters.get(
            'service_lower_requests_total{path="compiled"}', 0
        )
    )
    fallback = int(
        counters.get(
            'service_lower_requests_total{path="fallback"}', 0
        )
    )
    reasons = {
        key.split('reason="')[1].rstrip('"}'): int(value)
        for key, value in counters.items()
        if key.startswith("service_lower_fallback_total{")
    }
    share = (
        compiled / (compiled + fallback)
        if compiled + fallback
        else None
    )
    record = {
        "requests": COVERAGE_REQUESTS,
        "wall_s": round(wall_s, 6),
        "requests_per_s": round(COVERAGE_REQUESTS / wall_s, 2),
        "compiled_requests": compiled,
        "fallback_requests": fallback,
        "fallback_reasons": reasons,
        "compiled_share": round(share, 4) if share is not None else None,
        "converter_fallbacks": int(
            counters.get("service_lower_converter_fallback_total", 0)
        ),
    }
    assert share is not None and share >= MIN_COMPILED_SHARE, (
        f"compiled share {share} below the {MIN_COMPILED_SHARE} "
        f"ratchet: {record}"
    )
    return record


def _iterate_vs_roundtrips_pass():
    """The iterate-workload ratchet: one warm iterate(t) request must
    finish the t-step chain >= MIN_ITERATE_SPEEDUP x faster than the
    client driving the same chain as t sequential per-step requests.

    Both paths hit the same warm plan cache and the same compiled
    kernels; the iterate request wins by paying one round trip
    (admission queue, batching, slot wakeup) instead of t, and by
    keeping the intermediates server-side.  One worker keeps the
    measurement clean; the baseline is inherently sequential because
    step k+1's input is step k's output.
    """
    from repro.integration.chaining import intermediate_grid_shape
    from repro.stencil.kernels import DENOISE

    config = ServiceConfig(
        workers=1, max_queue=64, max_batch=16, backend="compiled"
    )
    iterate_wire = {
        "proto": 2,
        "workload": {
            "kind": "iterate",
            "benchmark": "DENOISE",
            "steps": ITERATE_STEPS,
        },
        "grid": list(ITERATE_GRID),
        "timeout_s": 300.0,
    }
    spec = DENOISE.with_grid(ITERATE_GRID)
    step_specs = []
    for _ in range(ITERATE_STEPS):
        step_specs.append(spec.to_json())
        spec = spec.with_grid(intermediate_grid_shape(spec))

    with StencilService(config, registry=MetricsRegistry()) as svc:
        # Warm-up: compile + lower every per-step fingerprint once.
        warm = svc.handle(dict(iterate_wire), wait_timeout=300.0)
        assert warm.status == "ok"
        stage_checksums = [s["checksum"] for s in warm.stages]
        for spec_json in step_specs:
            reply = svc.handle(
                {"proto": 1, "spec": spec_json, "timeout_s": 300.0},
                wait_timeout=300.0,
            )
            assert reply.status == "ok"
        # The baseline's step-0 request answers the iterate workload's
        # stage-0 digest — same kernel, same seeded input.
        first = svc.handle(
            {"proto": 1, "spec": step_specs[0], "timeout_s": 300.0},
            wait_timeout=300.0,
        )
        assert first.checksum == stage_checksums[0]

        gc.collect()
        started = time.perf_counter()
        for k in range(ITERATE_ROUNDS):
            req = dict(iterate_wire)
            req["seed"] = k % 5
            reply = svc.submit(req).result(300.0)
            assert reply.status == "ok"
        iterate_wall = time.perf_counter() - started

        gc.collect()
        started = time.perf_counter()
        for k in range(ITERATE_ROUNDS):
            for spec_json in step_specs:
                reply = svc.submit({
                    "proto": 1,
                    "spec": spec_json,
                    "seed": k % 5,
                    "timeout_s": 300.0,
                }).result(300.0)
                assert reply.status == "ok"
        baseline_wall = time.perf_counter() - started

    speedup = round(baseline_wall / iterate_wall, 3)
    record = {
        "steps": ITERATE_STEPS,
        "grid": list(ITERATE_GRID),
        "chains": ITERATE_ROUNDS,
        "iterate_wall_s": round(iterate_wall, 6),
        "iterate_chains_per_s": round(ITERATE_ROUNDS / iterate_wall, 2),
        "roundtrip_wall_s": round(baseline_wall, 6),
        "roundtrip_chains_per_s": round(
            ITERATE_ROUNDS / baseline_wall, 2
        ),
        "speedup": speedup,
    }
    assert speedup >= MIN_ITERATE_SPEEDUP, (
        f"warm iterate workload only {speedup}x over client round "
        f"trips (contract {MIN_ITERATE_SPEEDUP}x): {record}"
    )
    return record


def _workload_mix_pass():
    """Mixed proto:2 traffic on the compiled backend: iterate chains,
    two-kernel graphs and classic singles interleaved.  Every reply is
    checked against a local golden replay of its planned stages, and
    the compiled share must stay over the MIN_COMPILED_SHARE ratchet
    (pipelines lower all-or-nothing, so one refusing stage would show
    up here immediately)."""
    from repro.service.executor import execute_pipeline
    from repro.service.workload import Workload, plan_workload

    registry = MetricsRegistry()
    config = ServiceConfig(
        workers=4, max_queue=64, max_batch=16, backend="compiled"
    )
    shapes = [
        (
            {
                "kind": "iterate",
                "benchmark": "DENOISE",
                "steps": 4,
            },
            (20, 24),
        ),
        (
            {
                "kind": "graph",
                "nodes": [
                    {"id": "den", "benchmark": "DENOISE"},
                    {"id": "ric", "benchmark": "RICIAN"},
                ],
                "edges": [["den", "ric"]],
            },
            (20, 24),
        ),
        ({"kind": "single", "benchmark": "SOBEL"}, (20, 24)),
    ]
    requests = []
    for k in range(WORKLOAD_MIX_REQUESTS):
        workload, grid = shapes[k % len(shapes)]
        requests.append({
            "id": f"wl-{k}",
            "proto": 2,
            "workload": workload,
            "grid": list(grid),
            "seed": k % 5,
            "timeout_s": 300.0,
        })

    expected = {}

    def expected_checksum(req):
        key = (req["seed"], json.dumps(req["workload"], sort_keys=True))
        if key not in expected:
            plan = plan_workload(
                Workload.from_json(req["workload"]),
                grid=tuple(req["grid"]),
            )
            _, results = execute_pipeline(plan.stages, req["seed"])
            expected[key] = results[-1][1][:16]
        return expected[key]

    started = time.perf_counter()
    with StencilService(config, registry=registry) as svc:
        slots = [svc.submit(req) for req in requests]
        replies = [slot.result(300.0) for slot in slots]
    wall_s = time.perf_counter() - started
    assert all(r.status == "ok" for r in replies)
    for req, reply in zip(requests, replies):
        assert reply.checksum == expected_checksum(req), (
            req["id"],
            reply.to_json(),
        )

    counters = registry.snapshot()["counters"]
    compiled = int(
        counters.get(
            'service_lower_requests_total{path="compiled"}', 0
        )
    )
    fallback = int(
        counters.get(
            'service_lower_requests_total{path="fallback"}', 0
        )
    )
    share = (
        compiled / (compiled + fallback) if compiled + fallback else None
    )
    kinds = {
        key.split('kind="')[1].rstrip('"}'): int(value)
        for key, value in counters.items()
        if key.startswith("service_workload_requests_total{")
    }
    record = {
        "requests": WORKLOAD_MIX_REQUESTS,
        "wall_s": round(wall_s, 6),
        "requests_per_s": round(WORKLOAD_MIX_REQUESTS / wall_s, 2),
        "kinds": kinds,
        "stages": int(
            counters.get("service_workload_stages_total", 0)
        ),
        "compiled_requests": compiled,
        "fallback_requests": fallback,
        "compiled_share": round(share, 4) if share is not None else None,
    }
    assert share is not None and share >= MIN_COMPILED_SHARE, (
        f"workload-mix compiled share {share} below the "
        f"{MIN_COMPILED_SHARE} ratchet: {record}"
    )
    return record


def _mixed_requests(n):
    names = sorted(SERVICE_GRIDS)
    return [
        {
            "proto": 1,
            "id": f"bench-{k}",
            "benchmark": names[k % len(names)],
            "grid": list(SERVICE_GRIDS[names[k % len(names)]]),
            "seed": k % 11,
            "timeout_s": 300.0,
        }
        for k in range(n)
    ]


def _hist_mean(snapshot, key):
    hist = snapshot["histograms"].get(key)
    if not hist or not hist["count"]:
        return None
    return hist["sum"] / hist["count"]


def _distinct_cold_requests(n):
    """``n`` distinct fingerprints (grid size is part of the hash).

    Every request compiles *and* cycle-validates: validation is the
    pure-Python, GIL-bound part of a cold request, so this is where
    crash-isolated worker processes buy real parallelism over
    threads.
    """
    return [
        {
            "proto": 1,
            "id": f"cold-{k}",
            "benchmark": "DENOISE",
            "grid": [36, 48 + 2 * k],
            "validate": True,
            "timeout_s": 300.0,
        }
        for k in range(n)
    ]


def _cold_compile_mode(worker_mode, n=12, workers=4):
    """Cold compile-and-validate throughput of one executor back end."""
    config = ServiceConfig(
        workers=workers,
        max_queue=64,
        max_batch=4,
        worker_mode=worker_mode,
        canary_cell_limit=100_000,
    )
    requests = _distinct_cold_requests(n)
    started = time.perf_counter()
    with StencilService(config, registry=MetricsRegistry()) as svc:
        slots = [svc.submit(req) for req in requests]
        replies = [slot.result(300.0) for slot in slots]
    wall_s = time.perf_counter() - started
    assert all(r.status == "ok" for r in replies)
    return {
        "requests": n,
        "workers": workers,
        "wall_s": round(wall_s, 6),
        "requests_per_s": round(n / wall_s, 2),
    }


def _disk_restart_pass(cache_dir):
    """A restarted service over a warm disk tier: all promotions."""
    registry = MetricsRegistry()
    config = ServiceConfig(
        workers=4, max_queue=64, cache_dir=cache_dir
    )
    with StencilService(config, registry=registry) as svc:
        replies = [
            svc.handle(
                {
                    "proto": 1,
                    "benchmark": name,
                    "grid": list(SERVICE_GRIDS[name]),
                    "timeout_s": 300.0,
                },
                wait_timeout=300.0,
            )
            for name in sorted(SERVICE_GRIDS)
        ]
        stats = svc.cache.stats
        counters = registry.snapshot()["counters"]
    assert all(r.status == "ok" for r in replies)
    return {
        "disk_lookups": stats.disk_lookups,
        "disk_hits": stats.disk_hits,
        "disk_hit_rate": stats.disk_hit_rate(),
        "promotions": counters.get(
            "service_cache_disk_promotions_total", 0
        ),
        "corrupt_files": stats.corrupt_files,
    }


def bench_service_throughput():
    # Backend comparison first, while the process heap is still clean:
    # the mixed-load and cold-compile sections below churn enough
    # garbage to shave ~10-15% off the compiled pass if it runs last.
    backend_passes, pair_speedups = _warm_backend_passes()
    # Bit-identity across backends is part of the comparison: the same
    # seeds must produce the same checksums before the speedup means
    # anything.
    assert (
        backend_passes["interpreted"]["checksums"]
        == backend_passes["compiled"]["checksums"]
    )
    backend_checksums = backend_passes["interpreted"].pop("checksums")
    backend_passes["compiled"].pop("checksums")
    compiled_speedup = round(statistics.median(pair_speedups), 2)
    converter_passes, converter_speedups = _converter_comparison()
    coverage = _compiled_coverage_pass()
    iterate_record = _iterate_vs_roundtrips_pass()
    workload_mix = _workload_mix_pass()

    registry = MetricsRegistry()
    cache_dir = tempfile.mkdtemp(prefix="repro-bench-cache-")
    config = ServiceConfig(
        workers=8,
        max_queue=64,
        max_batch=16,
        validate_every=50,
        cache_dir=cache_dir,
    )
    requests = _mixed_requests(N_REQUESTS)

    started = time.perf_counter()
    with StencilService(config, registry=registry) as service:
        slots = [service.submit(req) for req in requests]
        replies = [slot.result(300.0) for slot in slots]
        cache_stats = service.cache.stats
    wall_s = time.perf_counter() - started

    assert len(replies) == N_REQUESTS
    assert all(r.status == "ok" for r in replies)

    snap = registry.snapshot()
    counters = snap["counters"]
    gauges = snap["gauges"]
    hits = counters.get('service_cache_total{outcome="hit"}', 0)
    misses = counters.get('service_cache_total{outcome="miss"}', 0)
    coalesced = counters.get(
        'service_cache_total{outcome="coalesced"}', 0
    )
    lookups = hits + misses + coalesced
    modes = {
        "thread": _cold_compile_mode("thread"),
        "process": _cold_compile_mode("process"),
    }
    record = {
        "bench": "service_throughput",
        "requests": N_REQUESTS,
        "wall_s": round(wall_s, 6),
        "requests_per_s": round(N_REQUESTS / wall_s, 2),
        "cache": {
            "hit": hits,
            "miss": misses,
            "coalesced": coalesced,
            "hit_rate": round(hits / lookups, 4) if lookups else None,
            "entries": gauges.get("service_cache_entries", 0),
            "bytes": gauges.get("service_cache_bytes", 0),
            "evictions": counters.get(
                "service_cache_evictions_total", 0
            ),
            "disk_lookups": cache_stats.disk_lookups,
            "disk_hit_rate": cache_stats.disk_hit_rate(),
            "disk_corrupt_files": cache_stats.corrupt_files,
        },
        "disk_restart": _disk_restart_pass(cache_dir),
        "cold_compile_ms_mean": _hist_mean(
            snap, 'service_compile_ms{cache="miss"}'
        ),
        "warm_hit_ms_mean": _hist_mean(
            snap, 'service_compile_ms{cache="hit"}'
        ),
        "latency_ms_mean": _hist_mean(snap, "service_request_latency_ms"),
        "validations": counters.get("service_validation_total", 0),
        # Cold-compile scaling: distinct fingerprints so every request
        # pays a compile plus a GIL-bound cycle validation; the
        # process pool spreads them across cores while the thread
        # pool contends on the GIL.  Recorded, not asserted — a
        # single-core host cannot show a speedup.
        "cpus": os.cpu_count(),
        "cold_compile_modes": modes,
        "process_vs_thread_speedup": round(
            modes["process"]["requests_per_s"]
            / modes["thread"]["requests_per_s"],
            3,
        ),
        # Warm execution-backend comparison (same fingerprint, same
        # seeds, same checksums): the compiled bufferize->convert
        # kernels vs the interpreted golden path.
        "backends": {
            "benchmark": WARM_BACKEND_SPEC[0],
            "grid": list(WARM_BACKEND_SPEC[1]),
            "interpreted": backend_passes["interpreted"],
            "compiled": backend_passes["compiled"],
            "checksums": backend_checksums,
            # The gated figure: the median of the interleaved pairs.
            "speedup": compiled_speedup,
            "pair_speedups": [round(r, 2) for r in pair_speedups],
        },
        # Per-converter warm comparison under backend="compiled": the
        # generated-C kernels vs the vectorized NumPy replay, same
        # fingerprints, same checksums.
        "converters": converter_passes,
        # Mixed multi-stream + gather-heavy workload: per-reason
        # fallback counts and the compiled-share ratchet.
        "compiled_coverage": coverage,
        # proto:2 workloads: the warm iterate-vs-round-trips ratchet
        # and the mixed single/iterate/graph compiled-share pass.
        "iterate_workload": iterate_record,
        "workload_mix": workload_mix,
    }
    assert record["cache"]["miss"] == len(SERVICE_GRIDS)
    assert record["disk_restart"]["promotions"] == len(SERVICE_GRIDS)
    assert compiled_speedup >= MIN_COMPILED_SPEEDUP, (
        f"compiled backend median pair speedup {compiled_speedup}x "
        f"is below "
        f"the {MIN_COMPILED_SPEEDUP}x contract: {record['backends']}"
    )
    work_share = backend_passes["compiled"]["work_share"]
    assert work_share >= MIN_COMPILED_WORK_SHARE, (
        f"compiled service reached only {work_share} of its bare work "
        f"rate (guard {MIN_COMPILED_WORK_SHARE}): {record['backends']}"
    )
    from repro.lower.convert_c import c_toolchain

    if c_toolchain() is not None:
        # The C converter must actually win somewhere, or it is dead
        # weight.  (Without a toolchain it degrades to NumPy and the
        # speedups hover at ~1.0 — recorded, not asserted.)
        assert any(s >= 1.0 for s in converter_speedups.values()), (
            f"C converter beat NumPy nowhere: {converter_speedups}"
        )

    out_dir = os.environ.get(
        "OBS_BENCH_DIR",
        os.path.join(os.path.dirname(__file__), "results"),
    )
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "BENCH_service_throughput.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)

    emit(
        "Service throughput — mixed suite load through repro.service",
        json.dumps(record, indent=1, sort_keys=True),
    )
