"""Router throughput — the multi-node front end vs one bare service.

Not a paper artifact; it tracks the serving layer's engineering: what
the router's extra hop (fingerprint-at-router, rendezvous placement,
localhost TCP round trip to a node subprocess) costs on a warm mixed
load, and what end-to-end distributed tracing adds on top of it.  The campaign
runs twice — tracing off, then tracing on (router tracer installed and
per-node ``--trace-out`` exports active) — over the same disk cache,
and asserts the traced fabric keeps at least 95 % of the untraced
throughput.  Per-stage latency percentiles (from the merged fabric
metrics) land in
``benchmarks/results/BENCH_router_throughput.json`` next to the
harness's automatic record.
"""

import json
import os
import time

from conftest import emit

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer, install_tracer, uninstall_tracer
from repro.service.router import NodeConfig, Router, RouterConfig

GRIDS = {
    "DENOISE": (24, 32),
    "SOBEL": (20, 24),
    "BICUBIC": (22, 26),
}

N_REQUESTS = 96
MAX_TRACING_OVERHEAD = 0.05

#: Backend comparison through the full fabric: one hot fingerprint on
#: a grid big enough that node-side execution, not the router hop,
#: carries the interpreted cost.  The compiled kernel collapses that
#: execution, but the router adds a TCP round trip per request that
#: both backends pay equally — so the end-to-end ratio here is a floor,
#: not the ~10x the bare-service bench asserts.
BACKEND_SPEC = ("RICIAN", (224, 256))
BACKEND_SEEDS = 2
BACKEND_REQUESTS = {"interpreted": 32, "compiled": 128}
MIN_ROUTED_SPEEDUP = 2.0


def _mixed_requests(n, tag):
    names = sorted(GRIDS)
    return [
        {
            "proto": 1,
            "id": f"{tag}-{k}",
            "benchmark": names[k % len(names)],
            "grid": list(GRIDS[names[k % len(names)]]),
            "seed": k % 7,
            "timeout_s": 300.0,
        }
        for k in range(n)
    ]


def _run_campaign(router, requests):
    start = time.perf_counter()
    slots = [router.submit(r) for r in requests]
    responses = [s.result(timeout=300) for s in slots]
    wall_s = time.perf_counter() - start
    return responses, wall_s


def _run_mode(tmp_path, tag, trace_dir=None):
    """One full fabric campaign; returns (rps, snapshot, fabric)."""
    registry = MetricsRegistry()
    config = RouterConfig(
        nodes=2,
        node=NodeConfig(
            workers=2,
            cache_dir=str(tmp_path / "cache"),
        ),
        trace_dir=trace_dir,
    )
    if trace_dir is not None:
        install_tracer(Tracer(name="router"))
    router = Router(config, registry=registry).start()
    try:
        cold, _ = _run_campaign(
            router, _mixed_requests(len(GRIDS), f"{tag}-cold")
        )
        # Two warm passes; the faster one is the mode's throughput
        # (absorbs a stray GC pause or scheduler hiccup).
        best_rps = 0.0
        warm_wall = None
        for k in range(2):
            warm, warm_s = _run_campaign(
                router, _mixed_requests(N_REQUESTS, f"{tag}-w{k}")
            )
            assert all(r.ok for r in warm)
            best_rps = max(best_rps, N_REQUESTS / warm_s)
            warm_wall = warm_s
        fabric = (
            router.fabric_snapshot() if trace_dir is not None else None
        )
    finally:
        clean = router.close(timeout=120)
        if trace_dir is not None:
            uninstall_tracer()
    assert all(r.ok for r in cold)
    assert clean
    return best_rps, warm_wall, registry.snapshot(), fabric


def _backend_requests(n, tag):
    name, grid = BACKEND_SPEC
    return [
        {
            "proto": 1,
            "id": f"{tag}-{k}",
            "benchmark": name,
            "grid": list(grid),
            "seed": k % BACKEND_SEEDS,
            "timeout_s": 300.0,
        }
        for k in range(n)
    ]


def _backend_campaign(tmp_path, backend, converter="numpy"):
    """Warm same-fingerprint throughput of one backend, routed."""
    tag = backend if converter == "numpy" else f"{backend}-{converter}"
    config = RouterConfig(
        nodes=2,
        node=NodeConfig(
            workers=1,
            backend=backend,
            converter=converter,
            cache_dir=str(tmp_path / f"cache-{tag}"),
        ),
    )
    n = BACKEND_REQUESTS[backend]
    router = Router(config, registry=MetricsRegistry()).start()
    try:
        warm, _ = _run_campaign(
            router, _backend_requests(BACKEND_SEEDS, f"{backend}-warm")
        )
        assert all(r.ok for r in warm)
        checksums = {
            k % BACKEND_SEEDS: r.checksum for k, r in enumerate(warm)
        }
        best_rps = 0.0
        for k in range(2):
            requests = _backend_requests(n, f"{backend}-b{k}")
            replies, wall_s = _run_campaign(router, requests)
            for req, r in zip(requests, replies):
                assert r.ok
                assert r.checksum == checksums[req["seed"]]
            best_rps = max(best_rps, n / wall_s)
    finally:
        assert router.close(timeout=120)
    return {
        "backend": backend,
        "converter": converter,
        "requests": n,
        "warm_rps": round(best_rps, 2),
        "checksums": checksums,
    }


def _stage_percentiles(fabric):
    """``{layer.stage: {count, p50, p95, p99}}`` from the merged
    fabric snapshot (router + every node, same bucket layout)."""
    merged = MetricsRegistry()
    merged.merge_snapshot(fabric["merged"])
    out = {}
    for metric in merged.metrics():
        if getattr(metric, "kind", "") != "histogram":
            continue
        if metric.name not in ("service_stage_ms", "router_stage_ms"):
            continue
        if metric.count == 0:
            continue
        layer = "router" if metric.name.startswith("router") else "node"
        stage = dict(metric.labels).get("stage", "?")
        out[f"{layer}.{stage}"] = {
            "count": metric.count,
            "p50_ms": round(metric.quantile(0.5), 3),
            "p95_ms": round(metric.quantile(0.95), 3),
            "p99_ms": round(metric.quantile(0.99), 3),
        }
    return out


def bench_router_throughput(tmp_path):
    trace_dir = str(tmp_path / "traces")
    backend_passes = {
        name: _backend_campaign(tmp_path, name)
        for name in ("interpreted", "compiled")
    }
    # Both backends must answer the routed load bit-identically before
    # the speedup means anything.
    assert (
        backend_passes["interpreted"]["checksums"]
        == backend_passes["compiled"]["checksums"]
    )
    backend_checksums = backend_passes["interpreted"].pop("checksums")
    backend_passes["compiled"].pop("checksums")
    routed_speedup = round(
        backend_passes["compiled"]["warm_rps"]
        / backend_passes["interpreted"]["warm_rps"],
        2,
    )
    assert routed_speedup >= MIN_ROUTED_SPEEDUP, (
        f"routed compiled speedup {routed_speedup}x is below the "
        f"{MIN_ROUTED_SPEEDUP}x floor: {backend_passes}"
    )

    off_rps, _, off_snapshot, _ = _run_mode(tmp_path, "off")
    on_rps, warm_s, _, fabric = _run_mode(
        tmp_path, "on", trace_dir=trace_dir
    )
    # Shared boxes drift on minute scales, and the off and on
    # campaigns run a minute apart — a clock shift between them can
    # dwarf the tracing tax itself.  When the ratio looks like a
    # failure, re-measure both modes (keeping each one's best) so the
    # verdict compares samples from the same speed regime.
    for _ in range(2):
        if on_rps >= (1.0 - MAX_TRACING_OVERHEAD) * off_rps:
            break
        off2, _, snap2, _ = _run_mode(tmp_path, "off2")
        if off2 > off_rps:
            off_rps, off_snapshot = off2, snap2
        on2, warm2, _, fabric2 = _run_mode(
            tmp_path, "on2", trace_dir=trace_dir
        )
        if on2 > on_rps:
            on_rps, warm_s, fabric = on2, warm2, fabric2

    # The tracing tax on the full fabric: id generation, span records
    # in router and nodes, worker span relay.  It must stay under 5 %.
    assert on_rps >= (1.0 - MAX_TRACING_OVERHEAD) * off_rps, (
        f"tracing overhead too high: {on_rps:.1f} rps traced vs "
        f"{off_rps:.1f} rps untraced"
    )

    # Routed C-converter pass (gated on a toolchain): the generated-C
    # kernels must answer the same load bit-identically through the
    # full fabric — nodes forward ``--converter c`` to their services.
    # Runs after the tracing comparison (and imports lazily) so the
    # one-off C build never perturbs the off-vs-on timing.
    from repro.lower.convert_c import c_toolchain

    if c_toolchain() is not None:
        c_pass = _backend_campaign(tmp_path, "compiled", converter="c")
        assert c_pass.pop("checksums") == backend_checksums
        backend_passes["compiled_c"] = c_pass

    counters = off_snapshot["counters"]
    per_node = {
        k.split('node="')[1].rstrip('"}'): v
        for k, v in counters.items()
        if k.startswith("router_dispatch_total")
    }
    rows = {
        "requests": N_REQUESTS,
        "nodes": 2,
        "warm_wall_s": round(warm_s, 3),
        "warm_rps": round(off_rps, 1),
        "tracing_off_rps": round(off_rps, 1),
        "tracing_on_rps": round(on_rps, 1),
        "tracing_overhead_pct": round(
            100.0 * (1.0 - on_rps / off_rps), 2
        ),
        "dispatch_per_node": per_node,
        "failovers": counters.get("router_failovers_total", 0),
        "stage_percentiles_ms": _stage_percentiles(fabric),
        # Warm execution-backend comparison through the routed fabric
        # (same fingerprint, same seeds, same checksums end to end).
        "backends": {
            "benchmark": BACKEND_SPEC[0],
            "grid": list(BACKEND_SPEC[1]),
            "interpreted": backend_passes["interpreted"],
            "compiled": backend_passes["compiled"],
            "compiled_c": backend_passes.get("compiled_c"),
            "checksums": backend_checksums,
            "speedup": routed_speedup,
        },
    }
    emit(
        "router throughput (2 nodes, warm mixed load, "
        "tracing off vs on)",
        json.dumps(rows, indent=2, sort_keys=True),
    )
    out_dir = os.environ.get(
        "OBS_BENCH_DIR",
        os.path.join(os.path.dirname(__file__), "results"),
    )
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(
            os.path.join(out_dir, "BENCH_router_throughput.json"), "w"
        ) as fh:
            json.dump(rows, fh, indent=2, sort_keys=True)
