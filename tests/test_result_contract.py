"""One result contract across every execution mode.

The same seeded requests go through a fresh :class:`StencilService` for
every combination of executor (thread or process pool), backend
(interpreted, compiled with the NumPy converter, compiled with the C
converter) and workload shape (proto:1 single kernels, ``iterate(3)``,
a two-node ``graph``).  Every cell must answer with byte-identical
canonical ``Response`` JSON once the timing fields (``latency_ms``) and
the trace id are dropped — not just the same checksum: ``mean``,
``n_outputs``, per-stage digests, cache outcomes and the plan summary
all have to agree.  Each cell carries one ``validate: true`` request,
so the canary path is part of the contract too.

The transport axis sends the same requests through a one-node
:class:`Router`, whose node is reached over TCP, and holds the routed
bodies to the direct ones; only the delivery fields the router owns
(``node``, ``attempts``) and the cache outcome may differ.
"""

import json

import pytest

from repro.lower.convert_c import c_toolchain
from repro.obs.metrics import MetricsRegistry
from repro.service import ServiceConfig, StencilService
from repro.service.router import NodeConfig, Router, RouterConfig

#: Fields that legitimately differ run to run.
VOLATILE = ("latency_ms", "trace_id")
#: Fields a routed reply may add or change: delivery, cache outcome.
ROUTED = ("node", "attempts", "cache")

GRAPH = {
    "kind": "graph",
    "nodes": [
        {"id": "den", "benchmark": "DENOISE"},
        {"id": "ric", "benchmark": "RICIAN"},
    ],
    "edges": [["den", "ric"]],
}

#: Per workload shape, the requests of one cell (sent in order).  The
#: validated request uses a small grid to keep the cycle-sim canary
#: cheap; the others use grids where NumPy's pairwise mean and a
#: sequential Python sum disagree in the last ulp.
WORKLOADS = {
    "single": [
        {"proto": 1, "id": "s-den", "benchmark": "DENOISE",
         "grid": [32, 32], "seed": 2014},
        {"proto": 1, "id": "s-sob", "benchmark": "SOBEL",
         "grid": [64, 64], "seed": 7},
        {"proto": 1, "id": "s-3d", "benchmark": "DENOISE_3D",
         "grid": [12, 12, 12], "seed": 1},
        {"proto": 1, "id": "s-val", "benchmark": "RICIAN",
         "grid": [12, 14], "seed": 3, "validate": True},
    ],
    "iterate": [
        {"proto": 2, "id": "i-a", "grid": [32, 32], "seed": 2014,
         "workload": {"kind": "iterate", "benchmark": "DENOISE",
                      "steps": 3}},
        {"proto": 2, "id": "i-b", "grid": [32, 32], "seed": 7,
         "workload": {"kind": "iterate", "benchmark": "DENOISE",
                      "steps": 3}},
        {"proto": 2, "id": "i-val", "grid": [12, 14], "seed": 1,
         "validate": True,
         "workload": {"kind": "iterate", "benchmark": "DENOISE",
                      "steps": 3}},
    ],
    "graph": [
        {"proto": 2, "id": "g-a", "grid": [32, 32], "seed": 2014,
         "workload": GRAPH},
        {"proto": 2, "id": "g-b", "grid": [32, 32], "seed": 7,
         "workload": GRAPH},
        {"proto": 2, "id": "g-val", "grid": [12, 14], "seed": 1,
         "validate": True, "workload": GRAPH},
    ],
}

BACKENDS = {
    "interpreted": dict(backend="interpreted"),
    "compiled-numpy": dict(backend="compiled", converter="numpy"),
    "compiled-c": dict(backend="compiled", converter="c"),
}


def canonical(response, drop=VOLATILE) -> str:
    body = response.to_json()
    for key in drop:
        body.pop(key, None)
    return json.dumps(body, sort_keys=True)


def run_cell(worker_mode, backend, workload, tmp_path, drop=VOLATILE):
    config = ServiceConfig(
        workers=1,
        worker_mode=worker_mode,
        # C artifacts land in a per-cell directory, never the shared
        # default build dir.
        cache_dir=str(tmp_path / "cache"),
        **BACKENDS[backend],
    )
    registry = MetricsRegistry()
    with StencilService(config, registry=registry) as service:
        replies = [
            canonical(
                service.handle(dict(request), wait_timeout=120.0), drop
            )
            for request in WORKLOADS[workload]
        ]
    return replies, registry.snapshot()["counters"]


def run_routed_cell(backend, workload, tmp_path, drop):
    """One cell through a one-node router (thread executor)."""
    config = RouterConfig(
        nodes=1,
        node=NodeConfig(
            workers=1,
            worker_mode="thread",
            cache_dir=str(tmp_path / "cache"),
            **BACKENDS[backend],
        ),
    )
    with Router(config, registry=MetricsRegistry()) as router:
        return [
            canonical(
                router.handle(dict(request), wait_timeout=120.0), drop
            )
            for request in WORKLOADS[workload]
        ]


_REFERENCE = {}


def reference(workload, tmp_path_factory):
    """The thread × interpreted cell, computed once per workload."""
    if workload not in _REFERENCE:
        _REFERENCE[workload], _ = run_cell(
            "thread", "interpreted", workload,
            tmp_path_factory.mktemp(f"ref-{workload}"),
        )
    return _REFERENCE[workload]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("worker_mode", ["thread", "process"])
def test_response_bodies_identical(
    worker_mode, backend, workload, tmp_path, tmp_path_factory
):
    if backend == "compiled-c" and c_toolchain() is None:
        pytest.skip("no C toolchain on this machine")
    want = reference(workload, tmp_path_factory)
    got, counters = run_cell(worker_mode, backend, workload, tmp_path)
    for request, expected, actual in zip(WORKLOADS[workload], want, got):
        assert json.loads(actual)["status"] == "ok", actual
        assert actual == expected, f"{request['id']} diverges"
    if backend != "interpreted":
        # The compiled cells really ran compiled: no silent fallback
        # could make the contract pass vacuously.
        assert counters.get(
            'service_lower_requests_total{path="compiled"}', 0
        ) == len(WORKLOADS[workload])
        assert not counters.get(
            'service_lower_requests_total{path="fallback"}', 0
        )


@pytest.mark.slow
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("backend", ["compiled-numpy", "interpreted"])
def test_routed_bodies_match_direct(backend, workload, tmp_path):
    drop = VOLATILE + ROUTED
    want, _ = run_cell(
        "thread", backend, workload, tmp_path / "direct", drop
    )
    got = run_routed_cell(backend, workload, tmp_path / "routed", drop)
    for request, expected, actual in zip(WORKLOADS[workload], want, got):
        assert json.loads(actual)["status"] == "ok", actual
        assert actual == expected, f"{request['id']} diverges when routed"
