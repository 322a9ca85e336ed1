"""The warm request path: no slow lookups, no syscall ids, same bytes.

A warm routed request runs through the router, its node and the reply
decode many times a second, so the per-request Python on that path is
kept to what the request needs:

* **budget** — once warm, neither a 1-node :class:`Router` nor a
  :class:`StencilService` resolves a metric series through the
  registry's slow path (name sanitizing plus label sorting) or draws
  an id from ``os.urandom``;
* **ids** — trace and span ids keep their widths and lowercase hex, and
  a forked child draws different ids than its parent;
* **wire bytes** — the router encodes each request once, yet every line
  it writes, on the first dispatch and on a failover re-dispatch, is
  byte for byte the line the typed request would encode to;
* **mean** — the execution core's ``mean`` is ``np.mean``'s float, bit
  for bit, without its dispatch;
* **exemplars** — the early return of a full exemplar store keeps
  exactly the K largest observations.
"""

import json
import os
import random
import re
import socket
import struct
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.obs import metrics as metrics_module
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import new_span_id, new_trace_id
from repro.service import ServiceConfig, StencilService
from repro.service.executor import _finish_item
from repro.service.proto import Request
from repro.service.router import NodeConfig, Router, RouterConfig
from repro.service.transport import Hello, SocketConnection

from test_result_contract import WORKLOADS

#: Warm requests: a few kernels and grids, repeated.
WARM = [
    {"proto": 1, "benchmark": bench, "grid": grid, "seed": seed}
    for bench, grid in (
        ("DENOISE", [12, 14]),
        ("SOBEL", [10, 12]),
        ("DENOISE_3D", [8, 9, 10]),
    )
    for seed in (1, 2)
]


class _Budget:
    """Counts slow-path series lookups and ``os.urandom`` calls."""

    def __init__(self, monkeypatch):
        self.lookups = 0
        self.urandom = 0
        real_get = MetricsRegistry._get
        real_urandom = os.urandom

        def counting_get(registry, *args, **kwargs):
            self.lookups += 1
            return real_get(registry, *args, **kwargs)

        def counting_urandom(n):
            self.urandom += 1
            return real_urandom(n)

        monkeypatch.setattr(MetricsRegistry, "_get", counting_get)
        monkeypatch.setattr(os, "urandom", counting_urandom)

    def reset(self):
        self.lookups = self.urandom = 0


def _run(handle, requests):
    for k, request in enumerate(requests):
        response = handle(dict(request, id=f"w-{k}"))
        assert response.ok, response.to_json()


class TestWarmBudget:
    def test_service_warm_requests_take_no_slow_path(self, monkeypatch):
        budget = _Budget(monkeypatch)
        config = ServiceConfig(workers=1, backend="compiled")
        with StencilService(config, registry=MetricsRegistry()) as service:
            _run(service.handle, WARM * 2)  # cold, then warm
            budget.reset()
            _run(service.handle, (WARM * 17)[:100])
            assert budget.lookups == 0
            assert budget.urandom == 0

    def test_router_warm_requests_take_no_slow_path(self, monkeypatch):
        budget = _Budget(monkeypatch)
        registry = MetricsRegistry()
        config = RouterConfig(
            nodes=1,
            node=NodeConfig(workers=1, backend="compiled"),
            heartbeat_interval_s=0.05,
        )
        with Router(config, registry=registry) as router:
            _run(router.handle, WARM * 2)
            # Every supervision series (node gauges, heartbeat RTTs)
            # exists before the budget starts.
            deadline = time.monotonic() + 10
            while "router_heartbeat_rtt_ms" not in registry.snapshot()[
                "histograms"
            ]:
                assert time.monotonic() < deadline, "no heartbeat"
                time.sleep(0.05)
            budget.reset()
            _run(router.handle, (WARM * 17)[:100])
            assert budget.lookups == 0
            assert budget.urandom == 0


class TestIds:
    def test_widths_and_lowercase_hex(self):
        for _ in range(200):
            assert re.fullmatch(r"[0-9a-f]{32}", new_trace_id())
            assert re.fullmatch(r"[0-9a-f]{16}", new_span_id())
        assert len({new_trace_id() for _ in range(1000)}) == 1000

    def test_a_forked_child_draws_other_ids(self):
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:  # the child: report its next ids, then leave
            try:
                os.write(
                    write_end, (new_trace_id() + new_span_id()).encode()
                )
            finally:
                os._exit(0)
        os.close(write_end)
        with os.fdopen(read_end) as pipe:
            child = pipe.read()
        os.waitpid(pid, 0)
        parent = new_trace_id() + new_span_id()
        assert len(child) == len(parent) == 48
        assert child[:32] != parent[:32]
        assert child[32:] != parent[32:]


class _WireNode:
    """A dispatch target whose writes go through a real
    :class:`SocketConnection`; :meth:`line` reads back what it wrote."""

    def __init__(self, idx):
        self.idx = idx
        self.up = True
        self.generation = 0
        self.closing = False
        self.proc = None
        self.last_seen = 0.0
        ours, self._peer = socket.socketpair()
        self.conn = SocketConnection(ours, Hello("node", "server"))
        self._peer.settimeout(5.0)
        self._reader = self._peer.makefile("rb")

    def ready(self):
        return self.up

    def send(self, wire, generation):
        self.conn.send(wire)

    def line(self) -> bytes:
        return self._reader.readline()

    def kill(self):
        self.up = False

    def break_link(self):
        self.up = False

    def close(self):
        self.conn.close()
        self._reader.close()
        self._peer.close()


def _variants():
    """Every result-contract request with its own id, without any id,
    and carrying a client trace context."""
    context = {"trace_id": "ab" * 16, "parent_span_id": "cd" * 8}
    for shape, requests in WORKLOADS.items():
        for request in requests:
            yield f"{request['id']}", dict(request)
            anonymous = {k: v for k, v in request.items() if k != "id"}
            yield f"{request['id']}-no-id", anonymous
            yield f"{request['id']}-traced", dict(request, **context)


class TestWireBytes:
    @pytest.mark.parametrize(
        "request_doc",
        [doc for _, doc in _variants()],
        ids=[name for name, _ in _variants()],
    )
    def test_dispatch_and_failover_lines(self, request_doc):
        router = Router(RouterConfig(nodes=2), registry=MetricsRegistry())
        nodes = [_WireNode(0), _WireNode(1)]
        router._nodes = nodes
        router._started = True
        try:
            router.submit(dict(request_doc))
            (entry,) = router._pending.values()
            first = nodes[entry.node]
            written = [first.line()]
            # The node dies with the request in flight: it fails over.
            first.up = False
            router._on_node_exit(first, first.generation)
            second = nodes[1 - first.idx]
            written.append(second.line())
            typed = Request.from_json(request_doc)
            ids = set()
            for line in written:
                sent = json.loads(line)
                expected = replace(
                    typed,
                    id=sent["id"],
                    trace_id=sent["trace_id"],
                    parent_span_id=sent["parent_span_id"],
                )
                assert line == (
                    json.dumps(expected.to_json(), sort_keys=True) + "\n"
                ).encode("utf-8")
                if typed.trace_id is not None:
                    assert sent["trace_id"] == typed.trace_id
                ids.add(sent["parent_span_id"])
            # One trace, a fresh node-wait span per attempt.
            assert len({json.loads(x)["trace_id"] for x in written}) == 1
            assert len(ids) == 2
        finally:
            for node in nodes:
                node.close()


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


class TestMean:
    @pytest.mark.parametrize(
        "values",
        [
            np.random.default_rng(1).standard_normal(1),
            np.random.default_rng(2).standard_normal(7),
            np.random.default_rng(3).standard_normal(660) * 1e3,
            np.random.default_rng(4).uniform(-1e9, 1e9, 12345),
            np.random.default_rng(5).standard_normal((17, 19)),
            np.array([1.0, np.nan, 2.0]),
            np.array([np.nan]),
            np.array([-0.0]),
            np.array([-0.0, -0.0]),
            np.array([0.0, -0.0]),
            np.array([np.inf, 1.0]),
            np.array([-np.inf, 5.0]),
            np.array([np.inf, -np.inf]),
            np.array([1e308, 1e308]),
        ],
        ids=lambda values: f"{values.shape}",
    )
    def test_mean_is_numpy_mean_bit_for_bit(self, values):
        values = np.ascontiguousarray(values, dtype=np.float64)
        with np.errstate(all="ignore"):
            item = _finish_item(
                (), [], 0, lambda: ([], values, None), False
            )
            want = float(np.mean(values))
        assert _bits(item.mean) == _bits(want)

    def test_empty_output_has_zero_mean(self):
        item = _finish_item(
            (), [], 0, lambda: ([], np.empty(0), None), False
        )
        assert _bits(item.mean) == _bits(0.0)


def _reference_exemplars(stream, k):
    """The store without its early return: append, stable sort by
    descending value, keep K."""
    store = []
    for value, labels in stream:
        store.append({"value": float(value), "labels": labels})
        store.sort(key=lambda e: -e["value"])
        del store[k:]
    return store


class TestExemplars:
    def test_early_return_keeps_exactly_the_k_largest(self):
        rng = random.Random(2014)
        registry = MetricsRegistry()
        k = registry.EXEMPLAR_K
        # Few distinct values, so ties between kept and new entries
        # are common.
        stream = [
            (rng.choice([rng.random(), float(rng.randint(0, 20))]),
             {"request": f"r{i}"})
            for i in range(5000)
        ]
        for value, labels in stream:
            registry.record_exemplar("latency_ms", value, labels)
        kept = registry.exemplars("latency_ms")
        assert kept == _reference_exemplars(stream, k)
        assert [e["value"] for e in kept] == sorted(
            (v for v, _ in stream), reverse=True
        )[:k]

    def test_a_full_store_builds_nothing_for_small_values(
        self, monkeypatch
    ):
        registry = MetricsRegistry()
        for i in range(registry.EXEMPLAR_K):
            registry.record_exemplar("lat", 100.0 + i, {"i": str(i)})
        sorts = []
        real = list.sort

        class CountingList(list):
            def sort(self, *args, **kwargs):
                sorts.append(1)
                return real(self, *args, **kwargs)

        registry._exemplars["lat"] = CountingList(
            registry._exemplars["lat"]
        )
        for value in (1.0, 50.0, 100.0):
            registry.record_exemplar("lat", value, {"i": "small"})
        assert sorts == []
        registry.record_exemplar("lat", 1000.0, {"i": "big"})
        assert sorts == [1]
        assert registry.exemplars("lat")[0]["labels"] == {"i": "big"}


class TestMetricMemo:
    def test_memo_is_bounded_by_the_series_count(self):
        registry = MetricsRegistry()
        for k in range(50):
            # Ten spellings of one series: label order and value type.
            labels = {"a": "1", "b": str(k % 5)}
            registry.counter("c", labels).inc()
            registry.counter("c", dict(reversed(labels.items()))).inc()
        series = len(registry.metrics())
        assert series == 5
        assert len(registry._memo) <= registry.MEMO_SPELLINGS * series
        assert registry.counter("c", {"b": "0", "a": "1"}).value == 20

    def test_values_that_hash_alike_stay_distinct_series(self):
        registry = MetricsRegistry()
        registry.counter("c", {"v": "1"}).inc()
        registry.counter("c", {"v": 1}).inc()
        registry.counter("c", {"v": 1.0}).inc()
        registry.counter("c", {"v": True}).inc()
        values = {
            key: value
            for key, value in registry.snapshot()["counters"].items()
        }
        assert values == {
            'c{v="1"}': 2.0, 'c{v="1.0"}': 1.0, 'c{v="True"}': 1.0
        }

    def test_sanitize_is_memoized(self):
        assert metrics_module._sanitize("a-b.c") == "a_b_c"
        assert metrics_module._sanitize.cache_info().maxsize == 1024
