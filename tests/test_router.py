"""The multi-node fingerprint router: placement, single-flight, failover.

Unit tests cover :func:`rendezvous_order` (deterministic permutation,
minimal ownership movement when the cluster grows).  The integration
tests spawn *real* ``repro serve`` subprocess nodes through
:class:`Router` and pin the headline guarantees:

* **global single-flight** — a burst of concurrent identical requests
  across 2 nodes produces exactly one cold compile, proven by summing
  the ``service_plan_compiles_total`` counters each node exports on
  graceful shutdown;
* **failover** — a seeded chaos campaign kills the owning node right
  after dispatch, mid-request; every request still gets a response
  (zero dropped), survivors complete on the sibling from the shared
  disk cache tier, and the whole campaign replays deterministically;
* **concurrent start** — every node is launched before any
  announcement is read, silent children share one deadline, and a
  respawn that never announces stalls no other node's supervision;
* **protocol** — every response the router returns parses as a
  versioned :class:`Response`, and an unversioned dict request is
  answered ``invalid`` / ``unsupported_proto`` without reaching a node.
"""

import collections
import io
import json
import os
import sys
import threading
import time

import pytest

from repro.cli import build_parser
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import format_fabric_summary, format_service_metrics
from repro.service.chaos import ChaosConfig, ChaosInjector
from repro.service.fingerprint import CompileOptions, fingerprint
from repro.service import router as router_module
from repro.service.proto import Response
from repro.service.router import (
    NodeConfig,
    Router,
    RouterConfig,
    rendezvous_order,
)
from repro.stencil.kernels import get_benchmark


def _fp(benchmark: str, grid) -> str:
    spec = get_benchmark(benchmark).with_grid(tuple(grid))
    return fingerprint(spec, CompileOptions())


class TestRendezvousOrder:
    def test_is_a_deterministic_permutation(self):
        for n in (1, 2, 3, 8):
            order = rendezvous_order("abc123", n)
            assert sorted(order) == list(range(n))
            assert order == rendezvous_order("abc123", n)

    def test_distinct_fingerprints_spread_over_nodes(self):
        homes = collections.Counter(
            rendezvous_order(f"fp-{i}", 4)[0] for i in range(200)
        )
        assert set(homes) == {0, 1, 2, 3}
        assert max(homes.values()) < 120  # no pathological skew

    def test_growing_the_cluster_moves_only_new_winners(self):
        # The HRW property: going from 4 to 5 nodes, a fingerprint's
        # home changes only when node 4 wins it outright.
        moved = 0
        for i in range(300):
            before = rendezvous_order(f"fp-{i}", 4)[0]
            after = rendezvous_order(f"fp-{i}", 5)[0]
            if after != before:
                assert after == 4
                moved += 1
        assert 0 < moved < 150  # roughly 1/5 of keys move

    def test_rejects_empty_cluster(self):
        with pytest.raises(ValueError):
            rendezvous_order("fp", 0)


class _FakeNode:
    """A dispatch target that records wire lines instead of serving."""

    def __init__(self, idx):
        self.idx = idx
        self.up = True
        self.generation = 0
        self.sent = []
        self.closing = False
        self.proc = None
        self.last_seen = 0.0

    def ready(self):
        return self.up

    def send(self, wire, generation):
        self.sent.append(wire)

    def kill(self):
        self.up = False

    def break_link(self):
        self.up = False


class TestPlacement:
    """Cold-pin / warm least-loaded placement, without subprocesses."""

    FP = _fp("SOBEL", (10, 12))

    def _router(self):
        registry = MetricsRegistry()
        router = Router(RouterConfig(nodes=2), registry=registry)
        router._nodes = [_FakeNode(0), _FakeNode(1)]
        router._started = True  # nothing to spawn
        self.home = rendezvous_order(self.FP, 2)[0]
        self.sibling = 1 - self.home
        return router, registry

    def _submit(self, router, k):
        slot = router.submit(
            {"proto": 1, "id": f"q{k}", "benchmark": "SOBEL",
             "grid": [10, 12]}
        )
        for node in router._nodes:
            if node.sent and node.sent[-1]["id"] == f"rt-{router._seq}":
                return slot, node, node.sent[-1]["id"]
        raise AssertionError("request was not dispatched")

    def _reply(self, router, node, wire_id, status="ok"):
        router._on_response(node, Response(id=wire_id, status=status))

    @staticmethod
    def _placements(registry):
        prefix = 'router_placement_total{reason="'
        return {
            k[len(prefix):-2]: v
            for k, v in registry.snapshot()["counters"].items()
            if k.startswith(prefix)
        }

    def test_cold_burst_pins_to_home(self):
        router, registry = self._router()
        placed = [self._submit(router, k)[1].idx for k in range(5)]
        assert placed == [self.home] * 5
        assert self._placements(registry) == {"home": 1, "pinned": 4}
        assert router._load[self.home] == 5

    def test_warm_request_spills_to_idle_sibling(self):
        router, registry = self._router()
        slot, node, wire_id = self._submit(router, 0)
        self._reply(router, node, wire_id)
        assert slot.result(timeout=1).ok
        # Idle fabric: the tie goes home.
        _, first, first_id = self._submit(router, 1)
        assert first.idx == self.home
        # Home is busy, the sibling idle: spill.
        _, second, second_id = self._submit(router, 2)
        assert second.idx == self.sibling
        # Equal load again: the tie goes home.
        _, third, _ = self._submit(router, 3)
        assert third.idx == self.home
        assert self._placements(registry) == {"home": 3, "spill": 1}
        counters = registry.snapshot()["counters"]
        assert counters.get("router_ownership_churn_total", 0) == 0
        self._reply(router, second, second_id)
        self._reply(router, first, first_id)
        assert router._load[self.home] == 1  # only the third is left
        assert router._load[self.sibling] == 0
        # Both operator views show the placement split.
        snapshot = registry.snapshot()
        assert "placed_spill: 1" in format_service_metrics(snapshot)
        top = format_fabric_summary([("router", snapshot)])
        assert "router placement:" in top
        assert "home=3, spill=1 (spill share 25.0%)" in top

    def test_failed_reply_does_not_warm(self):
        router, registry = self._router()
        _, node, wire_id = self._submit(router, 0)
        self._reply(router, node, wire_id, status="error")
        self._submit(router, 1)
        _, again, _ = self._submit(router, 2)
        assert again.idx == self.home  # still cold: pinned
        assert self._placements(registry) == {"home": 2, "pinned": 1}

    def test_not_ready_nodes_are_skipped(self):
        router, registry = self._router()
        router._nodes[self.home].up = False
        _, node, wire_id = self._submit(router, 0)
        assert node.idx == self.sibling
        self._reply(router, node, wire_id)
        # Warm, and the down home has the lower load: still skipped.
        _, node, _ = self._submit(router, 1)
        assert node.idx == self.sibling
        router._nodes[self.sibling].up = False
        slot = router.submit(
            {"proto": 1, "id": "none", "benchmark": "SOBEL",
             "grid": [10, 12], "timeout_s": 0.05}
        )
        assert slot.result(timeout=5).status == "timeout"

    def test_failover_is_counted_as_failover(self):
        router, registry = self._router()
        _, node, _ = self._submit(router, 0)
        node.up = False
        router._on_node_exit(node, node.generation)
        assert router._nodes[self.sibling].sent
        assert self._placements(registry) == {"home": 1, "failover": 1}
        assert router._load[self.home] == 0
        assert router._load[self.sibling] == 1

    def test_warm_set_is_bounded(self):
        from repro.service.router import WARM_FINGERPRINTS

        router, _ = self._router()
        for i in range(WARM_FINGERPRINTS + 10):
            router._mark_warm(f"fp-{i}")
        assert len(router._warm) == WARM_FINGERPRINTS
        assert "fp-0" not in router._warm  # least recent evicted
        assert f"fp-{WARM_FINGERPRINTS + 9}" in router._warm


class TestControlRequests:
    """Out-of-band control requests (metrics pulls), no subprocesses."""

    def test_lost_connection_resolves_its_control_at_once(self):
        router = Router(RouterConfig(nodes=2), registry=MetricsRegistry())
        router._nodes = [_FakeNode(0), _FakeNode(1)]
        router._started = True
        lost, alive = router._nodes

        def fabric_side():
            deadline = time.monotonic() + 2.0
            while not (lost.sent and alive.sent):
                assert time.monotonic() < deadline, "controls never sent"
                time.sleep(0.005)
            router._on_response(
                alive,
                Response(
                    id=alive.sent[-1]["id"],
                    status="ok",
                    summary={"counters": {"x": 1}},
                ),
            )
            time.sleep(0.2)
            lost.up = False
            router._on_node_exit(lost, lost.generation)

        helper = threading.Thread(target=fabric_side)
        helper.start()
        start = time.monotonic()
        per_node = router.collect_node_metrics(timeout_s=3.0)
        elapsed = time.monotonic() - start
        helper.join()
        assert per_node == {0: None, 1: {"counters": {"x": 1}}}
        assert elapsed < 1.5, f"waited {elapsed:.2f}s for a lost node"
        assert router._controls == {}


class TestOneDataPlane:
    """The router reaches every node over TCP; there is no pipe mode."""

    def test_pipe_transport_is_rejected(self):
        with pytest.raises(ValueError, match="pipe transport was removed"):
            NodeConfig(transport="pipe")

    def test_conn_chaos_needs_no_transport_argument(self):
        config = RouterConfig(conn_kill_rate=0.1)
        assert config.conn_kill_rate == 0.1

    def test_every_spawned_node_listens_on_localhost(self):
        for node in (NodeConfig(), NodeConfig(backend="compiled")):
            argv = node.argv()
            at = argv.index("--listen")
            assert argv[at + 1] == "127.0.0.1:0"

    def test_route_has_no_transport_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["route", "--transport", "tcp"])
        assert excinfo.value.code == 2
        assert "--transport" in capsys.readouterr().err


def _read_node_counters(metrics_dir):
    """Summed counters over every node-N.json metrics export."""
    totals = collections.Counter()
    for name in sorted(os.listdir(metrics_dir)):
        if not name.startswith("node-"):
            continue
        with open(os.path.join(metrics_dir, name)) as fh:
            snapshot = json.load(fh)
        for key, value in snapshot.get("counters", {}).items():
            totals[key] += value
    return totals


@pytest.mark.slow
class TestRouterSingleFlight:
    def test_concurrent_identical_requests_compile_once(self, tmp_path):
        """>=64 identical in-flight requests over 2 nodes -> 1 compile."""
        metrics_dir = str(tmp_path / "metrics")
        registry = MetricsRegistry()
        config = RouterConfig(
            nodes=2,
            node=NodeConfig(
                workers=2, cache_dir=str(tmp_path / "cache")
            ),
            node_metrics_dir=metrics_dir,
        )
        router = Router(config, registry=registry).start()
        try:
            slots = [
                router.submit(
                    {
                        "proto": 1,
                        "id": f"c{k}",
                        "benchmark": "SOBEL",
                        "grid": [10, 12],
                        "seed": 2014 + k,
                    }
                )
                for k in range(64)
            ]
            responses = [slot.result(timeout=120) for slot in slots]
        finally:
            assert router.close(timeout=120)
        assert [r.id for r in responses] == [f"c{k}" for k in range(64)]
        assert all(r.ok for r in responses), [
            r.to_json() for r in responses if not r.ok
        ]
        # Global single-flight: the cold burst pins to the home node;
        # anything placed elsewhere is a warm spill, which found the
        # plan already compiled (shared disk tier or a coalesced
        # promotion) instead of compiling it again...
        owner = rendezvous_order(_fp("SOBEL", (10, 12)), 2)[0]
        elsewhere = [r for r in responses if r.node != owner]
        assert all(
            r.cache in ("hit", "disk", "coalesced") for r in elsewhere
        )
        spills = registry.snapshot()["counters"].get(
            'router_placement_total{reason="spill"}', 0
        )
        assert len(elsewhere) == spills
        # ...so across both nodes exactly one compile ran.
        counters = _read_node_counters(metrics_dir)
        assert counters["service_plan_compiles_total"] == 1
        # Every response validates as proto:1 (round-trips strictly).
        for r in responses:
            assert Response.from_json(r.to_json()) == r


def _pick_campaign_seed(requests, kill_rate, retries):
    """A chaos seed where the warm-up survives its first dispatch, at
    least two later requests are killed mid-request, and every request
    has a surviving attempt within the failover budget."""
    for seed in range(5000):
        chaos = ChaosInjector(
            ChaosConfig(seed=seed, kill_rate=kill_rate)
        )
        decisions = [
            [
                chaos.decision(f"rt-{k + 1}", attempt)
                for attempt in range(retries + 1)
            ]
            for k in range(requests)
        ]
        if decisions[0][0] != "none":
            continue  # warm-up compile must land cleanly
        kills = sum(1 for d in decisions[1:] if d[0] == "kill")
        if kills < 2:
            continue
        if any("none" not in d for d in decisions):
            continue  # someone would exhaust the failover budget
        return seed, kills
    raise AssertionError("no campaign seed found")


@pytest.mark.slow
class TestRouterFailover:
    def test_node_killed_mid_request_drops_nothing(self, tmp_path):
        """Seeded whole-node kills: every request answered, exactly
        one cold compile across the cluster, campaign replays."""
        requests = 10
        kill_rate = 0.45
        retries = 2
        seed, expected_kills = _pick_campaign_seed(
            requests, kill_rate, retries
        )
        registry = MetricsRegistry()
        config = RouterConfig(
            nodes=2,
            node=NodeConfig(
                workers=2, cache_dir=str(tmp_path / "cache")
            ),
            max_retries=retries,
            chaos_seed=seed,
            node_kill_rate=kill_rate,
        )
        router = Router(config, registry=registry).start()
        responses = []
        try:
            for k in range(requests):
                slot = router.submit(
                    {
                        "proto": 1,
                        "id": f"f{k}",
                        "benchmark": "SOBEL",
                        "grid": [10, 12],
                        "seed": 7000 + k,
                        "timeout_s": 120.0,
                    }
                )
                # Sequential submit-and-wait keeps the internal ids
                # and chaos decisions fully deterministic.
                responses.append(slot.result(timeout=150))
        finally:
            router.close(timeout=120)
        # Zero dropped-without-response, correct ids, all typed.
        assert [r.id for r in responses] == [
            f"f{k}" for k in range(requests)
        ]
        for r in responses:
            assert Response.from_json(r.to_json()) == r
        # The seed guarantees a surviving attempt for everyone.
        assert all(r.ok for r in responses), [
            r.to_json() for r in responses if not r.ok
        ]
        # One cold compile total: the warm-up missed; every request
        # that failed over finished on the sibling by promoting the
        # plan from the shared disk tier, not by recompiling.
        outcomes = [r.cache for r in responses]
        assert outcomes[0] == "miss"
        assert all(o in ("hit", "disk", "coalesced") for o in outcomes[1:])
        # The chaos actually fired and the failover path actually ran.
        counters = registry.snapshot()["counters"]
        chaos_kills = sum(
            v for k, v in counters.items()
            if k.startswith("router_chaos_node_kills_total")
        )
        failovers = counters.get("router_failovers_total", 0)
        restarts = sum(
            v for k, v in counters.items()
            if k.startswith("router_node_restarts_total")
        )
        assert chaos_kills >= expected_kills
        assert failovers >= 1
        assert restarts >= 1
        # Every start and every respawn is timed exactly once.
        node_start = registry.snapshot()["histograms"][
            'router_stage_ms{stage="node_start"}'
        ]
        assert node_start["count"] == 2 + restarts


def _dispatch_total(registry):
    """``router_dispatch_total`` summed over its node labels."""
    return sum(
        v for k, v in registry.snapshot()["counters"].items()
        if k.startswith("router_dispatch_total")
    )


@pytest.mark.slow
class TestRouterProtocolSurface:
    def test_shim_invalid_and_churn_metrics(self, tmp_path):
        registry = MetricsRegistry()
        config = RouterConfig(
            nodes=1,
            node=NodeConfig(workers=2, cache_dir=str(tmp_path / "c")),
        )
        router = Router(config, registry=registry).start()
        try:
            versioned = router.handle(
                {"proto": 1, "benchmark": "SOBEL", "grid": [10, 12]},
                wait_timeout=120,
            )
            assert versioned.ok
            dispatched = _dispatch_total(registry)
            assert dispatched == 1
            # An unversioned dict is rejected at the router with the
            # typed error and never dispatched to a node.
            unversioned = router.handle(
                {"id": "bare", "benchmark": "SOBEL", "grid": [10, 12]},
                wait_timeout=30,
            )
            assert unversioned.status == "invalid"
            assert unversioned.id == "bare"
            assert unversioned.error.kind == "unsupported_proto"
            assert _dispatch_total(registry) == dispatched
            # Unknown benchmark: rejected at the router, no node trip.
            bad = router.handle(
                {"proto": 1, "benchmark": "BOGUS"}, wait_timeout=30
            )
            assert bad.status == "invalid"
            assert bad.error.kind == "bad_request"
            # Unsupported version: rejected with the right kind.
            vbad = router.handle(
                {"proto": 99, "benchmark": "SOBEL"}, wait_timeout=30
            )
            assert vbad.status == "invalid"
            assert vbad.error.kind == "unsupported_proto"
            # Bad JSON line.
            jbad = router.submit_json("{nope").result(timeout=30)
            assert jbad.status == "invalid"
        finally:
            assert router.close(timeout=120)
        # Health gauges were exported for the node.
        gauges = registry.snapshot()["gauges"]
        assert any(
            k.startswith("router_node_up") for k in gauges
        )


@pytest.mark.slow
class TestFabricAggregation:
    def test_collect_and_merge_node_metrics(self, tmp_path):
        """The router pulls every node's metrics snapshot over the
        live request pipes and merges them with its own registry into
        one fabric view."""
        registry = MetricsRegistry()
        config = RouterConfig(
            nodes=2,
            node=NodeConfig(
                workers=2, cache_dir=str(tmp_path / "cache")
            ),
        )
        router = Router(config, registry=registry).start()
        try:
            slots = [
                router.submit(
                    {
                        "proto": 1,
                        "id": f"m{k}",
                        "benchmark": "SOBEL",
                        "grid": [10, 12],
                        "seed": k,
                    }
                )
                for k in range(4)
            ]
            responses = [s.result(timeout=120) for s in slots]
            assert all(r.ok for r in responses)
            per_node = router.collect_node_metrics(timeout_s=60)
            fabric = router.fabric_snapshot(timeout_s=60)
        finally:
            assert router.close(timeout=120)

        assert set(per_node) == {0, 1}
        reachable = [s for s in per_node.values() if s is not None]
        assert reachable
        # All four requests are visible through the node pipes.
        node_requests = sum(
            v
            for snap in reachable
            for k, v in snap["counters"].items()
            if k.startswith("service_requests_total")
        )
        assert node_requests == 4

        assert set(fabric) == {
            "router", "nodes", "merged", "node_status"
        }
        assert set(fabric["nodes"]) == {"0", "1"}
        merged = fabric["merged"]
        # Router-side and node-side views agree in the merge.
        for prefix in ("router_requests_total", "service_requests_total"):
            assert (
                sum(
                    v
                    for k, v in merged["counters"].items()
                    if k.startswith(prefix)
                )
                == 4
            ), prefix
        # Stage attribution histograms from both layers merged in.
        assert any(
            k.startswith("router_stage_ms") for k in merged["histograms"]
        )
        assert any(
            k.startswith("service_stage_ms")
            for k in merged["histograms"]
        )
        # Slow-request exemplars survive the pipe and the merge.
        exemplars = merged.get("exemplars", {})
        assert "router_request_latency_ms" in exemplars
        assert "service_request_latency_ms" in exemplars

    def test_control_requests_skip_dead_nodes(self, tmp_path):
        registry = MetricsRegistry()
        config = RouterConfig(
            nodes=2,
            node=NodeConfig(
                workers=1, cache_dir=str(tmp_path / "cache")
            ),
            # Slow the supervisor's respawn so the killed node stays
            # down for the collection window.
            monitor_interval_s=5.0,
        )
        router = Router(config, registry=registry).start()
        try:
            assert router.handle(
                {"proto": 1, "benchmark": "SOBEL", "grid": [10, 12]},
                wait_timeout=120,
            ).ok
            router._nodes[0].kill()
            per_node = router.collect_node_metrics(timeout_s=30)
        finally:
            assert router.close(timeout=120)
        assert set(per_node) == {0, 1}
        assert per_node[0] is None
        assert per_node[1] is not None


# ---------------------------------------------------------------------------
# TCP socket transport
# ---------------------------------------------------------------------------
def _tcp_config(tmp_path, **overrides):
    """A 2-node TCP-transport router sharing one disk cache tier."""
    node_kwargs = overrides.pop("node_kwargs", {})
    defaults = dict(
        nodes=2,
        node=NodeConfig(
            workers=2,
            cache_dir=str(tmp_path / "cache"),
            **node_kwargs,
        ),
        heartbeat_interval_s=0.5,
        heartbeat_timeout_s=2.0,
        reconnect_base_s=0.02,
        reconnect_cap_s=0.25,
    )
    defaults.update(overrides)
    return RouterConfig(**defaults)


@pytest.mark.slow
class TestTcpTransport:
    def test_campaign_over_real_sockets(self, tmp_path):
        """The pipe-mode guarantees carry over TCP verbatim: every
        request answered ok, one owner, proto:1 round-trips, node
        status reports reachable tcp nodes."""
        metrics_dir = str(tmp_path / "metrics")
        registry = MetricsRegistry()
        config = _tcp_config(
            tmp_path, node_metrics_dir=metrics_dir
        )
        router = Router(config, registry=registry).start()
        try:
            slots = [
                router.submit(
                    {
                        "proto": 1,
                        "id": f"t{k}",
                        "benchmark": "SOBEL",
                        "grid": [10, 12],
                        "seed": 4100 + k,
                    }
                )
                for k in range(12)
            ]
            responses = [slot.result(timeout=120) for slot in slots]
            # A node that owned no requests only proves liveness via
            # heartbeat pongs; the campaign can finish before the
            # first ping lands, so give the monitor a few intervals.
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                status = router.node_status()
                if all(
                    s["last_seen"] is not None for s in status.values()
                ):
                    break
                time.sleep(0.1)
            fabric = router.fabric_snapshot(timeout_s=60)
        finally:
            assert router.close(timeout=120)
        assert [r.id for r in responses] == [
            f"t{k}" for k in range(12)
        ]
        assert all(r.ok for r in responses), [
            r.to_json() for r in responses if not r.ok
        ]
        for r in responses:
            assert Response.from_json(r.to_json()) == r
        # Single-flight still holds over sockets.
        counters = _read_node_counters(metrics_dir)
        assert counters["service_plan_compiles_total"] == 1
        # Liveness bookkeeping: both nodes connected and spoke.
        assert set(status) == {0, 1}
        for node_status in status.values():
            assert node_status["reachable"] is True
            assert node_status["last_seen"] is not None
            assert node_status["start_ms"] > 0
        assert set(fabric["node_status"]) == {"0", "1"}
        # Handshakes succeeded (counted node-side per connection).
        assert counters["service_connections_total"] >= 2

    def test_conn_kill_chaos_drops_nothing(self, tmp_path):
        """Seeded connection kills right after the dispatch write:
        the link dies, the request fails over, nothing is dropped."""
        requests = 10
        kill_rate = 0.45
        retries = 2
        seed, expected_kills = _pick_campaign_seed(
            requests, kill_rate, retries
        )
        registry = MetricsRegistry()
        config = _tcp_config(
            tmp_path,
            max_retries=retries,
            # Router conn chaos draws from ``chaos_seed + 1``.
            chaos_seed=seed - 1,
            conn_kill_rate=kill_rate,
        )
        router = Router(config, registry=registry).start()
        responses = []
        try:
            for k in range(requests):
                slot = router.submit(
                    {
                        "proto": 1,
                        "id": f"ck{k}",
                        "benchmark": "SOBEL",
                        "grid": [10, 12],
                        "seed": 8200 + k,
                        "timeout_s": 120.0,
                    }
                )
                responses.append(slot.result(timeout=150))
        finally:
            assert router.close(timeout=120)
        assert [r.id for r in responses] == [
            f"ck{k}" for k in range(requests)
        ]
        for r in responses:
            assert Response.from_json(r.to_json()) == r
        assert all(r.ok for r in responses), [
            r.to_json() for r in responses if not r.ok
        ]
        counters = registry.snapshot()["counters"]
        conn_kills = sum(
            v for k, v in counters.items()
            if k.startswith("router_chaos_conn_kills_total")
        )
        reconnects = sum(
            v for k, v in counters.items()
            if k.startswith("router_reconnects_total")
        )
        assert conn_kills >= expected_kills
        assert reconnects >= 1
        # A severed connection is not a dead process: the node keeps
        # its warm process across reconnects (no restarts required).
        assert sum(
            v for k, v in counters.items()
            if k.startswith("router_failovers_total")
        ) >= 1


def _pick_socket_chaos_seed(requests, half_open_rate, trickle_rate):
    """A seed where the warm-up compile lands cleanly, exactly one
    request goes half-open (bounding the campaign's wall clock) and
    at least one response gets trickled."""
    for seed in range(5000):
        chaos = ChaosInjector(
            ChaosConfig(
                seed=seed,
                hang_rate=half_open_rate,
                slow_rate=trickle_rate,
            )
        )
        decisions = [
            chaos.decision(f"rt-{k + 1}", 0) for k in range(requests)
        ]
        if decisions[0] != "none":
            continue
        if decisions.count("hang") != 1:
            continue
        if "slow" not in decisions:
            continue
        if decisions[-1] == "hang":
            continue  # let the campaign end on a delivered response
        return seed
    raise AssertionError("no socket chaos seed found")


@pytest.mark.slow
class TestTcpSocketChaos:
    def test_half_open_and_trickle_faults(self, tmp_path):
        """Server-side seeded socket faults: a half-open connection
        (responses silently swallowed, socket stays up) is detected by
        the heartbeat wedge detector and torn down; trickled responses
        arrive intact.  Every request ends in a correct result or a
        clean typed error — never a hang, never silence."""
        requests = 8
        half_open_rate = 0.2
        trickle_rate = 0.25
        seed = _pick_socket_chaos_seed(
            requests, half_open_rate, trickle_rate
        )
        registry = MetricsRegistry()
        config = _tcp_config(
            tmp_path,
            max_retries=1,
            failover_grace_s=1.0,
            node_kwargs=dict(
                extra_args=(
                    "--chaos-seed", str(seed),
                    "--sock-half-open-rate", str(half_open_rate),
                    "--sock-trickle-rate", str(trickle_rate),
                ),
            ),
        )
        router = Router(config, registry=registry).start()
        responses = []
        try:
            for k in range(requests):
                slot = router.submit(
                    {
                        "proto": 1,
                        "id": f"ho{k}",
                        "benchmark": "SOBEL",
                        "grid": [10, 12],
                        "seed": 9300 + k,
                        "timeout_s": 25.0,
                    }
                )
                responses.append(slot.result(timeout=60))
        finally:
            assert router.close(timeout=120)
        assert [r.id for r in responses] == [
            f"ho{k}" for k in range(requests)
        ]
        # Correct result or clean structured error for every request.
        for r in responses:
            assert Response.from_json(r.to_json()) == r
            if not r.ok:
                assert r.status in ("error", "timeout")
                assert r.error is not None
                assert r.error.kind == "worker_lost"
        # The faults actually fired: at least one wedge was detected
        # and the link was rebuilt.
        counters = registry.snapshot()["counters"]
        wedges = sum(
            v for k, v in counters.items()
            if k.startswith("router_node_wedges_total")
        )
        reconnects = sum(
            v for k, v in counters.items()
            if k.startswith("router_reconnects_total")
        )
        assert wedges >= 1
        assert reconnects >= 1
        # Most of the campaign still lands: only the half-open victim
        # may exhaust its budget (its retry re-draws the same seeded
        # fault on every node).
        assert sum(1 for r in responses if r.ok) >= requests - 2


@pytest.mark.slow
class TestCrossRouterLeases:
    def test_two_routers_one_cache_one_compile(self, tmp_path):
        """The headline acceptance: two router processes sharing one
        cache_dir, a concurrent identical burst through both over TCP,
        exactly one cold compile in the whole fabric."""
        cache_dir = str(tmp_path / "cache")
        metrics_dirs = [
            str(tmp_path / f"metrics-{r}") for r in range(2)
        ]
        routers = [
            Router(
                _tcp_config(
                    tmp_path,
                    node=NodeConfig(
                        workers=2,
                        cache_dir=cache_dir,
                    ),
                    node_metrics_dir=metrics_dirs[r],
                ),
                registry=MetricsRegistry(),
            ).start()
            for r in range(2)
        ]
        try:
            slots = [
                (r, router.submit(
                    {
                        "proto": 1,
                        "id": f"x{r}-{k}",
                        "benchmark": "DENOISE",
                        "grid": [10, 12],
                        "seed": 5000 + k,
                    }
                ))
                for k in range(32)
                for r, router in enumerate(routers)
            ]
            responses = [
                (r, slot.result(timeout=180)) for r, slot in slots
            ]
        finally:
            for router in routers:
                assert router.close(timeout=120)
        assert all(resp.ok for _, resp in responses), [
            resp.to_json() for _, resp in responses if not resp.ok
        ]
        # Exactly one cold compile across both routers' four nodes.
        compiles = sum(
            _read_node_counters(d)["service_plan_compiles_total"]
            for d in metrics_dirs
        )
        assert compiles == 1
        # No lease files linger after a clean campaign.
        assert not [
            n for n in os.listdir(cache_dir) if n.endswith(".lease")
        ]

    def test_crashed_holders_lease_never_costs_the_ttl(self, tmp_path):
        """A lease whose holder crashed (dead pid, huge TTL) is stolen
        by pid-liveness on the first poll — the request completes in
        request time, not lease-TTL time."""
        import socket as socket_mod
        import time as time_mod
        import uuid

        from repro.service.lease import lease_path

        cache_dir = str(tmp_path / "cache")
        config = RouterConfig(
            nodes=1,
            node=NodeConfig(workers=2, cache_dir=cache_dir),
        )
        router = Router(config, registry=MetricsRegistry()).start()
        try:
            # Plant the crashed holder *after* startup cleanup ran.
            os.makedirs(cache_dir, exist_ok=True)
            proc = __import__("multiprocessing").Process(
                target=lambda: None
            )
            proc.start()
            proc.join()
            fp = _fp("SOBEL", (10, 12))
            now = time_mod.time()
            with open(
                lease_path(cache_dir, fp), "w", encoding="utf-8"
            ) as fh:
                json.dump(
                    {
                        "token": f"crashed:{uuid.uuid4().hex}",
                        "host": socket_mod.gethostname(),
                        "pid": proc.pid,
                        "acquired_at": now,
                        "expires_at": now + 3600.0,
                    },
                    fh,
                )
            start = time_mod.monotonic()
            response = router.handle(
                {
                    "proto": 1,
                    "benchmark": "SOBEL",
                    "grid": [10, 12],
                    "timeout_s": 60.0,
                },
                wait_timeout=90,
            )
            elapsed = time_mod.monotonic() - start
        finally:
            assert router.close(timeout=120)
        assert response.ok, response.to_json()
        assert response.cache == "miss"  # the waiter stole + compiled
        assert elapsed < 60.0  # nowhere near the 1h TTL

    def test_startup_cleanup_sweeps_crashed_run_artifacts(
        self, tmp_path
    ):
        """Router.start() removes orphaned leases and torn tmp files
        left by a previous crashed run, and counts the sweep."""
        import socket as socket_mod
        import time as time_mod

        cache_dir = str(tmp_path / "cache")
        os.makedirs(cache_dir)
        proc = __import__("multiprocessing").Process(
            target=lambda: None
        )
        proc.start()
        proc.join()
        now = time_mod.time()
        stale_lease = os.path.join(cache_dir, "e" * 64 + ".lease")
        with open(stale_lease, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "token": "crashed",
                    "host": socket_mod.gethostname(),
                    "pid": proc.pid,
                    "acquired_at": now,
                    "expires_at": now + 3600.0,
                },
                fh,
            )
        torn_tmp = os.path.join(cache_dir, "f" * 64 + ".json.tmp")
        with open(torn_tmp, "w", encoding="utf-8") as fh:
            fh.write('{"torn":')
        survivor = os.path.join(cache_dir, "a" * 64 + ".json")
        with open(survivor, "w", encoding="utf-8") as fh:
            fh.write("{}")

        registry = MetricsRegistry()
        config = RouterConfig(
            nodes=1,
            node=NodeConfig(workers=1, cache_dir=cache_dir),
        )
        router = Router(config, registry=registry).start()
        try:
            assert not os.path.exists(stale_lease)
            assert not os.path.exists(torn_tmp)
            assert os.path.exists(survivor)
            counters = registry.snapshot()["counters"]
            assert (
                counters["service_stale_artifacts_removed_total"] == 2
            )
        finally:
            assert router.close(timeout=120)


@pytest.mark.slow
class TestRemoteNodes:
    def test_router_connects_to_an_external_listener(self, tmp_path):
        """``remotes``: the router connects to an already-running
        ``repro serve --listen`` endpoint, supervises the *connection*
        only, and leaves the process running on close."""
        import subprocess
        import sys as sys_mod

        proc = subprocess.Popen(
            [
                sys_mod.executable, "-u", "-m", "repro", "serve",
                "--listen", "127.0.0.1:0",
                "--workers", "2",
                "--cache-dir", str(tmp_path / "cache"),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        try:
            address = None
            for _ in range(200):
                line = proc.stdout.readline()
                if not line:
                    break
                try:
                    address = json.loads(line).get("listening")
                except ValueError:
                    continue
                if address:
                    break
            assert address, "serve --listen never announced its port"
            config = RouterConfig(
                remotes=(address,),
                node=NodeConfig(
                    workers=2,
                    cache_dir=str(tmp_path / "cache"),
                ),
            )
            router = Router(
                config, registry=MetricsRegistry()
            ).start()
            try:
                for k in range(2):
                    response = router.handle(
                        {
                            "proto": 1,
                            "benchmark": "SOBEL",
                            "grid": [10, 12],
                            "seed": 6600 + k,
                        },
                        wait_timeout=120,
                    )
                    assert response.ok, response.to_json()
            finally:
                assert router.close(timeout=60)
            # The router never owned the process: still alive.
            assert proc.poll() is None
        finally:
            if proc.poll() is None:
                proc.stdin.close()  # EOF -> graceful drain + exit
                try:
                    proc.wait(timeout=60)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait(timeout=10)


class _FakeStdout:
    """A child's stdout that logs each read; ``line`` is its one
    announcement, or None for a child that never speaks (each read
    then blocks until the child is killed)."""

    def __init__(self, idx, log, line):
        self.idx = idx
        self.log = log
        self.lines = [line] if line else []
        self.killed = threading.Event()

    def readline(self):
        self.log.append(("read", self.idx))
        if self.lines:
            return self.lines.pop()
        self.killed.wait(30)
        return ""


class _FakeProc:
    def __init__(self, idx, log, line):
        self.stdin = io.StringIO()
        self.stdout = _FakeStdout(idx, log, line)
        self.returncode = None

    def poll(self):
        return self.returncode

    def wait(self, timeout=None):
        if self.returncode is None:
            self.returncode = 0
        return self.returncode

    def kill(self):
        self.returncode = -9
        self.stdout.killed.set()


class TestConcurrentStart:
    """Nodes start at once: launch everything, then take each
    announcement as it arrives, under one deadline."""

    def _fake_fabric(self, monkeypatch, line):
        log, procs = [], []

        def popen(argv, **kwargs):
            proc = _FakeProc(len(procs), log, line)
            log.append(("popen", len(procs)))
            procs.append(proc)
            return proc

        def connect(router, node):
            log.append(("connect", node.idx))
            return False

        monkeypatch.setattr(router_module.subprocess, "Popen", popen)
        monkeypatch.setattr(Router, "_connect", connect)
        router = Router(
            RouterConfig(nodes=3, monitor_interval_s=60.0),
            registry=MetricsRegistry(),
        )
        return router, log, procs

    def test_every_node_is_launched_before_any_announcement_is_read(
        self, monkeypatch
    ):
        router, log, _ = self._fake_fabric(
            monkeypatch, json.dumps({"listening": "127.0.0.1:9"}) + "\n"
        )
        router.start()
        router.close(timeout=5)
        kinds = [kind for kind, _ in log]
        first_read = kinds.index("read")
        assert kinds[:first_read] == ["popen"] * 3
        assert sorted(i for kind, i in log if kind == "connect") == [
            0, 1, 2,
        ]

    def test_silent_children_share_one_deadline(self, monkeypatch):
        monkeypatch.setattr(router_module, "ANNOUNCE_TIMEOUT_S", 0.5)
        router, log, procs = self._fake_fabric(monkeypatch, None)
        started = time.monotonic()
        router.start()
        elapsed = time.monotonic() - started
        router.close(timeout=5)
        # One 0.5 s deadline for three silent children, not three.
        assert 0.5 <= elapsed < 1.2, elapsed
        assert [proc.returncode for proc in procs] == [-9, -9, -9]
        assert not any(kind == "connect" for kind, _ in log)

    def test_top_shows_each_nodes_last_start(self):
        text = format_fabric_summary(
            [("router", MetricsRegistry().snapshot()), ("node-0", None)],
            {"node-0": {"reachable": False, "start_ms": 412.34}},
        )
        header = next(
            line for line in text.splitlines() if line.startswith("source")
        )
        assert "start_ms" in header
        assert "412.3" in text


@pytest.mark.slow
class TestSilentRespawn:
    def test_silent_respawn_never_stalls_supervision(
        self, tmp_path, monkeypatch
    ):
        """A respawned child that never announces is killed at the
        deadline and relaunched with backoff, while the sibling keeps
        answering requests and heartbeats."""
        monkeypatch.setattr(router_module, "ANNOUNCE_TIMEOUT_S", 1.0)
        registry = MetricsRegistry()
        config = _tcp_config(
            tmp_path,
            heartbeat_interval_s=0.1,
            reconnect_base_s=0.1,
            reconnect_cap_s=0.2,
        )
        request = {"proto": 1, "benchmark": "SOBEL", "grid": [10, 12]}

        def pongs():
            histograms = registry.snapshot()["histograms"]
            rtt = histograms.get("router_heartbeat_rtt_ms", {})
            return rtt.get("count", 0)

        def counter(name, node):
            counters = registry.snapshot()["counters"]
            return counters.get(f'{name}{{node="{node}"}}', 0)

        router = Router(config, registry=registry).start()
        try:
            assert router.handle(dict(request, seed=0), 120).ok
            silent = router._nodes[1]
            silent._argv = lambda: [
                sys.executable, "-c", "import time; time.sleep(60)",
            ]
            silent.kill()
            before = pongs()
            procs, up = [], []
            window_end = time.monotonic() + 3.0
            seed = 1
            while time.monotonic() < window_end:
                if silent.proc is not None and not any(
                    p is silent.proc for p in procs
                ):
                    procs.append(silent.proc)
                up.append(
                    registry.snapshot()["gauges"]['router_node_up{node="0"}']
                )
                assert router.handle(dict(request, seed=seed), 30).ok
                seed += 1
                time.sleep(0.05)
            heartbeats = pongs() - before
            restarts = counter("router_node_restarts_total", 1)
        finally:
            assert router.close(timeout=30)
        assert set(up) == {1}
        assert heartbeats >= 10, heartbeats
        # Killed at the 1 s deadline and relaunched, more than once.
        assert restarts >= 2, restarts
        assert len(procs) >= 3, len(procs)
        assert all(p.poll() is not None for p in procs)
        assert procs[1].returncode == -9
        # A node that is still starting is never dialled.
        assert counter("router_connect_failures_total", 1) == 0


class _UnreadPeer:
    """A ``repro serve --listen`` impostor: it answers the handshake of
    its one connection, then never reads another byte, so a large
    enough write into it blocks once both socket buffers are full.  It
    accepts no reconnect, so nothing else is placed on it later."""

    def __init__(self):
        import socket

        from repro.service.transport import Hello

        self._hello = Hello(node_id="unread", role="server").to_json()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        # Small buffers, set before listen() so accepted sockets get
        # them: a few KiB fill them.
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(8)
        self.address = "%s:%d" % self._listener.getsockname()[:2]
        self._conns = []
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self):
        try:
            sock, _ = self._listener.accept()
        except OSError:
            return
        self._listener.close()
        self._conns.append(sock)
        sock.makefile("rb").readline()  # the client's hello
        sock.sendall(
            (json.dumps(self._hello, sort_keys=True) + "\n").encode()
        )

    def close(self):
        self._listener.close()
        for sock in self._conns:
            sock.close()


class TestUnreadPeer:
    def test_a_peer_that_stops_reading_stalls_nothing(
        self, monkeypatch
    ):
        """A node that completes the handshake and then never reads:
        the write blocked on it gives up after the send timeout, its
        request fails over to the other node, and meanwhile the other
        node keeps answering requests and heartbeats."""
        from repro.service import transport
        from repro.service.api import ServiceConfig, StencilService
        from repro.service.transport import SocketServer

        monkeypatch.setattr(transport, "SEND_TIMEOUT_S", 1.0)
        stuck = _UnreadPeer()
        service = StencilService(
            ServiceConfig(workers=1), registry=MetricsRegistry()
        ).start()
        server = SocketServer(service)
        server.start()
        registry = MetricsRegistry()
        router = Router(
            RouterConfig(
                remotes=(stuck.address, "%s:%d" % server.address),
                heartbeat_interval_s=0.05,
                heartbeat_timeout_s=60.0,  # only the send timeout helps
            ),
            registry=registry,
        ).start()

        def homed_on(idx):
            for rows in range(10, 60):
                if rendezvous_order(_fp("SOBEL", (rows, 12)), 2)[0] == idx:
                    return [rows, 12]
            raise AssertionError("no grid homes there")

        def pongs():
            histograms = registry.snapshot()["histograms"]
            return histograms.get("router_heartbeat_rtt_ms", {}).get(
                "count", 0
            )

        # Megabytes of trace id: far more than the buffers hold.
        big = {
            "proto": 1, "benchmark": "SOBEL", "grid": homed_on(0),
            "trace_id": "a" * (8 << 20),
        }
        small = {"proto": 1, "benchmark": "SOBEL", "grid": homed_on(1)}
        result = {}

        def submit_big():
            result["slot"] = router.submit(big)

        writer = threading.Thread(target=submit_big, daemon=True)
        try:
            assert router.handle(dict(small, seed=0), 60).ok
            before = pongs()
            writer.start()
            seed, answered = 1, 0
            deadline = time.monotonic() + 10.0
            while writer.is_alive() and time.monotonic() < deadline:
                response = router.handle(dict(small, seed=seed), 10)
                assert response.ok and response.node == 1
                answered += 1
                seed += 1
                time.sleep(0.05)
            during = pongs() - before
            writer.join(timeout=0.1)
            assert not writer.is_alive(), "the write never gave up"
            response = result["slot"].result(60)
            counters = registry.snapshot()["counters"]
        finally:
            router.close(timeout=5)
            server.stop()
            service.shutdown()
            stuck.close()
        assert response.ok and response.node == 1
        assert counters.get("router_failovers_total", 0) >= 1
        assert answered >= 5, answered
        # The supervisor kept pinging the healthy node throughout.
        assert during >= 5, during
