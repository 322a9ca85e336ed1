"""Unit tests for repro.service: fingerprinting, cache, scheduler, API."""

import json
import os
import threading
import time

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.service import (
    CachedPlan,
    CompileOptions,
    PlanCache,
    QueueClosedError,
    Scheduler,
    ServiceConfig,
    StencilService,
    fingerprint,
)
from repro.service.executor import compile_plan
from repro.stencil import DENOISE, SOBEL
from repro.stencil.spec import StencilSpec

from conftest import small_spec


def make_plan(fp="f" * 64, pad=0):
    """A synthetic cache entry; ``pad`` inflates its encoded size."""
    return CachedPlan(
        fingerprint=fp,
        spec={"pad": "x" * pad},
        options={"offchip_streams": 1},
        fifo_capacities=[3, 1, 1, 3],
        filter_order=["w"],
        num_banks=4,
        total_buffer=8,
        summary={},
    )


class TestFingerprint:
    def test_deterministic(self):
        spec = small_spec(DENOISE)
        opts = CompileOptions()
        assert fingerprint(spec, opts) == fingerprint(spec, opts)

    def test_name_excluded(self):
        """Renamed copies of a spec share one cache entry."""
        spec = small_spec(DENOISE)
        renamed = StencilSpec(
            name="DENOISE_COPY",
            grid=spec.grid,
            window=spec.window,
            expression=spec.expression,
            iteration_domain=spec.iteration_domain,
            input_array=spec.input_array,
            output_array=spec.output_array,
        )
        opts = CompileOptions()
        assert fingerprint(spec, opts) == fingerprint(renamed, opts)

    def test_sensitive_to_grid_and_options(self):
        spec = small_spec(DENOISE)
        base = fingerprint(spec, CompileOptions())
        assert fingerprint(spec.with_grid((14, 18)), CompileOptions()) != base
        assert fingerprint(spec, CompileOptions(offchip_streams=2)) != base

    def test_distinct_benchmarks_distinct(self):
        opts = CompileOptions()
        fps = {
            fingerprint(small_spec(s), opts) for s in (DENOISE, SOBEL)
        }
        assert len(fps) == 2

    def test_bad_options_rejected(self):
        with pytest.raises(ValueError):
            CompileOptions(offchip_streams=0)


class TestPlanCache:
    def test_lru_entry_bound(self):
        cache = PlanCache(max_entries=2)
        for k in range(3):
            cache.put(make_plan(fp=f"{k:064d}"))
        assert cache.get("0" * 64) is None  # oldest evicted
        assert cache.get(f"{1:064d}") is not None
        assert cache.get(f"{2:064d}") is not None
        assert cache.stats.evictions == 1
        assert cache.stats.entries == 2

    def test_lru_promotion_on_get(self):
        cache = PlanCache(max_entries=2)
        cache.put(make_plan(fp="a" * 64))
        cache.put(make_plan(fp="b" * 64))
        cache.get("a" * 64)  # promote; "b" becomes the LRU victim
        cache.put(make_plan(fp="c" * 64))
        assert cache.get("a" * 64) is not None
        assert cache.get("b" * 64) is None

    def test_byte_bound(self):
        one = make_plan(fp="a" * 64, pad=512)
        cache = PlanCache(max_entries=10, max_bytes=one.encoded_size() + 8)
        cache.put(one)
        cache.put(make_plan(fp="b" * 64, pad=512))
        assert cache.stats.entries == 1  # no room for both
        assert cache.get("b" * 64) is not None

    def test_sole_oversized_entry_kept(self):
        cache = PlanCache(max_entries=4, max_bytes=16)
        cache.put(make_plan(pad=512))
        assert cache.stats.entries == 1

    def test_disk_persistence(self, tmp_path):
        first = PlanCache(disk_dir=str(tmp_path))
        first.put(make_plan())
        assert os.path.exists(tmp_path / ("f" * 64 + ".json"))
        fresh = PlanCache(disk_dir=str(tmp_path))
        plan = fresh.get("f" * 64)
        assert plan is not None and plan.num_banks == 4
        assert fresh.stats.disk_hits == 1

    def test_disk_rejects_stale_version(self, tmp_path):
        stale = make_plan()
        stale.version = -5
        path = tmp_path / ("f" * 64 + ".json")
        path.write_text(json.dumps(stale.to_json()))
        assert PlanCache(disk_dir=str(tmp_path)).get("f" * 64) is None

    def test_disk_rejects_misfiled_entry(self, tmp_path):
        path = tmp_path / ("a" * 64 + ".json")
        path.write_text(json.dumps(make_plan(fp="b" * 64).to_json()))
        assert PlanCache(disk_dir=str(tmp_path)).get("a" * 64) is None

    def test_torn_disk_file_is_miss_and_deleted(self, tmp_path):
        """Regression: a torn write used to raise on the request path
        and the damaged file survived to poison every later lookup."""
        from repro.service.chaos import corrupt_disk_file

        seeder = PlanCache(disk_dir=str(tmp_path))
        seeder.put(make_plan())
        path = tmp_path / ("f" * 64 + ".json")
        corrupt_disk_file(str(path), "torn_json")

        reg = MetricsRegistry()
        cache = PlanCache(disk_dir=str(tmp_path), registry=reg)
        assert cache.get("f" * 64) is None  # a miss, not an exception
        assert not path.exists()  # the wreck is gone
        assert cache.stats.corrupt_files == 1
        counters = reg.snapshot()["counters"]
        assert counters["service_cache_disk_corrupt_total"] == 1
        # And the slot is immediately reusable.
        cache.put(make_plan())
        fresh = PlanCache(disk_dir=str(tmp_path))
        assert fresh.get("f" * 64) is not None

    def test_eviction_and_occupancy_telemetry(self):
        reg = MetricsRegistry()
        cache = PlanCache(max_entries=2, registry=reg)
        for k in range(3):
            cache.put(make_plan(fp=f"{k:064d}"))
        snap = reg.snapshot()
        assert snap["counters"]["service_cache_evictions_total"] == 1
        assert snap["gauges"]["service_cache_entries"] == 2
        assert snap["gauges"]["service_cache_bytes"] == cache.stats.bytes
        assert cache.stats.bytes > 0

    def test_disk_tier_telemetry(self, tmp_path):
        seeder = PlanCache(disk_dir=str(tmp_path))
        seeder.put(make_plan(fp="a" * 64))
        reg = MetricsRegistry()
        cache = PlanCache(disk_dir=str(tmp_path), registry=reg)
        assert cache.get("a" * 64) is not None  # promoted from disk
        assert cache.get("b" * 64) is None  # disk miss
        counters = reg.snapshot()["counters"]
        assert (
            counters['service_cache_disk_lookups_total{outcome="hit"}']
            == 1
        )
        assert (
            counters['service_cache_disk_lookups_total{outcome="miss"}']
            == 1
        )
        assert counters["service_cache_disk_promotions_total"] == 1
        assert cache.stats.disk_lookups == 2
        assert cache.stats.disk_hit_rate() == 0.5

    def test_disk_hit_rate_none_without_disk_tier(self):
        cache = PlanCache()
        cache.get("a" * 64)
        assert cache.stats.disk_hit_rate() is None

    def test_invalidate_drops_both_tiers(self, tmp_path):
        cache = PlanCache(disk_dir=str(tmp_path))
        cache.put(make_plan())
        assert cache.invalidate("f" * 64)
        assert cache.get("f" * 64) is None
        assert not os.path.exists(tmp_path / ("f" * 64 + ".json"))

    def test_single_flight_compiles_once(self):
        cache = PlanCache()
        calls = []
        gate = threading.Event()

        def compile_fn():
            calls.append(1)
            gate.wait(2.0)
            return make_plan()

        outcomes = []

        def worker():
            _, outcome = cache.get_or_compile("f" * 64, compile_fn)
            outcomes.append(outcome)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        time.sleep(0.1)  # let followers pile onto the flight
        gate.set()
        for t in threads:
            t.join(5.0)
        assert len(calls) == 1
        assert outcomes.count("miss") == 1
        assert set(outcomes) <= {"miss", "coalesced", "hit"}

    def test_single_flight_shares_failure(self):
        cache = PlanCache()

        def boom():
            raise RuntimeError("synthesis exploded")

        with pytest.raises(RuntimeError):
            cache.get_or_compile("f" * 64, boom)
        # The failed flight is cleaned up: the next caller retries.
        plan, outcome = cache.get_or_compile("f" * 64, make_plan)
        assert outcome == "miss" and plan is not None

    def test_compile_plan_matches_memory_system(self):
        spec = small_spec(DENOISE)
        opts = CompileOptions()
        plan = compile_plan(spec, opts, fingerprint(spec, opts))
        assert plan.fifo_capacities == [15, 1, 1, 15]
        assert plan.num_banks == 4
        assert plan.summary["name"] == "DENOISE"


class TestScheduler:
    def test_rejects_when_closed(self):
        sched = Scheduler(max_queue=4)
        sched.close()
        with pytest.raises(QueueClosedError):
            sched.submit(object(), block=False)

    def test_bounded_nonblocking(self):
        sched = Scheduler(max_queue=1)
        assert sched.submit(object(), block=False)
        assert not sched.submit(object(), block=False)

    def test_drain_waits_for_slots(self):
        sched = Scheduler(max_queue=4)
        slot = sched.make_slot()
        sched.close()
        assert not sched.wait_drained(timeout=0.05)
        slot.resolve({"status": "ok"})
        assert sched.wait_drained(timeout=1.0)
        assert sched.idle()

    def test_slot_first_writer_wins(self):
        sched = Scheduler()
        slot = sched.make_slot()
        assert slot.resolve({"status": "ok"})
        assert not slot.resolve({"status": "error"})
        assert slot.result()["status"] == "ok"
        assert sched.unresolved == 0


class TestServiceApi:
    def _service(self, **overrides):
        defaults = dict(workers=2, max_queue=32, default_timeout_s=10.0)
        defaults.update(overrides)
        return StencilService(
            ServiceConfig(**defaults), registry=MetricsRegistry()
        )

    def test_spec_request_round_trip(self):
        spec = small_spec(SOBEL)
        with self._service() as svc:
            reply = svc.handle(
                {"proto": 1, "spec": spec.to_json(), "validate": True},
                wait_timeout=30.0,
            )
        assert reply.status == "ok"
        assert reply.benchmark == "SOBEL"
        assert reply.validated is True

    def test_same_seed_same_checksum(self):
        with self._service() as svc:
            req = {"proto": 1, "benchmark": "DENOISE", "grid": [12, 16],
                   "seed": 7}
            first = svc.handle(req, wait_timeout=30.0)
            second = svc.handle(req, wait_timeout=30.0)
        assert first.status == second.status == "ok"
        assert first.checksum == second.checksum
        assert first.fingerprint == second.fingerprint
        assert second.cache == "hit"

    def test_invalid_requests_get_responses(self):
        with self._service() as svc:
            bad = [
                {"proto": 1},  # neither benchmark nor spec
                {"proto": 1, "benchmark": "DENOISE", "spec": {}},  # both
                {"proto": 1, "benchmark": "NOPE"},
                {"proto": 1, "benchmark": "DENOISE", "grid": "12xbanana"},
                {"proto": 1, "benchmark": "DENOISE", "grid": [0, 5]},
                {"proto": 1, "benchmark": "DENOISE", "timeout_s": -1},
            ]
            replies = [svc.handle(r, wait_timeout=10.0) for r in bad]
        assert [r.status for r in replies] == ["invalid"] * len(bad)
        assert all(r.error is not None for r in replies)

    def test_unversioned_request_is_invalid(self):
        with self._service() as svc:
            reply = svc.submit(
                {"id": "bare", "benchmark": "DENOISE", "grid": [12, 16]}
            ).result(5.0)
            after = svc.handle(
                {"proto": 1, "benchmark": "DENOISE", "grid": [12, 16]},
                wait_timeout=30.0,
            )
        assert reply.status == "invalid"
        assert reply.id == "bare"
        assert reply.error.kind == "unsupported_proto"
        assert after.status == "ok"
        counters = svc.metrics.snapshot()["counters"]
        assert counters['service_requests_total{status="invalid"}'] == 1
        assert counters['service_requests_total{status="ok"}'] == 1

    def test_bad_json_line(self):
        with self._service() as svc:
            reply = svc.submit_json("{not json").result(5.0)
        assert reply.status == "invalid"

    def test_metrics_control_request(self):
        """A ``{"control": "metrics"}`` document on the request
        channel answers with this node's full registry snapshot."""
        with self._service() as svc:
            assert (
                svc.handle(
                    {"proto": 1, "benchmark": "DENOISE", "grid": [12, 16]},
                    wait_timeout=30.0,
                ).status
                == "ok"
            )
            reply = svc.submit(
                {"proto": 1, "id": "ctl-1", "control": "metrics"}
            ).result(10.0)
        assert reply.ok and reply.id == "ctl-1"
        snap = reply.summary
        assert set(snap) >= {"counters", "gauges", "histograms"}
        assert (
            snap["counters"]['service_requests_total{status="ok"}']
            == 1  # the control itself is not counted as a request
        )
        assert any(
            k.startswith("service_stage_ms") for k in snap["histograms"]
        )

    def test_unknown_control_verb_rejected(self):
        with self._service() as svc:
            reply = svc.submit(
                {"proto": 1, "id": "ctl-2", "control": "reboot"}
            ).result(10.0)
        assert not reply.ok
        assert reply.status == "invalid"
        assert reply.error.kind == "bad_request"

    def test_retry_then_succeed(self):
        failures = {"count": 0}

        def flaky(item):
            if failures["count"] < 2:
                failures["count"] += 1
                raise RuntimeError("transient fault")

        svc = StencilService(
            ServiceConfig(workers=1, max_retries=2, retry_backoff_s=0.01),
            registry=MetricsRegistry(),
            fault_hook=flaky,
        )
        with svc:
            reply = svc.handle(
                {"proto": 1, "benchmark": "DENOISE", "grid": [12, 16]},
                wait_timeout=30.0,
            )
        assert reply.status == "ok"
        assert reply.attempts == 3
        snap = svc.metrics.snapshot()
        assert snap["counters"]["service_retries_total"] == 2

    def test_retries_exhausted(self):
        def always(item):
            raise RuntimeError("permanent fault")

        svc = StencilService(
            ServiceConfig(workers=1, max_retries=1, retry_backoff_s=0.01),
            registry=MetricsRegistry(),
            fault_hook=always,
        )
        with svc:
            reply = svc.handle(
                {"proto": 1, "benchmark": "DENOISE", "grid": [12, 16]},
                wait_timeout=30.0,
            )
        assert reply.status == "error"
        assert "permanent fault" in reply.error.detail

    def test_queued_deadline_times_out(self):
        gate = threading.Event()

        def slow(item):
            if item.raw.get("slow"):
                gate.wait(2.0)

        svc = StencilService(
            ServiceConfig(workers=1, max_batch=1),
            registry=MetricsRegistry(),
            fault_hook=slow,
        )
        svc.start()
        blocker = svc.submit(
            {"proto": 1, "benchmark": "DENOISE", "grid": [12, 16],
             "slow": True}
        )
        victim = svc.submit(
            {"proto": 1, "benchmark": "DENOISE", "grid": [12, 16],
             "timeout_s": 0.05}
        )
        time.sleep(0.3)  # victim's deadline passes while queued
        gate.set()
        assert victim.result(10.0).status == "timeout"
        assert blocker.result(10.0).status == "ok"
        svc.shutdown()

    def test_nondrain_shutdown_cancels_queued(self):
        gate = threading.Event()

        def slow(item):
            gate.wait(2.0)

        svc = StencilService(
            ServiceConfig(workers=1, max_batch=1),
            registry=MetricsRegistry(),
            fault_hook=slow,
        )
        svc.start()
        slots = [
            svc.submit({"proto": 1, "benchmark": "DENOISE", "grid": [12, 16]})
            for _ in range(4)
        ]
        time.sleep(0.2)  # worker picks up the first, rest stay queued
        threading.Timer(0.5, gate.set).start()  # unblock mid-drain
        svc.shutdown(drain=False, timeout=10.0)
        statuses = [s.result(5.0).status for s in slots]
        assert statuses.count("cancelled") >= 1
        assert all(s in ("ok", "cancelled") for s in statuses)

    def test_submit_after_close_is_rejected(self):
        svc = self._service()
        svc.start()
        svc.scheduler.close()
        reply = svc.submit(
            {"proto": 1, "benchmark": "DENOISE", "grid": [12, 16]}
        ).result(5.0)
        assert reply.status == "rejected"
        assert "draining" in reply.error.detail
        svc.shutdown()

    def test_submit_after_shutdown_does_not_restart_workers(self):
        """A request that reaches a drained service (a TCP node
        between its drain and closing its connections) is rejected;
        it must not start a fresh set of workers nobody stops."""
        svc = self._service()
        svc.start()
        svc.shutdown()
        reply = svc.submit(
            {"proto": 1, "benchmark": "DENOISE", "grid": [12, 16]}
        ).result(5.0)
        assert reply.status == "rejected"
        assert reply.error.kind == "draining"
        assert svc.executor._threads == []

    def test_reply_callback_sees_the_request_counted(self):
        """The executor records a request's metrics before it
        publishes the reply, so a done callback (the TCP reply write)
        never runs ahead of the node's counters."""
        svc = self._service(workers=1)
        seen = []
        try:
            slot = svc.submit(
                {"proto": 1, "benchmark": "DENOISE", "grid": [24, 32]}
            )
            slot.add_done_callback(
                lambda response: seen.append(
                    (
                        response.status,
                        svc.metrics.counter(
                            "service_requests_total", {"status": "ok"}
                        ).value,
                        svc.metrics.histogram(
                            "service_stage_ms", {"stage": "node_total"}
                        ).count,
                        threading.current_thread()
                        is not threading.main_thread(),
                    )
                )
            )
            assert slot.result(10.0).status == "ok"
        finally:
            svc.shutdown()
        assert seen == [("ok", 1, 1, True)]
