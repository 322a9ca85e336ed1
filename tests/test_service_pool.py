"""Tests for repro.service.pool: sharding, breakers, supervised workers.

The process-pool executor's contract is the scheduler's, hardened
against real process death: every admitted request resolves with a
structured response even when the worker executing it is killed out
from under it.  These tests exercise the parent-side machinery
directly (CircuitBreaker, shard routing) and the full pool through
:class:`StencilService` in ``worker_mode="process"``.
"""

import time
from collections import OrderedDict

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.service import ServiceConfig, StencilService
from repro.service.plancache import CachedPlan
from repro.service.pool import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    WORKER_PLAN_ENTRIES,
    CircuitBreaker,
    _remember_plan,
    _worker_plan,
    shard_of,
)
from repro.stencil import DENOISE, SOBEL

from conftest import small_spec


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


class TestCircuitBreaker:
    def test_opens_after_threshold_failures(self):
        clock = FakeClock()
        b = CircuitBreaker(threshold=3, cooldown_s=5.0, clock=clock)
        assert b.state == BREAKER_CLOSED
        assert b.record_failure() is None
        assert b.record_failure() is None
        assert b.record_failure() == BREAKER_OPEN
        assert b.state == BREAKER_OPEN
        assert not b.allow()

    def test_success_resets_failure_streak(self):
        b = CircuitBreaker(threshold=2, clock=FakeClock())
        b.record_failure()
        b.record_success()  # streak broken
        assert b.record_failure() is None
        assert b.state == BREAKER_CLOSED

    def test_half_open_after_cooldown_then_closes(self):
        clock = FakeClock()
        b = CircuitBreaker(threshold=1, cooldown_s=5.0, clock=clock)
        b.record_failure()
        assert not b.allow()
        clock.advance(5.1)
        assert b.allow()  # the half-open probe
        assert b.state == BREAKER_HALF_OPEN
        assert b.record_success() == BREAKER_CLOSED
        assert b.allow()

    def test_half_open_failure_reopens_immediately(self):
        clock = FakeClock()
        b = CircuitBreaker(threshold=3, cooldown_s=5.0, clock=clock)
        for _ in range(3):
            b.record_failure()
        clock.advance(5.1)
        assert b.allow()
        # One failure in half-open re-opens, regardless of threshold.
        assert b.record_failure() == BREAKER_OPEN
        assert not b.allow()
        clock.advance(2.0)  # cooldown restarted at the re-open
        assert not b.allow()

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=0)

    def test_retry_after_tracks_cooldown_remaining(self):
        clock = FakeClock()
        b = CircuitBreaker(threshold=1, cooldown_s=5.0, clock=clock)
        assert b.retry_after_s() == 0.0  # closed: no hint
        b.record_failure()
        assert b.retry_after_s() == pytest.approx(5.0)
        clock.advance(3.5)
        assert b.retry_after_s() == pytest.approx(1.5)
        clock.advance(2.0)  # past the cooldown: probe allowed
        assert b.retry_after_s() == 0.0
        assert b.allow()  # half-open
        assert b.retry_after_s() == 0.0


class TestShardOf:
    def test_stable_and_in_range(self):
        fp = "a" * 64
        first = shard_of(fp, 4)
        assert first == shard_of(fp, 4)
        assert 0 <= first < 4

    def test_hops_cycle_every_sibling(self):
        fp = "b" * 64
        shards = {shard_of(fp, 4, hops=h) for h in range(4)}
        assert shards == {0, 1, 2, 3}

    def test_distinct_fingerprints_spread(self):
        shards = {
            shard_of(f"{k:064d}", 4) for k in range(64)
        }
        assert shards == {0, 1, 2, 3}


class TestWorkerPlanMemo:
    @staticmethod
    def plan(k):
        return CachedPlan(
            fingerprint=f"{k:064d}",
            spec={},
            options={},
            fifo_capacities=[1],
            filter_order=["a"],
            num_banks=1,
            total_buffer=1,
            summary={},
        )

    def test_lru_keeps_the_plan_a_job_just_used(self):
        plans = OrderedDict()
        for k in range(WORKER_PLAN_ENTRIES):
            _remember_plan(plans, self.plan(k))
        hot = plans[self.plan(0).fingerprint]
        stage = {"fingerprint": hot.fingerprint, "plan": hot.to_json()}
        used = _worker_plan(plans, stage)
        assert used is hot  # identical content: the local copy
        _remember_plan(plans, used)
        _remember_plan(plans, self.plan(WORKER_PLAN_ENTRIES))
        assert len(plans) == WORKER_PLAN_ENTRIES
        assert hot.fingerprint in plans
        assert self.plan(1).fingerprint not in plans

    def test_parent_miss_drops_the_local_copy(self):
        plans = OrderedDict()
        _remember_plan(plans, self.plan(0))
        stage = {"fingerprint": self.plan(0).fingerprint, "plan": None}
        assert _worker_plan(plans, stage) is None
        assert not plans


def process_service(**overrides):
    defaults = dict(
        workers=2,
        max_queue=64,
        default_timeout_s=30.0,
        worker_mode="process",
    )
    defaults.update(overrides)
    return StencilService(
        ServiceConfig(**defaults), registry=MetricsRegistry()
    )


class TestProcessPool:
    def test_round_trip_matches_thread_mode(self):
        """Process-pool responses agree with the thread executor's."""
        req = {"benchmark": "DENOISE", "grid": [12, 16], "seed": 7}
        with process_service() as svc:
            pooled = svc.handle(dict(req), wait_timeout=60.0)
        thread_svc = StencilService(
            ServiceConfig(workers=2), registry=MetricsRegistry()
        )
        with thread_svc:
            threaded = thread_svc.handle(dict(req), wait_timeout=60.0)
        assert pooled["status"] == threaded["status"] == "ok"
        assert pooled["checksum"] == threaded["checksum"]
        assert pooled["fingerprint"] == threaded["fingerprint"]

    def test_repeat_requests_hit_cache(self):
        req = {"benchmark": "SOBEL", "grid": [10, 12]}
        with process_service() as svc:
            first = svc.handle(dict(req), wait_timeout=60.0)
            second = svc.handle(dict(req), wait_timeout=60.0)
            snap = svc.metrics.snapshot()
        assert first["status"] == second["status"] == "ok"
        assert first["cache"] == "miss"
        assert second["cache"] == "hit"
        counters = snap["counters"]
        assert counters['service_pool_jobs_total{outcome="ok"}'] >= 2

    def test_validate_runs_in_worker(self):
        spec = small_spec(DENOISE)
        with process_service() as svc:
            reply = svc.handle(
                {"spec": spec.to_json(), "validate": True},
                wait_timeout=60.0,
            )
        assert reply["status"] == "ok"
        assert reply["validated"] is True

    def test_distinct_fingerprints_all_serve(self):
        with process_service() as svc:
            slots = [
                svc.submit(
                    {"benchmark": name, "grid": list(grid)}
                )
                for name, grid in (
                    ("DENOISE", (12, 16)),
                    ("SOBEL", (10, 12)),
                    ("RICIAN", (12, 16)),
                    ("BICUBIC", (11, 13)),
                )
            ]
            replies = [s.result(60.0) for s in slots]
        assert [r["status"] for r in replies] == ["ok"] * 4
        assert len({r["fingerprint"] for r in replies}) == 4

    def test_breaker_state_defaults_closed(self):
        with process_service() as svc:
            assert svc.executor.breaker_state("0" * 64) == "closed"


class TestDrainUnderFaults:
    def test_drain_with_killed_worker_drops_nothing(self):
        """Satellite: a full queue plus one murdered worker process
        still yields a response for every admitted request."""
        svc = process_service(workers=2, max_batch=4, max_retries=3)
        svc.start()
        slots = [
            svc.submit(
                {
                    "id": f"drain-{k}",
                    "benchmark": "DENOISE" if k % 2 else "SOBEL",
                    "grid": [12, 16] if k % 2 else [10, 12],
                    "seed": k,
                }
            )
            for k in range(16)
        ]
        # Kill one worker mid-flight, the way the OOM killer would.
        time.sleep(0.05)
        victim = svc.executor._shards[0]
        if victim.proc is not None:
            victim.proc.kill()
        drained = svc.shutdown(drain=True, timeout=60.0)
        assert drained
        replies = [s.result(5.0) for s in slots]
        # Zero dropped-without-response: every slot resolved with a
        # structured status, and a kill is never a wrong answer.
        assert len(replies) == 16
        assert all(
            r["status"] in ("ok", "error", "timeout") for r in replies
        )
        assert sum(r["status"] == "ok" for r in replies) >= 14
        assert svc.scheduler.unresolved == 0

    def test_idle_worker_death_is_respawned(self):
        with process_service(workers=2) as svc:
            first = svc.handle(
                {"benchmark": "SOBEL", "grid": [10, 12]},
                wait_timeout=60.0,
            )
            assert first["status"] == "ok"
            for shard in svc.executor._shards:
                shard.proc.kill()
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if all(s.alive() for s in svc.executor._shards):
                    break
                time.sleep(0.05)
            reply = svc.handle(
                {"benchmark": "SOBEL", "grid": [10, 12]},
                wait_timeout=60.0,
            )
            snap = svc.metrics.snapshot()
        assert reply["status"] == "ok"
        restarts = sum(
            v
            for k, v in snap["counters"].items()
            if k.startswith("service_worker_restarts_total")
        )
        assert restarts >= 1
