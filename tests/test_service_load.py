"""Service acceptance tests: load, cache speedup, and the sim canary.

Covers the three service-level guarantees from the roadmap:

* **load** — >= 500 concurrent submissions of mixed paper benchmarks
  through a queue much smaller than the request count (bounded memory
  via backpressure), with zero dropped-without-response requests and a
  clean drain on shutdown;
* **speedup** — the warm cache-hit compile path is >= 10x faster than a
  cold compile, asserted from the ``service_compile_ms`` histograms in
  :mod:`repro.obs`;
* **canary** — a fault-injection test flips a FIFO depth inside a
  cached plan and the sampled cycle-sim validation catches it, counts
  it, and evicts the poisoned entry from both cache tiers.
"""

import json
import threading

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.service import CachedPlan, ServiceConfig, StencilService

from conftest import SMALL_GRIDS

N_REQUESTS = 520
N_SUBMITTERS = 8


def _mixed_requests(n):
    names = sorted(SMALL_GRIDS)
    return [
        {
            "proto": 1,
            "id": f"load-{k}",
            "benchmark": names[k % len(names)],
            "grid": list(SMALL_GRIDS[names[k % len(names)]]),
            "seed": k % 17,
            "timeout_s": 120.0,
        }
        for k in range(n)
    ]


def _hist(snapshot, name, **labels):
    pairs = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
    key = f"{name}{{{pairs}}}" if pairs else name
    return snapshot["histograms"].get(key)


class TestServiceLoad:
    def test_500_concurrent_submissions(self):
        registry = MetricsRegistry()
        config = ServiceConfig(
            workers=8,
            max_queue=64,  # bounded: far fewer slots than requests
            max_batch=16,
            validate_every=0,
        )
        requests = _mixed_requests(N_REQUESTS)
        slots = [None] * len(requests)

        with StencilService(config, registry=registry) as svc:
            lanes = [
                requests[k::N_SUBMITTERS] for k in range(N_SUBMITTERS)
            ]
            offsets = list(range(N_SUBMITTERS))

            def submitter(lane, offset):
                for j, req in enumerate(lane):
                    # block=True: backpressure, never an unbounded queue
                    slots[offset + j * N_SUBMITTERS] = svc.submit(req)

            threads = [
                threading.Thread(target=submitter, args=(lane, off))
                for lane, off in zip(lanes, offsets)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(120.0)
            replies = [slot.result(120.0) for slot in slots]

        # Zero dropped-without-response: every slot resolved, id intact.
        assert len(replies) == N_REQUESTS
        assert [r.id for r in replies] == [
            r["id"] for r in requests
        ]
        statuses = {r.status for r in replies}
        assert statuses == {"ok"}, statuses

        # Clean drain: context-manager shutdown left nothing behind.
        assert svc.scheduler.idle()
        assert svc.scheduler.queue_depth() == 0
        assert svc.scheduler.unresolved == 0

        snap = registry.snapshot()
        assert snap["counters"][
            'service_requests_total{status="ok"}'
        ] == N_REQUESTS

        # Exactly one cold compile per distinct benchmark; everything
        # else was served from the cache or coalesced onto a flight.
        counters = snap["counters"]
        misses = counters.get('service_cache_total{outcome="miss"}', 0)
        hits = counters.get('service_cache_total{outcome="hit"}', 0)
        assert misses == len(SMALL_GRIDS)
        assert hits > misses

        # Determinism under concurrency: same spec+seed, same checksum.
        by_key = {}
        for req, reply in zip(requests, replies):
            key = (req["benchmark"], req["seed"])
            by_key.setdefault(key, set()).add(reply.checksum)
        assert all(len(sums) == 1 for sums in by_key.values())

    def test_warm_hit_10x_faster_than_cold_compile(self):
        registry = MetricsRegistry()
        config = ServiceConfig(workers=2, max_batch=1)
        with StencilService(config, registry=registry) as svc:
            for k in range(24):
                req = {
                    "proto": 1,
                    "benchmark": "DENOISE",
                    "grid": list(SMALL_GRIDS["DENOISE"]),
                    "seed": k,
                }
                assert svc.handle(req, 60.0).status == "ok"

        snap = registry.snapshot()
        cold = _hist(snap, "service_compile_ms", cache="miss")
        warm = _hist(snap, "service_compile_ms", cache="hit")
        assert cold is not None and warm is not None
        assert cold["count"] == 1
        assert warm["count"] >= 20
        cold_mean = cold["sum"] / cold["count"]
        warm_mean = warm["sum"] / warm["count"]
        assert cold_mean >= 10.0 * warm_mean, (
            f"cold {cold_mean:.3f} ms vs warm {warm_mean:.3f} ms"
        )


class TestCanaryFaultInjection:
    def _corrupt(self, plan):
        """Flip the widest FIFO depth down — the classic bad plan.

        Shrinking a reuse FIFO below the inter-bank reuse distance
        violates deadlock-free condition 2, so the cycle-sim canary
        must either deadlock or diverge from the golden reference.
        """
        data = plan.to_json()
        depths = data["fifo_capacities"]
        widest = max(range(len(depths)), key=lambda i: depths[i])
        assert depths[widest] > 1, "need a shrinkable FIFO"
        depths[widest] = 1
        return CachedPlan.from_json(data)

    def test_canary_catches_flipped_fifo_depth(self, tmp_path):
        registry = MetricsRegistry()
        config = ServiceConfig(
            workers=2, validate_every=1, cache_dir=str(tmp_path)
        )
        req = {
            "proto": 1,
            "benchmark": "DENOISE",
            "grid": list(SMALL_GRIDS["DENOISE"]),
        }
        with StencilService(config, registry=registry) as svc:
            first = svc.handle(dict(req), 60.0)
            assert first.status == "ok"
            assert first.validated is True
            fp = first.fingerprint

            # Fault injection: poison the cached plan in both tiers.
            poisoned = self._corrupt(svc.cache.get(fp))
            svc.cache.put(poisoned)
            disk = tmp_path / f"{fp}.json"
            assert json.loads(disk.read_text())["fifo_capacities"] == (
                poisoned.fifo_capacities
            )

            flagged = svc.handle({**req, "validate": True}, 60.0)
            assert flagged.status == "validation_failed"
            assert flagged.validated is False
            assert (
                "deadlock" in flagged.error.detail
                or "diverge" in flagged.error.detail
            )

            # The poisoned entry was evicted from memory *and* disk...
            assert svc.cache.get(fp) is None
            assert not disk.exists()

            # ...so the next request recompiles and passes validation.
            healed = svc.handle({**req, "validate": True}, 60.0)
            assert healed.status == "ok"
            assert healed.cache == "miss"
            assert healed.validated is True

        snap = registry.snapshot()
        assert snap["counters"]["service_validation_failures_total"] == 1
        assert snap["counters"]["service_validation_total"] == 3

    def test_corrupt_disk_entry_survives_until_canary(self, tmp_path):
        """The cache trusts disk content by design; the canary doesn't."""
        registry = MetricsRegistry()
        req = {
            "proto": 1,
            "benchmark": "SOBEL",
            "grid": list(SMALL_GRIDS["SOBEL"]),
        }
        config = ServiceConfig(
            workers=1, validate_every=1, cache_dir=str(tmp_path)
        )
        with StencilService(config, registry=registry) as svc:
            fp = svc.handle(dict(req), 60.0).fingerprint

        # Corrupt the persisted plan between service restarts.
        disk = tmp_path / f"{fp}.json"
        data = json.loads(disk.read_text())
        widest = max(
            range(len(data["fifo_capacities"])),
            key=lambda i: data["fifo_capacities"][i],
        )
        data["fifo_capacities"][widest] = 1
        disk.write_text(json.dumps(data))

        with StencilService(config, registry=MetricsRegistry()) as svc:
            reply = svc.handle({**req, "validate": True}, 60.0)
            assert reply.status == "validation_failed"
            assert not disk.exists()  # canary evicted the disk tier too
