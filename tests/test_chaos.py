"""Chaos campaign: every injected fault class must end cleanly.

The contract under test is the robustness invariant of the process
pool: for every fault the harness can inject — worker kills, hangs,
slowdowns, cached-plan field mutations, disk-tier corruption — a
request resolves with either a *correct* result (checksum equal to
the locally computed golden digest) or a clean structured error.
Never a wrong answer, never a hang, never a dropped request.
"""

import os

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.service import (
    ChaosConfig,
    ChaosInjector,
    CompileOptions,
    PlanFuzzer,
    ServiceConfig,
    StencilService,
    fingerprint,
)
from repro.service.chaos import (
    DISK_CORRUPTIONS,
    PLAN_MUTATIONS,
    corrupt_disk_file,
)
from repro.service.executor import compile_plan, execute_stencil
from repro.stencil import DENOISE, SOBEL

from conftest import small_spec


def golden_checksum(spec, seed):
    return execute_stencil(spec, seed)[2][:16]


class TestChaosConfig:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            ChaosConfig(kill_rate=1.5)
        with pytest.raises(ValueError):
            ChaosConfig(hang_rate=-0.1)
        with pytest.raises(ValueError):
            ChaosConfig(kill_rate=0.6, hang_rate=0.6)

    def test_enabled(self):
        assert not ChaosConfig().enabled()
        assert ChaosConfig(kill_rate=0.1).enabled()
        assert ChaosConfig(lethal_fingerprints=("f" * 64,)).enabled()

    def test_json_round_trip(self):
        cfg = ChaosConfig(
            seed=9,
            kill_rate=0.1,
            hang_rate=0.05,
            slow_rate=0.2,
            lethal_fingerprints=("a" * 64,),
        )
        assert ChaosConfig.from_json(cfg.to_json()) == cfg


class TestChaosInjector:
    def test_decisions_replay_exactly(self):
        a = ChaosInjector(ChaosConfig(seed=3, kill_rate=0.3))
        b = ChaosInjector(ChaosConfig(seed=3, kill_rate=0.3))
        ids = [f"r{k}" for k in range(50)]
        assert [a.decision(i) for i in ids] == [
            b.decision(i) for i in ids
        ]

    def test_seed_and_attempt_change_decisions(self):
        base = ChaosInjector(ChaosConfig(seed=1, kill_rate=0.5))
        other = ChaosInjector(ChaosConfig(seed=2, kill_rate=0.5))
        ids = [f"r{k}" for k in range(100)]
        assert [base.decision(i) for i in ids] != [
            other.decision(i) for i in ids
        ]
        # A request killed on one attempt is not doomed on the next.
        assert [base.decision(i, attempt=1) for i in ids] != [
            base.decision(i, attempt=2) for i in ids
        ]

    def test_rates_approximately_honoured(self):
        inj = ChaosInjector(
            ChaosConfig(seed=5, kill_rate=0.2, hang_rate=0.1)
        )
        decisions = [inj.decision(f"r{k}") for k in range(2000)]
        kills = decisions.count("kill") / len(decisions)
        hangs = decisions.count("hang") / len(decisions)
        assert abs(kills - 0.2) < 0.04
        assert abs(hangs - 0.1) < 0.04

    def test_lethal_fingerprint_always_kills(self):
        fp = "c" * 64
        inj = ChaosInjector(ChaosConfig(lethal_fingerprints=(fp,)))
        assert all(
            inj.decision(f"r{k}", attempt=k, fingerprint=fp) == "kill"
            for k in range(20)
        )
        assert inj.decision("r0", fingerprint="d" * 64) == "none"


def chaos_service(chaos, **overrides):
    defaults = dict(
        workers=2,
        max_queue=64,
        max_batch=4,
        default_timeout_s=60.0,
        max_retries=8,
        retry_backoff_s=0.01,
        worker_mode="process",
        breaker_threshold=50,  # transient faults must not trip it
        chaos=chaos,
    )
    defaults.update(overrides)
    return StencilService(
        ServiceConfig(**defaults), registry=MetricsRegistry()
    )


class TestWorkerFaultCampaigns:
    def test_kill_campaign_never_wrong_never_dropped(self):
        """Random worker kills: every reply is a correct result or a
        clean structured error, and at least one kill actually fired."""
        chaos = ChaosConfig(seed=2014, kill_rate=0.12)
        inj = ChaosInjector(chaos)
        ids = [f"chaos-{k}" for k in range(12)]
        # The campaign must actually inject something (first attempts
        # are numbered 1 by the pool).
        assert any(inj.decision(i, attempt=1) == "kill" for i in ids)
        spec = small_spec(DENOISE)
        golden = {
            k: golden_checksum(spec, seed=k) for k in range(len(ids))
        }
        with chaos_service(chaos) as svc:
            slots = [
                svc.submit(
                    {
                        "proto": 1,
                        "id": rid,
                        "benchmark": "DENOISE",
                        "grid": [12, 16],
                        "seed": k,
                    }
                )
                for k, rid in enumerate(ids)
            ]
            replies = [s.result(90.0) for s in slots]
            snap = svc.metrics.snapshot()
        assert len(replies) == len(ids)
        for k, reply in enumerate(replies):
            assert reply.status in ("ok", "error")
            if reply.status == "ok":
                assert reply.checksum == golden[k]
        assert sum(r.status == "ok" for r in replies) >= 10
        restarts = snap["counters"].get(
            'service_worker_restarts_total{reason="death"}', 0
        )
        assert restarts >= 1

    def test_hang_campaign_recovers_within_hang_timeout(self):
        chaos = ChaosConfig(seed=11, hang_rate=0.25)
        inj = ChaosInjector(chaos)
        ids = [f"hang-{k}" for k in range(8)]
        assert any(inj.decision(i, attempt=1) == "hang" for i in ids)
        spec = small_spec(SOBEL)
        golden = {
            k: golden_checksum(spec, seed=k) for k in range(len(ids))
        }
        with chaos_service(chaos, hang_timeout_s=0.5) as svc:
            slots = [
                svc.submit(
                    {
                        "proto": 1,
                        "id": rid,
                        "benchmark": "SOBEL",
                        "grid": [10, 12],
                        "seed": k,
                    }
                )
                for k, rid in enumerate(ids)
            ]
            replies = [s.result(90.0) for s in slots]
            snap = svc.metrics.snapshot()
        for k, reply in enumerate(replies):
            assert reply.status in ("ok", "error")
            if reply.status == "ok":
                assert reply.checksum == golden[k]
        assert sum(r.status == "ok" for r in replies) >= 6
        assert (
            snap["counters"].get(
                'service_worker_restarts_total{reason="hang"}', 0
            )
            >= 1
        )

    def test_slow_campaign_is_benign(self):
        chaos = ChaosConfig(seed=4, slow_rate=0.5, slow_ms=5.0)
        spec = small_spec(SOBEL)
        with chaos_service(chaos) as svc:
            replies = [
                svc.handle(
                    {
                        "proto": 1,
                        "benchmark": "SOBEL",
                        "grid": [10, 12],
                        "seed": k,
                    },
                    wait_timeout=60.0,
                )
                for k in range(6)
            ]
        assert all(r.status == "ok" for r in replies)
        assert all(
            r.checksum == golden_checksum(spec, seed=k)
            for k, r in enumerate(replies)
        )

    def test_lethal_plan_trips_breaker_others_keep_serving(self):
        spec = small_spec(DENOISE)
        lethal_fp = fingerprint(spec, CompileOptions())
        chaos = ChaosConfig(lethal_fingerprints=(lethal_fp,))
        svc = chaos_service(
            chaos,
            breaker_threshold=2,
            breaker_cooldown_s=60.0,
            max_retries=2,
        )
        with svc:
            lethal = [
                svc.handle(
                    {"proto": 1, "benchmark": "DENOISE", "grid": [12, 16]},
                    wait_timeout=90.0,
                )
                for _ in range(3)
            ]
            bystander = svc.handle(
                {"proto": 1, "benchmark": "SOBEL", "grid": [10, 12]},
                wait_timeout=90.0,
            )
            state = svc.executor.breaker_state(lethal_fp)
            snap = svc.metrics.snapshot()
        # The lethal plan never produces an answer, only clean errors,
        # and once the breaker opens it is rejected without touching a
        # worker at all.
        assert all(
            r.status in ("error", "circuit_open") for r in lethal
        )
        assert lethal[-1].status == "circuit_open"
        # The breaker-aware client hint: cooldown remaining, so a
        # client can back off exactly that long instead of guessing.
        assert 0.0 < lethal[-1].retry_after_s <= 60.0
        assert lethal[-1].error.kind == "circuit_open"
        assert bystander.status == "ok"
        assert state == "open"
        counters = snap["counters"]
        assert (
            counters['service_breaker_transitions_total{to="open"}'] >= 1
        )
        gauge = snap["gauges"][
            'service_breaker_state{fingerprint="%s"}' % lethal_fp[:12]
        ]
        assert gauge == 1  # open


def _submit_behind_blocker(svc, ids, seeds):
    """Submit a slowed DENOISE blocker, then SOBEL requests ``ids``.

    With one worker the SOBEL requests queue behind the blocker and
    reach the worker as one batched job.
    """
    blocker = svc.submit(
        {"proto": 1, "id": "blocker", "benchmark": "DENOISE",
         "grid": [12, 16]}
    )
    slots = [
        svc.submit(
            {"proto": 1, "id": rid, "benchmark": "SOBEL",
             "grid": [10, 12], "seed": seed}
        )
        for rid, seed in zip(ids, seeds)
    ]
    assert blocker.result(90.0).status == "ok"
    return [slot.result(90.0) for slot in slots]


class TestBatchedFaultIsolation:
    """A batched job dies as one; only a solo-lethal item is charged."""

    IDS = [f"batch-{k}" for k in range(6)]
    POISON = "batch-2"

    def chaos_for(self):
        """The first seed where the blocker is slowed, the poisoner is
        killed on both of its attempts and nobody else is killed."""
        for seed in range(100_000):
            inj = ChaosInjector(
                ChaosConfig(seed=seed, kill_rate=0.3, slow_rate=0.3)
            )
            if (
                inj.decision("blocker", 1) == "slow"
                and inj.decision(self.POISON, 1) == "kill"
                and inj.decision(self.POISON, 2) == "kill"
                and all(
                    inj.decision(rid, 1) != "kill"
                    for rid in self.IDS
                    if rid != self.POISON
                )
            ):
                return ChaosConfig(
                    seed=seed, kill_rate=0.3, slow_rate=0.3,
                    slow_ms=300.0,
                )
        raise AssertionError("no seed isolates one poisoner")

    def test_one_poisoned_item_does_not_sink_its_group(self):
        spec = small_spec(SOBEL)
        fp = fingerprint(spec, CompileOptions())
        with chaos_service(
            self.chaos_for(), workers=1, max_batch=8, max_retries=1,
            breaker_threshold=3,
        ) as svc:
            replies = _submit_behind_blocker(
                svc, self.IDS, range(len(self.IDS))
            )
            state = svc.executor.breaker_state(fp)
            snap = svc.metrics.snapshot()
        for k, (rid, reply) in enumerate(zip(self.IDS, replies)):
            if rid == self.POISON:
                # Killed alone on both attempts: its budget is spent.
                assert reply.status == "error"
                assert reply.attempts == 2
            else:
                assert reply.status == "ok", (rid, reply.status)
                assert reply.checksum == golden_checksum(spec, seed=k)
                assert reply.attempts == 1
        assert state == "closed"
        assert snap["counters"]["service_pool_isolated_total"] >= 2

    def test_lethal_fingerprint_trips_within_threshold_solo_runs(self):
        spec = small_spec(SOBEL)
        fp = fingerprint(spec, CompileOptions())
        chaos = ChaosConfig(
            lethal_fingerprints=(fp,), slow_rate=1.0, slow_ms=300.0
        )
        threshold = 3
        with chaos_service(
            chaos, workers=1, max_batch=8, max_retries=8,
            breaker_threshold=threshold, breaker_cooldown_s=60.0,
        ) as svc:
            replies = _submit_behind_blocker(
                svc, self.IDS, range(len(self.IDS))
            )
            state = svc.executor.breaker_state(fp)
            snap = svc.metrics.snapshot()
        counters = snap["counters"]
        assert all(
            r.status in ("error", "circuit_open") for r in replies
        )
        assert state == "open"
        # The batched job was isolated, and the breaker opened after
        # ``threshold`` solo deaths: one batched death plus those.
        assert counters["service_pool_isolated_total"] == len(self.IDS)
        assert counters[
            'service_worker_restarts_total{reason="death"}'
        ] == threshold + 1


@pytest.fixture(scope="module")
def denoise_plan():
    spec = small_spec(DENOISE)
    options = CompileOptions()
    fp = fingerprint(spec, options)
    return spec, options, fp, compile_plan(spec, options, fp)


class TestPlanMutationCampaign:
    @pytest.mark.parametrize("kind", PLAN_MUTATIONS)
    def test_every_mutation_is_caught_then_healed(
        self, kind, denoise_plan
    ):
        """Poison the cache with a mutated plan: the canary must flag
        it, evict it, and the next request recompiles cleanly."""
        spec, options, fp, base = denoise_plan
        fuzzer = PlanFuzzer()
        if kind not in fuzzer.mutations(base):
            pytest.skip(f"{kind} not applicable to this plan")
        mutated = fuzzer.mutate(base, kind)
        assert mutated.to_json() != base.to_json()
        svc = StencilService(
            ServiceConfig(workers=1, validate_every=0),
            registry=MetricsRegistry(),
        )
        with svc:
            svc.cache.put(mutated)
            poisoned = svc.handle(
                {"proto": 1, "spec": spec.to_json(), "validate": True},
                wait_timeout=60.0,
            )
            healed = svc.handle(
                {"proto": 1, "spec": spec.to_json(), "validate": True},
                wait_timeout=60.0,
            )
        assert poisoned.status == "validation_failed"
        assert poisoned.cache == "hit"  # the poison was served...
        assert healed.status == "ok"  # ...once: evicted, recompiled
        assert healed.cache == "miss"
        assert healed.validated is True

    @pytest.mark.parametrize("kind", PLAN_MUTATIONS)
    def test_mutations_caught_under_process_pool(
        self, kind, denoise_plan
    ):
        """The same campaign through the crash-isolated pool: workers
        run the validation and report it as a structured failure."""
        spec, options, fp, base = denoise_plan
        fuzzer = PlanFuzzer()
        if kind not in fuzzer.mutations(base):
            pytest.skip(f"{kind} not applicable to this plan")
        mutated = fuzzer.mutate(base, kind)
        svc = StencilService(
            ServiceConfig(workers=1, worker_mode="process"),
            registry=MetricsRegistry(),
        )
        with svc:
            svc.cache.put(mutated)
            poisoned = svc.handle(
                {"proto": 1, "spec": spec.to_json(), "validate": True},
                wait_timeout=60.0,
            )
            healed = svc.handle(
                {"proto": 1, "spec": spec.to_json(), "validate": True},
                wait_timeout=60.0,
            )
        assert poisoned.status == "validation_failed"
        assert healed.status == "ok"
        assert healed.validated is True

    def test_mutation_caught_despite_warm_worker_local_cache(
        self, denoise_plan
    ):
        """Poisoning the *shared* cache after the worker has cached a
        clean local copy must still be caught: the canary validates
        the plan the parent transmitted, not the worker's stale one."""
        spec, options, fp, base = denoise_plan
        fuzzer = PlanFuzzer()
        kind = fuzzer.mutations(base)[0]
        mutated = fuzzer.mutate(base, kind)
        assert mutated.to_json() != base.to_json()
        svc = StencilService(
            ServiceConfig(workers=1, worker_mode="process"),
            registry=MetricsRegistry(),
        )
        with svc:
            warm = svc.handle(
                {"proto": 1, "spec": spec.to_json(), "validate": True},
                wait_timeout=60.0,
            )
            assert warm.status == "ok"  # worker-local cache now hot
            svc.cache.put(mutated)  # poison only the shared entry
            poisoned = svc.handle(
                {"proto": 1, "spec": spec.to_json(), "validate": True},
                wait_timeout=60.0,
            )
            healed = svc.handle(
                {"proto": 1, "spec": spec.to_json(), "validate": True},
                wait_timeout=60.0,
            )
        assert poisoned.status == "validation_failed"
        assert poisoned.cache == "hit"
        assert healed.status == "ok"
        assert healed.validated is True


class TestDiskCorruptionCampaign:
    @pytest.mark.parametrize("mode", DISK_CORRUPTIONS)
    def test_corrupt_cache_file_is_a_miss_and_is_deleted(
        self, mode, tmp_path
    ):
        spec = small_spec(SOBEL)
        req = {"proto": 1, "spec": spec.to_json()}
        seeder = StencilService(
            ServiceConfig(workers=1, cache_dir=str(tmp_path)),
            registry=MetricsRegistry(),
        )
        with seeder:
            seeded = seeder.handle(dict(req), wait_timeout=60.0)
        assert seeded.status == "ok"
        path = tmp_path / (seeded.fingerprint + ".json")
        assert path.exists()
        corrupt_disk_file(str(path), mode, seed=1)

        svc = StencilService(  # fresh memory tier, damaged disk tier
            ServiceConfig(workers=1, cache_dir=str(tmp_path)),
            registry=MetricsRegistry(),
        )
        with svc:
            reply = svc.handle(dict(req), wait_timeout=60.0)
            snap = svc.metrics.snapshot()
        assert reply.status == "ok"
        assert reply.cache == "miss"  # never served from the wreck
        assert reply.checksum == seeded.checksum
        assert (
            snap["counters"]["service_cache_disk_corrupt_total"] == 1
        )
        assert svc.cache.stats.corrupt_files == 1
        # The recompile rewrote a valid file over the damage.
        assert path.exists()
        fresh = StencilService(
            ServiceConfig(workers=1, cache_dir=str(tmp_path)),
            registry=MetricsRegistry(),
        )
        with fresh:
            warm = fresh.handle(dict(req), wait_timeout=60.0)
        assert warm.status == "ok"
        assert warm.cache == "disk"
