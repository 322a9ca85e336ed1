"""End-to-end tests of the compiled backend behind the service.

Covers the ``backend="compiled"`` axis through every execution path —
thread pool, crash-isolated process pool, the CLI and the router node
spawner — plus the plan-cache sidecar compatibility story: pre-PR
cache directories (plan JSON, no ``.lower.json`` sidecar) must load,
re-lower once, and never be counted corrupt.
"""

import hashlib
import importlib
import json
import os

import numpy as np
import pytest

from repro.cli import main
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import format_fabric_summary, format_service_metrics
from repro.service import ServiceConfig, StencilService
from repro.service.chaos import ChaosConfig, ChaosInjector, PlanFuzzer
from repro.service.executor import compile_plan, execute_stencil
from repro.service.fingerprint import CompileOptions, fingerprint
from repro.stencil import DENOISE, SOBEL

from conftest import small_spec

bufferize_module = importlib.import_module("repro.lower.bufferize")

def golden_checksum(spec, seed):
    _, _, digest = execute_stencil(spec, seed)
    return digest[:16]


def counter(snapshot, key):
    return snapshot["counters"].get(key, 0)


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestThreadCompiledBackend:
    def test_checksums_match_interpreted(self, registry):
        spec = small_spec(DENOISE)
        expected = {s: golden_checksum(spec, s) for s in range(4)}
        svc = StencilService(
            ServiceConfig(backend="compiled"), registry=registry
        )
        with svc:
            for seed in range(4):
                reply = svc.handle(
                    {
                        "proto": 1,
                        "benchmark": "DENOISE",
                        "grid": list(spec.grid),
                        "seed": seed,
                    }
                )
                assert reply.status == "ok"
                assert reply.checksum == expected[seed]
        snap = registry.snapshot()
        assert (
            counter(
                snap,
                'service_lower_requests_total{path="compiled"}',
            )
            == 4
        )
        assert (
            counter(snap, 'service_lower_total{outcome="lowered"}') == 1
        )

    def test_multi_stream_compiles_bit_identical(self, registry):
        """Multi-stream plans no longer fall back: the per-stream
        sub-programs execute compiled and reproduce the interpreted
        checksum exactly."""
        spec = SOBEL.with_grid((10, 12))
        svc = StencilService(
            ServiceConfig(backend="compiled"), registry=registry
        )
        with svc:
            reply = svc.handle(
                {
                    "proto": 1,
                    "benchmark": "SOBEL",
                    "grid": [10, 12],
                    "streams": 2,
                    "seed": 1,
                }
            )
        assert reply.status == "ok"
        assert reply.checksum == golden_checksum(spec, 1)
        snap = registry.snapshot()
        assert (
            counter(
                snap,
                'service_lower_fallback_total{reason="multi_stream"}',
            )
            == 0
        )
        assert (
            counter(
                snap,
                'service_lower_requests_total{path="compiled"}',
            )
            >= 1
        )

    def test_canary_validates_compiled_results(self, registry):
        svc = StencilService(
            ServiceConfig(backend="compiled", validate_every=1),
            registry=registry,
        )
        with svc:
            reply = svc.handle(
                {"proto": 1, "benchmark": "DENOISE", "grid": [12, 16],
                 "seed": 0}
            )
        assert reply.status == "ok"
        assert reply.validated is True


class TestProcessCompiledBackend:
    def test_checksums_match_interpreted(self, registry):
        spec = small_spec(DENOISE)
        expected = {s: golden_checksum(spec, s) for s in range(3)}
        svc = StencilService(
            ServiceConfig(
                backend="compiled", worker_mode="process", workers=2
            ),
            registry=registry,
        )
        with svc:
            for seed in range(3):
                reply = svc.handle(
                    {
                        "proto": 1,
                        "benchmark": "DENOISE",
                        "grid": list(spec.grid),
                        "seed": seed,
                    },
                    wait_timeout=60.0,
                )
                assert reply.status == "ok"
                assert reply.checksum == expected[seed]
        snap = registry.snapshot()
        assert (
            counter(
                snap,
                'service_lower_requests_total{path="compiled"}',
            )
            == 3
        )

    def test_multi_stream_compiles_in_workers(self, registry):
        spec = SOBEL.with_grid((10, 12))
        svc = StencilService(
            ServiceConfig(
                backend="compiled", worker_mode="process", workers=1
            ),
            registry=registry,
        )
        with svc:
            reply = svc.handle(
                {
                    "proto": 1,
                    "benchmark": "SOBEL",
                    "grid": [10, 12],
                    "streams": 2,
                    "seed": 0,
                },
                wait_timeout=60.0,
            )
        assert reply.status == "ok"
        assert reply.checksum == golden_checksum(spec, 0)
        snap = registry.snapshot()
        assert (
            counter(
                snap,
                'service_lower_fallback_total{reason="multi_stream"}',
            )
            == 0
        )
        assert (
            counter(
                snap,
                'service_lower_requests_total{path="compiled"}',
            )
            >= 1
        )

    def test_worker_lowering_persists_parent_sidecar(
        self, registry, tmp_path
    ):
        cache_dir = str(tmp_path / "cache")
        svc = StencilService(
            ServiceConfig(
                backend="compiled",
                worker_mode="process",
                workers=1,
                cache_dir=cache_dir,
            ),
            registry=registry,
        )
        with svc:
            reply = svc.handle(
                {"proto": 1, "benchmark": "DENOISE", "grid": [12, 16],
                 "seed": 0},
                wait_timeout=60.0,
            )
        assert reply.status == "ok"
        sidecars = [
            f for f in os.listdir(cache_dir) if f.endswith(".lower.json")
        ]
        assert len(sidecars) == 1


class TestSidecarCacheCompat:
    def warm_interpreted(self, cache_dir):
        """A pre-PR cache directory: plan JSON files, no sidecars."""
        svc = StencilService(
            ServiceConfig(backend="interpreted", cache_dir=cache_dir),
            registry=MetricsRegistry(),
        )
        with svc:
            reply = svc.handle(
                {"proto": 1, "benchmark": "DENOISE", "grid": [12, 16],
                 "seed": 0}
            )
        assert reply.status == "ok"
        assert not any(
            f.endswith(".lower.json") for f in os.listdir(cache_dir)
        )
        return reply.fingerprint, reply.checksum

    def test_pre_pr_plan_json_triggers_one_relowering(
        self, registry, tmp_path
    ):
        cache_dir = str(tmp_path / "cache")
        fp, checksum = self.warm_interpreted(cache_dir)
        svc = StencilService(
            ServiceConfig(backend="compiled", cache_dir=cache_dir),
            registry=registry,
        )
        with svc:
            for seed in (0, 1):
                reply = svc.handle(
                    {
                        "proto": 1,
                        "benchmark": "DENOISE",
                        "grid": [12, 16],
                        "seed": seed,
                    }
                )
                assert reply.status == "ok"
            assert reply.fingerprint == fp
        snap = registry.snapshot()
        # Loaded from disk, lowered exactly once, never counted corrupt.
        assert (
            counter(snap, 'service_lower_total{outcome="lowered"}') == 1
        )
        assert counter(snap, "service_cache_disk_corrupt_total") == 0
        assert counter(snap, "service_cache_sidecar_corrupt_total") == 0
        assert os.path.exists(
            os.path.join(cache_dir, f"{fp}.lower.json")
        )
        # The plan file itself keeps the pre-PR byte format: the
        # program lives in the sidecar, never inline.
        with open(os.path.join(cache_dir, f"{fp}.json")) as fh:
            assert "buffer_program" not in json.load(fh)

    def test_corrupt_sidecar_degrades_to_relowering(
        self, registry, tmp_path
    ):
        cache_dir = str(tmp_path / "cache")
        fp, checksum = self.warm_interpreted(cache_dir)
        sidecar = os.path.join(cache_dir, f"{fp}.lower.json")
        with open(sidecar, "w") as fh:
            fh.write("{not json")
        svc = StencilService(
            ServiceConfig(backend="compiled", cache_dir=cache_dir),
            registry=registry,
        )
        with svc:
            reply = svc.handle(
                {"proto": 1, "benchmark": "DENOISE", "grid": [12, 16],
                 "seed": 0}
            )
        assert reply.status == "ok"
        assert reply.checksum == checksum
        snap = registry.snapshot()
        assert counter(snap, "service_cache_sidecar_corrupt_total") == 1
        # Sidecar corruption is tracked separately from plan-file
        # corruption and the plan itself still loaded from disk.
        assert counter(snap, "service_cache_disk_corrupt_total") == 0
        with open(sidecar) as fh:  # re-lowered and re-persisted
            assert json.load(fh)["fingerprint"] == fp

    def test_invalidate_removes_sidecar(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        svc = StencilService(
            ServiceConfig(backend="compiled", cache_dir=cache_dir),
            registry=MetricsRegistry(),
        )
        with svc:
            reply = svc.handle(
                {"proto": 1, "benchmark": "DENOISE", "grid": [12, 16],
                 "seed": 0}
            )
            fp = reply.fingerprint
            assert os.path.exists(
                os.path.join(cache_dir, f"{fp}.lower.json")
            )
            svc.cache.invalidate(fp)
            assert not os.path.exists(
                os.path.join(cache_dir, f"{fp}.lower.json")
            )


PROGRAM_MUTATIONS = (
    "corrupt_program_offset",
    "drop_program_read",
    "corrupt_program_bounds",
)


def lowered_plan(spec):
    """A compiled plan carrying its lowered program (as cached)."""
    from repro.lower import CompiledEngine

    opts = CompileOptions()
    fp = fingerprint(spec, opts)
    plan = compile_plan(spec, opts, fp)
    plan.buffer_program = CompiledEngine().kernel_for(plan).program_json
    assert plan.buffer_program is not None
    return spec, plan


class TestProgramMutationCampaign:
    @pytest.mark.parametrize("kind", PROGRAM_MUTATIONS)
    def test_mutations_caught_then_healed_thread(self, kind, registry):
        spec, plan = lowered_plan(small_spec(DENOISE))
        fuzzer = PlanFuzzer()
        assert kind in fuzzer.mutations(plan)
        mutated = fuzzer.mutate(plan, kind)
        assert mutated.to_json() != plan.to_json()
        svc = StencilService(
            ServiceConfig(backend="compiled"), registry=registry
        )
        with svc:
            svc.cache.put(mutated)
            poisoned = svc.handle(
                {"proto": 1, "spec": spec.to_json()}, wait_timeout=60.0
            )
            healed = svc.handle(
                {"proto": 1, "spec": spec.to_json()}, wait_timeout=60.0
            )
        assert poisoned.status == "validation_failed"
        assert healed.status == "ok"
        assert healed.checksum == golden_checksum(spec, 2014)

    @pytest.mark.parametrize("kind", PROGRAM_MUTATIONS)
    def test_mutations_caught_under_process_pool(self, kind, registry):
        spec, plan = lowered_plan(small_spec(DENOISE))
        mutated = PlanFuzzer().mutate(plan, kind)
        svc = StencilService(
            ServiceConfig(
                backend="compiled", worker_mode="process", workers=1
            ),
            registry=registry,
        )
        with svc:
            svc.cache.put(mutated)
            poisoned = svc.handle(
                {"proto": 1, "spec": spec.to_json()}, wait_timeout=60.0
            )
            healed = svc.handle(
                {"proto": 1, "spec": spec.to_json()}, wait_timeout=60.0
            )
        assert poisoned.status == "validation_failed"
        assert healed.status == "ok"
        assert healed.checksum == golden_checksum(spec, 2014)


class TestCompiledChaosCampaign:
    def test_kill_campaign_never_wrong_never_dropped(self):
        """Chaos worker kills with the compiled backend: every reply
        is a bit-correct result or a clean structured error."""
        chaos = ChaosConfig(seed=2014, kill_rate=0.12)
        inj = ChaosInjector(chaos)
        ids = [f"chaos-{k}" for k in range(12)]
        assert any(inj.decision(i, attempt=1) == "kill" for i in ids)
        spec = small_spec(DENOISE)
        golden = {
            k: golden_checksum(spec, seed=k) for k in range(len(ids))
        }
        svc = StencilService(
            ServiceConfig(
                workers=2,
                max_queue=64,
                max_batch=4,
                default_timeout_s=60.0,
                max_retries=8,
                retry_backoff_s=0.01,
                worker_mode="process",
                backend="compiled",
                breaker_threshold=50,
                chaos=chaos,
            ),
            registry=MetricsRegistry(),
        )
        with svc:
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
        assert (
            counter(
                snap, 'service_worker_restarts_total{reason="death"}'
            )
            >= 1
        )


class TestBackendCli:
    def test_unknown_backend_is_one_line_error(self, capsys):
        rc = main(["submit", "DENOISE", "--backend", "bogus"])
        assert rc == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: ")
        assert "\n" not in err
        assert "bogus" in err

    def test_route_validates_backend_before_spawning(self, capsys):
        rc = main(["route", "--backend", "bogus"])
        assert rc == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: ")

    def test_submit_compiled_matches_interpreted(self, capsys):
        rc = main(
            ["submit", "DENOISE", "--grid", "12x16",
             "--backend", "compiled"]
        )
        assert rc == 0
        compiled = json.loads(
            capsys.readouterr().out.strip().splitlines()[-1]
        )
        rc = main(["submit", "DENOISE", "--grid", "12x16"])
        assert rc == 0
        interpreted = json.loads(
            capsys.readouterr().out.strip().splitlines()[-1]
        )
        assert compiled["status"] == "ok"
        assert compiled["checksum"] == interpreted["checksum"]

    def test_node_config_forwards_backend(self):
        from repro.service.router import NodeConfig

        argv = NodeConfig(backend="compiled").argv()
        assert "--backend" in argv
        assert argv[argv.index("--backend") + 1] == "compiled"
        assert "--backend" not in NodeConfig().argv()

    def test_node_config_forwards_converter(self):
        from repro.service.router import NodeConfig

        argv = NodeConfig(backend="compiled", converter="c").argv()
        assert argv[argv.index("--converter") + 1] == "c"
        assert "--converter" not in NodeConfig().argv()


class TestLoweringReport:
    @pytest.fixture(autouse=True)
    def tiny_hard_limit(self, monkeypatch):
        # A tiny hard limit turns the (small) skewed spec into a
        # lowering refusal served interpreted — the report must show
        # both sides of the split.
        monkeypatch.setattr(bufferize_module, "GATHER_HARD_LIMIT", 4)

    def snapshot(self):
        from repro.stencil import skewed_denoise

        registry = MetricsRegistry()
        svc = StencilService(
            ServiceConfig(backend="compiled"), registry=registry
        )
        with svc:
            for seed in range(3):
                svc.handle(
                    {
                        "proto": 1,
                        "benchmark": "DENOISE",
                        "grid": [12, 16],
                        "seed": seed,
                    }
                )
            svc.handle(
                {"proto": 1, "spec": skewed_denoise(8, 10).to_json(),
                 "seed": 0}
            )
        return registry.snapshot()

    def test_service_report_has_lowering_section(self):
        text = format_service_metrics(self.snapshot())
        assert "lowering (compiled backend)" in text
        assert "requests_compiled: 3" in text
        assert "fallback_gather_limit: 1" in text
        assert "compiled_share: 0.75" in text
        assert "converter_numpy: 1" in text

    def test_fabric_summary_surfaces_backend_split(self):
        snap = self.snapshot()
        text = format_fabric_summary([("node-0", snap)])
        assert "compiled backend (merged)" in text
        assert "compiled=3" in text
        assert "converters: numpy=1" in text
        assert "fallbacks: gather_limit=1" in text
        # Lowering stage timings ride the existing stage table.
        assert "node.lower_execute" in text

    def test_interpreted_snapshot_has_no_lowering_section(self):
        registry = MetricsRegistry()
        svc = StencilService(ServiceConfig(), registry=registry)
        with svc:
            svc.handle(
                {"proto": 1, "benchmark": "DENOISE", "grid": [12, 16],
                 "seed": 0}
            )
        text = format_service_metrics(registry.snapshot())
        assert "lowering (compiled backend)" not in text
