"""The execution core digests each stage as it is produced.

:func:`repro.service.executor.run_stages` hashes every stage's output
the moment the stage produces it and lets nothing but the final
stage's output outlive its hand-off to the next stage.  These tests pin
the consequences: the live set of a warm compiled ``iterate`` request
does not grow with its step count, an item is answered before later
items of its group run, a ragged chain's per-stage digests still equal
the interpreted reference's on both executors, and a kernel that raises
mid-group falls back without losing count of what ran compiled.

The file also covers two service-level guards that ride along: a group
that raises resolves its requests instead of killing the worker, and a
metrics scrape carries the process's CPU and minor-fault gauges —
its pool workers' included.
"""

import resource
import threading
import time
import tracemalloc

import pytest

from repro.lower.engine import CompiledEngine
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import new_trace_id
from repro.service import ServiceConfig, StencilService
from repro.service import executor as executor_mod
from repro.service.executor import (
    ItemResult,
    compile_plan,
    execute_pipeline,
    lower_stages,
    path_counts,
    run_stages,
)
from repro.service.workload import Workload, plan_workload

RAGGED = {
    "kind": "graph",
    "nodes": [
        {"id": "den", "benchmark": "DENOISE"},
        {"id": "ric", "benchmark": "RICIAN"},
        {"id": "sob", "benchmark": "SOBEL"},
    ],
    "edges": [["den", "ric"], ["ric", "sob"]],
}


def iterate(steps):
    return {"kind": "iterate", "benchmark": "DENOISE", "steps": steps}


def compiled_chain(workload, grid):
    """``(stages, plans, kernels, engine)`` of a lowered workload."""
    stages = plan_workload(Workload.from_json(workload), grid=grid).stages
    plans = [
        compile_plan(stage.spec, stage.options, stage.fingerprint)
        for stage in stages
    ]
    engine = CompiledEngine()
    kernels, _ = lower_stages(engine, stages, plans)
    assert kernels is not None
    return stages, plans, kernels, engine


class TestLiveSet:
    @pytest.mark.parametrize("steps", [8, 16])
    def test_warm_iterate_holds_a_constant_number_of_outputs(self, steps):
        stages, plans, kernels, engine = compiled_chain(
            iterate(steps), (256, 256)
        )
        warm = run_stages(stages, plans, kernels, [3], engine=engine)
        assert warm.compiled == 1
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            run = run_stages(stages, plans, kernels, [3], engine=engine)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert run.items[0].results == warm.items[0].results
        # The first stage's output is the chain's largest.
        one_output = run.items[0].results[0][0] * 8
        assert peak <= 4 * one_output, (
            f"peak {peak / one_output:.1f}x one stage output at "
            f"{steps} steps"
        )


class TestEarlyAnswers:
    def test_first_item_answered_before_second_item_digests(
        self, monkeypatch
    ):
        stages, plans, kernels, engine = compiled_chain(
            iterate(2), (64, 64)
        )
        assert not any(kernel.fuses(2) for kernel in kernels)
        digests = []
        real = executor_mod._digest

        def counting(arr):
            digests.append(arr.size)
            return real(arr)

        monkeypatch.setattr(executor_mod, "_digest", counting)
        seen = {}

        def on_item(index, item):
            seen[index] = len(digests)

        run = run_stages(
            stages, plans, kernels, [1, 2], engine=engine, on_item=on_item
        )
        # Item 0 was answered after its own two digests and before any
        # of item 1's: item 1's chain had not run yet.
        assert seen == {0: 2, 1: 4}
        assert run.compiled == 2 and run.kernel_ns == 0

    def test_fused_small_group_runs_one_pass(self):
        stages, plans, kernels, engine = compiled_chain(
            iterate(3), (10, 12)
        )
        assert all(kernel.fuses(3) for kernel in kernels)
        run = run_stages(stages, plans, kernels, [0, 1, 2], engine=engine)
        assert run.compiled == 3 and run.kernel_ns > 0
        for seed, item in zip([0, 1, 2], run.items):
            _, golden = execute_pipeline(stages, seed)
            assert [d for _, d in item.results] == [d for _, d in golden]


class TestRaggedChain:
    @pytest.mark.parametrize("grid", [(12, 14), (64, 64)])
    def test_core_digests_match_the_reference(self, grid):
        stages, plans, kernels, engine = compiled_chain(RAGGED, grid)
        seeds = [5, 6]
        run = run_stages(stages, plans, kernels, seeds, engine=engine)
        assert run.compiled == 2
        for seed, item in zip(seeds, run.items):
            _, golden = execute_pipeline(stages, seed)
            assert item.results == [
                (int(arr.size), digest) for arr, digest in golden
            ]

    @pytest.mark.parametrize("worker_mode", ["thread", "process"])
    def test_served_stage_checksums_match_the_reference(
        self, worker_mode, tmp_path
    ):
        grid = (48, 40)
        stages = plan_workload(
            Workload.from_json(RAGGED), grid=grid
        ).stages
        config = ServiceConfig(
            workers=1,
            worker_mode=worker_mode,
            backend="compiled",
            converter="numpy",
            cache_dir=str(tmp_path / "cache"),
        )
        with StencilService(config, registry=MetricsRegistry()) as svc:
            slots = {
                seed: svc.submit(
                    {
                        "proto": 2,
                        "id": f"r-{seed}",
                        "grid": list(grid),
                        "seed": seed,
                        "workload": RAGGED,
                    }
                )
                for seed in range(3)
            }
            replies = {
                seed: slot.result(120) for seed, slot in slots.items()
            }
        for seed, reply in replies.items():
            assert reply.ok, reply.to_json()
            _, golden = execute_pipeline(stages, seed)
            assert [s["checksum"] for s in reply.stages] == [
                digest[:16] for _, digest in golden
            ]
            assert [s["n_outputs"] for s in reply.stages] == [
                int(arr.size) for arr, _ in golden
            ]
            assert reply.checksum == golden[-1][1][:16]


class TestKernelFallback:
    def test_kernel_that_raises_mid_group_falls_back(self):
        stages, plans, kernels, engine = compiled_chain(
            iterate(2), (64, 64)
        )
        calls = []

        class Flaky:
            def __init__(self, kernel):
                self.kernel = kernel

            def fuses(self, batch):
                return self.kernel.fuses(batch)

            def run_many(self, grids):
                calls.append(len(grids))
                if len(calls) > 2:  # item 1's first stage
                    raise RuntimeError("lowering gap")
                return self.kernel.run_many(grids)

        run = run_stages(
            stages,
            plans,
            [Flaky(kernel) for kernel in kernels],
            [1, 2, 3],
            engine=engine,
        )
        assert [item.compiled for item in run.items] == [
            True, False, False,
        ]
        assert run.kernel_error == "lowering gap"
        assert path_counts(run) == {
            "compiled": 1,
            "fallback": {"kernel_error": 2},
            "kernel_errors": 1,
        }
        for seed, item in zip([1, 2, 3], run.items):
            _, golden = execute_pipeline(stages, seed)
            assert [d for _, d in item.results] == [d for _, d in golden]


class TestWorkerSurvivesGroupFailure:
    def test_reply_fault_answers_internal_and_worker_lives(
        self, monkeypatch
    ):
        real = ItemResult.reply
        failures = []
        lock = threading.Lock()

        def flaky(self, stages):
            with lock:
                if not failures:
                    failures.append(True)
                    raise RuntimeError("injected reply fault")
            return real(self, stages)

        registry = MetricsRegistry()
        request = {
            "proto": 1,
            "benchmark": "SOBEL",
            "grid": [10, 12],
            "seed": 1,
        }
        with StencilService(
            ServiceConfig(workers=1), registry=registry
        ) as svc:
            warm = svc.handle(dict(request, id="warm"), wait_timeout=30)
            assert warm.ok  # the plan is cached: the fault hits a warm group
            monkeypatch.setattr(ItemResult, "reply", flaky)
            started = time.monotonic()
            first = svc.handle(dict(request, id="a"), wait_timeout=5)
            assert time.monotonic() - started < 1.0
            second = svc.handle(dict(request, id="b"), wait_timeout=5)
        assert first.status == "error"
        assert first.error.kind == "internal"
        assert "injected reply fault" in first.error.detail
        assert second.status == "ok"
        counters = registry.snapshot()["counters"]
        assert counters[
            'service_worker_errors_total{stage="execute"}'
        ] == 1


class TestProcessUsageGauges:
    def test_metrics_scrape_carries_cpu_and_faults(self):
        with StencilService(
            ServiceConfig(workers=1), registry=MetricsRegistry()
        ) as svc:
            first = svc.handle({"control": "metrics"}, wait_timeout=5)
            reply = svc.handle(
                {
                    "proto": 1,
                    "benchmark": "DENOISE",
                    "grid": [10, 12],
                    "seed": 0,
                },
                wait_timeout=30,
            )
            assert reply.ok
            second = svc.handle({"control": "metrics"}, wait_timeout=5)
        keys = (
            'process_cpu_seconds{mode="user"}',
            'process_cpu_seconds{mode="system"}',
            "process_minor_faults",
        )
        for snap in (first.summary, second.summary):
            for key in keys:
                assert key in snap["gauges"], key
        assert first.summary["gauges"]["process_minor_faults"] > 0
        assert (
            second.summary["gauges"]["process_minor_faults"]
            >= first.summary["gauges"]["process_minor_faults"]
        )
        assert second.summary["gauges"][keys[0]] > 0

    def test_process_mode_counts_its_workers(self):
        """Pool workers run the kernels: their CPU lands in the node's
        gauges, on top of the node's own ``RUSAGE_SELF``."""
        registry = MetricsRegistry()
        # One worker: execute wall time is then close to its CPU time
        # even on a two-core host.
        with StencilService(
            ServiceConfig(workers=1, worker_mode="process"),
            registry=registry,
        ) as svc:
            # A trace id makes the worker ship its execute span home.
            slots = [
                svc.submit(
                    {
                        "proto": 1,
                        "benchmark": "SOBEL",
                        "grid": [256, 256],
                        "seed": k,
                        "trace_id": new_trace_id(),
                    }
                )
                for k in range(8)
            ]
            assert all(slot.result(120).ok for slot in slots)
            scrape = svc.handle({"control": "metrics"}, wait_timeout=30)
            own_user = resource.getrusage(resource.RUSAGE_SELF).ru_utime
        user = scrape.summary["gauges"]['process_cpu_seconds{mode="user"}']
        execute_s = registry.snapshot()["histograms"][
            'service_stage_ms{stage="worker_execute"}'
        ]["sum"] / 1e3
        assert execute_s > 0
        assert user - own_user >= 0.5 * execute_s, (user, own_user)
