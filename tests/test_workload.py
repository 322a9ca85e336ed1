"""First-class temporal and pipeline workloads (the proto:2 envelope).

The workload layer turns "run this kernel t times" and "run this DAG
of kernels" into typed, fingerprinted, plannable requests.  These
tests pin the whole stack:

* structural validation — every malformed shape (cyclic graph, steps
  < 1, dangling edge, duplicate ids, non-linear topology) raises
  :class:`WorkloadError` with a readable message;
* the JSON codec round-trips losslessly for every kind;
* the planner lowers workloads onto the chaining/fusion machinery:
  single-stage plans share the proto:1 cache identity, iterate steps
  get distinct per-step fingerprints (grids shrink), and the fuse
  policy trades stage count for identical final bits;
* **digest equivalence** (the headline acceptance check): a t-step
  iterate workload's per-stage digests are bit-identical to the
  locally-replayed sequential chain, and stage 0's checksum equals an
  actual ``proto: 1`` round trip of the same kernel — on the thread
  and process pools, interpreted and compiled backends alike;
* malformed workloads submitted on the wire resolve as ``invalid``
  with ``error.kind = "bad_workload"`` without touching a worker;
* the router fingerprints workload requests and routes them to
  subprocess nodes end to end (``slow``-marked).
"""

import hashlib
import json

import numpy as np
import pytest

from repro.integration.chaining import intermediate_grid_shape
from repro.service import ServiceConfig, StencilService
from repro.service.proto import Request
from repro.service.workload import (
    FUSE_POLICIES,
    PLAN_MEMO,
    PLAN_MEMO_ENTRIES,
    WORKLOAD_KINDS,
    KernelRef,
    PlanMemo,
    Workload,
    WorkloadError,
    plan_workload,
    request_fingerprint,
    resolve_request,
)
from repro.stencil.golden import golden_output_sequence, make_input
from repro.stencil.kernels import DENOISE, get_benchmark

GRID = (12, 14)
SEED = 7


def _sequential_digests(spec, steps, seed):
    """Client-side replay of a t-step chain: the digests a perfectly
    honest iterate workload must reproduce bit for bit."""
    current_spec = spec
    current = make_input(spec, seed=seed)
    digests = []
    for _ in range(steps):
        outputs = golden_output_sequence(current_spec, current)
        arr = np.ascontiguousarray(
            np.asarray(outputs, dtype=np.float64)
        )
        digests.append(hashlib.sha256(arr.data).hexdigest()[:16])
        shape = intermediate_grid_shape(current_spec)
        current = arr.reshape(shape)
        current_spec = current_spec.with_grid(shape)
    return digests


# -- structural validation ---------------------------------------------


class TestValidation:
    def test_vocabularies_are_closed(self):
        assert WORKLOAD_KINDS == ("single", "iterate", "graph")
        assert FUSE_POLICIES == ("auto", "never", "always")
        with pytest.raises(WorkloadError):
            Workload.from_json({"kind": "loop", "benchmark": "DENOISE"})
        with pytest.raises(WorkloadError):
            Workload.iterate(benchmark="DENOISE", steps=2, fuse="maybe")

    def test_kernel_ref_exactly_one_of(self):
        with pytest.raises(WorkloadError):
            KernelRef()
        with pytest.raises(WorkloadError):
            KernelRef(benchmark="DENOISE", spec={"name": "x"})

    def test_steps_must_be_positive(self):
        for bad in (0, -1):
            with pytest.raises(WorkloadError):
                Workload.iterate(benchmark="DENOISE", steps=bad)

    def test_graph_rejects_cycles(self):
        with pytest.raises(WorkloadError):
            Workload.from_json({
                "kind": "graph",
                "nodes": [
                    {"id": "a", "benchmark": "DENOISE"},
                    {"id": "b", "benchmark": "RICIAN"},
                ],
                "edges": [["a", "b"], ["b", "a"]],
            })

    def test_graph_rejects_dangling_edge(self):
        with pytest.raises(WorkloadError) as excinfo:
            Workload.from_json({
                "kind": "graph",
                "nodes": [{"id": "a", "benchmark": "DENOISE"}],
                "edges": [["a", "ghost"]],
            })
        assert "ghost" in str(excinfo.value)

    def test_graph_rejects_duplicate_ids_and_self_edges(self):
        with pytest.raises(WorkloadError):
            Workload.from_json({
                "kind": "graph",
                "nodes": [
                    {"id": "a", "benchmark": "DENOISE"},
                    {"id": "a", "benchmark": "RICIAN"},
                ],
                "edges": [],
            })
        with pytest.raises(WorkloadError):
            Workload.from_json({
                "kind": "graph",
                "nodes": [{"id": "a", "benchmark": "DENOISE"}],
                "edges": [["a", "a"]],
            })

    def test_graph_must_be_a_linear_chain(self):
        # Fan-out (one producer, two consumers) is not plannable on
        # the single-stream Fig 13c hand-off; rejected up front.
        with pytest.raises(WorkloadError):
            Workload.from_json({
                "kind": "graph",
                "nodes": [
                    {"id": "a", "benchmark": "DENOISE"},
                    {"id": "b", "benchmark": "RICIAN"},
                    {"id": "c", "benchmark": "RICIAN"},
                ],
                "edges": [["a", "b"], ["a", "c"]],
            })

    def test_workload_error_is_a_value_error(self):
        # The CLI's rc-2 error contract catches ValueError.
        assert issubclass(WorkloadError, ValueError)


# -- codec --------------------------------------------------------------


class TestCodec:
    def test_round_trips(self):
        cases = (
            Workload.single(benchmark="DENOISE"),
            Workload.iterate(benchmark="RICIAN", steps=4),
            Workload.iterate(benchmark="DENOISE", steps=2, fuse="never"),
            Workload.from_json({
                "kind": "graph",
                "nodes": [
                    {"id": "den", "benchmark": "DENOISE"},
                    {"id": "ric", "benchmark": "RICIAN"},
                ],
                "edges": [["den", "ric"]],
                "fuse": "always",
            }),
        )
        for workload in cases:
            wire = json.loads(json.dumps(workload.to_json()))
            assert Workload.from_json(wire) == workload

    def test_inline_spec_kernels_round_trip(self):
        spec_json = DENOISE.with_grid(GRID).to_json()
        workload = Workload.iterate(spec=spec_json, steps=2)
        again = Workload.from_json(workload.to_json())
        assert again == workload
        # Inline specs are not memoizable (mutable dict payload).
        assert workload.memo_key() is None
        assert Workload.iterate(
            benchmark="DENOISE", steps=2
        ).memo_key() is not None


# -- planner ------------------------------------------------------------


class TestPlanner:
    def test_single_plan_shares_proto1_cache_identity(self):
        plan = plan_workload(
            Workload.single(benchmark="DENOISE"), grid=GRID
        )
        assert len(plan.stages) == 1
        assert plan.fingerprint == plan.stages[0].fingerprint
        req = Request.from_json(
            {"proto": 1, "benchmark": "DENOISE", "grid": list(GRID)}
        )
        assert request_fingerprint(req) == plan.fingerprint

    def test_iterate_steps_get_distinct_fingerprints(self):
        plan = plan_workload(
            Workload.iterate(benchmark="DENOISE", steps=3), grid=GRID
        )
        assert len(plan.stages) == 3
        fps = [stage.fingerprint for stage in plan.stages]
        assert len(set(fps)) == 3  # grids shrink every step
        assert plan.label == "DENOISE->DENOISE->DENOISE"
        # Step count is part of the workload identity.
        other = plan_workload(
            Workload.iterate(benchmark="DENOISE", steps=2), grid=GRID
        )
        assert other.fingerprint != plan.fingerprint

    def test_fuse_always_collapses_stages_same_bits(self):
        chained = plan_workload(
            Workload.iterate(benchmark="DENOISE", steps=2, fuse="never"),
            grid=GRID,
        )
        fused = plan_workload(
            Workload.iterate(benchmark="DENOISE", steps=2, fuse="always"),
            grid=GRID,
        )
        assert len(chained.stages) == 2
        assert len(fused.stages) == 1
        assert fused.fused_edges == 1
        # Fusion is exact expression inlining: final bits identical.
        grid = make_input(chained.stages[0].spec, seed=SEED)
        step1 = np.asarray(
            golden_output_sequence(chained.stages[0].spec, grid),
            dtype=np.float64,
        ).reshape(intermediate_grid_shape(chained.stages[0].spec))
        two_pass = golden_output_sequence(chained.stages[1].spec, step1)
        one_pass = golden_output_sequence(fused.stages[0].spec, grid)
        assert np.array_equal(
            np.asarray(one_pass), np.asarray(two_pass)
        )

    def test_workload_request_fingerprint_used_by_router(self):
        req = Request.from_json({
            "proto": 2,
            "workload": {
                "kind": "iterate", "benchmark": "DENOISE", "steps": 3,
            },
            "grid": list(GRID),
        })
        fp = request_fingerprint(req)
        assert fp == request_fingerprint(req)  # deterministic
        single = Request.from_json(
            {"proto": 1, "benchmark": "DENOISE", "grid": list(GRID)}
        )
        assert fp != request_fingerprint(single)


class TestPlanMemo:
    """The one planning memo shared by the router and service nodes."""

    def test_lru_bound_is_enforced(self):
        memo = PlanMemo(max_entries=3)
        for k in range(5):
            memo.get_or_build(("k", k), lambda k=k: k)
        assert len(memo) == 3
        memo.get_or_build(("k", 2), lambda: "stale")  # refresh 2
        memo.get_or_build(("k", 5), lambda: 5)  # evicts 3, not 2
        assert memo.get_or_build(("k", 2), lambda: "miss") == 2
        assert memo.get_or_build(("k", 3), lambda: "miss") == "miss"
        with pytest.raises(ValueError):
            PlanMemo(max_entries=0)

    def test_process_memo_stays_within_its_bound(self):
        assert PLAN_MEMO.max_entries == PLAN_MEMO_ENTRIES
        for rows in range(8, 8 + PLAN_MEMO_ENTRIES + 20):
            request_fingerprint(
                Request(benchmark="DENOISE", grid=(rows, 9))
            )
        assert len(PLAN_MEMO) == PLAN_MEMO_ENTRIES

    def test_warm_lookups_return_the_memoized_plan(self):
        workload = Workload.iterate(benchmark="DENOISE", steps=3)
        first = plan_workload(workload, grid=list(GRID))
        assert plan_workload(workload, grid=GRID) is first
        req = Request(benchmark="DENOISE", grid=GRID)
        assert resolve_request(req) is resolve_request(req)

    def test_errors_and_inline_specs_are_never_memoized(self):
        before = len(PLAN_MEMO)
        for _ in range(2):
            with pytest.raises(KeyError):
                request_fingerprint(Request(benchmark="BOGUS"))
            with pytest.raises(WorkloadError):
                plan_workload(Workload.single(benchmark="BOGUS"))
        spec_json = DENOISE.with_grid(GRID).to_json()
        plan_workload(Workload.iterate(spec=spec_json, steps=2))
        request_fingerprint(Request(spec=spec_json))
        assert len(PLAN_MEMO) == before


# -- service end to end -------------------------------------------------


def _iterate_wire(steps=3, **extra):
    wire = {
        "proto": 2,
        "workload": {
            "kind": "iterate",
            "benchmark": "DENOISE",
            "steps": steps,
        },
        "grid": list(GRID),
        "seed": SEED,
    }
    wire.update(extra)
    return wire


class TestServiceWorkloads:
    def _run(self, config, wire):
        service = StencilService(config).start()
        try:
            response = service.submit(wire).result(timeout=120)
        finally:
            service.shutdown()
        return response

    def test_iterate_digests_match_sequential_round_trips(self):
        """The acceptance check: iterate(t) == t sequential steps."""
        expected = _sequential_digests(
            DENOISE.with_grid(GRID), 3, SEED
        )
        service = StencilService(ServiceConfig(workers=2)).start()
        try:
            response = service.submit(_iterate_wire()).result(timeout=60)
            assert response.ok, response.error
            assert response.benchmark == "DENOISE->DENOISE->DENOISE"
            assert [
                stage["checksum"] for stage in response.stages
            ] == expected
            assert response.checksum == expected[-1]
            # Stage 0 is bit-identical to a real proto:1 round trip.
            single = service.submit({
                "proto": 1,
                "benchmark": "DENOISE",
                "grid": list(GRID),
                "seed": SEED,
            }).result(timeout=60)
            assert single.ok
            assert single.checksum == response.stages[0]["checksum"]
            counters = service.metrics.snapshot()["counters"]
            assert counters[
                'service_workload_requests_total{kind="iterate"}'
            ] == 1
            assert counters["service_workload_stages_total"] == 3
        finally:
            service.shutdown()

    def test_graph_workload_matches_hand_chain(self):
        wire = {
            "proto": 2,
            "workload": {
                "kind": "graph",
                "nodes": [
                    {"id": "den", "benchmark": "DENOISE"},
                    {"id": "ric", "benchmark": "RICIAN"},
                ],
                "edges": [["den", "ric"]],
            },
            "grid": list(GRID),
            "seed": 3,
        }
        response = self._run(ServiceConfig(workers=2), wire)
        assert response.ok, response.error
        assert response.benchmark == "DENOISE->RICIAN"
        # Hand-chain the same two kernels on the same seeded input.
        producer = DENOISE.with_grid(GRID)
        grid = make_input(producer, seed=3)
        step1 = np.ascontiguousarray(np.asarray(
            golden_output_sequence(producer, grid), dtype=np.float64
        ))
        consumer = get_benchmark("RICIAN").with_grid(
            intermediate_grid_shape(producer)
        )
        final = np.ascontiguousarray(np.asarray(
            golden_output_sequence(
                consumer,
                step1.reshape(intermediate_grid_shape(producer)),
            ),
            dtype=np.float64,
        ))
        assert response.checksum == (
            hashlib.sha256(final.data).hexdigest()[:16]
        )

    def test_compiled_backend_same_bits_and_counted(self):
        expected = _sequential_digests(
            DENOISE.with_grid(GRID), 3, SEED
        )
        service = StencilService(
            ServiceConfig(workers=2, backend="compiled")
        ).start()
        try:
            response = service.submit(_iterate_wire()).result(timeout=60)
            assert response.ok, response.error
            assert [
                stage["checksum"] for stage in response.stages
            ] == expected
            counters = service.metrics.snapshot()["counters"]
            assert counters.get(
                'service_lower_requests_total{path="compiled"}', 0
            ) >= 1
        finally:
            service.shutdown()

    def test_pipeline_canary_validates_every_stage(self):
        response = self._run(
            ServiceConfig(workers=1, validate_every=1), _iterate_wire()
        )
        assert response.ok and response.validated is True

    @pytest.mark.parametrize("backend", ["interpreted", "compiled"])
    def test_process_pool_same_bits(self, backend):
        expected = _sequential_digests(
            DENOISE.with_grid(GRID), 3, SEED
        )
        response = self._run(
            ServiceConfig(
                workers=2, worker_mode="process", backend=backend
            ),
            _iterate_wire(),
        )
        assert response.ok, response.error
        assert [
            stage["checksum"] for stage in response.stages
        ] == expected

    def test_bad_workloads_resolve_invalid_without_executing(self):
        service = StencilService(ServiceConfig(workers=1)).start()
        try:
            for wire in (
                _iterate_wire(steps=0),
                {
                    "proto": 2,
                    "workload": {
                        "kind": "graph",
                        "nodes": [
                            {"id": "a", "benchmark": "DENOISE"},
                            {"id": "b", "benchmark": "RICIAN"},
                        ],
                        "edges": [["a", "b"], ["b", "a"]],
                    },
                },
                {"proto": 2, "benchmark": "DENOISE"},
            ):
                response = service.submit(wire).result(timeout=10)
                assert response.status == "invalid"
                assert response.error.kind == "bad_workload"
            # Unknown benchmark inside a well-formed workload is an
            # ordinary bad_request (caught at resolve, not parse).
            response = service.submit(_iterate_wire()).result(timeout=60)
            assert response.ok
        finally:
            service.shutdown()


@pytest.mark.slow
class TestRoutedWorkloads:
    def test_router_routes_workloads_to_nodes(self, tmp_path):
        from repro.service.router import (
            NodeConfig,
            Router,
            RouterConfig,
        )

        expected = _sequential_digests(
            DENOISE.with_grid(GRID), 3, SEED
        )
        config = RouterConfig(
            nodes=2,
            node=NodeConfig(workers=2, cache_dir=str(tmp_path)),
        )
        router = Router(config).start()
        try:
            slots = [
                router.submit_json(json.dumps(_iterate_wire())),
                router.submit_json(json.dumps({
                    "proto": 2,
                    "workload": {
                        "kind": "graph",
                        "nodes": [
                            {"id": "a", "benchmark": "DENOISE"},
                            {"id": "b", "benchmark": "RICIAN"},
                        ],
                        "edges": [["a", "b"]],
                    },
                    "grid": list(GRID),
                    "seed": 3,
                })),
                router.submit_json(json.dumps(_iterate_wire(steps=0))),
            ]
            iterate, graph, bad = [
                slot.result(timeout=120) for slot in slots
            ]
            assert iterate.ok, iterate.error
            assert [
                stage["checksum"] for stage in iterate.stages
            ] == expected
            assert graph.ok, graph.error
            assert graph.benchmark == "DENOISE->RICIAN"
            assert bad.status == "invalid"
            assert bad.error.kind == "bad_workload"
        finally:
            router.close()
