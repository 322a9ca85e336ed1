"""Unit tests for repro.lower: bufferize, convert, engine, programs.

The compiled backend's contract is *bit identity*: a lowered kernel
must reproduce ``repro.stencil.golden`` exactly (same SHA-256 over the
same bytes), and anything it cannot lower must refuse loudly
(``LoweringUnsupported``) so the service falls back to the interpreted
path instead of answering wrong.
"""

import dataclasses
import hashlib
import importlib
import json

import numpy as np
import pytest

from repro.lower import (
    BUFFER_PROGRAM_VERSION,
    CompiledEngine,
    LoweringError,
    LoweringUnsupported,
    ProgramMismatchError,
    bufferize,
    bufferize_plan,
    convert,
    program_from_json,
    program_to_json,
    validate_program,
)
from repro.service.executor import compile_plan, execute_stencil
from repro.service.fingerprint import CompileOptions, fingerprint
from repro.stencil import PAPER_BENCHMARKS, make_input, skewed_denoise
from repro.stencil.extra_kernels import EXTRA_BENCHMARKS
from repro.stencil.spec import StencilSpec, StencilWindow

from conftest import SMALL_GRIDS, small_spec

bufferize_module = importlib.import_module("repro.lower.bufferize")
gather_module = importlib.import_module("repro.lower.gather")

#: SHA-256 of the sorted-key program JSON of ``skewed_denoise(rows,
#: cols)`` at ``offchip_streams``, as emitted before the gather
#: enumeration became one chunked sweep: the sidecars a cache already
#: holds must keep matching a fresh lowering.
SKEWED_PROGRAM_DIGESTS = {
    (4, 5, 1): "7ed271e0a6e779d9b5200be75735ed4a"
               "7eeb26018e9bf96e33ab281d2b4dd545",
    (8, 10, 1): "91fc3b3a6ec031bb5150e4ffda9a4d69"
                "a6a28ecac9c4205f2d3c825a201f479f",
    (9, 7, 1): "70a3f65e7ca8817c81eef2719e055043"
               "43962283ea8a9ea8605c412ef681e026",
    (12, 16, 1): "5561c58e6d390afa635067cdd4bf717b"
                 "5949826ed2790d7a9e890fb6736bdef8",
    (64, 80, 1): "13cf6fc771620b8a0d23553d86d9e17e"
                 "bfcf5a21df9a6caaedbf9008be87902c",
    (8, 10, 2): "2b50fbf3c61877d776b9dad9aebf4f95"
                "9000ae0b9325b7aef1e545c2ad3fb904",
}

#: Small grids for the extra kernels (3D ones especially).
EXTRA_SMALL = {
    "JACOBI_3D": (6, 7, 8),
    "HEAT_3D": (6, 7, 8),
    "MOORE_27PT": (6, 7, 8),
    "GAUSSIAN_5X5": (9, 11),
    "FD4_LAPLACIAN": (10, 11),
}


def shrink(spec):
    if spec.name in SMALL_GRIDS:
        return small_spec(spec)
    if spec.name in EXTRA_SMALL:
        return spec.with_grid(EXTRA_SMALL[spec.name])
    if len(spec.grid) == 1:
        return spec.with_grid((24,))
    return spec.with_grid(tuple(12 for _ in spec.grid))


def plan_for(spec, streams=1):
    opts = CompileOptions(offchip_streams=streams)
    fp = fingerprint(spec, opts)
    return compile_plan(spec, opts, fp), opts, fp


ALL_KERNELS = [shrink(s) for s in PAPER_BENCHMARKS] + [
    shrink(s) for s in EXTRA_BENCHMARKS.values()
]


class TestBufferize:
    @pytest.mark.parametrize(
        "spec", ALL_KERNELS, ids=lambda s: s.name
    )
    def test_reuse_offsets_equal_partition_capacities(self, spec):
        """The program's flat reuse deltas ARE the paper's non-uniform
        FIFO capacities — the lowering cross-checks its own geometry
        against the compiled partition."""
        plan, _, _ = plan_for(spec)
        program = bufferize_plan(plan)
        assert program.reuse_offsets == list(plan.fifo_capacities)
        validate_program(program)

    def test_partition_mismatch_is_unsupported(self, denoise_small):
        plan, _, fp = plan_for(denoise_small)
        wrong = [c + 1 for c in plan.fifo_capacities]
        with pytest.raises(LoweringUnsupported) as excinfo:
            bufferize(denoise_small, fp, fifo_capacities=wrong)
        assert excinfo.value.reason == "partition_mismatch"

    @pytest.mark.parametrize("streams", [2, 3])
    def test_multi_stream_lowers_to_parts(
        self, denoise_small, streams
    ):
        """A multi-stream plan lowers to one sub-program per partition
        stream; concatenating the per-part reuse deltas reproduces the
        plan's (post-break) FIFO capacities exactly."""
        plan, _, _ = plan_for(denoise_small, streams=streams)
        program = bufferize_plan(plan)
        assert len(program.parts) == streams
        assert [p.stream for p in program.parts] == list(
            range(streams)
        )
        concat = [
            d for p in program.parts for d in p.reuse_offsets
        ]
        assert concat == list(plan.fifo_capacities)
        covered = sorted(
            s for p in program.parts for s in p.reads
        )
        assert covered == sorted(set(covered))  # disjoint slots
        validate_program(program)

    def test_too_many_streams_is_unsupported(self, denoise_small):
        fp = fingerprint(denoise_small, CompileOptions())
        with pytest.raises(LoweringUnsupported) as excinfo:
            bufferize(denoise_small, fp, offchip_streams=99)
        assert excinfo.value.reason == "multi_stream"

    def test_gather_hard_limit_is_unsupported(self, monkeypatch):
        spec = skewed_denoise(rows=8, cols=10)
        fp = fingerprint(spec, CompileOptions())
        monkeypatch.setattr(bufferize_module, "GATHER_HARD_LIMIT", 4)
        with pytest.raises(LoweringUnsupported) as excinfo:
            bufferize(spec, fp)
        assert excinfo.value.reason == "gather_limit"

    @pytest.mark.parametrize(
        "rows,cols,streams", sorted(SKEWED_PROGRAM_DIGESTS)
    )
    def test_skewed_programs_are_byte_identical(
        self, monkeypatch, rows, cols, streams
    ):
        """The gather sweep emits the same program, byte for byte, as
        before it became the only enumeration — at any sweep chunk
        size, so multi-chunk sweeps are covered too."""
        plan, _, _ = plan_for(skewed_denoise(rows, cols), streams)
        for chunk in (gather_module.GATHER_CHUNK_POINTS, 7):
            monkeypatch.setattr(gather_module, "GATHER_CHUNK_POINTS", chunk)
            text = json.dumps(
                program_to_json(bufferize_plan(plan)), sort_keys=True
            )
            assert hashlib.sha256(text.encode()).hexdigest() == (
                SKEWED_PROGRAM_DIGESTS[(rows, cols, streams)]
            ), chunk

    def test_out_of_bounds_reads_are_unsupported(self):
        """A domain whose window reaches past the grid edge must not
        lower (the interpreted path keeps its legacy semantics)."""
        from repro.polyhedral.domain import BoxDomain

        window = StencilWindow.from_offsets([(-1, 0), (0, 0)])
        spec = StencilSpec(
            "EDGE",
            (6, 6),
            window,
            iteration_domain=BoxDomain((0, 0), (5, 5)),
        )
        with pytest.raises(LoweringUnsupported) as excinfo:
            bufferize(spec, "f" * 64)
        assert excinfo.value.reason == "out_of_bounds"


class TestProgramCodec:
    def test_json_round_trip(self, denoise_small):
        plan, _, _ = plan_for(denoise_small)
        program = bufferize_plan(plan)
        data = program_to_json(program)
        assert data["version"] == BUFFER_PROGRAM_VERSION
        again = program_from_json(data)
        assert program_to_json(again) == data

    def test_single_stream_json_has_no_parts_key(self, denoise_small):
        """Single-stream sidecars keep their pre-parts canonical JSON
        so programs persisted before this field existed still match
        byte-for-byte on re-lowering."""
        plan, _, _ = plan_for(denoise_small)
        data = program_to_json(bufferize_plan(plan))
        assert "parts" not in data

    def test_parts_round_trip(self, denoise_small):
        plan, _, _ = plan_for(denoise_small, streams=2)
        program = bufferize_plan(plan)
        data = program_to_json(program)
        assert len(data["parts"]) == 2
        again = program_from_json(data)
        assert again.parts == program.parts
        assert program_to_json(again) == data

    def test_validation_rejects_corrupt_parts(self, denoise_small):
        plan, _, _ = plan_for(denoise_small, streams=2)
        base = program_to_json(bufferize_plan(plan))

        def mutate(fn):
            data = json.loads(json.dumps(base))
            fn(data)
            return data

        bad_order = mutate(
            lambda d: d["parts"].reverse()
        )
        bad_slot = mutate(
            lambda d: d["parts"][0]["reads"].__setitem__(0, 99)
        )
        bad_reuse = mutate(
            lambda d: d["parts"][-1].update(reuse_offsets=[1, 2, 3])
        )
        for data in (bad_order, bad_slot, bad_reuse):
            with pytest.raises(LoweringError):
                validate_program(program_from_json(data))

    def test_validation_rejects_corrupt_programs(self, denoise_small):
        plan, _, _ = plan_for(denoise_small)
        base = program_to_json(bufferize_plan(plan))

        wrong_version = dict(base, version=99)
        bad_reads = dict(base, reads=[])
        unbalanced = dict(base, ops=base["ops"][:-1])
        for data in (wrong_version, bad_reads, unbalanced):
            with pytest.raises(LoweringError):
                validate_program(program_from_json(data))

    def test_validation_rejects_bad_read_slot(self, denoise_small):
        plan, _, _ = plan_for(denoise_small)
        data = program_to_json(bufferize_plan(plan))
        for op in data["ops"]:
            if op["op"] == "read":
                op["ref"] = len(data["reads"]) + 3
                break
        with pytest.raises(LoweringError):
            validate_program(program_from_json(data))


class TestBitIdentity:
    @pytest.mark.parametrize(
        "spec", ALL_KERNELS, ids=lambda s: s.name
    )
    def test_kernel_matches_golden_digest(self, spec):
        plan, _, _ = plan_for(spec)
        kernel = convert(bufferize_plan(plan))
        for seed in (2014, 7):
            row = kernel.run(make_input(spec, seed=seed))
            digest = hashlib.sha256(
                np.ascontiguousarray(row, dtype=np.float64).tobytes()
            ).hexdigest()
            _, _, golden_digest = execute_stencil(spec, seed)
            assert digest == golden_digest, spec.name

    def test_gather_domain_matches_golden(self):
        spec = skewed_denoise(rows=8, cols=10)
        plan, _, _ = plan_for(spec)
        kernel = convert(bufferize_plan(plan))
        row = kernel.run(make_input(spec, seed=3))
        digest = hashlib.sha256(
            np.ascontiguousarray(row, dtype=np.float64).tobytes()
        ).hexdigest()
        _, _, golden_digest = execute_stencil(spec, 3)
        assert digest == golden_digest

    @pytest.mark.parametrize("streams", [2, 3])
    def test_multi_stream_kernel_matches_golden(
        self, denoise_small, streams
    ):
        plan, _, _ = plan_for(denoise_small, streams=streams)
        kernel = convert(bufferize_plan(plan))
        for seed in (2014, 7):
            row = kernel.run(make_input(denoise_small, seed=seed))
            digest = hashlib.sha256(
                np.ascontiguousarray(row, dtype=np.float64).tobytes()
            ).hexdigest()
            _, _, golden_digest = execute_stencil(denoise_small, seed)
            assert digest == golden_digest

    def test_gather_kernel_matches_golden(self, monkeypatch):
        """The skewed kernel reproduces the golden digest whether the
        sweep enumerates its domain in one chunk or in many."""
        spec = skewed_denoise(rows=8, cols=10)
        plan, _, _ = plan_for(spec)
        _, _, golden_digest = execute_stencil(spec, 3)
        for chunk in (gather_module.GATHER_CHUNK_POINTS, 4):
            monkeypatch.setattr(gather_module, "GATHER_CHUNK_POINTS", chunk)
            kernel = convert(bufferize_plan(plan))
            digest = hashlib.sha256(
                np.ascontiguousarray(
                    kernel.run(make_input(spec, seed=3)),
                    dtype=np.float64,
                ).tobytes()
            ).hexdigest()
            assert digest == golden_digest, chunk

    def test_batch_rows_match_single_runs(self, denoise_small):
        plan, _, _ = plan_for(denoise_small)
        kernel = convert(bufferize_plan(plan))
        grids = [make_input(denoise_small, seed=s) for s in range(3)]
        batch = kernel.run_batch(np.stack(grids))
        assert batch.shape[0] == 3
        for grid, row in zip(grids, batch):
            assert np.array_equal(kernel.run(grid), row)


class TestEngine:
    def test_kernel_is_memoized(self, denoise_small):
        plan, _, _ = plan_for(denoise_small)
        engine = CompiledEngine()
        first = engine.kernel_for(plan)
        assert first.built
        assert first.program_json is not None
        second = engine.kernel_for(plan)
        assert not second.built
        assert second.kernel is first.kernel

    def test_unsupported_verdict_is_cached(self, monkeypatch):
        spec = skewed_denoise(rows=8, cols=10)
        plan, _, _ = plan_for(spec)
        engine = CompiledEngine()
        monkeypatch.setattr(bufferize_module, "GATHER_HARD_LIMIT", 4)
        with pytest.raises(LoweringUnsupported):
            engine.kernel_for(plan)
        # The verdict answers from the memo, without re-lowering.
        monkeypatch.undo()
        with pytest.raises(LoweringUnsupported):
            engine.kernel_for(plan)

    def test_recently_hit_kernel_survives_eviction(self, denoise_small):
        """The kernel memo is an LRU: a kernel hit between inserts
        outlives N+1 colder entries (insertion order dropped it)."""
        from repro.lower.engine import KERNEL_MEMO_ENTRIES

        plan, _, _ = plan_for(denoise_small)
        engine = CompiledEngine()
        hot = engine.kernel_for(plan)
        for k in range(KERNEL_MEMO_ENTRIES + 1):
            # Each fingerprint is one more memo entry for the same
            # plan content.
            engine.kernel_for(
                dataclasses.replace(plan, fingerprint=f"{k:064x}")
            )
            again = engine.kernel_for(plan)
            assert not again.built, f"hot kernel evicted after {k + 1}"
            assert again.kernel is hot.kernel
        assert len(engine._kernels) == KERNEL_MEMO_ENTRIES

    def test_unsupported_memo_is_bounded(self, monkeypatch):
        from repro.lower.engine import KERNEL_MEMO_ENTRIES

        plan, _, _ = plan_for(skewed_denoise(rows=8, cols=10))
        engine = CompiledEngine()
        monkeypatch.setattr(bufferize_module, "GATHER_HARD_LIMIT", 4)
        for k in range(KERNEL_MEMO_ENTRIES + 1):
            with pytest.raises(LoweringUnsupported):
                engine.kernel_for(
                    dataclasses.replace(plan, fingerprint=f"{k:064x}")
                )
        assert len(engine._unsupported) <= KERNEL_MEMO_ENTRIES

    def test_multi_stream_kernel_is_memoized(self, denoise_small):
        plan, _, _ = plan_for(denoise_small, streams=2)
        engine = CompiledEngine()
        first = engine.kernel_for(plan)
        assert first.built
        second = engine.kernel_for(plan)
        assert second.kernel is first.kernel

    def test_matching_sidecar_is_not_repersisted(self, denoise_small):
        plan, _, _ = plan_for(denoise_small)
        engine = CompiledEngine()
        plan.buffer_program = engine.kernel_for(plan).program_json
        engine.forget(plan.fingerprint)
        again = engine.kernel_for(plan)
        assert again.built
        assert again.program_json is None  # stored sidecar matched

    def test_tampered_sidecar_raises_mismatch(self, denoise_small):
        plan, _, _ = plan_for(denoise_small)
        engine = CompiledEngine()
        program = dict(engine.kernel_for(plan).program_json)
        program["reads"] = [
            dict(r, flat=r["flat"] + 1) for r in program["reads"]
        ]
        plan.buffer_program = program
        engine.forget(plan.fingerprint)
        with pytest.raises(ProgramMismatchError):
            engine.kernel_for(plan)

    def test_input_grids_are_content_addressed(self, denoise_small):
        engine = CompiledEngine()
        a = engine.input_grid(denoise_small, 5)
        b = engine.input_grid(denoise_small, 5)
        assert a is b  # same (shape, seed) -> same array object
        assert not a.flags.writeable
        assert np.array_equal(a, make_input(denoise_small, seed=5))
        assert not np.shares_memory(
            a, engine.input_grid(denoise_small, 6)
        )

    def test_grid_cache_is_byte_bounded(self, denoise_small):
        one = make_input(denoise_small, seed=0).nbytes
        engine = CompiledEngine(grid_cache_bytes=2 * one)
        for seed in range(6):
            engine.input_grid(denoise_small, seed)
        assert len(engine._grids) <= 3  # 2 within budget + newest
