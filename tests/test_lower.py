"""Unit tests for repro.lower: bufferize, convert, engine, programs.

The compiled backend's contract is *bit identity*: a lowered kernel
must reproduce ``repro.stencil.golden`` exactly (same SHA-256 over the
same bytes), and anything it cannot lower must refuse loudly
(``LoweringUnsupported``) so the service falls back to the interpreted
path instead of answering wrong.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.lower import (
    BUFFER_PROGRAM_VERSION,
    CompiledEngine,
    LoweringConfig,
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

    def test_gather_hard_limit_is_unsupported(self):
        spec = skewed_denoise(rows=8, cols=10)
        fp = fingerprint(spec, CompileOptions())
        with pytest.raises(LoweringUnsupported) as excinfo:
            bufferize(spec, fp, gather_hard_limit=4)
        assert excinfo.value.reason == "gather_limit"

    def test_gather_limit_never_changes_the_program(self):
        """Chunking is a converter decision: the emitted program (and
        therefore the persisted sidecar) is identical whether the
        gather domain is enumerated eagerly or chunked."""
        spec = skewed_denoise(rows=8, cols=10)
        fp = fingerprint(spec, CompileOptions())
        eager = program_to_json(bufferize(spec, fp))
        chunked = program_to_json(bufferize(spec, fp, gather_limit=4))
        assert eager == chunked

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

    def test_chunked_gather_matches_eager(self):
        """Forcing the chunked regime (tiny gather_limit) replays the
        gather table chunk by chunk and still reproduces the eager
        kernel bit for bit."""
        spec = skewed_denoise(rows=8, cols=10)
        plan, _, _ = plan_for(spec)
        program = bufferize_plan(plan)
        eager = convert(program)
        chunked = convert(program, gather_limit=4)
        grid = make_input(spec, seed=3)
        assert np.array_equal(chunked.run(grid), eager.run(grid))
        digest = hashlib.sha256(
            np.ascontiguousarray(
                chunked.run(grid), dtype=np.float64
            ).tobytes()
        ).hexdigest()
        _, _, golden_digest = execute_stencil(spec, 3)
        assert digest == golden_digest

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

    def test_unsupported_verdict_is_cached(self):
        spec = skewed_denoise(rows=8, cols=10)
        plan, _, _ = plan_for(spec)
        tight = LoweringConfig(gather_limit=2, gather_hard_limit=4)
        engine = CompiledEngine(config=tight)
        for _ in range(2):
            with pytest.raises(LoweringUnsupported):
                engine.kernel_for(plan)

    def test_unsupported_memo_is_keyed_on_config(self):
        """Regression: the engine once memoized LoweringUnsupported by
        fingerprint alone, so a refusal under one lowering config
        (tiny gather hard limit) poisoned every other config of the
        same plan for the life of the engine."""
        spec = skewed_denoise(rows=8, cols=10)
        plan, _, _ = plan_for(spec)
        engine = CompiledEngine()
        tight = LoweringConfig(gather_limit=2, gather_hard_limit=4)
        with pytest.raises(LoweringUnsupported):
            engine.kernel_for(plan, config=tight)
        # The default config must still lower this plan.
        result = engine.kernel_for(plan)
        assert result.built
        # ... and the tight config's verdict survives alongside it.
        with pytest.raises(LoweringUnsupported):
            engine.kernel_for(plan, config=tight)

    def test_recently_hit_kernel_survives_eviction(self, denoise_small):
        """The kernel memo is an LRU: a kernel hit between inserts
        outlives N+1 colder entries (insertion order dropped it)."""
        from repro.lower.engine import KERNEL_MEMO_ENTRIES

        plan, _, _ = plan_for(denoise_small)
        engine = CompiledEngine()
        hot = engine.kernel_for(plan)
        for k in range(KERNEL_MEMO_ENTRIES + 1):
            # Each config key is one more memo entry for the same plan.
            engine.kernel_for(
                plan, config=LoweringConfig(gather_limit=10**6 + k)
            )
            again = engine.kernel_for(plan)
            assert not again.built, f"hot kernel evicted after {k + 1}"
            assert again.kernel is hot.kernel
        assert len(engine._kernels) == KERNEL_MEMO_ENTRIES

    def test_unsupported_memo_is_bounded(self):
        from repro.lower.engine import KERNEL_MEMO_ENTRIES

        plan, _, _ = plan_for(skewed_denoise(rows=8, cols=10))
        engine = CompiledEngine()
        for k in range(KERNEL_MEMO_ENTRIES + 1):
            with pytest.raises(LoweringUnsupported):
                engine.kernel_for(
                    plan,
                    config=LoweringConfig(
                        gather_limit=2 + k, gather_hard_limit=4
                    ),
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
