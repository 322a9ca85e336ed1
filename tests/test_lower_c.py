"""Tests for the cffi-built C converter (``converter="c"``).

The C converter's contract is the same bit identity the NumPy
converter carries — double-precision IEEE semantics matching NumPy's
exact ufunc formulas (NaN propagation through min/max included) —
plus graceful degradation: with no C toolchain the build raises
:class:`ConverterUnavailable` and the engine silently serves the
NumPy kernel instead, recording the downgrade.
"""

import hashlib
import importlib
import os
import sys

import numpy as np
import pytest

from repro.lower import (
    CompiledEngine,
    ConverterUnavailable,
    bufferize_plan,
    convert,
)
from repro.lower.convert_c import (
    CCompiledKernel,
    c_toolchain,
    generate_source,
)
from repro.obs.metrics import MetricsRegistry
from repro.service import ServiceConfig, StencilService
from repro.service.executor import compile_plan, execute_stencil
from repro.service.fingerprint import CompileOptions, fingerprint
from repro.stencil import PAPER_BENCHMARKS, make_input, skewed_denoise
from repro.stencil.spec import StencilSpec, StencilWindow
from repro.stencil.expr import (
    Ref,
    absolute,
    maximum,
    minimum,
    square_root,
)

from conftest import SMALL_GRIDS, small_spec

gather_module = importlib.import_module("repro.lower.gather")

needs_cc = pytest.mark.skipif(
    c_toolchain() is None, reason="no C toolchain on this machine"
)


def shrink(spec):
    if spec.name in SMALL_GRIDS:
        return small_spec(spec)
    return spec.with_grid(tuple(12 for _ in spec.grid))


def plan_for(spec, streams=1):
    opts = CompileOptions(offchip_streams=streams)
    fp = fingerprint(spec, opts)
    return compile_plan(spec, opts, fp)


def minmax_spec():
    """Min/max/sqrt soup — the ops whose C lowering could plausibly
    diverge from NumPy (fmin/fmax would, on NaN and signed zero)."""
    c, n, s = Ref((0, 0)), Ref((-1, 0)), Ref((1, 0))
    w, e = Ref((0, -1)), Ref((0, 1))
    expr = maximum(minimum(c, n - s), square_root(absolute(w * e))) - \
        minimum(maximum(w, e), c / 3.0)
    window = StencilWindow.from_offsets(
        [(0, 0), (-1, 0), (1, 0), (0, -1), (0, 1)]
    )
    return StencilSpec("MINMAX", (10, 12), window, expression=expr)


class TestCodegen:
    def test_source_is_deterministic(self, denoise_small):
        program = bufferize_plan(plan_for(denoise_small))
        assert generate_source(program) == generate_source(program)

    def test_source_mentions_both_entry_points(self, denoise_small):
        program = bufferize_plan(plan_for(denoise_small))
        src = generate_source(program)
        assert "kernel_box" in src
        assert "kernel_gather" in src

@needs_cc
class TestCBitIdentity:
    @pytest.mark.parametrize(
        "spec",
        [shrink(s) for s in PAPER_BENCHMARKS],
        ids=lambda s: s.name,
    )
    def test_box_kernels_match_numpy_and_golden(self, spec):
        program = bufferize_plan(plan_for(spec))
        ck = CCompiledKernel(program)
        nk = convert(program)
        for seed in (2014, 7):
            grid = make_input(spec, seed=seed)
            c_row = np.ascontiguousarray(ck.run(grid), dtype=np.float64)
            assert np.array_equal(c_row, nk.run(grid), equal_nan=True)
            _, _, golden = execute_stencil(spec, seed)
            assert hashlib.sha256(c_row.tobytes()).hexdigest() == golden

    def test_multi_stream_matches_golden(self, denoise_small):
        program = bufferize_plan(plan_for(denoise_small, streams=2))
        ck = CCompiledKernel(program)
        row = np.ascontiguousarray(
            ck.run(make_input(denoise_small, seed=3)), dtype=np.float64
        )
        _, _, golden = execute_stencil(denoise_small, 3)
        assert hashlib.sha256(row.tobytes()).hexdigest() == golden

    @pytest.mark.parametrize("sweep", [None, 4])
    def test_gather_matches_numpy(self, monkeypatch, sweep):
        """Same base row, same bits: the domain swept in one chunk
        (``None``) or in chunks of ``sweep`` points."""
        if sweep is not None:
            monkeypatch.setattr(gather_module, "GATHER_CHUNK_POINTS", sweep)
        spec = skewed_denoise(rows=8, cols=10)
        program = bufferize_plan(plan_for(spec))
        ck = CCompiledKernel(program)
        nk = convert(program)
        grid = make_input(spec, seed=3)
        assert np.array_equal(ck.run(grid), nk.run(grid))
        _, _, golden = execute_stencil(spec, 3)
        row = np.ascontiguousarray(ck.run(grid), dtype=np.float64)
        assert hashlib.sha256(row.tobytes()).hexdigest() == golden

    def test_minmax_nan_and_signed_zero_match_numpy(self):
        spec = minmax_spec()
        program = bufferize_plan(plan_for(spec))
        ck = CCompiledKernel(program)
        nk = convert(program)
        grid = make_input(spec, seed=1)
        # Poison the grid with the values where fmin/fmax-style C
        # lowering would diverge from NumPy's propagating formula.
        grid = grid.copy()
        grid[2, 2] = np.nan
        grid[3, 3] = -0.0
        grid[4, 4] = 0.0
        grid[5, 5] = np.inf
        grid[6, 6] = -np.inf
        c_row = np.ascontiguousarray(ck.run(grid), dtype=np.float64)
        n_row = np.ascontiguousarray(nk.run(grid), dtype=np.float64)
        assert c_row.tobytes() == n_row.tobytes()  # bit identity

    def test_batch_matches_numpy(self, denoise_small):
        program = bufferize_plan(plan_for(denoise_small))
        ck = CCompiledKernel(program)
        nk = convert(program)
        grids = [make_input(denoise_small, seed=s) for s in range(3)]
        batch = np.stack(grids)
        assert np.array_equal(ck.run_batch(batch), nk.run_batch(batch))


@needs_cc
class TestArtifactCache:
    def test_artifact_persists_and_reloads(self, denoise_small, tmp_path):
        plan = plan_for(denoise_small)
        program = bufferize_plan(plan)
        art = str(tmp_path)
        CCompiledKernel(program, artifact_dir=art)
        so = os.path.join(art, f"{plan.fingerprint}.c.so")
        meta = os.path.join(art, f"{plan.fingerprint}.c.json")
        assert os.path.exists(so) and os.path.exists(meta)
        stamp = os.path.getmtime(so)
        again = CCompiledKernel(program, artifact_dir=art)
        assert os.path.getmtime(so) == stamp  # reused, not rebuilt
        grid = make_input(denoise_small, seed=0)
        assert np.array_equal(
            again.run(grid), convert(program).run(grid)
        )

    def test_tampered_artifact_is_rebuilt(self, denoise_small, tmp_path):
        plan = plan_for(denoise_small)
        program = bufferize_plan(plan)
        art = str(tmp_path)
        CCompiledKernel(program, artifact_dir=art)
        so = os.path.join(art, f"{plan.fingerprint}.c.so")
        with open(so, "ab") as fh:
            fh.write(b"tampered")
        rebuilt = CCompiledKernel(program, artifact_dir=art)
        grid = make_input(denoise_small, seed=0)
        assert np.array_equal(
            rebuilt.run(grid), convert(program).run(grid)
        )


class TestDegradation:
    def test_no_toolchain_raises_unavailable(
        self, denoise_small, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CC", "")
        program = bufferize_plan(plan_for(denoise_small))
        assert c_toolchain() is None
        with pytest.raises(ConverterUnavailable):
            CCompiledKernel(program)

    def test_engine_degrades_to_numpy(self, denoise_small, monkeypatch):
        monkeypatch.setenv("REPRO_CC", "")
        plan = plan_for(denoise_small)
        engine = CompiledEngine(converter="c")
        result = engine.kernel_for(plan)
        assert result.built
        assert result.converter == "numpy"
        assert result.converter_fallback is not None
        row = result.kernel.run(make_input(denoise_small, seed=0))
        row = np.ascontiguousarray(row, dtype=np.float64)
        _, _, golden = execute_stencil(denoise_small, 0)
        assert hashlib.sha256(row.tobytes()).hexdigest() == golden

    @needs_cc
    def test_engine_uses_c_when_available(self, denoise_small):
        plan = plan_for(denoise_small)
        engine = CompiledEngine(converter="c")
        result = engine.kernel_for(plan)
        assert result.built
        assert result.converter == "c"
        assert result.converter_fallback is None
        assert isinstance(result.kernel, CCompiledKernel)

    def test_unimportable_converter_degrades_to_numpy(
        self, denoise_small, monkeypatch
    ):
        monkeypatch.setitem(sys.modules, "repro.lower.convert_c", None)
        result = CompiledEngine(converter="c").kernel_for(
            plan_for(denoise_small)
        )
        assert result.converter == "numpy"
        assert "cannot be imported" in result.converter_fallback

    def test_unknown_converter_is_refused(self):
        with pytest.raises(ValueError, match="converter must be one of"):
            CompiledEngine(converter="fortran")


@needs_cc
class TestServiceWiring:
    """The ``converter`` string reaches the kernels in both worker
    modes — a pool worker gets it with its spawn arguments — and the C
    builds land in the service's ``cache_dir``."""

    @pytest.mark.parametrize("worker_mode", ["thread", "process"])
    def test_converter_and_cache_dir_reach_the_engine(
        self, denoise_small, tmp_path, worker_mode
    ):
        config = ServiceConfig(
            workers=1,
            worker_mode=worker_mode,
            backend="compiled",
            converter="c",
            cache_dir=str(tmp_path),
        )
        registry = MetricsRegistry()
        with StencilService(config, registry=registry) as service:
            reply = service.handle(
                {"proto": 1, "spec": denoise_small.to_json(), "seed": 0},
                wait_timeout=120,
            )
        assert reply.status == "ok"
        assert reply.checksum == execute_stencil(denoise_small, 0)[2][:16]
        counters = registry.snapshot()["counters"]
        assert counters[
            'service_lower_converter_total{converter="c"}'
        ] == 1
        assert not any(
            "fallback" in key for key in counters
        ), counters
        fp = fingerprint(denoise_small, CompileOptions())
        assert os.path.exists(os.path.join(tmp_path, f"{fp}.c.so"))
