"""Differential campaign: golden vs chain simulator vs compiled.

Seeded random stencils — varying dimensionality, window shape, grid
size, boundary mode and domain skew — executed through three
independent implementations:

* the NumPy golden reference (``repro.stencil.golden``),
* the behavioural chain simulator (``repro.sim.engine``), and
* the lowered vectorized kernel (``repro.lower``).

Agreement must be *exact* (bit-equal float64), not approximate: all
three replay the same expression semantics on the same inputs, so any
drift is a real lowering bug, never rounding noise.
"""

import importlib
import random

import numpy as np
import pytest

from repro.lower import (
    LoweringUnsupported,
    bufferize_plan,
    convert,
    get_converter,
)
from repro.lower.convert_c import c_toolchain
from repro.microarch.memory_system import build_memory_system
from repro.service.executor import compile_plan
from repro.service.fingerprint import CompileOptions, fingerprint
from repro.sim.engine import ChainSimulator
from repro.stencil import make_input, skewed_denoise
from repro.stencil.boundary import (
    PAD_MODES,
    pad_grid,
    pad_spec,
    run_with_boundary,
)
from repro.stencil.golden import golden_output_sequence
from repro.stencil.kernels import get_benchmark
from repro.stencil.spec import StencilSpec, StencilWindow

CAMPAIGN_SEED = 20140605

# The module, not the ``convert`` function the package re-exports.
convert_module = importlib.import_module("repro.lower.convert")


def random_spec(rng: random.Random, ndim: int) -> StencilSpec:
    """A random stencil window on a small grid (window always fits)."""
    reach = 2 if ndim < 3 else 1
    n_offsets = rng.randint(2, 5 if ndim < 3 else 4)
    offsets = {tuple(0 for _ in range(ndim))}  # keep the center read
    while len(offsets) < n_offsets:
        offsets.add(
            tuple(
                rng.randint(-reach, reach) for _ in range(ndim)
            )
        )
    window = StencilWindow.from_offsets(sorted(offsets))
    mins, maxs = window.span()
    grid = tuple(
        (hi - lo) + rng.randint(3, 6 if ndim < 3 else 4)
        for lo, hi in zip(mins, maxs)
    )
    return StencilSpec(f"RAND{ndim}D", grid, window)


def compiled_outputs(
    spec: StencilSpec,
    grid: np.ndarray,
    streams: int = 1,
    gather_limit=None,
    converter: str = "numpy",
) -> np.ndarray:
    opts = CompileOptions(offchip_streams=streams)
    plan = compile_plan(spec, opts, fingerprint(spec, opts))
    program = bufferize_plan(plan)
    kwargs = {} if gather_limit is None else {
        "gather_limit": gather_limit
    }
    kernel = get_converter(converter)(program, **kwargs)
    return np.ascontiguousarray(kernel.run(grid), dtype=np.float64)


def chain_outputs(spec: StencilSpec, grid: np.ndarray) -> np.ndarray:
    result = ChainSimulator(
        spec, build_memory_system(spec.analysis()), grid
    ).run()
    return np.asarray(result.output_values(), dtype=np.float64)


def assert_three_way_exact(spec: StencilSpec, grid: np.ndarray):
    golden = np.asarray(
        golden_output_sequence(spec, grid), dtype=np.float64
    )
    compiled = compiled_outputs(spec, grid)
    simulated = chain_outputs(spec, grid)
    assert np.array_equal(compiled, golden), spec.name
    assert np.array_equal(simulated, golden), spec.name


class TestRandomInteriorSpecs:
    @pytest.mark.parametrize("case", range(8))
    def test_three_way_exact_agreement(self, case):
        rng = random.Random(CAMPAIGN_SEED + case)
        spec = random_spec(rng, ndim=rng.choice((1, 2, 2, 3)))
        grid = np.random.default_rng(case).uniform(
            -9, 9, size=spec.grid
        )
        assert_three_way_exact(spec, grid)


class TestBoundaryModes:
    @pytest.mark.parametrize(
        "mode_index,mode", list(enumerate(PAD_MODES))
    )
    @pytest.mark.parametrize("case", range(2))
    def test_padded_spec_three_way_exact(self, mode_index, mode, case):
        """Full-size outputs: the compiled kernel runs the padded spec
        (pinned non-interior domain) bit-identically for every padding
        mode."""
        rng = random.Random(CAMPAIGN_SEED + 100 * case + mode_index)
        spec = random_spec(rng, ndim=2)
        base = make_input(spec, seed=case)
        padded_spec = pad_spec(spec)
        padded_grid = pad_grid(spec, base, mode=mode)

        golden_full = run_with_boundary(spec, base, mode=mode)
        compiled = compiled_outputs(padded_spec, padded_grid)
        simulated = chain_outputs(padded_spec, padded_grid)
        flat = golden_full.reshape(-1)
        assert np.array_equal(compiled, flat)
        assert np.array_equal(simulated, flat)


class TestSkewedDomains:
    @pytest.mark.parametrize("rows,cols", [(6, 8), (8, 10), (9, 7)])
    def test_skewed_gather_three_way_exact(self, rows, cols):
        spec = skewed_denoise(rows=rows, cols=cols)
        grid = make_input(spec, seed=rows * cols)
        assert_three_way_exact(spec, grid)

    @pytest.mark.parametrize("rows,cols", [(6, 8), (9, 7)])
    def test_chunked_gather_matches_eager_and_golden(self, rows, cols):
        """Forcing chunked gather replay (tiny limit) must not change
        a single output bit relative to the eager table or golden."""
        spec = skewed_denoise(rows=rows, cols=cols)
        grid = make_input(spec, seed=rows + cols)
        golden = np.asarray(
            golden_output_sequence(spec, grid), dtype=np.float64
        )
        chunked = compiled_outputs(spec, grid, gather_limit=2)
        assert np.array_equal(chunked, golden)
        assert np.array_equal(chunked, compiled_outputs(spec, grid))


class TestMultiStream:
    @pytest.mark.parametrize("case", range(4))
    @pytest.mark.parametrize("streams", [2, 3])
    def test_multi_stream_three_way_exact(self, case, streams):
        """The per-stream sub-programs reproduce golden bit-for-bit
        over the random corpus (2D only: enough window points)."""
        rng = random.Random(CAMPAIGN_SEED + case)
        spec = random_spec(rng, ndim=2)
        if spec.window.n_points <= streams:
            pytest.skip("window too small for this stream count")
        grid = np.random.default_rng(case).uniform(
            -9, 9, size=spec.grid
        )
        golden = np.asarray(
            golden_output_sequence(spec, grid), dtype=np.float64
        )
        compiled = compiled_outputs(spec, grid, streams=streams)
        assert np.array_equal(compiled, golden), spec.name


def _strip_kernel(spec, monkeypatch, strip_rows, batch=1):
    """A NumPy kernel whose box replay runs ``strip_rows``-row strips
    for a batch of ``batch`` grids (the byte budget shrunk to match)."""
    opts = CompileOptions()
    kernel = convert(
        bufferize_plan(compile_plan(spec, opts, fingerprint(spec, opts)))
    )
    rows = kernel.program.shape[0]
    row_bytes = batch * (kernel.n_outputs // rows) * 8
    monkeypatch.setattr(
        convert_module, "STRIP_BYTES", strip_rows * row_bytes
    )
    assert kernel._strip_rows(batch) == strip_rows < rows
    return kernel


def _assert_batch_matches_golden(kernel, spec, grids):
    rows = kernel.run_batch(np.stack(grids))
    for row, grid in zip(rows, grids):
        golden = np.asarray(
            golden_output_sequence(spec, grid), dtype=np.float64
        )
        # array_equal treats NaN != NaN; compare the raw bits instead.
        assert row.tobytes() == golden.tobytes(), spec.name


class TestStripMinedReplay:
    """Box replay over row strips is bit-identical to the golden."""

    @pytest.mark.parametrize("strip_rows", [1, 2, 3, 4])
    @pytest.mark.parametrize("name", ["DENOISE", "RICIAN", "SOBEL"])
    def test_ragged_and_single_row_strips(
        self, monkeypatch, name, strip_rows
    ):
        # 13 output rows: no strip height here divides it evenly.
        spec = get_benchmark(name).with_grid((15, 12))
        kernel = _strip_kernel(spec, monkeypatch, strip_rows)
        _assert_batch_matches_golden(kernel, spec, [make_input(spec, 3)])

    @pytest.mark.parametrize("case", range(3))
    def test_random_3d_specs(self, monkeypatch, case):
        rng = random.Random(CAMPAIGN_SEED + 300 + case)
        spec = random_spec(rng, ndim=3)  # >= 3 output planes
        kernel = _strip_kernel(spec, monkeypatch, 1 + case % 2)
        grid = np.random.default_rng(case).uniform(-9, 9, size=spec.grid)
        _assert_batch_matches_golden(kernel, spec, [grid])

    def test_paper_3d_kernel(self, monkeypatch):
        spec = get_benchmark("DENOISE_3D").with_grid((9, 7, 6))
        kernel = _strip_kernel(spec, monkeypatch, 2)
        _assert_batch_matches_golden(kernel, spec, [make_input(spec, 1)])

    @pytest.mark.parametrize("name", ["RICIAN", "SOBEL"])
    def test_batched_grids(self, monkeypatch, name):
        spec = get_benchmark(name).with_grid((14, 11))
        grids = [make_input(spec, seed) for seed in range(3)]
        kernel = _strip_kernel(spec, monkeypatch, 2, batch=len(grids))
        _assert_batch_matches_golden(kernel, spec, grids)

    @pytest.mark.parametrize("name", ["DENOISE", "RICIAN", "SOBEL"])
    def test_nan_signed_zero_and_inf_inputs(self, monkeypatch, name):
        spec = get_benchmark(name).with_grid((13, 10))
        grids = []
        for seed in range(2):
            grid = make_input(spec, seed).copy()
            flat = grid.reshape(-1)
            picks = np.random.default_rng(seed).choice(
                flat.size, size=12, replace=False
            )
            specials = [np.nan, 0.0, -0.0, np.inf, -np.inf, 0.0]
            for i, at in enumerate(picks):
                flat[at] = specials[i % len(specials)]
            grids.append(grid)
        kernel = _strip_kernel(spec, monkeypatch, 3, batch=len(grids))
        _assert_batch_matches_golden(kernel, spec, grids)

    def test_small_blocks_keep_the_eager_path(self):
        spec = get_benchmark("SOBEL").with_grid((15, 12))
        opts = CompileOptions()
        kernel = convert(
            bufferize_plan(compile_plan(spec, opts, fingerprint(spec, opts)))
        )
        assert kernel._strip_rows(1) == 0
        assert kernel._strip_rows(10_000) > 0  # big batches do strip


@pytest.mark.skipif(
    c_toolchain() is None, reason="no C toolchain on this machine"
)
class TestCConverterDiff:
    @pytest.mark.parametrize("case", range(4))
    def test_c_three_way_exact(self, case):
        rng = random.Random(CAMPAIGN_SEED + case)
        spec = random_spec(rng, ndim=rng.choice((1, 2, 2, 3)))
        grid = np.random.default_rng(case).uniform(
            -9, 9, size=spec.grid
        )
        golden = np.asarray(
            golden_output_sequence(spec, grid), dtype=np.float64
        )
        assert np.array_equal(
            compiled_outputs(spec, grid, converter="c"), golden
        )

    def test_c_skewed_gather_exact(self):
        spec = skewed_denoise(rows=7, cols=9)
        grid = make_input(spec, seed=63)
        golden = np.asarray(
            golden_output_sequence(spec, grid), dtype=np.float64
        )
        for gather_limit in (None, 2):
            assert np.array_equal(
                compiled_outputs(
                    spec,
                    grid,
                    converter="c",
                    gather_limit=gather_limit,
                ),
                golden,
            )


class TestCampaignCoversFallbacks:
    def test_every_random_spec_actually_lowered(self):
        """Guard the campaign itself: the random generator must produce
        specs the lowering accepts (otherwise the diff suite would
        silently shrink to nothing)."""
        lowered = 0
        for case in range(8):
            rng = random.Random(CAMPAIGN_SEED + case)
            spec = random_spec(rng, ndim=rng.choice((1, 2, 2, 3)))
            opts = CompileOptions()
            plan = compile_plan(spec, opts, fingerprint(spec, opts))
            try:
                bufferize_plan(plan)
            except LoweringUnsupported:  # pragma: no cover
                continue
            lowered += 1
        assert lowered == 8
