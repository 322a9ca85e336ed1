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

import copy
import importlib
import math
import random
import warnings

import numpy as np
import pytest

from repro.lower import (
    LoweringUnsupported,
    bufferize_plan,
    convert,
)
from repro.lower.convert_c import c_toolchain, convert_c
from repro.microarch.memory_system import build_memory_system
from repro.service.executor import compile_plan
from repro.service.fingerprint import CompileOptions, fingerprint
from repro.sim.engine import ChainSimulator
from repro.stencil import make_input, skewed_denoise
from repro.stencil.expr import Ref, square_root
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
gather_module = importlib.import_module("repro.lower.gather")


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
    converter: str = "numpy",
) -> np.ndarray:
    opts = CompileOptions(offchip_streams=streams)
    plan = compile_plan(spec, opts, fingerprint(spec, opts))
    program = bufferize_plan(plan)
    kernel = (convert_c if converter == "c" else convert)(program)
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

    @pytest.mark.parametrize("rows,cols", [(6, 8), (9, 7), (5, 11)])
    def test_multi_chunk_sweep_matches_golden(
        self, monkeypatch, rows, cols
    ):
        """Sweeping the domain in many tiny chunks must not change a
        single output bit relative to golden."""
        spec = skewed_denoise(rows=rows, cols=cols)
        grid = make_input(spec, seed=rows + cols)
        golden = np.asarray(
            golden_output_sequence(spec, grid), dtype=np.float64
        )
        for chunk in (2, 13):
            monkeypatch.setattr(gather_module, "GATHER_CHUNK_POINTS", chunk)
            assert np.array_equal(
                compiled_outputs(spec, grid), golden
            ), chunk


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


def _numpy_kernel(spec):
    opts = CompileOptions()
    return convert(
        bufferize_plan(compile_plan(spec, opts, fingerprint(spec, opts)))
    )


def _count_strips(kernel, monkeypatch):
    """Record one entry per strip (or gather chunk) the kernel runs."""
    calls = []
    inner = kernel._stream

    def stream(reads, slots):
        calls.append(reads[0].shape[-1])
        inner(reads, slots)

    monkeypatch.setattr(kernel, "_stream", stream)
    return calls


def _strip_kernel(spec, monkeypatch, strip_rows, batch=1):
    """A NumPy kernel that streams ``strip_rows``-row strips for a
    batch of ``batch`` grids (the working-set budget shrunk to match),
    plus the list its strips are counted into."""
    kernel = _numpy_kernel(spec)
    rows = kernel.program.shape[0]
    assert strip_rows < rows
    row_bytes = kernel._row_bytes * batch
    monkeypatch.setattr(
        convert_module, "STREAM_BUDGET_BYTES", strip_rows * row_bytes
    )
    return kernel, _count_strips(kernel, monkeypatch)


def _assert_batch_matches_golden(kernel, spec, grids):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # halo lanes must stay silent
        rows = kernel.run_batch(np.stack(grids))
    for row, grid in zip(rows, grids):
        golden = np.asarray(
            golden_output_sequence(spec, grid), dtype=np.float64
        )
        # array_equal treats NaN != NaN; compare the raw bits instead.
        assert row.tobytes() == golden.tobytes(), spec.name


class TestStripMinedReplay:
    """The flat-stream replay over row strips is bit-identical to the
    golden, whatever the strip height."""

    @pytest.mark.parametrize("strip_rows", [1, 2, 3, 4])
    @pytest.mark.parametrize("name", ["DENOISE", "RICIAN", "SOBEL"])
    def test_ragged_and_single_row_strips(
        self, monkeypatch, name, strip_rows
    ):
        # 13 output rows: no strip height here divides it evenly.
        spec = get_benchmark(name).with_grid((15, 12))
        kernel, strips = _strip_kernel(spec, monkeypatch, strip_rows)
        _assert_batch_matches_golden(kernel, spec, [make_input(spec, 3)])
        assert len(strips) == -(-13 // strip_rows)

    @pytest.mark.parametrize("case", range(3))
    def test_random_3d_specs(self, monkeypatch, case):
        rng = random.Random(CAMPAIGN_SEED + 300 + case)
        spec = random_spec(rng, ndim=3)  # >= 3 output planes
        kernel, strips = _strip_kernel(spec, monkeypatch, 1 + case % 2)
        grid = np.random.default_rng(case).uniform(-9, 9, size=spec.grid)
        _assert_batch_matches_golden(kernel, spec, [grid])
        assert len(strips) > 1

    def test_paper_3d_kernel(self, monkeypatch):
        spec = get_benchmark("DENOISE_3D").with_grid((9, 7, 6))
        kernel, strips = _strip_kernel(spec, monkeypatch, 2)
        _assert_batch_matches_golden(kernel, spec, [make_input(spec, 1)])
        assert len(strips) == 4  # 7 output planes in strips of 2

    @pytest.mark.parametrize("name", ["RICIAN", "SOBEL"])
    def test_batched_grids(self, monkeypatch, name):
        spec = get_benchmark(name).with_grid((14, 11))
        grids = [make_input(spec, seed) for seed in range(3)]
        kernel, strips = _strip_kernel(spec, monkeypatch, 2, batch=3)
        _assert_batch_matches_golden(kernel, spec, grids)
        assert len(strips) == 6

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
        kernel, strips = _strip_kernel(spec, monkeypatch, 3, batch=2)
        _assert_batch_matches_golden(kernel, spec, grids)
        assert len(strips) == -(-kernel.program.shape[0] // 3)

    def test_small_blocks_keep_the_eager_path(self, monkeypatch):
        """A small box runs as one strip; only a batch too big for the
        budget splits into several."""
        spec = get_benchmark("SOBEL").with_grid((15, 12))
        kernel = _numpy_kernel(spec)
        strips = _count_strips(kernel, monkeypatch)
        grid = make_input(spec, 2)
        kernel.run(grid)
        assert len(strips) == 1
        rows = kernel.run_batch(np.stack([grid] * 10_000))
        assert len(strips) > 2  # big batches do strip
        assert rows[-1].tobytes() == kernel.run(grid).tobytes()

    @pytest.mark.parametrize("strip_rows", [2, 5])  # 1-row strips have no halo
    def test_halo_lanes_fault_where_outputs_do_not(
        self, monkeypatch, strip_rows
    ):
        """The lanes between output rows divide by zero, take the root
        of a negative and overflow; the real outputs do none of that,
        so the bits match the golden and no warning escapes."""
        window = StencilWindow.from_offsets([(0, -1), (0, 0), (0, 1)])
        left, mid, right = (Ref(o) for o in window.offsets[::-1])
        expr = (
            square_root(mid) + 1.0 / mid + mid * 1e300
            + 0.0 * (left + right)
        )
        spec = StencilSpec("HALO", (9, 8), window, expression=expr)
        grid = np.random.default_rng(5).uniform(1.0, 2.0, size=(9, 8))
        grid[:, -1] = 0.0  # divide by zero in the halo lanes
        grid[0::2, 0] = -1.0  # sqrt of a negative
        grid[1::2, 0] = 1e300  # overflow
        kernel, strips = _strip_kernel(spec, monkeypatch, strip_rows)
        _assert_batch_matches_golden(kernel, spec, [grid])
        assert len(strips) > 1

    @pytest.mark.parametrize("strip_rows", [1, 4])
    def test_bare_read_result(self, monkeypatch, strip_rows):
        window = StencilWindow.from_offsets([(1, -1)])
        spec = StencilSpec(
            "READ", (10, 7), window, expression=Ref((1, -1))
        )
        grid = make_input(spec, 4)
        grid.reshape(-1)[::5] = np.nan
        kernel, strips = _strip_kernel(spec, monkeypatch, strip_rows)
        _assert_batch_matches_golden(kernel, spec, [grid])
        assert len(strips) > 1

    @pytest.mark.parametrize("strip_rows", [1, 5])
    def test_constant_folded_result(self, monkeypatch, strip_rows):
        """A tape whose value never depends on a read folds to one
        constant at build time, with Python's scalar semantics."""
        spec = get_benchmark("SOBEL").with_grid((12, 10))
        kernel = _numpy_kernel(spec)
        program = copy.copy(kernel.program)
        program.ops = [
            {"op": "const", "value": 1.0},
            {"op": "const", "value": 3.0},
            {"op": "div"},
            {"op": "const", "value": -2.0},
            {"op": "max"},
            {"op": "sqrt"},
        ]
        kernel = convert(program)
        row_bytes = kernel._row_bytes * 2
        monkeypatch.setattr(
            convert_module, "STREAM_BUDGET_BYTES", strip_rows * row_bytes
        )
        strips = _count_strips(kernel, monkeypatch)
        rows = kernel.run_batch(np.stack([make_input(spec, s) for s in (0, 1)]))
        want = math.sqrt(np.maximum(1.0 / 3.0, -2.0))
        assert rows.shape == (2, program.n_outputs)
        assert (rows == want).all()
        assert len(strips) == -(-10 // strip_rows)

    @pytest.mark.parametrize("sweep", [None, 2])
    @pytest.mark.parametrize("chunk", [1, 7, 1000])
    def test_gather_chunks_share_the_executor(
        self, monkeypatch, sweep, chunk
    ):
        """Skewed (gather) programs stream point chunks sized by the
        same budget through the same plan, whether the domain sweep
        built the base row in one chunk or many."""
        if sweep is not None:
            monkeypatch.setattr(gather_module, "GATHER_CHUNK_POINTS", sweep)
        spec = skewed_denoise(rows=7, cols=9)
        opts = CompileOptions()
        program = bufferize_plan(
            compile_plan(spec, opts, fingerprint(spec, opts))
        )
        kernel = convert(program)
        assert program.mode == "gather"
        grids = [make_input(spec, seed) for seed in (1, 2)]
        grids[1].reshape(-1)[::4] = -0.0
        row_bytes = kernel._row_bytes * len(grids)
        monkeypatch.setattr(
            convert_module, "STREAM_BUDGET_BYTES", chunk * row_bytes
        )
        strips = _count_strips(kernel, monkeypatch)
        _assert_batch_matches_golden(kernel, spec, grids)
        assert len(strips) == -(-kernel.n_outputs // chunk)


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

    def test_c_skewed_gather_exact(self, monkeypatch):
        spec = skewed_denoise(rows=7, cols=9)
        grid = make_input(spec, seed=63)
        golden = np.asarray(
            golden_output_sequence(spec, grid), dtype=np.float64
        )
        for chunk in (gather_module.GATHER_CHUNK_POINTS, 2):
            monkeypatch.setattr(gather_module, "GATHER_CHUNK_POINTS", chunk)
            assert np.array_equal(
                compiled_outputs(spec, grid, converter="c"), golden
            ), chunk


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
