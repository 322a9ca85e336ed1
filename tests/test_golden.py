"""Unit tests for the golden NumPy executor."""

import tracemalloc

import numpy as np
import pytest

from repro.stencil.golden import (
    golden_output_sequence,
    iter_outputs_pointwise,
    make_input,
    run_golden,
    run_golden_pointwise,
)
from repro.stencil.kernels import DENOISE, SOBEL, skewed_denoise
from repro.stencil.spec import StencilSpec, StencilWindow

from conftest import small_spec


class TestMakeInput:
    def test_shape_matches_spec(self):
        spec = small_spec(DENOISE)
        grid = make_input(spec)
        assert grid.shape == tuple(spec.grid)

    def test_deterministic(self):
        spec = small_spec(DENOISE)
        assert np.array_equal(make_input(spec), make_input(spec))

    def test_seed_changes_data(self):
        spec = small_spec(DENOISE)
        assert not np.array_equal(
            make_input(spec, seed=1), make_input(spec, seed=2)
        )

    def test_allocates_one_grid(self):
        """The uniform draw is already float64, so the grid is that
        draw itself, not a second copy of it."""
        spec = SOBEL.with_grid((512, 512))
        make_input(spec)
        tracemalloc.start()
        try:
            grid = make_input(spec, seed=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert grid.dtype == np.float64
        assert peak <= grid.nbytes + 64 * 1024, peak

    def test_other_dtypes_still_convert(self):
        spec = small_spec(DENOISE)
        grid = make_input(spec, dtype=np.float32)
        assert grid.dtype == np.float32
        assert np.array_equal(grid, make_input(spec).astype(np.float32))


class TestRunGolden:
    def test_denoise_hand_check(self):
        spec = small_spec(DENOISE)
        grid = make_input(spec)
        out = run_golden(spec, grid)
        i, j = 3, 4
        expected = 0.5 * grid[i, j] + 0.125 * (
            grid[i - 1, j]
            + grid[i + 1, j]
            + grid[i, j - 1]
            + grid[i, j + 1]
        )
        # iteration (3, 4) maps to output index (2, 3).
        assert out[2, 3] == pytest.approx(expected)

    def test_output_shape_is_iteration_domain(self):
        spec = small_spec(DENOISE)
        out = run_golden(spec, make_input(spec))
        assert out.shape == spec.iteration_domain.shape

    def test_sobel_nonnegative(self):
        spec = small_spec(SOBEL)
        out = run_golden(spec, make_input(spec))
        assert (out >= 0).all()

    def test_wrong_grid_shape_rejected(self):
        spec = small_spec(DENOISE)
        with pytest.raises(ValueError):
            run_golden(spec, np.zeros((3, 3)))

    def test_skewed_domain_rejected_by_vectorized_path(self):
        spec = skewed_denoise(rows=5, cols=6)
        with pytest.raises(TypeError):
            run_golden(spec, make_input(spec))

    def test_constant_input_average_kernel(self):
        w = StencilWindow.von_neumann(2, 1)
        spec = StencilSpec("AVG", (8, 9), w)  # default: window average
        grid = np.full((8, 9), 7.0)
        out = run_golden(spec, grid)
        assert np.allclose(out, 7.0)


class TestPointwise:
    def test_pointwise_matches_vectorized(self):
        spec = small_spec(DENOISE)
        grid = make_input(spec)
        vec = run_golden(spec, grid)
        for (i, j), value in run_golden_pointwise(spec, grid):
            lo = spec.iteration_domain.lows
            assert vec[i - lo[0], j - lo[1]] == pytest.approx(value)

    def test_pointwise_in_lex_order(self):
        spec = small_spec(DENOISE)
        grid = make_input(spec)
        iters = [i for i, _ in iter_outputs_pointwise(spec, grid)]
        assert iters == sorted(iters)

    def test_skewed_pointwise_runs(self):
        spec = skewed_denoise(rows=4, cols=5)
        grid = make_input(spec)
        outs = run_golden_pointwise(spec, grid)
        assert len(outs) == spec.iteration_domain.count()


class TestSequence:
    def test_sequence_matches_raveled_grid(self):
        spec = small_spec(DENOISE)
        grid = make_input(spec)
        seq = golden_output_sequence(spec, grid)
        assert np.allclose(seq, run_golden(spec, grid).ravel())

    def test_sequence_for_skewed_domain(self):
        spec = skewed_denoise(rows=4, cols=5)
        grid = make_input(spec)
        seq = golden_output_sequence(spec, grid)
        assert len(seq) == spec.iteration_domain.count()
