"""Golden reference executor for stencil kernels.

Evaluates a :class:`~repro.stencil.spec.StencilSpec` directly with NumPy —
no buffering, no streaming — to produce the ground-truth output that the
cycle-level simulator must match (function correctness, Section 3.3.1).

Two paths:

* :func:`run_golden` — vectorized shifted-view evaluation for the default
  box iteration domains (fast; used on large grids).
* :func:`run_golden_pointwise` — per-iteration scalar evaluation for
  arbitrary polyhedral iteration domains (skewed grids); also used to
  cross-check the vectorized path in tests.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np

from ..polyhedral.domain import BoxDomain
from ..polyhedral.lexorder import Vector
from .expr import collect_refs, evaluate
from .spec import StencilSpec


def make_input(
    spec: StencilSpec, seed: int = 2014, dtype=np.float64
) -> np.ndarray:
    """Deterministic pseudo-random input grid for a spec."""
    rng = np.random.default_rng(seed)
    # The draw is already float64: convert only for another dtype.
    return rng.uniform(0.0, 255.0, size=spec.grid).astype(
        dtype, copy=False
    )


def run_golden(spec: StencilSpec, grid: np.ndarray) -> np.ndarray:
    """Vectorized golden output over a box iteration domain.

    Returns an array shaped like the iteration domain box; entry ``[0, 0]``
    corresponds to the lexicographically first iteration.
    """
    if tuple(grid.shape) != tuple(spec.grid):
        raise ValueError(
            f"input grid shape {grid.shape} does not match spec grid "
            f"{spec.grid}"
        )
    domain = spec.iteration_domain
    if not isinstance(domain, BoxDomain):
        raise TypeError(
            "vectorized golden execution needs a box iteration domain; "
            "use run_golden_pointwise for general polyhedra"
        )
    lows, highs = domain.lows, domain.highs
    env: Dict[Tuple[str, Vector], np.ndarray] = {}
    for ref in collect_refs(spec.expression):
        slices = tuple(
            slice(lo + d, hi + d + 1)
            for lo, hi, d in zip(lows, highs, ref.offset)
        )
        env[(ref.array, ref.offset)] = grid[slices]
    result = evaluate(spec.expression, env)
    return np.asarray(result)


def iter_outputs_pointwise(
    spec: StencilSpec, grid: np.ndarray
) -> Iterator[Tuple[Vector, float]]:
    """Yield ``(iteration_vector, output_value)`` in lexicographic order
    for an arbitrary polyhedral iteration domain."""
    refs = collect_refs(spec.expression)
    for i in spec.iteration_domain.iter_points():
        env = {}
        for ref in refs:
            h = tuple(a + b for a, b in zip(i, ref.offset))
            env[(ref.array, ref.offset)] = float(grid[h])
        yield i, float(evaluate(spec.expression, env))


def run_golden_pointwise(
    spec: StencilSpec, grid: np.ndarray
) -> List[Tuple[Vector, float]]:
    """Materialized pointwise golden output (small domains only)."""
    return list(iter_outputs_pointwise(spec, grid))


def golden_output_sequence(
    spec: StencilSpec, grid: np.ndarray
) -> List[float]:
    """Golden outputs as the flat lexicographic sequence the accelerator
    emits — the exact stream the simulator is compared against."""
    domain = spec.iteration_domain
    if isinstance(domain, BoxDomain):
        return [float(v) for v in run_golden(spec, grid).ravel()]
    return [v for _, v in iter_outputs_pointwise(spec, grid)]
