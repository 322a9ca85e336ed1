"""Lazy, chunked enumeration of gather domains.

This is the one enumeration of a gather (skewed) domain: bufferize
counts its points here and every converter builds its flat base row
here.  The domain's bounding box is swept in row-major (ascending
lexicographic) order in fixed-size chunks of
:data:`GATHER_CHUNK_POINTS` flat indices; each chunk is
unraveled to coordinates, membership-tested *vectorized* against the
polyhedron's ``A x <= b`` rows (or box bounds / union parts), and only
the surviving flat grid indices are kept.  Because the sweep order is
the lexicographic order of ``iter_points``, the surviving indices are
exactly the golden emission order — chunking changes where the work
happens, never a single output bit.

Zohouri et al.'s combined-blocking argument (PAPERS.md) is the design
driver: keep the working set a fixed-size block so the gather path
stays cache-resident at every domain size.  Even on tiny domains the
sweep beats a per-point Python walk (``domain.iter_points``).
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

import numpy as np

from ..polyhedral.domain import BoxDomain, DomainUnion, IntegerPolyhedron

__all__ = [
    "GATHER_CHUNK_POINTS",
    "count_points",
    "gather_base",
    "iter_point_chunks",
    "membership_mask",
]

#: Bounding-box flat indices tested per sweep step.  At 2^14 points a
#: chunk's coordinate block plus one ``reads``-wide gather slab stays
#: well inside L2 for any realistic read count.  Read at call time.
GATHER_CHUNK_POINTS = 1 << 14


def membership_mask(domain, pts: np.ndarray) -> np.ndarray:
    """Vectorized ``domain.contains`` over an ``(n, dim)`` int block."""
    if isinstance(domain, BoxDomain):
        lows = np.asarray(domain.lows, dtype=np.int64)
        highs = np.asarray(domain.highs, dtype=np.int64)
        return np.logical_and(
            (pts >= lows).all(axis=1), (pts <= highs).all(axis=1)
        )
    if isinstance(domain, DomainUnion):
        mask = np.zeros(pts.shape[0], dtype=bool)
        for part in domain.parts:
            mask |= membership_mask(part, pts)
        return mask
    if isinstance(domain, IntegerPolyhedron):
        rows = np.asarray(
            [coeffs for coeffs, _ in domain.constraints],
            dtype=np.int64,
        )
        bounds = np.asarray(
            [bound for _, bound in domain.constraints],
            dtype=np.int64,
        )
        return (pts @ rows.T <= bounds).all(axis=1)
    raise TypeError(f"cannot membership-test domain {domain!r}")


def iter_point_chunks(domain) -> Iterator[np.ndarray]:
    """Yield ``(k, dim)`` int64 blocks of domain points, lex order.

    The concatenation of the yielded blocks is exactly
    ``list(domain.iter_points())`` — same points, same order — but no
    more than :data:`GATHER_CHUNK_POINTS` bounding-box candidates are
    ever live at once.
    """
    lows, highs = domain.bounding_box()
    lows_v = np.asarray(lows, dtype=np.int64)
    extents = np.asarray(
        [hi - lo + 1 for lo, hi in zip(lows, highs)], dtype=np.int64
    )
    if (extents <= 0).any():
        return
    volume = int(np.prod(extents))
    for start in range(0, volume, GATHER_CHUNK_POINTS):
        stop = min(start + GATHER_CHUNK_POINTS, volume)
        flat = np.arange(start, stop, dtype=np.int64)
        pts = np.empty((flat.size, len(lows)), dtype=np.int64)
        rem = flat
        for j in range(len(lows) - 1, -1, -1):
            pts[:, j] = rem % extents[j] + lows_v[j]
            rem = rem // extents[j]
        mask = membership_mask(domain, pts)
        if mask.any():
            yield pts[mask]


def count_points(domain) -> int:
    """``domain.count()`` without the Python point walk (and without
    its enumeration limit — the caller bounds the bounding box)."""
    return sum(int(chunk.shape[0]) for chunk in iter_point_chunks(domain))


def gather_base(
    domain,
    grid: Tuple[int, ...],
    reads,
    n_outputs: int,
) -> np.ndarray:
    """Flat grid indices of every domain point, OOB-checked per read.

    Returns an ``(n_outputs,)`` int64 array ``base`` such that read
    ``r``'s value for output ``p`` lives at flat grid index
    ``base[p] + r.flat`` — one output row's worth of indices, never
    the full ``reads x points`` table.  Raises
    :class:`~repro.lower.program.LoweringUnsupported` (reason
    ``out_of_bounds``) when any read leaves the grid over the domain,
    and
    :class:`~repro.lower.program.LoweringError` when the enumeration
    disagrees with the program's claimed output count.
    """
    from .program import (
        LoweringError,
        LoweringUnsupported,
        row_major_strides,
    )

    grid_v = np.asarray(grid, dtype=np.int64)
    strides = np.asarray(row_major_strides(grid), dtype=np.int64)
    pieces: List[np.ndarray] = []
    total = 0
    for pts in iter_point_chunks(domain):
        for read in reads:
            shifted = pts + np.asarray(read.offset, dtype=np.int64)
            if (shifted < 0).any() or (shifted >= grid_v).any():
                raise LoweringUnsupported(
                    "out_of_bounds",
                    f"read {read.array}{list(read.offset)} leaves "
                    "the grid over the gathered domain",
                )
        pieces.append(pts @ strides)
        total += pts.shape[0]
    if total != n_outputs:
        raise LoweringError(
            f"gather enumeration yields {total} points but "
            f"the program claims {n_outputs}"
        )
    if not pieces:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate(pieces)
