"""Bufferize: lower a compiled plan to a :class:`BufferProgram`.

The value-lowering split (after the xdsl stencil rationale): this stage
resolves everything *symbolic* — window offsets, the expression tree,
the iteration domain, the plan's non-uniform FIFO partition — into flat
integers and a linear op list, and nothing here depends on how the
program will eventually execute.

The stage also ties the lowering back to the paper: for a single-stream
plan, the flat distance between lexicographically adjacent window reads
over the stream hull *is* the max reuse distance of Theorem 1, so the
list of adjacent flat deltas must equal the plan's
``fifo_capacities``.  A plan whose partition disagrees with the flat
reuse offsets is refused (:class:`LoweringUnsupported`), which both
keeps the compiled path honest and makes a fuzzed ``fifo_capacities``
fail closed.

Multi-stream plans (``offchip_streams > 1``) lower to a sequence of
per-stream sub-programs: the greedy Fig 14 chain breaking
(:func:`repro.microarch.tradeoff.select_breaks`) is replicated over the
flat deltas, the window's read slots split into contiguous segments at
the removed FIFOs, and each segment becomes one
:class:`~repro.lower.program.ProgramPart` executed in emission order
against the shared output domain.  The surviving deltas must equal the
plan's multi-stream ``fifo_capacities`` — the same honesty check,
stream-aware.

Gather (skewed) domains are counted, and later enumerated by the
converter, with one vectorized sweep of their bounding box in
fixed-size chunks (:mod:`repro.lower.gather`), so the full ``reads x
points`` table is never materialized.  Only boxes past
:data:`GATHER_HARD_LIMIT` are refused — at that size the output row
itself stops being a sane single-request payload.

Still not covered (falls back to the interpreted executor):
out-of-bounds reads — an explicit iteration domain that pushes the
window outside the grid.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..polyhedral.domain import BoxDomain, domain_to_json
from ..stencil.expr import BinOp, Const, Expr, Ref, UnOp, collect_refs
from ..stencil.spec import StencilSpec
from .gather import count_points
from .program import (
    BufferProgram,
    BufferRead,
    LoweringError,
    LoweringUnsupported,
    ProgramPart,
    row_major_strides,
    validate_program,
)

__all__ = [
    "GATHER_HARD_LIMIT",
    "bufferize",
    "linearize_expr",
    "stream_parts",
]

#: Bounding-box size past which a gather domain is refused outright —
#: past this the flat output row itself is no longer a sane
#: single-request payload.  Read at call time.
GATHER_HARD_LIMIT = 1 << 24


def _dot(a, b) -> int:
    return sum(int(x) * int(y) for x, y in zip(a, b))


def linearize_expr(expr: Expr, read_slots: dict) -> List[dict]:
    """Post-order stack program over ``(array, offset) -> slot``.

    The op order is exactly the evaluation order of
    :func:`repro.stencil.expr.evaluate` (left operand first), so a
    converter replaying the list with the same scalar ops reproduces
    the golden reference bit for bit.
    """
    ops: List[dict] = []

    def visit(node: Expr) -> None:
        if isinstance(node, Const):
            ops.append({"op": "const", "value": node.value})
        elif isinstance(node, Ref):
            ops.append(
                {"op": "read", "ref": read_slots[(node.array, node.offset)]}
            )
        elif isinstance(node, UnOp):
            visit(node.operand)
            ops.append({"op": node.op})
        elif isinstance(node, BinOp):
            visit(node.left)
            visit(node.right)
            ops.append({"op": node.op})
        else:
            raise LoweringError(f"unknown expression node {node!r}")

    visit(expr)
    return ops


def _reuse_offsets(spec: StencilSpec, domain) -> List[int]:
    """Flat deltas between adjacent window reads over the stream hull.

    The hull (``stream_mode="hull"``, the compile pipeline's default)
    is the bounding box of the input data touched by the whole window:
    ``[domain_lo + min_offset, domain_hi + max_offset]`` per dimension.
    Over a box stream the rank function is linear, so the reuse
    distance between adjacent references ``a`` and ``b`` is the
    constant ``dot(offset_a - offset_b, hull_strides)`` — Theorem 1's
    max reuse distance without enumerating a single point.
    """
    lows, highs = domain.bounding_box()
    mins, maxs = spec.window.span()
    hull_extents = tuple(
        (hi + ma) - (lo + mi) + 1
        for lo, hi, mi, ma in zip(lows, highs, mins, maxs)
    )
    hull_strides = row_major_strides(hull_extents)
    offsets = spec.window.offsets  # descending lex == filter order
    return [
        _dot(
            tuple(x - y for x, y in zip(a, b)),
            hull_strides,
        )
        for a, b in zip(offsets, offsets[1:])
    ]


def stream_parts(
    spec: StencilSpec,
    read_slots: dict,
    deltas: List[int],
    offchip_streams: int,
) -> Tuple[List[ProgramPart], List[int]]:
    """Replicate Fig 14 chain breaking over the flat reuse deltas.

    Returns ``(parts, kept_deltas)``.  The greedy break selection is
    exactly :func:`repro.microarch.tradeoff.select_breaks` with the
    delta index standing in for the FIFO id (FIFO ``k`` sits between
    filters ``k`` and ``k + 1``): each of the ``streams - 1`` breaks
    removes the largest remaining delta, ties toward the upstream end.
    The surviving deltas are the multi-stream plan's
    ``fifo_capacities``; the window's read slots split into contiguous
    filter segments at the removed FIFOs, one :class:`ProgramPart` per
    segment in emission order.
    """
    offsets = spec.window.offsets  # descending lex == filter order
    n = len(offsets)
    if offchip_streams > n:
        raise LoweringUnsupported(
            "multi_stream",
            f"{offchip_streams} off-chip streams exceed the window's "
            f"{n} references",
        )
    remaining = list(range(n - 1))
    breaks: List[int] = []
    for _ in range(offchip_streams - 1):
        victim = max(remaining, key=lambda k: (deltas[k], -k))
        breaks.append(victim)
        remaining.remove(victim)
    try:
        window_slots = [
            read_slots[(spec.input_array, offset)]
            for offset in offsets
        ]
    except KeyError as exc:  # pragma: no cover - spec enforces this
        raise LoweringError(
            f"window reference {exc} missing from the expression"
        ) from exc
    segments: List[Tuple[int, int]] = []
    start = 0
    for k in sorted(breaks):
        segments.append((start, k))
        start = k + 1
    segments.append((start, n - 1))
    parts = [
        ProgramPart(
            stream=stream,
            reads=tuple(window_slots[first:last + 1]),
            reuse_offsets=tuple(deltas[first:last]),
        )
        for stream, (first, last) in enumerate(segments)
    ]
    kept = [deltas[k] for k in range(n - 1) if k not in set(breaks)]
    return parts, kept


def bufferize(
    spec: StencilSpec,
    fingerprint: str,
    fifo_capacities: Optional[List[int]] = None,
    offchip_streams: int = 1,
) -> BufferProgram:
    """Lower ``spec`` (+ its compiled partition) to a buffer program.

    ``fifo_capacities`` is the plan's non-uniform partition; when given
    it is cross-checked against the flat reuse offsets (see the module
    docstring).  Raises :class:`LoweringUnsupported` for constructs the
    lowering does not cover.
    """
    domain = spec.iteration_domain
    grid = tuple(int(g) for g in spec.grid)
    grid_strides = row_major_strides(grid)

    refs = collect_refs(spec.expression)
    read_slots = {}
    reads: List[BufferRead] = []
    for ref in refs:
        read_slots[(ref.array, ref.offset)] = len(reads)
        reads.append(
            BufferRead(
                array=ref.array,
                offset=tuple(ref.offset),
                flat=_dot(ref.offset, grid_strides),
            )
        )
    ops = linearize_expr(spec.expression, read_slots)

    reuse = _reuse_offsets(spec, domain)
    parts: List[ProgramPart] = []
    if offchip_streams > 1:
        parts, reuse = stream_parts(
            spec, read_slots, reuse, offchip_streams
        )
    if fifo_capacities is not None and list(fifo_capacities) != reuse:
        raise LoweringUnsupported(
            "partition_mismatch",
            f"plan's FIFO partition {list(fifo_capacities)} disagrees "
            f"with the flat reuse offsets {reuse} "
            f"({offchip_streams} stream(s))",
        )

    if isinstance(domain, BoxDomain):
        lows, highs = domain.lows, domain.highs
        for read in reads:
            for j, d in enumerate(read.offset):
                if lows[j] + d < 0 or highs[j] + d > grid[j] - 1:
                    raise LoweringUnsupported(
                        "out_of_bounds",
                        f"read {read.array}{list(read.offset)} leaves "
                        f"the grid over the iteration box",
                    )
        shape = tuple(hi - lo + 1 for lo, hi in zip(lows, highs))
        n_outputs = 1
        for extent in shape:
            n_outputs *= extent
        program = BufferProgram(
            fingerprint=fingerprint,
            grid=grid,
            mode="box",
            reads=reads,
            ops=ops,
            n_outputs=n_outputs,
            lows=tuple(lows),
            shape=shape,
            base=_dot(lows, grid_strides),
            reuse_offsets=reuse,
            parts=parts,
        )
    else:
        lows, highs = domain.bounding_box()
        volume = 1
        for lo, hi in zip(lows, highs):
            volume *= max(hi - lo + 1, 0)
        if volume > GATHER_HARD_LIMIT:
            raise LoweringUnsupported(
                "gather_limit",
                f"iteration domain bounding box holds {volume} points "
                f"(> {GATHER_HARD_LIMIT}); too large to gather-lower",
            )
        program = BufferProgram(
            fingerprint=fingerprint,
            grid=grid,
            mode="gather",
            reads=reads,
            ops=ops,
            n_outputs=count_points(domain),
            domain=domain_to_json(domain),
            reuse_offsets=reuse,
            parts=parts,
        )
    validate_program(program)
    return program


def bufferize_plan(
    plan,
    spec: Optional[StencilSpec] = None,
) -> BufferProgram:
    """Bufferize straight from a cached plan (the service entry point).

    ``plan`` is a :class:`repro.service.plancache.CachedPlan`; the spec
    is rebuilt from the plan's canonical JSON unless the caller already
    holds it.  This is the deterministic function every converter
    re-runs to vet a stored sidecar.
    """
    if spec is None:
        spec = StencilSpec.from_json(plan.spec)
    return bufferize(
        spec,
        fingerprint=plan.fingerprint,
        fifo_capacities=plan.fifo_capacities,
        offchip_streams=int(
            (plan.options or {}).get("offchip_streams", 1)
        ),
    )
