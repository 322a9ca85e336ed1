"""Convert: turn a :class:`BufferProgram` into a NumPy batch kernel.

The second half of the value-lowering split.  One
:class:`CompiledKernel` is built per plan fingerprint and then reused
for every request: executing a grid is a handful of ndarray ops instead
of a per-request walk of the spec tree and a per-point Python loop.
Same-fingerprint batches stack their input grids on a leading axis and
run through the *same* ops in one call.

Bit-exactness contract
----------------------
The kernel must reproduce :func:`repro.stencil.golden.golden_output_sequence`
*bit for bit* (the service digests outputs with SHA-256, so "close" is
not enough).  Two properties make that hold:

* the op list replays :func:`repro.stencil.expr.evaluate`'s exact
  post-order and operator semantics (``+ - * /`` operators,
  ``np.minimum``/``np.maximum``, ``abs``, ``math.sqrt``-or-``np.sqrt``)
  — all IEEE-754 double ops with one correctly rounded result, so
  scalar and array evaluation agree element for element;
* every output point sees exactly the input values ``run_golden`` (box
  domains) or ``iter_outputs_pointwise`` (skewed polyhedra) feed it:
  read ``r`` of the point at flat index ``p`` is the input at
  ``p + r.flat``, loaded from one contiguous slice of the flat input
  per strip (box) or one gather per point chunk (polyhedra).

The engine (:class:`repro.lower.engine.CompiledEngine`) re-derives
every program from its plan before converting it
(:func:`repro.lower.bufferize.bufferize_plan` is cheap and
deterministic) and refuses a stored sidecar that disagrees
(:class:`~repro.lower.program.ProgramMismatchError`) — a corrupted
cache entry can make the service *fail*, never answer wrong.
"""

from __future__ import annotations

import math
import operator
import threading
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..polyhedral.domain import domain_from_json
from .gather import gather_base
from .program import (
    BufferProgram,
    LoweringError,
    LoweringUnsupported,
    row_major_strides,
    validate_program,
)

__all__ = [
    "CompiledKernel",
    "ConverterUnavailable",
    "convert",
]


class ConverterUnavailable(LoweringError):
    """The selected converter cannot run in this environment.

    Raised at *build* time (never mid-execution) — e.g. the C converter
    with no C toolchain on the box.  The engine degrades to the NumPy
    converter and counts the reason; it never fails the request.
    """


#: Working-set budget of one kernel call, in bytes: the scratch slots
#: plus one output strip, over the whole batch.  It sets the strip
#: height, ``rows = budget // ((slots + 1) x batch x row_stride x 8)``
#: (at least 1), the same way for gather chunks (a row is one point)
#: and for splitting oversized batches, so the live temporaries stay in
#: L2 instead of streaming a full-grid array through memory per op.
#: Over a 256 KiB-4 MiB sweep on a 2 MiB-L2 Xeon, 1 MiB was fastest on
#: SOBEL/RICIAN 512² and DENOISE_3D 64³ and within 7% on DENOISE 256².
STREAM_BUDGET_BYTES = 1 << 20

#: Per-grid value-array footprint below which a same-fingerprint batch
#: is fused into one stacked ``run_batch`` call.  Fusing amortizes the
#: per-op ndarray dispatch cost and wins big on small grids (5x at
#: 16x20); past ~32KB per grid the stack copy plus the fatter working
#: set cost more than the dispatch they save, and per-grid runs win
#: (measured crossover ~1-3k outputs).
FUSE_BATCH_ITEM_BYTES = 32 * 1024

#: Per-thread scratch arena, reused across calls and kernels.  It grows
#: to the largest request it has served and never shrinks, so it holds
#: at most ``max(STREAM_BUDGET_BYTES, one minimum strip)`` per thread
#: that runs kernels, where a minimum strip is the scratch slots of a
#: single output row of a single grid (the only request that can exceed
#: the budget, since oversized batches are split first).
_ARENA = threading.local()


def _arena(n: int) -> np.ndarray:
    """This thread's scratch arena: at least ``n`` float64 values."""
    buf = getattr(_ARENA, "buffer", None)
    if buf is None or buf.size < n:
        buf = _ARENA.buffer = np.empty(
            max(n, STREAM_BUDGET_BYTES // 8), dtype=np.float64
        )
    return buf


def _copy(src, out) -> None:
    """A result that no op produced (a bare read, a folded constant)
    still lands in a scratch slot, bits unchanged."""
    np.copyto(out, src)


class CompiledKernel:
    """An executable lowering of one fingerprint's plan.

    ``run`` executes one grid; ``run_batch`` executes a stack of grids
    (leading batch axis) through the same ndarray ops.  Outputs come
    back as contiguous float64 rows in the accelerator's lexicographic
    emission order — ready to digest.

    Execution streams the flat, row-major input the way the paper's
    reuse buffer does: every read is one constant offset
    (``BufferRead.flat``) into the ``(batch, N)`` input, so a strip of
    output rows reads each operand as one contiguous 1-D slice.  The
    lanes between a strip's rows (the halo, outside the output box) are
    computed on in-bounds values and dropped when the strip is copied
    into the output, with floating-point warnings silenced.  The op tape
    runs over a static scratch plan built once here, like register
    allocation: an op writes into its left operand's slot if that is
    scratch, else its right operand's, else a free slot.  Scalar-only
    ops are folded here with the Python semantics of
    :func:`repro.stencil.expr.evaluate`.
    """

    def __init__(self, program: BufferProgram) -> None:
        validate_program(program)
        self.program = program
        self.n_outputs = program.n_outputs
        self._grid = tuple(program.grid)
        self._flats = [read.flat for read in program.reads]
        self._plan()
        self._gather_base: Optional[np.ndarray] = None
        strides = row_major_strides(self._grid)
        # One strip row is one grid row of the leading axis (box) or
        # one output point (gather); its budget share is the scratch
        # slots plus the output, and for gather also the gathered reads
        # and the strip's index row.
        self._lane = strides[0] if program.mode == "box" else 1
        self._row_bytes = (self._n_slots + 1) * self._lane * 8
        if program.mode == "box":
            shape = program.shape
            # The last output row of a strip ends ``tail`` lanes after
            # it starts.
            self._tail = 1 + sum(
                (extent - 1) * stride
                for extent, stride in zip(shape[1:], strides[1:])
            )
            self._crop = (slice(None), slice(None)) + tuple(
                slice(0, extent) for extent in shape[1:]
            )
        else:
            self._gather_base = gather_base(
                domain_from_json(program.domain),
                self._grid,
                program.reads,
                program.n_outputs,
            )
            self._row_bytes += (len(self._flats) + 1) * 8

    #: opcode -> ufunc for the binary stack ops.  Each is the exact
    #: ufunc the plain operator dispatches to (``a + b`` IS
    #: ``np.add(a, b)``), so writing through ``out=`` cannot change a
    #: single bit of the result — it only changes where it lands.
    _BINARY_UFUNCS = {
        "add": np.add,
        "sub": np.subtract,
        "mul": np.multiply,
        "div": np.true_divide,
        "min": np.minimum,
        "max": np.maximum,
    }

    #: opcode -> the plain Python operation ``evaluate`` applies when
    #: both operands are scalars; ``min``/``max`` keep their ufunc (the
    #: interpreted evaluator's NaN propagation).
    _SCALAR_BINARY = {
        "add": operator.add,
        "sub": operator.sub,
        "mul": operator.mul,
        "div": operator.truediv,
    }

    #: opcode -> (array ufunc, scalar function) for the unary ops; the
    #: scalar twin is the plain Python operation ``evaluate`` applies.
    _UNARY_OPS = {
        "neg": (np.negative, operator.neg),
        "abs": (np.absolute, abs),
        "sqrt": (np.sqrt, math.sqrt),
    }

    def _plan(self) -> None:
        """Build the static scratch plan of the op tape.

        ``self._steps`` holds ``(fn, a, b, out)`` tuples of indices
        into one per-strip operand list: the reads, then the scratch
        slots, then the folded constants (``b`` is None for unary
        steps).  The result always ends in scratch slot
        ``self._result``.
        """
        n_reads = len(self.program.reads)
        stack: List[Tuple[str, object]] = []  # (read|const|slot, value)
        free: List[int] = []
        planned: List[Tuple[Callable, list, int]] = []
        n_slots = 0
        for op in self.program.ops:
            kind = op["op"]
            if kind in ("read", "const"):
                stack.append(
                    (kind, op["ref"] if kind == "read" else op["value"])
                )
                continue
            args = [stack.pop()] if kind in self._UNARY_OPS else [
                stack.pop(-2), stack.pop()
            ]
            if all(tag == "const" for tag, _ in args):
                stack.append(("const", self._fold(kind, args)))
                continue
            slots = [value for tag, value in args if tag == "slot"]
            if slots:
                dest = slots[0]
                free.extend(slots[1:])
            elif free:
                dest = free.pop()
            else:
                dest, n_slots = n_slots, n_slots + 1
            fn = (
                self._UNARY_OPS[kind][0]
                if kind in self._UNARY_OPS
                else self._BINARY_UFUNCS[kind]
            )
            planned.append((fn, args, dest))
            stack.append(("slot", dest))
        tag, value = stack.pop()
        if tag != "slot":
            # No array op ran, so every slot is free.
            planned.append((_copy, [(tag, value)], 0))
            value, n_slots = 0, max(n_slots, 1)
        consts: List[object] = []

        def index(operand) -> int:
            tag, value = operand
            if tag == "read":
                return value
            if tag == "slot":
                return n_reads + value
            consts.append(value)
            return n_reads + n_slots + len(consts) - 1

        self._steps = [
            (
                fn,
                index(args[0]),
                index(args[1]) if len(args) > 1 else None,
                n_reads + dest,
            )
            for fn, args, dest in planned
        ]
        self._consts = consts
        self._n_slots = n_slots
        self._result = value

    def _fold(self, kind: str, args) -> object:
        """One scalar-only op, with ``evaluate``'s Python semantics."""
        values = [value for _, value in args]
        try:
            if kind in self._UNARY_OPS:
                return self._UNARY_OPS[kind][1](*values)
            if kind in self._SCALAR_BINARY:
                return self._SCALAR_BINARY[kind](*values)
            return self._BINARY_UFUNCS[kind](*values)
        except (ArithmeticError, ValueError) as exc:
            raise LoweringUnsupported(
                "constant_fold", f"constant {kind} fails: {exc}"
            ) from exc

    # -- execution -----------------------------------------------------
    def run(self, grid: np.ndarray) -> np.ndarray:
        """One grid in, one flat float64 output row out.

        The row is freshly owned memory (never a view of ``grid`` or
        of the scratch arena), so a caller may reshape it into the next
        stage's input and drop it once that stage has run.
        """
        return self.run_batch(grid[np.newaxis, ...])[0]

    def run_many(self, grids: List[np.ndarray]) -> List[np.ndarray]:
        """One output row per input grid, choosing the cheaper shape.

        Small grids fuse into a single stacked :meth:`run_batch` call;
        large grids run one at a time over the caller's (cached)
        arrays, skipping the stack copy entirely.  Row values are
        bit-identical either way — only the execution shape differs.
        """
        if self.fuses(len(grids)):
            rows = self.run_batch(np.stack(grids))
            return [rows[i] for i in range(rows.shape[0])]
        return [self.run(g) for g in grids]

    def fuses(self, batch: int) -> bool:
        """Whether :meth:`run_many` stacks a ``batch`` of grids into one
        :meth:`run_batch` call (else it runs them one at a time)."""
        per_item = len(self.program.reads) * self.n_outputs * 8
        return batch > 1 and per_item <= FUSE_BATCH_ITEM_BYTES

    def run_batch(self, grids: np.ndarray) -> np.ndarray:
        """``(batch,) + grid`` in, ``(batch, n_outputs)`` out."""
        if tuple(grids.shape[1:]) != self._grid:
            raise ValueError(
                f"input batch shaped {grids.shape} does not match grid "
                f"{self._grid}"
            )
        batch = grids.shape[0]
        # Split a batch too large for even one-row strips to fit the
        # budget: pure partitioning of the leading axis.
        chunk = max(1, STREAM_BUDGET_BYTES // self._row_bytes)
        if batch <= chunk:
            return self._run_chunk(grids)
        out = np.empty((batch, self.n_outputs), dtype=np.float64)
        for start in range(0, batch, chunk):
            piece = grids[start:start + chunk]
            out[start:start + piece.shape[0]] = self._run_chunk(piece)
        return out

    def _run_chunk(self, grids: np.ndarray) -> np.ndarray:
        batch = grids.shape[0]
        flat = np.ascontiguousarray(grids, dtype=np.float64).reshape(
            batch, math.prod(self._grid)
        )
        out = np.empty((batch, self.n_outputs), dtype=np.float64)
        box = self.program.mode == "box"
        rows = max(1, min(
            STREAM_BUDGET_BYTES // (self._row_bytes * max(batch, 1)),
            self.program.shape[0] if box else self.n_outputs,
        ))
        width = rows * self._lane
        size = self._n_slots * batch * width
        n_gathered = 0 if box else len(self._flats) * batch * width
        arena = _arena(size + n_gathered + (0 if box else width))
        slots = arena[:size].reshape(self._n_slots, batch, width)
        result = slots[self._result]
        with np.errstate(all="ignore"):
            if box:
                shape = self.program.shape
                view = out.reshape((batch,) + shape)
                for r0 in range(0, shape[0], rows):
                    n = min(rows, shape[0] - r0)
                    start = self.program.base + r0 * self._lane
                    span = (n - 1) * self._lane + self._tail
                    self._stream(
                        [flat[:, start + f:start + f + span]
                         for f in self._flats],
                        list(slots[:, :, :span]),
                    )
                    view[:, r0:r0 + n] = result[
                        :, :n * self._lane
                    ].reshape((batch, n) + self._grid[1:])[self._crop]
            else:
                # Gathered reads and the strip's index row live in the
                # arena too.  Read ``f`` of point ``p`` is
                # ``flat[base[p] + f]``: shifting the index row by the
                # lowest offset lets each read gather from a view that
                # starts at its own (non-negative) shift.
                gathered = arena[size:size + n_gathered].reshape(
                    len(self._flats), batch, width
                )
                index = arena[size + n_gathered:][:width].view(np.int64)
                lo = min(self._flats)
                for p0 in range(0, self.n_outputs, rows):
                    n = min(rows, self.n_outputs - p0)
                    idx = np.add(
                        self._gather_base[p0:p0 + n], lo, out=index[:n]
                    )
                    for r, f in enumerate(self._flats):
                        for b in range(batch):
                            # mode="clip" avoids a buffered copy; the
                            # indices are in bounds (``gather_base``).
                            np.take(
                                flat[b, f - lo:], idx,
                                out=gathered[r, b, :n], mode="clip",
                            )
                    self._stream(
                        list(gathered[:, :, :n]), list(slots[:, :, :n])
                    )
                    out[:, p0:p0 + n] = result[:, :n]
        return out

    def _stream(self, reads: List[np.ndarray], slots: List) -> None:
        """Run the planned steps over one strip's operands."""
        env = reads + slots + self._consts
        for fn, a, b, out in self._steps:
            if b is None:
                fn(env[a], out=env[out])
            else:
                fn(env[a], env[b], out=env[out])


def convert(program: BufferProgram) -> CompiledKernel:
    """Build the NumPy kernel for a (validated) buffer program."""
    return CompiledKernel(program)
