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
* reads are strided views for box domains (exactly the shifted slices
  ``run_golden`` takes) and flat gather tables for skewed polyhedra
  (exactly the per-point loads of ``iter_outputs_pointwise``).

Every converter call re-derives the program from the plan
(:func:`repro.lower.bufferize.bufferize_plan` is cheap and
deterministic) and refuses a stored sidecar that disagrees
(:class:`ProgramMismatchError`) — a corrupted cache entry can make the
service *fail*, never answer wrong.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..polyhedral.domain import domain_from_json
from ..stencil.spec import StencilSpec
from .bufferize import (
    GATHER_HARD_LIMIT,
    GATHER_POINT_LIMIT,
    bufferize_plan,
)
from .gather import GATHER_CHUNK_POINTS, gather_base
from .program import (
    BufferProgram,
    LoweringError,
    LoweringUnsupported,
    ProgramMismatchError,
    program_from_json,
    program_to_json,
    validate_program,
)

__all__ = [
    "CompiledKernel",
    "ConverterUnavailable",
    "convert",
    "converter_names",
    "get_converter",
    "kernel_from_plan",
    "register_converter",
]


class ConverterUnavailable(LoweringError):
    """The selected converter cannot run in this environment.

    Raised at *build* time (never mid-execution) — e.g. the C converter
    with no C toolchain on the box.  The engine degrades to the NumPy
    converter and counts the reason; it never fails the request.
    """


#: name -> builder ``(program, gather_limit=...) -> kernel``.  Every
#: converter target consumes the same :class:`BufferProgram` and must
#: honor the same bit-exactness contract; ``numpy`` is always present,
#: others (``c``) register on import and may raise
#: :class:`ConverterUnavailable` from their builder.
_CONVERTERS: Dict[str, Callable] = {}


def register_converter(name: str) -> Callable:
    """Class/function decorator adding a converter target by name."""

    def decorate(builder: Callable) -> Callable:
        _CONVERTERS[name] = builder
        return builder

    return decorate


def _probe_optional_converters() -> None:
    """Import-register optional targets; absence is not an error.

    The C converter registers on import; pulling it in lazily keeps
    ``repro.lower.convert`` importable on boxes without cffi (its
    builder still raises :class:`ConverterUnavailable` there, which is
    the per-build degradation signal).
    """
    if "c" not in _CONVERTERS:
        try:
            from . import convert_c  # noqa: F401
        except Exception:
            pass


def get_converter(name: str) -> Callable:
    """The registered builder for ``name``."""
    _probe_optional_converters()
    try:
        return _CONVERTERS[name]
    except KeyError:
        raise LoweringError(
            f"unknown converter {name!r} "
            f"(registered: {sorted(_CONVERTERS)})"
        ) from None


def converter_names() -> List[str]:
    """Registered converter names (after the lazy probes)."""
    _probe_optional_converters()
    return sorted(_CONVERTERS)


#: Working-set budget for one batched replay, in bytes.  A batch of B
#: grids materializes ``reads x B x n_outputs`` float64 intermediates;
#: past a few MB those spill out of cache and the batched kernel runs
#: *slower* than B single runs.  ``run_batch`` therefore splits large
#: batches into sub-chunks sized to this budget — pure partitioning of
#: the leading axis, so every row's arithmetic is unchanged and bit
#: identity is preserved.
BATCH_WORKING_SET_BYTES = 4 * 1024 * 1024

#: Per-grid value-array footprint below which a same-fingerprint batch
#: is fused into one stacked ``run_batch`` call.  Fusing amortizes the
#: per-op ndarray dispatch cost and wins big on small grids (5x at
#: 16x20); past ~32KB per grid the stack copy plus the fatter working
#: set cost more than the dispatch they save, and per-grid strided
#: views win (measured crossover ~1-3k outputs).
FUSE_BATCH_ITEM_BYTES = 32 * 1024

#: Output bytes of one box replay (the whole batch's row block) past
#: which the op tape runs over row strips instead: every temporary
#: then spans at most about this many bytes, so the handful live at
#: once stay in L2 rather than streaming a full-grid array through
#: memory per op.  On a 2 MiB-L2 Xeon, 512 KiB strips ran SOBEL
#: 512x512 1.8x faster than whole-box replay and RICIAN 512x512 ~5%
#: faster; smaller strips paid more in per-strip op dispatch than they
#: saved (256 KiB slowed DENOISE 256x256 by ~12%, 64 KiB everything).
STRIP_BYTES = 512 * 1024


class CompiledKernel:
    """An executable lowering of one fingerprint's plan.

    ``run`` executes one grid; ``run_batch`` executes a stack of grids
    (leading batch axis) through the same ndarray ops.  Outputs come
    back as contiguous float64 rows in the accelerator's lexicographic
    emission order — ready to digest.
    """

    def __init__(
        self,
        program: BufferProgram,
        gather_limit: int = GATHER_POINT_LIMIT,
    ) -> None:
        validate_program(program)
        self.program = program
        self.n_outputs = program.n_outputs
        self._grid = tuple(program.grid)
        # Read slots materialize per stream part in emission order
        # (the software analogue of each off-chip stream delivering
        # its segment's data), then any non-window reads.  Values stay
        # indexed by slot, so the op tape is part-agnostic.
        if program.parts:
            self._slot_order: List[int] = [
                slot for part in program.parts for slot in part.reads
            ]
            covered = set(self._slot_order)
            self._slot_order.extend(
                s for s in range(len(program.reads))
                if s not in covered
            )
        else:
            self._slot_order = list(range(len(program.reads)))
        self._gather: Optional[np.ndarray] = None
        self._gather_base: Optional[np.ndarray] = None
        if program.mode == "box":
            lows, shape = program.lows, program.shape
            self._slices: List[Tuple[slice, ...]] = [
                tuple(
                    slice(lo + d, lo + d + extent)
                    for lo, extent, d in zip(lows, shape, read.offset)
                )
                for read in program.reads
            ]
        else:
            self._slices = []
            domain = domain_from_json(program.domain)
            lows, highs = domain.bounding_box()
            volume = 1
            for lo, hi in zip(lows, highs):
                volume *= max(hi - lo + 1, 0)
            if volume > gather_limit:
                # Chunked regime: keep one output row's worth of flat
                # indices; per-read tables are rebuilt per chunk at
                # execution time, never the full ``reads x points``
                # table.
                self._gather_base = gather_base(
                    domain, self._grid, program.reads,
                    program.n_outputs,
                )
                return
            points = list(domain.iter_points())
            if len(points) != program.n_outputs:
                raise LoweringError(
                    f"gather domain yields {len(points)} points but "
                    f"the program claims {program.n_outputs}"
                )
            dim = len(self._grid)
            pts = np.asarray(points, dtype=np.int64).reshape(-1, dim)
            strides = np.ones(dim, dtype=np.int64)
            for j in range(dim - 2, -1, -1):
                strides[j] = strides[j + 1] * self._grid[j + 1]
            for read in program.reads:
                shifted = pts + np.asarray(read.offset, dtype=np.int64)
                if pts.size and (
                    (shifted < 0).any()
                    or (shifted >= np.asarray(self._grid)).any()
                ):
                    raise LoweringUnsupported(
                        "out_of_bounds",
                        f"read {read.array}{list(read.offset)} leaves "
                        "the grid over the gathered domain",
                    )
            base = pts @ strides if pts.size else np.zeros(
                0, dtype=np.int64
            )
            self._gather = np.stack(
                [base + read.flat for read in program.reads]
            ) if program.reads else np.zeros((0, 0), dtype=np.int64)

    # -- execution -----------------------------------------------------
    def run(self, grid: np.ndarray) -> np.ndarray:
        """One grid in, one flat float64 output row out.

        The row is freshly owned memory (never a view of ``grid`` or
        of a pooled buffer), so a caller may reshape it into the next
        stage's input and drop it once that stage has run.
        """
        return self.run_batch(grid[np.newaxis, ...])[0]

    def run_many(self, grids: List[np.ndarray]) -> List[np.ndarray]:
        """One output row per input grid, choosing the cheaper shape.

        Small grids fuse into a single stacked :meth:`run_batch` call;
        large grids run one at a time over strided views of the caller's
        (cached) arrays, skipping the stack copy entirely.  Row values
        are bit-identical either way — only the execution shape differs.
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
        per_row = max(
            1, len(self.program.reads) * self.n_outputs * 8
        )
        chunk = max(1, BATCH_WORKING_SET_BYTES // per_row)
        if batch <= chunk:
            return self._run_chunk(grids)
        out = np.empty((batch, self.n_outputs), dtype=np.float64)
        for start in range(0, batch, chunk):
            piece = grids[start:start + chunk]
            out[start:start + piece.shape[0]] = self._run_chunk(piece)
        return out

    def _strip_rows(self, batch: int) -> int:
        """Leading-axis rows per strip for a box replay of ``batch``
        grids, or 0 when the whole block fits :data:`STRIP_BYTES`."""
        rows = self.program.shape[0]
        if rows <= 1 or batch * self.n_outputs * 8 <= STRIP_BYTES:
            return 0
        # rows * row_bytes > STRIP_BYTES here, so the strip is < rows.
        row_bytes = batch * (self.n_outputs // rows) * 8
        return max(1, STRIP_BYTES // row_bytes)

    def _run_box_strips(self, grids: np.ndarray, strip: int) -> np.ndarray:
        """Replay the tape over ``strip``-row slabs of the box views.

        Every op is elementwise, so a slab's outputs see exactly the
        ufuncs and operands of the whole-box replay: bit-identical,
        with temporaries that stay cache-sized.
        """
        batch = grids.shape[0]
        shape = tuple(self.program.shape)
        out = np.empty((batch,) + shape, dtype=np.float64)
        values: List = [None] * len(self.program.reads)
        for r0 in range(0, shape[0], strip):
            r1 = min(r0 + strip, shape[0])
            for slot in self._slot_order:
                first, *rest = self._slices[slot]
                values[slot] = grids[
                    (slice(None), slice(first.start + r0, first.start + r1))
                    + tuple(rest)
                ]
            dest = out[:, r0:r1]
            result = self._replay(values, dest)
            if result is not dest:
                dest[...] = result
        return out.reshape(batch, -1)

    def _run_chunk(self, grids: np.ndarray) -> np.ndarray:
        batch = grids.shape[0]
        if self.program.mode == "box":
            strip = self._strip_rows(batch)
            if strip:
                return self._run_box_strips(grids, strip)
            values: List = [None] * len(self.program.reads)
            for slot in self._slot_order:
                values[slot] = grids[
                    (slice(None),) + self._slices[slot]
                ]
        elif self._gather is not None:
            flat = grids.reshape(batch, -1)
            values = [None] * len(self.program.reads)
            for slot in self._slot_order:
                values[slot] = flat[:, self._gather[slot]]
        else:
            return self._run_gather_chunked(grids)
        out = np.asarray(self._replay(values), dtype=np.float64)
        if out.ndim == 0:  # constant-folded result (defensive)
            out = np.broadcast_to(out, (batch, self.n_outputs))
        return np.ascontiguousarray(
            out.reshape(batch, -1), dtype=np.float64
        )

    def _run_gather_chunked(self, grids: np.ndarray) -> np.ndarray:
        """Replay fixed-size point chunks against the flat base row.

        Each chunk rebuilds its per-read index tables from one slice
        of ``_gather_base`` — the working set is ``reads x chunk``
        instead of ``reads x points``.  Every output element sees the
        same ufunc ops on the same operands as the eager table, so
        chunking cannot change a bit.
        """
        batch = grids.shape[0]
        flat = grids.reshape(batch, -1)
        reads = self.program.reads
        out = np.empty((batch, self.n_outputs), dtype=np.float64)
        for start in range(0, self.n_outputs, GATHER_CHUNK_POINTS):
            stop = min(start + GATHER_CHUNK_POINTS, self.n_outputs)
            base = self._gather_base[start:stop]
            values: List = [None] * len(reads)
            for slot in self._slot_order:
                values[slot] = flat[:, base + reads[slot].flat]
            piece = np.asarray(
                self._replay(values), dtype=np.float64
            )
            if piece.ndim == 0:  # constant-folded (defensive)
                piece = np.broadcast_to(
                    piece, (batch, stop - start)
                )
            out[:, start:stop] = piece.reshape(batch, -1)
        return out

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

    #: opcode -> (array ufunc, scalar function) for the unary ops; the
    #: scalar twin is the plain Python operation ``evaluate`` applies.
    _UNARY_OPS = {
        "neg": (np.negative, operator.neg),
        "abs": (np.absolute, abs),
        "sqrt": (np.sqrt, math.sqrt),
    }

    def _replay(
        self,
        values: List[np.ndarray],
        dest: Optional[np.ndarray] = None,
    ):
        """Run the stack program with ``evaluate``'s exact op set.

        Array temporaries are recycled in place: a binary op whose
        operand is already a scratch buffer owned by this call writes
        its result over that operand (``out=``) instead of allocating
        a fresh output-sized array per op.  On cache-sized grids this
        keeps one hot buffer resident instead of streaming a new
        allocation through memory for every op (~3x on the RICIAN
        chain).  Scratch buffers are per call, never pooled across
        calls: :meth:`run` promises freshly owned rows, because callers
        reshape each row into the next stage's input and still hold it
        while later calls run — a pooled buffer would be overwritten
        under them.  Dropping a dead row hands its pages back to the
        allocator for the next stage to reuse.
        Scalar-only arithmetic stays in plain Python, exactly like
        :func:`repro.stencil.expr.evaluate`.

        With ``dest``, an array-valued last op writes straight into it
        (and returns it), saving the strip path one copy per strip.
        """
        stack: List = []
        owned: List[bool] = []  # parallel: is stack[i] our scratch?
        ufuncs = self._BINARY_UFUNCS
        unary = self._UNARY_OPS
        last = len(self.program.ops) - 1
        for i, op in enumerate(self.program.ops):
            kind = op["op"]
            if kind == "read":
                stack.append(values[op["ref"]])
                owned.append(False)
            elif kind == "const":
                stack.append(op["value"])
                owned.append(False)
            elif kind in ufuncs:
                r = stack.pop()
                r_owned = owned.pop()
                left = stack[-1]
                if not (
                    isinstance(left, np.ndarray)
                    or isinstance(r, np.ndarray)
                ):
                    # scalar op scalar: Python float semantics, as in
                    # the interpreted evaluator.
                    if kind == "add":
                        stack[-1] = left + r
                    elif kind == "sub":
                        stack[-1] = left - r
                    elif kind == "mul":
                        stack[-1] = left * r
                    elif kind == "div":
                        stack[-1] = left / r
                    else:
                        # np.minimum/np.maximum even on scalars — the
                        # interpreted evaluator's NaN propagation.
                        stack[-1] = ufuncs[kind](left, r)
                    continue
                if dest is not None and i == last:
                    out = dest
                else:
                    out = left if owned[-1] else (r if r_owned else None)
                if out is None:
                    stack[-1] = ufuncs[kind](left, r)
                else:
                    stack[-1] = ufuncs[kind](left, r, out=out)
                owned[-1] = True
            elif kind in unary:
                array_fn, scalar_fn = unary[kind]
                v = stack[-1]
                if not isinstance(v, np.ndarray):
                    stack[-1] = scalar_fn(v)
                    continue
                if dest is not None and i == last:
                    out = dest
                else:
                    out = v if owned[-1] else None
                stack[-1] = (
                    array_fn(v) if out is None else array_fn(v, out=out)
                )
                owned[-1] = True
            else:  # pragma: no cover - validate_program rejects these
                raise LoweringError(f"unknown opcode {kind!r}")
        return stack[-1]


@register_converter("numpy")
def convert(
    program: BufferProgram,
    gather_limit: int = GATHER_POINT_LIMIT,
    artifact_dir: Optional[str] = None,
) -> CompiledKernel:
    """Build the NumPy kernel for a (validated) buffer program.

    ``artifact_dir`` is part of the uniform converter-builder
    signature; the NumPy target has nothing to persist.
    """
    del artifact_dir
    return CompiledKernel(program, gather_limit=gather_limit)


def kernel_from_plan(
    plan,
    spec: Optional[StencilSpec] = None,
    gather_limit: int = GATHER_POINT_LIMIT,
    gather_hard_limit: int = GATHER_HARD_LIMIT,
) -> Tuple[CompiledKernel, dict]:
    """Lower a cached plan end to end: ``(kernel, program_json)``.

    Re-runs bufferize unconditionally; when the plan carries a stored
    sidecar program the fresh lowering must match it exactly, otherwise
    the sidecar is corrupt and :class:`ProgramMismatchError` is raised
    (the caller evicts the plan and fails the request cleanly).
    """
    fresh = bufferize_plan(
        plan, spec=spec, gather_limit=gather_limit,
        gather_hard_limit=gather_hard_limit,
    )
    fresh_json = program_to_json(fresh)
    stored = getattr(plan, "buffer_program", None)
    if stored is not None:
        try:
            stored_program = program_from_json(stored)
            validate_program(stored_program)
            matches = program_to_json(stored_program) == fresh_json
        except (LoweringError, KeyError, TypeError, ValueError):
            matches = False
        if not matches:
            raise ProgramMismatchError(
                f"stored buffer program for plan "
                f"{plan.fingerprint[:12]} diverges from a fresh "
                "lowering of the cached spec"
            )
    return convert(fresh, gather_limit=gather_limit), fresh_json
