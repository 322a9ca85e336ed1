"""The ``BufferProgram`` IR — a lowered, backend-neutral stencil plan.

A :class:`BufferProgram` is what remains of a stencil spec after the
*bufferize* stage (:mod:`repro.lower.bufferize`) has resolved every
symbolic piece to flat integers:

* each window reference becomes a **read at a constant flat offset**
  into the row-major input stream (the software analogue of the paper's
  reuse-buffer taps — the distances between adjacent flat offsets over
  the stream hull are exactly the non-uniform FIFO depths of the plan);
* the kernel expression becomes a **linear post-order op list** (a
  stack program) over those reads, with the same operator vocabulary as
  :mod:`repro.stencil.expr` so any converter can reproduce the golden
  semantics bit for bit;
* the iteration domain becomes **skew-normalized bounds**: either a
  zero-based box (``lows`` + ``shape`` + the flat ``base`` offset of
  the lexicographically first iteration) or, for non-rectangular
  (skewed) domains, the serialized polyhedron that a converter gathers
  from.

The IR is JSON-serializable and rides the content-addressed plan cache
as a ``<fingerprint>.lower.json`` sidecar next to the plan itself —
see :mod:`repro.service.plancache`.  It deliberately knows nothing
about NumPy: the *convert* stage (:mod:`repro.lower.convert`) turns it
into an executable kernel, and future converters (generated C, an RTL
stream checker) can consume the same object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = [
    "BUFFER_PROGRAM_VERSION",
    "BufferProgram",
    "BufferRead",
    "LoweringError",
    "LoweringUnsupported",
    "ProgramMismatchError",
    "ProgramPart",
    "program_from_json",
    "program_to_json",
    "row_major_strides",
    "validate_program",
]

#: Bump on any change to the IR layout.  Deliberately independent of
#: :data:`repro.service.fingerprint.FINGERPRINT_VERSION`: plans cached
#: before the lowering existed stay loadable (their sidecar is simply
#: absent) and are re-lowered once on first use.
BUFFER_PROGRAM_VERSION = 1

#: Stack-program opcodes a converter must implement.  ``read`` and
#: ``const`` push one value; unary ops pop one; binary ops pop two
#: (left below right).  The vocabulary mirrors
#: :data:`repro.stencil.expr.BINARY_OPS` / ``UNARY_OPS`` exactly.
OP_PUSH = ("read", "const")
OP_UNARY = ("neg", "abs", "sqrt")
OP_BINARY = ("add", "sub", "mul", "div", "min", "max")


def row_major_strides(extents) -> List[int]:
    """Row-major strides (in elements): suffix products of ``extents``."""
    strides = [1] * len(extents)
    for j in range(len(extents) - 2, -1, -1):
        strides[j] = strides[j + 1] * int(extents[j + 1])
    return strides


class LoweringError(RuntimeError):
    """The lowering pipeline failed on this plan."""


class LoweringUnsupported(LoweringError):
    """A construct the lowering does not cover yet.

    Raising this is always safe: the compiled executor falls back to
    the interpreted golden path and counts the reason in
    ``service_lower_fallback_total``.
    """

    def __init__(self, reason: str, detail: str = "") -> None:
        super().__init__(detail or reason)
        self.reason = reason


class ProgramMismatchError(LoweringError):
    """A stored ``BufferProgram`` disagrees with a fresh lowering.

    Bufferize is deterministic and cheap, so every converter
    re-derives the program and compares before trusting a cached
    sidecar.  A mismatch means the cache entry was corrupted or
    tampered with — callers treat it like a failed plan canary
    (structured error + eviction), never as something to execute.
    """


@dataclass(frozen=True)
class BufferRead:
    """One read of the input stream at a constant offset.

    ``offset`` is the window-space offset (for diagnostics and the
    gather path); ``flat`` is the row-major flat offset into the input
    grid buffer, ``dot(offset, grid_strides)``.
    """

    array: str
    offset: Tuple[int, ...]
    flat: int

    def to_json(self) -> dict:
        return {
            "array": self.array,
            "offset": list(self.offset),
            "flat": self.flat,
        }

    @classmethod
    def from_json(cls, data: dict) -> "BufferRead":
        return cls(
            array=str(data["array"]),
            offset=tuple(int(v) for v in data["offset"]),
            flat=int(data["flat"]),
        )


@dataclass(frozen=True)
class ProgramPart:
    """One partition stream's sub-program (Fig 14 chain breaking).

    A multi-stream plan removes its largest reuse FIFOs and feeds each
    downstream sub-chain from its own off-chip stream.  The lowering
    mirrors that: the window's read slots split into contiguous
    segments at the removed FIFOs, and each segment becomes one
    ``ProgramPart`` — a sub-program over a subset of the read slots,
    with its own within-segment reuse offsets (the capacities of the
    FIFOs that *survive* inside the segment).  Parts execute in
    emission order (``stream`` 0 first) against the shared output
    domain; the concatenation of their reuse offsets is exactly the
    multi-stream plan's ``fifo_capacities``.
    """

    stream: int
    #: Read-slot indices into ``BufferProgram.reads``, filter order.
    reads: Tuple[int, ...]
    #: Flat reuse deltas between this part's adjacent reads
    #: (``len(reads) - 1`` entries — the segment's surviving FIFOs).
    reuse_offsets: Tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "stream": self.stream,
            "reads": list(self.reads),
            "reuse_offsets": list(self.reuse_offsets),
        }

    @classmethod
    def from_json(cls, data: dict) -> "ProgramPart":
        return cls(
            stream=int(data["stream"]),
            reads=tuple(int(v) for v in data["reads"]),
            reuse_offsets=tuple(
                int(v) for v in data["reuse_offsets"]
            ),
        )


@dataclass
class BufferProgram:
    """A fully lowered stencil plan (see the module docstring)."""

    fingerprint: str
    grid: Tuple[int, ...]
    mode: str  # "box" | "gather"
    reads: List[BufferRead]
    ops: List[Dict]  # post-order stack program
    n_outputs: int
    #: Skew-normalized box bounds (``mode == "box"``): the domain lows,
    #: its extents, and the flat offset of the lexicographically first
    #: iteration.  Unused (empty/zero) in gather mode.
    lows: Tuple[int, ...] = ()
    shape: Tuple[int, ...] = ()
    base: int = 0
    #: Serialized iteration domain (``mode == "gather"`` only).
    domain: Optional[dict] = None
    #: Flat reuse distances between lexicographically adjacent reads
    #: over the stream hull — the paper's non-uniform FIFO depths,
    #: cross-checked against ``CachedPlan.fifo_capacities``.
    reuse_offsets: List[int] = field(default_factory=list)
    #: Per-stream sub-programs (multi-stream plans only).  Empty means
    #: one implicit stream covering every read — the canonical JSON
    #: omits the key entirely in that case, so single-stream sidecars
    #: written before parts existed still round-trip byte-identically.
    parts: List[ProgramPart] = field(default_factory=list)
    version: int = BUFFER_PROGRAM_VERSION


def program_to_json(program: BufferProgram) -> dict:
    """Canonical JSON encoding (inverse of :func:`program_from_json`)."""
    data = {
        "version": program.version,
        "fingerprint": program.fingerprint,
        "grid": list(program.grid),
        "mode": program.mode,
        "reads": [r.to_json() for r in program.reads],
        "ops": list(program.ops),
        "n_outputs": program.n_outputs,
        "lows": list(program.lows),
        "shape": list(program.shape),
        "base": program.base,
        "domain": program.domain,
        "reuse_offsets": list(program.reuse_offsets),
    }
    if program.parts:
        data["parts"] = [p.to_json() for p in program.parts]
    return data


def program_from_json(data: dict) -> BufferProgram:
    """Rebuild a :class:`BufferProgram` from its JSON encoding."""
    return BufferProgram(
        fingerprint=str(data["fingerprint"]),
        grid=tuple(int(g) for g in data["grid"]),
        mode=str(data["mode"]),
        reads=[BufferRead.from_json(r) for r in data["reads"]],
        ops=[dict(op) for op in data["ops"]],
        n_outputs=int(data["n_outputs"]),
        lows=tuple(int(v) for v in data.get("lows", ())),
        shape=tuple(int(v) for v in data.get("shape", ())),
        base=int(data.get("base", 0)),
        domain=data.get("domain"),
        reuse_offsets=[int(v) for v in data.get("reuse_offsets", [])],
        parts=[
            ProgramPart.from_json(p) for p in data.get("parts", [])
        ],
        version=int(data.get("version", -1)),
    )


def validate_program(program: BufferProgram) -> None:
    """Structural sanity checks; raises :class:`LoweringError`.

    This is the cheap first line against corrupted sidecars — the
    authoritative check is the converter's re-bufferize comparison
    (:class:`ProgramMismatchError`), which catches *semantic* drift
    that still parses.
    """
    if program.version != BUFFER_PROGRAM_VERSION:
        raise LoweringError(
            f"buffer program version {program.version} does not match "
            f"{BUFFER_PROGRAM_VERSION}"
        )
    if program.mode not in ("box", "gather"):
        raise LoweringError(f"unknown program mode {program.mode!r}")
    if not program.reads:
        raise LoweringError("buffer program has no reads")
    if program.n_outputs < 0:
        raise LoweringError("negative output count")
    if program.mode == "box":
        if len(program.shape) != len(program.grid) or len(
            program.lows
        ) != len(program.grid):
            raise LoweringError("box bounds dimensionality mismatch")
        count = 1
        for extent in program.shape:
            if extent < 1:
                raise LoweringError("non-positive box extent")
            count *= extent
        if count != program.n_outputs:
            raise LoweringError(
                f"box volume {count} disagrees with n_outputs "
                f"{program.n_outputs}"
            )
    elif program.domain is None:
        raise LoweringError("gather program carries no domain")
    if program.parts:
        seen_slots = set()
        concat: List[int] = []
        for k, part in enumerate(program.parts):
            if part.stream != k:
                raise LoweringError(
                    f"part {k} carries stream index {part.stream} "
                    "(parts must be in emission order)"
                )
            if not part.reads:
                raise LoweringError(f"part {k} reads nothing")
            if len(part.reuse_offsets) != len(part.reads) - 1:
                raise LoweringError(
                    f"part {k} has {len(part.reuse_offsets)} reuse "
                    f"offsets for {len(part.reads)} reads"
                )
            for slot in part.reads:
                if not 0 <= slot < len(program.reads):
                    raise LoweringError(
                        f"part {k} references read slot {slot} out "
                        f"of {len(program.reads)} reads"
                    )
                if slot in seen_slots:
                    raise LoweringError(
                        f"read slot {slot} appears in more than one "
                        "part (streams must be disjoint)"
                    )
                seen_slots.add(slot)
            concat.extend(part.reuse_offsets)
        if concat != list(program.reuse_offsets):
            raise LoweringError(
                "concatenated per-part reuse offsets disagree with "
                "the program's reuse offsets (the multi-stream "
                "partition)"
            )
    depth = 0
    for op in program.ops:
        kind = op.get("op")
        if kind in OP_PUSH:
            if kind == "read":
                ref = op.get("ref")
                if not isinstance(ref, int) or not (
                    0 <= ref < len(program.reads)
                ):
                    raise LoweringError(
                        f"read op references slot {ref!r} out of "
                        f"{len(program.reads)} reads"
                    )
            depth += 1
        elif kind in OP_UNARY:
            if depth < 1:
                raise LoweringError("stack underflow in unary op")
        elif kind in OP_BINARY:
            if depth < 2:
                raise LoweringError("stack underflow in binary op")
            depth -= 1
        else:
            raise LoweringError(f"unknown opcode {kind!r}")
    if depth != 1:
        raise LoweringError(
            f"op list leaves {depth} values on the stack (expected 1)"
        )
