"""Compiled execution backend: bufferize → convert → batched kernels.

The value-lowering pipeline that turns a compiled stencil plan into a
flat, backend-neutral :class:`~repro.lower.program.BufferProgram` and
then into a vectorized NumPy kernel executed once per request batch —
see the module docstrings of :mod:`repro.lower.program`,
:mod:`repro.lower.bufferize`, :mod:`repro.lower.convert` and
:mod:`repro.lower.engine`.  The service runs the kernels through its
one execution core (:func:`repro.service.executor.run_stages`).
"""

from .bufferize import (
    GATHER_HARD_LIMIT,
    GATHER_POINT_LIMIT,
    bufferize,
    bufferize_plan,
    stream_parts,
)
from .convert import (
    CompiledKernel,
    ConverterUnavailable,
    convert,
    converter_names,
    get_converter,
    kernel_from_plan,
    register_converter,
)
from .engine import CompiledEngine, LowerResult, LoweringConfig
from .gather import GATHER_CHUNK_POINTS, iter_point_chunks
from .program import (
    BUFFER_PROGRAM_VERSION,
    BufferProgram,
    BufferRead,
    LoweringError,
    LoweringUnsupported,
    ProgramMismatchError,
    ProgramPart,
    program_from_json,
    program_to_json,
    validate_program,
)

__all__ = [
    "BUFFER_PROGRAM_VERSION",
    "GATHER_CHUNK_POINTS",
    "GATHER_HARD_LIMIT",
    "GATHER_POINT_LIMIT",
    "BufferProgram",
    "BufferRead",
    "CompiledEngine",
    "CompiledKernel",
    "ConverterUnavailable",
    "LowerResult",
    "LoweringConfig",
    "LoweringError",
    "LoweringUnsupported",
    "ProgramMismatchError",
    "ProgramPart",
    "bufferize",
    "bufferize_plan",
    "convert",
    "converter_names",
    "get_converter",
    "iter_point_chunks",
    "kernel_from_plan",
    "program_from_json",
    "program_to_json",
    "register_converter",
    "stream_parts",
    "validate_program",
]
