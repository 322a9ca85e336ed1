"""Generated-C converter: the second target behind ``BufferProgram``.

The IR was designed backend-neutral; this module proves it.  A
:class:`~repro.lower.program.BufferProgram` is compiled to a small C
translation unit — one tight loop nest per program, the op tape
unrolled into straight-line SSA temporaries — built into a shared
library with the system C compiler and driven through cffi's ABI mode
(``ffi.dlopen``).  No per-op ndarray dispatch, no intermediate
``reads x outputs`` value arrays: each output element is produced in
registers, which is where the warm-throughput win over the NumPy
converter comes from on dispatch-bound (small-grid) workloads.

Bit-exactness contract
----------------------
Identical to the NumPy converter (and therefore to the interpreted
golden path — the service's SHA-256 digests and the sampled canary
enforce it end to end):

* every constant is emitted as a C99 hex-float literal
  (``float.hex()``), so the compiled literal is the exact IEEE-754
  double the spec carries;
* ``min``/``max`` replicate NumPy's NaN-propagating ufunc formula
  ``(a != a || a < b) ? a : b`` — *not* C's ``fmin``/``fmax``, which
  prefer the non-NaN operand;
* the library is compiled with ``-fno-fast-math -ffp-contract=off``:
  no FMA contraction, no reassociation, so every ``+ - * /`` and
  ``sqrt`` is the same single correctly rounded IEEE operation NumPy
  performs.

Availability
------------
The converter needs cffi and a C compiler.  When either is missing —
or a compile fails — the builder raises
:class:`~repro.lower.convert.ConverterUnavailable` and the engine
degrades to the NumPy converter per build, counting the reason.  Built
artifacts persist next to the plan cache as ``<fp>.c.so`` plus a
``<fp>.c.json`` meta (source + shared-object digests), so a restart
dlopens the existing library instead of re-running the compiler.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import tempfile
import threading
from typing import List, Optional, Tuple

import numpy as np

from .convert import CompiledKernel, ConverterUnavailable
from .program import BufferProgram, LoweringError, row_major_strides

__all__ = [
    "CCompiledKernel",
    "C_CONVERTER_VERSION",
    "c_toolchain",
    "convert_c",
    "generate_source",
]

#: Bump on any change to the generated code or the ABI; stale cached
#: artifacts are rebuilt, never dlopened.
C_CONVERTER_VERSION = 1

#: Flags that pin IEEE semantics: no fast-math value changes, no FMA
#: contraction, no unsafe reassociation.
_CFLAGS = [
    "-O2",
    "-fPIC",
    "-shared",
    "-fno-fast-math",
    "-ffp-contract=off",
]

_COMPILE_TIMEOUT_S = 60.0

_CDEF = """
void kernel_box(const double *grids, long long batch, double *out);
void kernel_gather(const double *grids, long long batch,
                   const long long *base, long long npts,
                   double *out);
"""

_build_lock = threading.Lock()
_process_build_dir: Optional[str] = None


def c_toolchain() -> Optional[str]:
    """Path of the C compiler to use, or ``None`` when there is none.

    ``REPRO_CC`` overrides (set it to an empty string to simulate a
    toolchain-free box, e.g. in CI's fallback leg).
    """
    override = os.environ.get("REPRO_CC")
    if override is not None:
        return override or None
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _float_literal(value: float) -> str:
    """Exact C99 literal for one IEEE-754 double."""
    v = float(value)
    if v != v:
        return "NAN"
    if v == float("inf"):
        return "INFINITY"
    if v == float("-inf"):
        return "-INFINITY"
    return v.hex()


def _emit_expr(
    program: BufferProgram, read_expr, indent: str
) -> Tuple[List[str], str]:
    """Unroll the op tape into SSA temporaries.

    ``read_expr(slot)`` renders the C expression loading read slot
    ``slot`` for the current output point.  Returns the emitted lines
    and the name of the result temporary.
    """
    lines: List[str] = []
    stack: List[str] = []
    n = 0

    def push(expr: str) -> None:
        nonlocal n
        name = f"t{n}"
        n += 1
        lines.append(f"{indent}const double {name} = {expr};")
        stack.append(name)

    for op in program.ops:
        kind = op["op"]
        if kind == "read":
            push(read_expr(op["ref"]))
        elif kind == "const":
            push(_float_literal(op["value"]))
        elif kind == "neg":
            push(f"-{stack.pop()}")
        elif kind == "abs":
            push(f"fabs({stack.pop()})")
        elif kind == "sqrt":
            push(f"sqrt({stack.pop()})")
        elif kind in ("add", "sub", "mul", "div"):
            r = stack.pop()
            l = stack.pop()
            sym = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[kind]
            push(f"{l} {sym} {r}")
        elif kind in ("min", "max"):
            r = stack.pop()
            l = stack.pop()
            push(f"k_{kind}({l}, {r})")
        else:  # pragma: no cover - validate_program rejects these
            raise LoweringError(f"unknown opcode {kind!r}")
    return lines, stack[-1]


def generate_source(program: BufferProgram) -> str:
    """Deterministic C source for one buffer program.

    Box programs get a constant-bound loop nest over the output box;
    gather programs take the flat base-index row the Python side
    enumerated by the chunked sweep (:mod:`repro.lower.gather`) and loop
    over its points.  Read slots are grouped per stream part in the
    emitted comments, mirroring the per-stream sub-program structure.
    """
    grid_elems = 1
    for extent in program.grid:
        grid_elems *= extent
    strides = row_major_strides(program.grid)

    head: List[str] = [
        "/* Generated by repro.lower.convert_c — do not edit. */",
        f"/* program fingerprint: {program.fingerprint} */",
        f"/* converter version: {C_CONVERTER_VERSION} */",
        "#include <math.h>",
        "",
        "static double k_min(double a, double b) {",
        "    return (a != a || a < b) ? a : b;",
        "}",
        "static double k_max(double a, double b) {",
        "    return (a != a || a > b) ? a : b;",
        "}",
        "",
    ]
    if program.parts:
        head.append("/* per-stream sub-programs (emission order): */")
        for part in program.parts:
            head.append(
                f"/*   stream {part.stream}: read slots "
                f"{list(part.reads)}, reuse {list(part.reuse_offsets)}"
                " */"
            )
        head.append("")

    lines = list(head)
    if program.mode == "box":
        lines.append(
            "void kernel_box(const double *grids, long long batch, "
            "double *out) {"
        )
        lines.append("    for (long long b = 0; b < batch; ++b) {")
        lines.append(
            f"        const double *grid = grids + b * "
            f"{grid_elems}LL;"
        )
        lines.append(
            f"        double *row = out + b * "
            f"{program.n_outputs}LL;"
        )
        lines.append("        long long o = 0;")
        indent = "        "
        dim = len(program.grid)
        for j in range(dim):
            lines.append(
                f"{indent}for (long long i{j} = 0; i{j} < "
                f"{program.shape[j]}LL; ++i{j}) {{"
            )
            indent += "    "
        terms = " + ".join(
            [f"{program.base}LL"]
            + [f"i{j} * {strides[j]}LL" for j in range(dim)]
        )
        lines.append(f"{indent}const long long g = {terms};")
        expr_lines, result = _emit_expr(
            program,
            lambda slot: (
                f"grid[g + ({program.reads[slot].flat}LL)]"
            ),
            indent,
        )
        lines.extend(expr_lines)
        lines.append(f"{indent}row[o++] = {result};")
        for j in range(dim - 1, -1, -1):
            indent = indent[:-4]
            lines.append(f"{indent}}}")
        lines.append("    }")
        lines.append("}")
        lines.append("")
        lines.append(
            "void kernel_gather(const double *grids, long long batch,"
        )
        lines.append(
            "                   const long long *base, long long "
            "npts, double *out) {"
        )
        lines.append("    (void)grids; (void)batch; (void)base;")
        lines.append("    (void)npts; (void)out;")
        lines.append("}")
    else:
        lines.append(
            "void kernel_gather(const double *grids, long long batch,"
        )
        lines.append(
            "                   const long long *base, long long "
            "npts, double *out) {"
        )
        lines.append("    for (long long b = 0; b < batch; ++b) {")
        lines.append(
            f"        const double *grid = grids + b * "
            f"{grid_elems}LL;"
        )
        lines.append("        double *row = out + b * npts;")
        lines.append(
            "        for (long long p = 0; p < npts; ++p) {"
        )
        indent = "            "
        lines.append(f"{indent}const long long g = base[p];")
        expr_lines, result = _emit_expr(
            program,
            lambda slot: (
                f"grid[g + ({program.reads[slot].flat}LL)]"
            ),
            indent,
        )
        lines.extend(expr_lines)
        lines.append(f"{indent}row[p] = {result};")
        lines.append("        }")
        lines.append("    }")
        lines.append("}")
        lines.append("")
        lines.append(
            "void kernel_box(const double *grids, long long batch, "
            "double *out) {"
        )
        lines.append("    (void)grids; (void)batch; (void)out;")
        lines.append("}")
    lines.append("")
    return "\n".join(lines)


def _artifact_paths(
    artifact_dir: str, fingerprint: str
) -> Tuple[str, str]:
    return (
        os.path.join(artifact_dir, f"{fingerprint}.c.so"),
        os.path.join(artifact_dir, f"{fingerprint}.c.json"),
    )


def _sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _load_cached_artifact(
    artifact_dir: str, fingerprint: str, source_digest: str
) -> Optional[str]:
    """Path of a trusted cached ``.so``, or ``None`` to rebuild.

    Trusted means: the meta parses, its converter version and source
    digest match the *fresh* codegen, and the shared object's bytes
    hash to what the meta recorded — a stale or tampered artifact is
    rebuilt, never dlopened.
    """
    so_path, meta_path = _artifact_paths(artifact_dir, fingerprint)
    try:
        with open(meta_path, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
        if (
            int(meta.get("version", -1)) != C_CONVERTER_VERSION
            or meta.get("source_sha256") != source_digest
        ):
            return None
        if _sha256_file(so_path) != meta.get("so_sha256"):
            return None
    except (OSError, ValueError, TypeError):
        return None
    return so_path


def _build_dir() -> str:
    """Per-process scratch dir for artifact-dir-less builds."""
    global _process_build_dir
    with _build_lock:
        if _process_build_dir is None:
            _process_build_dir = tempfile.mkdtemp(
                prefix="repro-lower-c-"
            )
    return _process_build_dir


def _compile_library(
    program: BufferProgram,
    source: str,
    source_digest: str,
    artifact_dir: Optional[str],
) -> str:
    """Compile (or reuse) the program's shared library; return its path."""
    cc = c_toolchain()
    if cc is None:
        raise ConverterUnavailable(
            "no C compiler on PATH (cc/gcc/clang); set REPRO_CC or "
            "use converter='numpy'"
        )
    if artifact_dir:
        os.makedirs(artifact_dir, exist_ok=True)
        cached = _load_cached_artifact(
            artifact_dir, program.fingerprint, source_digest
        )
        if cached is not None:
            return cached
        out_dir = artifact_dir
    else:
        out_dir = _build_dir()
    so_path, meta_path = _artifact_paths(
        out_dir, program.fingerprint
    )
    fd, c_path = tempfile.mkstemp(
        suffix=".c", prefix=f"{program.fingerprint[:12]}-",
        dir=out_dir,
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(source)
        so_tmp = c_path[:-2] + ".so"
        proc = subprocess.run(
            [cc, *_CFLAGS, "-o", so_tmp, c_path, "-lm"],
            capture_output=True,
            text=True,
            timeout=_COMPILE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise ConverterUnavailable(
                f"C compile failed ({cc}): "
                f"{(proc.stderr or proc.stdout).strip()[:500]}"
            )
        os.replace(so_tmp, so_path)
        meta = {
            "version": C_CONVERTER_VERSION,
            "fingerprint": program.fingerprint,
            "source_sha256": source_digest,
            "so_sha256": _sha256_file(so_path),
        }
        meta_tmp = meta_path + ".tmp"
        with open(meta_tmp, "w", encoding="utf-8") as fh:
            json.dump(meta, fh, sort_keys=True)
        os.replace(meta_tmp, meta_path)
    except (OSError, subprocess.TimeoutExpired) as exc:
        raise ConverterUnavailable(
            f"C build failed: {exc}"
        ) from exc
    finally:
        try:
            os.unlink(c_path)
        except OSError:
            pass
    return so_path


class CCompiledKernel(CompiledKernel):
    """A :class:`CompiledKernel` whose hot loop is generated C.

    Construction reuses the NumPy kernel's validation and gather
    enumeration (so OOB refusals and the gather base row behave
    identically), then swaps the execution path: ``_run_chunk`` hands
    the contiguous batch straight to the dlopened library.  Falling
    back to NumPy execution is therefore a pure superclass call — the
    two kernels are bit-identical by construction.
    """

    def __init__(
        self,
        program: BufferProgram,
        artifact_dir: Optional[str] = None,
    ) -> None:
        try:
            import cffi
        except ImportError as exc:
            raise ConverterUnavailable(
                "cffi is not importable; use converter='numpy'"
            ) from exc
        super().__init__(program)
        source = generate_source(program)
        source_digest = hashlib.sha256(
            source.encode("utf-8")
        ).hexdigest()
        so_path = _compile_library(
            program, source, source_digest, artifact_dir
        )
        self._ffi = cffi.FFI()
        self._ffi.cdef(_CDEF)
        try:
            self._lib = self._ffi.dlopen(so_path)
        except OSError as exc:
            raise ConverterUnavailable(
                f"cannot dlopen built artifact {so_path}: {exc}"
            ) from exc
        self.artifact_path = so_path

    def _run_chunk(self, grids: np.ndarray) -> np.ndarray:
        batch = int(grids.shape[0])
        out = np.empty((batch, self.n_outputs), dtype=np.float64)
        if batch == 0 or self.n_outputs == 0:
            return out
        grids_c = np.ascontiguousarray(grids, dtype=np.float64)
        ffi = self._ffi
        grids_ptr = ffi.cast(
            "const double *", ffi.from_buffer(grids_c)
        )
        out_ptr = ffi.cast("double *", ffi.from_buffer(out))
        if self.program.mode == "box":
            self._lib.kernel_box(grids_ptr, batch, out_ptr)
        else:
            base = np.ascontiguousarray(
                self._gather_base, dtype=np.int64
            )
            base_ptr = ffi.cast(
                "const long long *", ffi.from_buffer(base)
            )
            self._lib.kernel_gather(
                grids_ptr, batch, base_ptr, self.n_outputs, out_ptr
            )
        return out


def convert_c(
    program: BufferProgram,
    artifact_dir: Optional[str] = None,
) -> CCompiledKernel:
    """Build the generated-C kernel for a (validated) buffer program.

    Raises :class:`ConverterUnavailable` when cffi or a C toolchain is
    missing (the engine then degrades to the NumPy converter).
    """
    return CCompiledKernel(program, artifact_dir=artifact_dir)
