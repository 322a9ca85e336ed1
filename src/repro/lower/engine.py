"""The compiled-execution engine: per-process kernel + input caches.

One :class:`CompiledEngine` lives in each executing process (the
thread-pool service holds one; every pool worker holds its own).  It
memoizes three things:

* **kernels** — one :class:`~repro.lower.convert.CompiledKernel` per
  plan fingerprint, built through bufferize → convert on first use and
  reused for every later request;
* **unsupported verdicts** — a plan the lowering refused
  (:class:`LoweringUnsupported`) is remembered by fingerprint so the
  fallback decision costs a dict lookup, not a re-lowering, on every
  subsequent request (both memos are LRUs bounded by
  :data:`KERNEL_MEMO_ENTRIES`);
* **input grids** — service inputs are *content-addressed*: a request's
  grid is ``make_input(spec, seed)``, fully determined by
  ``(grid shape, seed)``, so warm traffic re-reading the same seeds
  skips the RNG entirely.  Grids are cached read-only in a
  byte-bounded LRU (the interpreted path deliberately stays the
  uncached paper-exact reference).

The engine records no metrics itself — it returns timings in
:class:`LowerResult` and the caller (thread executor, pool worker
relay) attributes them, because pool workers have no registry and ship
observations home in the job reply instead.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..obs.tracing import span
from ..stencil.golden import make_input
from ..stencil.spec import StencilSpec
from .bufferize import bufferize_plan
from .convert import CompiledKernel, ConverterUnavailable, convert
from .program import (
    BUFFER_PROGRAM_VERSION,
    LoweringUnsupported,
    ProgramMismatchError,
    program_from_json,
    program_to_json,
    validate_program,
)

__all__ = [
    "CONVERTERS",
    "GRID_CACHE_BYTES",
    "KERNEL_MEMO_ENTRIES",
    "CompiledEngine",
    "LowerResult",
]

#: Converter targets behind the ``BufferProgram`` IR: ``"numpy"`` is
#: the vectorized ufunc replay, ``"c"`` generates C built via cffi
#: (degrading per build to ``"numpy"`` when it cannot run here).
CONVERTERS = ("numpy", "c")

#: Input-grid LRU budget (float64 bytes across all cached grids).
GRID_CACHE_BYTES = 64 * 1024 * 1024

#: Bound on each engine's kernel memo and, separately, on its memo of
#: refused lowerings; both evict the least recently used entry.  One
#: entry per fingerprint a process has executed:
#: 256 holds every hot plan of a node, while a stream of one-off
#: fingerprints cannot grow the process without limit.
KERNEL_MEMO_ENTRIES = 256


@dataclass
class LowerResult:
    """One ``kernel_for`` outcome, with stage timings for the caller."""

    kernel: CompiledKernel
    #: Program JSON to persist as the plan's cache sidecar, or ``None``
    #: when the stored sidecar already matched.
    program_json: Optional[dict]
    bufferize_ms: float = 0.0
    convert_ms: float = 0.0
    #: False when the kernel came straight from the in-process cache.
    built: bool = False
    #: Converter that actually built the kernel ("numpy" when the
    #: configured target degraded).
    converter: str = "numpy"
    #: Why the configured converter degraded to NumPy, if it did.
    converter_fallback: Optional[str] = None


class CompiledEngine:
    """Bufferize → convert → execute, memoized per fingerprint.

    ``converter`` names the target (:data:`CONVERTERS`) every kernel of
    this engine is built with; ``artifact_dir`` is where the C converter
    persists its builds (the service passes its plan ``cache_dir``).
    """

    def __init__(
        self,
        converter: str = "numpy",
        artifact_dir: Optional[str] = None,
        grid_cache_bytes: int = GRID_CACHE_BYTES,
    ) -> None:
        if converter not in CONVERTERS:
            raise ValueError(
                f"converter must be one of "
                f"{', '.join(repr(n) for n in CONVERTERS)}, "
                f"got {converter!r}"
            )
        self.converter = converter
        self.artifact_dir = artifact_dir
        self._kernels: OrderedDict = OrderedDict()
        self._unsupported: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self._grid_cache_bytes = grid_cache_bytes
        self._grids: "OrderedDict[Tuple, np.ndarray]" = OrderedDict()
        self._grids_bytes = 0
        self._grid_lock = threading.Lock()

    # -- lowering ------------------------------------------------------
    def kernel_for(
        self, plan, spec: Optional[StencilSpec] = None
    ) -> LowerResult:
        """The kernel for a cached plan, lowering on first use.

        Raises :class:`LoweringUnsupported` (fall back to the
        interpreted path) or :class:`ProgramMismatchError` (the stored
        sidecar is corrupt; fail the request and evict the plan).
        """
        fp = plan.fingerprint
        with self._lock:
            hit = self._kernels.get(fp)
            if hit is not None:
                self._kernels.move_to_end(fp)
                kernel, used = hit
                return LowerResult(
                    kernel=kernel, program_json=None, converter=used
                )
            unsupported = self._unsupported.get(fp)
            if unsupported is not None:
                self._unsupported.move_to_end(fp)
        if unsupported is not None:
            raise unsupported
        if spec is None:
            spec = StencilSpec.from_json(plan.spec)
        started = time.perf_counter()
        try:
            with span(
                "lower.bufferize", fingerprint=fp[:12],
                benchmark=spec.name,
            ):
                fresh = bufferize_plan(plan, spec=spec)
        except LoweringUnsupported as exc:
            self._remember(self._unsupported, fp, exc)
            raise
        bufferize_ms = (time.perf_counter() - started) * 1e3
        fresh_json = program_to_json(fresh)
        stored = getattr(plan, "buffer_program", None)
        if stored is not None and self._stale_version(stored):
            # A sidecar written by an older IR is not corruption —
            # treat it as absent, re-lower and overwrite.
            stored = None
        if stored is not None and not self._matches(
            stored, fresh_json
        ):
            raise ProgramMismatchError(
                f"stored buffer program for plan {fp[:12]} diverges "
                "from a fresh lowering of the cached spec"
            )
        started = time.perf_counter()
        used = self.converter
        converter_fallback: Optional[str] = None
        try:
            with span(
                "lower.convert", fingerprint=fp[:12],
                benchmark=spec.name, converter=self.converter,
            ):
                try:
                    kernel = self._convert(fresh)
                except ConverterUnavailable as exc:
                    # Per-build degradation: the configured target
                    # cannot run here (no toolchain, no cffi, compile
                    # failure) — the NumPy converter is bit-identical,
                    # so use it and report why.
                    used = "numpy"
                    converter_fallback = str(exc)
                    kernel = convert(fresh)
        except LoweringUnsupported as exc:
            self._remember(self._unsupported, fp, exc)
            raise
        convert_ms = (time.perf_counter() - started) * 1e3
        self._remember(self._kernels, fp, (kernel, used))
        return LowerResult(
            kernel=kernel,
            program_json=None if stored is not None else fresh_json,
            bufferize_ms=bufferize_ms,
            convert_ms=convert_ms,
            built=True,
            converter=used,
            converter_fallback=converter_fallback,
        )

    def _convert(self, program) -> CompiledKernel:
        """Build ``program`` with this engine's converter."""
        if self.converter == "numpy":
            return convert(program)
        try:
            from .convert_c import convert_c
        except ImportError as exc:
            raise ConverterUnavailable(
                f"the C converter cannot be imported: {exc}"
            ) from exc
        return convert_c(program, artifact_dir=self.artifact_dir)

    def _remember(self, memo: OrderedDict, fp: str, value) -> None:
        """Insert into one memo, evicting beyond
        :data:`KERNEL_MEMO_ENTRIES` (least recently used first)."""
        with self._lock:
            memo[fp] = value
            memo.move_to_end(fp)
            while len(memo) > KERNEL_MEMO_ENTRIES:
                memo.popitem(last=False)

    @staticmethod
    def _stale_version(stored: dict) -> bool:
        try:
            return int(
                stored.get("version", -1)
            ) != BUFFER_PROGRAM_VERSION
        except (TypeError, ValueError):
            return False

    @staticmethod
    def _matches(stored: dict, fresh_json: dict) -> bool:
        try:
            stored_program = program_from_json(stored)
            validate_program(stored_program)
        except Exception:
            return False
        return program_to_json(stored_program) == fresh_json

    def forget(self, fp: str) -> None:
        """Drop one fingerprint (mirrors a plan-cache invalidation)."""
        with self._lock:
            self._kernels.pop(fp, None)
            self._unsupported.pop(fp, None)

    # -- content-addressed input grids ---------------------------------
    def input_grid(self, spec: StencilSpec, seed: int) -> np.ndarray:
        """``make_input`` memoized by its full content address.

        The returned array is shared and marked read-only — kernels
        only ever take views of it.
        """
        key = (tuple(spec.grid), int(seed))
        with self._grid_lock:
            grid = self._grids.get(key)
            if grid is not None:
                self._grids.move_to_end(key)
                return grid
        grid = make_input(spec, seed=seed)
        grid.setflags(write=False)
        with self._grid_lock:
            self._grids[key] = grid
            self._grids_bytes += grid.nbytes
            while (
                len(self._grids) > 1
                and self._grids_bytes > self._grid_cache_bytes
            ):
                _, evicted = self._grids.popitem(last=False)
                self._grids_bytes -= evicted.nbytes
        return grid
