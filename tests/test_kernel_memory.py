"""The NumPy kernel's memory contract.

A warm :meth:`CompiledKernel.run` allocates exactly one array, its
freshly owned output row: every temporary lives in the per-thread
scratch arena, which is reused across calls and kernels and stays
within its documented bound, ``max(STREAM_BUDGET_BYTES, one minimum
strip)``.  A warm compiled ``iterate`` chain therefore touches no new
pages per request.
"""

import importlib
import resource
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from repro.lower import bufferize_plan, convert
from repro.service.executor import compile_plan, run_stages
from repro.service.fingerprint import CompileOptions, fingerprint
from repro.stencil import make_input
from repro.stencil.kernels import get_benchmark, skewed_denoise

from test_execution_core import compiled_chain, iterate

convert_module = importlib.import_module("repro.lower.convert")

#: Python-object bookkeeping of one call (views, lists, tuples).
SLACK_BYTES = 64 * 1024


def numpy_kernel(name, grid):
    spec = get_benchmark(name).with_grid(grid)
    opts = CompileOptions()
    kernel = convert(
        bufferize_plan(compile_plan(spec, opts, fingerprint(spec, opts)))
    )
    return kernel, make_input(spec, 7)


def arena_bytes():
    buf = getattr(convert_module._ARENA, "buffer", None)
    return 0 if buf is None else buf.nbytes


def min_strip_bytes(kernel):
    """Scratch of one output row of one grid: the arena's floor."""
    return kernel._n_slots * kernel._lane * 8


class TestAllocations:
    def test_warm_run_allocates_only_its_output(self):
        kernel, grid = numpy_kernel("SOBEL", (512, 512))
        for _ in range(2):
            kernel.run(grid)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            row = kernel.run(grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert row.nbytes == kernel.n_outputs * 8
        assert peak - before <= row.nbytes + SLACK_BYTES, (
            f"peak {peak - before} B for a {row.nbytes} B output"
        )

    def test_warm_gather_run_allocates_only_its_output(self):
        """A skewed (gather) kernel gathers its reads and builds each
        strip's index row inside the arena too, so a warm run touches
        no fresh memory besides its output."""
        spec = skewed_denoise(200, 300)
        opts = CompileOptions()
        kernel = convert(
            bufferize_plan(compile_plan(spec, opts, fingerprint(spec, opts)))
        )
        assert kernel.program.mode == "gather"
        grid = make_input(spec, 7)
        for _ in range(2):
            kernel.run(grid)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            row = kernel.run(grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before <= row.nbytes + SLACK_BYTES, (
            f"peak {peak - before} B for a {row.nbytes} B output"
        )
        assert arena_bytes() <= convert_module.STREAM_BUDGET_BYTES

    def test_rows_stay_owned_while_the_arena_is_reused(self):
        sobel, sobel_grid = numpy_kernel("SOBEL", (64, 64))
        rician, rician_grid = numpy_kernel("RICIAN", (64, 64))
        first = sobel.run(sobel_grid)
        kept = first.copy()
        rician.run(rician_grid)
        sobel.run(sobel_grid * 2.0)
        assert first.tobytes() == kept.tobytes()


class TestArenaBound:
    CASES = [
        ("SOBEL", (512, 512), 1),
        ("RICIAN", (512, 512), 1),
        ("DENOISE", (256, 256), 1),
        ("DENOISE_3D", (64, 64, 64), 1),
        ("DENOISE", (24, 32), 40),
        ("SEGMENTATION_3D", (8, 9, 10), 200),
        ("SOBEL", (6, 4000), 300),
    ]

    def test_arena_stays_within_its_bound(self):
        """In a fresh kernel thread the arena starts empty and, across
        kernels and batch sizes, never outgrows ``max(budget, the
        largest minimum strip run so far)``."""
        seen = []

        def worker():
            bound = convert_module.STREAM_BUDGET_BYTES
            seen.append((arena_bytes(), bound))
            for name, grid, batch in self.CASES:
                kernel, x = numpy_kernel(name, grid)
                bound = max(bound, min_strip_bytes(kernel))
                kernel.run_batch(np.stack([x] * batch))
                seen.append((arena_bytes(), bound))

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert len(seen) == len(self.CASES) + 1
        assert seen[0][0] == 0
        for size, bound in seen[1:]:
            assert 0 < size <= bound

    def test_one_row_wider_than_the_budget_grows_the_arena_once(
        self, monkeypatch
    ):
        monkeypatch.setattr(convert_module, "STREAM_BUDGET_BYTES", 4096)
        kernel, x = numpy_kernel("SOBEL", (8, 400))
        assert min_strip_bytes(kernel) > 4096

        def worker():
            kernel.run(x)
            first = arena_bytes()
            kernel.run_batch(np.stack([x] * 3))
            sizes.append((first, arena_bytes()))

        sizes = []
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert sizes == [(min_strip_bytes(kernel),) * 2]


def test_threads_share_kernels_but_not_scratch():
    """More kernel threads than cores over shared kernels, with a short
    switch interval: every row still equals its one-thread reference,
    because each thread streams through its own arena."""
    cases = [
        numpy_kernel(name, grid)
        for name, grid in (
            ("SOBEL", (96, 80)),
            ("RICIAN", (96, 80)),
            ("DENOISE_3D", (12, 10, 9)),
        )
    ]
    want = [kernel.run(x).tobytes() for kernel, x in cases]
    wrong = []

    def worker(offset):
        for i in range(100):
            k = (i + offset) % len(cases)
            kernel, x = cases[k]
            if kernel.run(x).tobytes() != want[k]:
                wrong.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=worker, args=(j,)) for j in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


@pytest.mark.skipif(
    not hasattr(resource, "getrusage"), reason="needs getrusage"
)
def test_warm_iterate_chain_faults_no_pages():
    """A warm compiled DENOISE x8 at 256x256, run on a worker thread as
    a service runs it, reuses the pages it already touched: about zero
    minor faults per request."""
    stages, plans, kernels, engine = compiled_chain(iterate(8), (256, 256))
    requests = 20
    seen = []

    def worker():
        for _ in range(3):
            run_stages(stages, plans, kernels, [3], engine=engine)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(requests):
            run = run_stages(stages, plans, kernels, [3], engine=engine)
        after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        seen.append((run.compiled, after - before))

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    (compiled, faults), = seen
    assert compiled == 1
    assert faults / requests <= 2.0, f"{faults} faults / {requests}"
