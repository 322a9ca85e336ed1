"""The benchmark's workloads: seeded JSONL request streams and goldens.

Every request is generated here from ``--seed`` and sent to the program
as one wire line; the program sees nothing else.  Each workload's
reference answers come from the interpreted golden path
(``execute_stencil`` / ``execute_pipeline``) computed in the bench
process, never from the fabric under test.
"""

from __future__ import annotations

import json
import random
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.service.executor import (
    execute_pipeline,
    execute_stencil,
    stage_summaries,
)
from repro.service.workload import Workload, plan_workload
from repro.stencil.kernels import get_benchmark

#: Per-request deadline the clients give the fabric; a reply slower
#: than this counts as failed.
TIMEOUT_S = 60.0

#: The small grids of ``benchmarks/bench_service_throughput.py``
#: (``SERVICE_GRIDS``): execution stays sub-millisecond, so serving
#: dominates.
SMALL_GRIDS = {
    "DENOISE": (24, 32),
    "RICIAN": (24, 32),
    "SOBEL": (20, 24),
    "BICUBIC": (22, 26),
    "DENOISE_3D": (8, 9, 10),
    "SEGMENTATION_3D": (8, 9, 10),
}

#: Readiness probe for workloads with no repeated fingerprint: a grid
#: outside every cold-pool range, so it never warms a timed request.
PROBE = ("SOBEL", (12, 12))


@dataclass(frozen=True)
class Traffic:
    """One workload's request stream.

    ``lines`` is the send order.  A ``repeat`` stream cycles through
    its lines for as long as the run lasts; otherwise each line is sent
    at most once (every request a distinct fingerprint).  ``warmup``
    lines are sent once per fabric start, before timing.
    """

    name: str
    lines: Tuple[str, ...]
    repeat: bool
    warmup: Tuple[str, ...]


@dataclass(frozen=True)
class Answer:
    """The fields of a reply the golden gate compares."""

    checksum: Optional[str]
    n_outputs: Optional[int]
    stages: Tuple[str, ...] = ()


def _line(wire: dict) -> str:
    wire = dict(wire, timeout_s=TIMEOUT_S)
    return json.dumps(wire, sort_keys=True)


def _single(benchmark, grid, seed, **extra) -> str:
    return _line(
        dict(
            proto=1, benchmark=benchmark, grid=list(grid), seed=seed,
            **extra,
        )
    )


def _workload(workload: dict, grid, seed) -> str:
    return _line(
        {"proto": 2, "workload": workload, "grid": list(grid), "seed": seed}
    )


def _input_seeds(rng: random.Random, n: int) -> List[int]:
    return rng.sample(range(1 << 16), n)


def _warm(name, rng, requests) -> Traffic:
    lines = list(requests)
    rng.shuffle(lines)
    return Traffic(name, tuple(lines), repeat=True, warmup=tuple(lines))


def _cold_pool() -> List[Tuple[str, Tuple[int, ...]]]:
    """Every (benchmark, grid) the cold workload may draw."""
    pool = []
    for name in ("DENOISE", "RICIAN", "SOBEL", "BICUBIC"):
        for rows in range(16, 37):
            for cols in range(16, 37):
                pool.append((name, (rows, cols)))
    for name in ("DENOISE_3D", "SEGMENTATION_3D"):
        for a in range(6, 11):
            for b in range(6, 11):
                for c in range(6, 11):
                    pool.append((name, (a, b, c)))
    return pool


def build(name: str, seed: int) -> Traffic:
    """The request stream of workload ``name`` under ``seed``."""
    rng = random.Random(f"{name}:{seed}")
    if name == "warm_small":
        seeds = _input_seeds(rng, 8)
        return _warm(name, rng, [
            _single(bench, grid, s)
            for bench, grid in SMALL_GRIDS.items()
            for s in seeds
        ])
    if name == "warm_large":
        seeds = _input_seeds(rng, 4)
        return _warm(name, rng, [
            _single(bench, (512, 512), s)
            for bench in ("RICIAN", "SOBEL")
            for s in seeds
        ])
    if name == "iterate_deep":
        workload = {"kind": "iterate", "benchmark": "DENOISE", "steps": 8}
        return _warm(name, rng, [
            _workload(workload, (256, 256), s)
            for s in _input_seeds(rng, 4)
        ])
    if name == "graph_chain":
        workload = {
            "kind": "graph",
            "nodes": [
                {"id": "den", "benchmark": "DENOISE"},
                {"id": "ric", "benchmark": "RICIAN"},
                {"id": "sob", "benchmark": "SOBEL"},
            ],
            "edges": [["den", "ric"], ["ric", "sob"]],
        }
        return _warm(name, rng, [
            _workload(workload, (96, 128), s)
            for s in _input_seeds(rng, 4)
        ])
    if name == "cold_design":
        pool = _cold_pool()
        rng.shuffle(pool)
        seeds = _input_seeds(rng, len(pool))
        lines = tuple(
            _single(bench, grid, s, validate=True)
            for (bench, grid), s in zip(pool, seeds)
        )
        return Traffic(
            name, lines, repeat=False, warmup=(_single(*PROBE, seed),)
        )
    raise ValueError(f"unknown workload {name!r}")


class Cursor:
    """Hands the clients their next line, in ``traffic.lines`` order.

    Callers hold no lock around it; one is taken here so two clients
    never draw the same position.
    """

    def __init__(self, traffic: Traffic) -> None:
        self._traffic = traffic
        self._next = 0
        self._lock = threading.Lock()

    def next(self) -> Optional[str]:
        lines = self._traffic.lines
        with self._lock:
            k = self._next
            self._next += 1
        if self._traffic.repeat:
            return lines[k % len(lines)]
        return lines[k] if k < len(lines) else None


def answer_of(response) -> Answer:
    """The compared fields of a :class:`repro.service.proto.Response`."""
    return Answer(
        response.checksum,
        response.n_outputs,
        tuple(s["checksum"] for s in response.stages or ()),
    )


class Golden:
    """Interpreted reference answers, one per distinct request line."""

    def __init__(self) -> None:
        self._memo: Dict[str, Answer] = {}

    def __call__(self, line: str) -> Answer:
        hit = self._memo.get(line)
        if hit is None:
            hit = self._memo[line] = self._compute(json.loads(line))
        return hit

    @staticmethod
    def _compute(wire: dict) -> Answer:
        grid = tuple(wire["grid"])
        if wire["proto"] == 1:
            spec = get_benchmark(wire["benchmark"]).with_grid(grid)
            _, outputs, digest = execute_stencil(spec, wire["seed"])
            return Answer(digest[:16], len(outputs))
        plan = plan_workload(Workload.from_json(wire["workload"]), grid=grid)
        _, results = execute_pipeline(plan.stages, wire["seed"])
        final, digest = results[-1]
        stages = ()
        if len(plan.stages) > 1:
            stages = tuple(
                s["checksum"] for s in stage_summaries(plan.stages, results)
            )
        return Answer(digest[:16], int(final.size), stages)
