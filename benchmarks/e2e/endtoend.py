"""The untraced run: a routed closed loop, timed at the client.

The fabric is fixed: two ``repro serve`` nodes (one worker each, the
compiled backend with the NumPy converter) behind one :class:`Router`
on the TCP data plane, a fresh plan-cache directory per fabric start.
Two client threads in this process each send their next JSONL line as
soon as their previous reply has been serialized, because the system's
callers (``repro submit``, the medical-imaging example) wait for their
reply.  Runtime tracing stays off.
"""

from __future__ import annotations

import json
import os
import statistics
import tempfile
import threading
import time
from typing import Callable, Iterable, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.service.router import NodeConfig, Router, RouterConfig

from workloads import TIMEOUT_S, Answer, Cursor, Golden, Traffic, answer_of

CLIENTS = 2
#: Fabric starts per run; ``setup_s`` is their median.
SETUP_STARTS = 5
#: ``Router.close`` budget.  A graceful TCP close waits about 5 s in
#: each node's accept loop; past this budget the drained, idle nodes
#: are killed instead.
CLOSE_S = 0.5

#: ``(line, seconds from submit to serialized reply, answer)``; the
#: seconds are None on a client timeout, the answer None on a non-ok
#: reply.
Sample = Tuple[str, Optional[float], Optional[Answer]]


def fabric_config(cache_dir: str) -> RouterConfig:
    return RouterConfig(
        nodes=2,
        node=NodeConfig(
            workers=1,
            backend="compiled",
            converter="numpy",
            transport="tcp",
            cache_dir=cache_dir,
        ),
    )


class Fabrics:
    """Starts fabrics on fresh cache directories; closes them off the
    clock, on background threads that :meth:`join` waits for."""

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir
        self._closers: List[threading.Thread] = []

    def start(
        self,
        warmup: Iterable[str],
        registry: Optional[MetricsRegistry] = None,
    ) -> Tuple[Router, float]:
        """A started, warmed fabric and the seconds that took."""
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.workdir)
        started = time.perf_counter()
        router = Router(
            fabric_config(cache_dir), registry=registry or MetricsRegistry()
        ).start()
        try:
            warm_up(router.submit_json, warmup)
        except BaseException:
            self.close_later(router)
            raise
        return router, time.perf_counter() - started

    def close_later(self, router: Router) -> None:
        closer = threading.Thread(
            target=router.close, kwargs={"timeout": CLOSE_S}, name="close"
        )
        closer.start()
        self._closers.append(closer)

    def join(self) -> None:
        for closer in self._closers:
            closer.join()
        self._closers.clear()


def warm_up(submit_json: Callable, lines: Iterable[str]) -> None:
    """Send each line once; any non-ok reply aborts the run."""
    for line in lines:
        response = submit_json(line).result(TIMEOUT_S)
        if not response.ok:
            raise RuntimeError(f"warm-up request failed: {response.to_json()}")


def roundtrip(submit_json: Callable, line: str):
    """``(seconds, response)`` from the JSONL line to the reply
    serialized with ``json.dumps(resp.to_json())``."""
    start = time.perf_counter()
    response = submit_json(line).result(TIMEOUT_S)
    json.dumps(response.to_json())
    return time.perf_counter() - start, response


def closed_loop(
    submit_json: Callable, traffic: Traffic, seconds: float, clients: int
) -> Tuple[List[Sample], float]:
    """Run ``clients`` closed-loop clients for ``seconds``.

    Every client sends at least one request.  Returns the samples and
    the wall time from the first send to the last reply.
    """
    cursor = Cursor(traffic)
    samples: List[Sample] = []
    errors: List[BaseException] = []
    lock = threading.Lock()
    started = time.perf_counter()
    deadline = started + seconds

    def client() -> None:
        local: List[Sample] = []
        try:
            while True:
                line = cursor.next()
                if line is None:
                    break
                try:
                    latency, response = roundtrip(submit_json, line)
                except TimeoutError:
                    local.append((line, None, None))
                else:
                    answer = answer_of(response) if response.ok else None
                    local.append((line, latency, answer))
                if time.perf_counter() >= deadline:
                    break
        except BaseException as exc:
            errors.append(exc)
        with lock:
            samples.extend(local)

    threads = [
        threading.Thread(target=client, name=f"client-{k}")
        for k in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    if errors:
        raise errors[0]
    return samples, wall


def count_failed(samples: Iterable[Sample], golden: Golden) -> int:
    """Non-ok replies, client timeouts and golden mismatches."""
    return sum(
        answer is None or answer != golden(line)
        for line, _, answer in samples
    )


def child_pids() -> set:
    """Pids of this process's direct children, read from ``/proc``."""
    me = os.getpid()
    out = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as fh:
                stat = fh.read()
        except OSError:
            continue  # exited while we listed
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            out.add(int(entry))
    return out


def peak_rss_mib(pids: Iterable[int]) -> float:
    """``VmHWM`` summed over ``pids``, in MiB."""
    kib = 0
    for pid in pids:
        with open(f"/proc/{pid}/status", encoding="utf-8") as fh:
            for row in fh:
                if row.startswith("VmHWM:"):
                    kib += int(row.split()[1])
    return kib / 1024


def metric(value: float, unit: str, count: int) -> dict:
    return {"value": value, "unit": unit, "count": count}


def run(
    traffic: Traffic,
    seconds: float,
    fabrics: Fabrics,
    golden: Golden,
    starts: int = SETUP_STARTS,
) -> dict:
    """One untraced run; returns metrics, attempted and failed."""
    setup = []
    for k in range(starts):
        before = child_pids()
        router, took = fabrics.start(traffic.warmup)
        setup.append(took)
        if k + 1 < starts:
            fabrics.close_later(router)
    nodes = child_pids() - before
    try:
        samples, wall = closed_loop(
            router.submit_json, traffic, seconds, CLIENTS
        )
        rss = peak_rss_mib(nodes)
    finally:
        fabrics.close_later(router)
    failed = count_failed(samples, golden)
    latencies = [s * 1e3 for _, s, _ in samples if s is not None]
    p50, p90, p99 = percentiles(latencies)
    ok = len(samples) - failed
    n = len(latencies)
    return {
        "metrics": {
            "throughput_rps": metric(ok / wall, "req/s", ok),
            "latency_p50_ms": metric(p50, "ms", n),
            "latency_p90_ms": metric(p90, "ms", n),
            "latency_p99_ms": metric(p99, "ms", n),
            "setup_s": metric(statistics.median(setup), "s", starts),
            "peak_rss_mb": metric(rss, "MiB", len(nodes)),
            "failed_share": metric(
                failed / len(samples), "fraction", len(samples)
            ),
        },
        "attempted": len(samples),
        "failed": failed,
    }


def percentiles(values: List[float]) -> Tuple[float, float, float]:
    """p50, p90 and p99 (inclusive interpolation)."""
    if len(values) < 2:
        values = values * 2
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[49], cuts[89], cuts[98]
