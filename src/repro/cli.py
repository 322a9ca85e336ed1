"""Command-line interface: drive the flow without writing Python.

Examples
--------
::

    python -m repro list
    python -m repro info DENOISE
    python -m repro compile DENOISE --streams 2 --show rtl
    python -m repro report table4
    python -m repro report fig15
    python -m repro simulate DENOISE --grid 24x32
    python -m repro submit DENOISE --grid 24x32 --count 8
    echo '{"proto": 1, "benchmark": "SOBEL", "grid": [10, 12]}' \
        | python -m repro serve
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import json
import os
import queue
import sys
import threading
import time
from typing import Optional, Sequence

from .flow.automation import compile_accelerator
from .flow.report import (
    fig5_report,
    fig15_report,
    format_table,
    table2_report,
    table4_report,
    table5_report,
)
from .stencil.kernels import (
    DENOISE,
    PAPER_BENCHMARKS,
    SEGMENTATION_3D,
    get_benchmark,
)


def _parse_grid(text: str) -> tuple:
    try:
        parts = tuple(int(p) for p in text.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"grid must look like 24x32, got {text!r}"
        )
    if not parts or any(p <= 0 for p in parts):
        raise argparse.ArgumentTypeError("grid extents must be positive")
    return parts


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    """Observability flags shared by the heavyweight subcommands."""
    group = parser.add_argument_group("observability")
    group.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help=(
            "write a span trace: Chrome trace_event JSON "
            "(chrome://tracing / Perfetto), or JSONL if FILE ends "
            "in .jsonl"
        ),
    )
    group.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help=(
            "write collected metrics: Prometheus text, or a JSON "
            "snapshot if FILE ends in .json"
        ),
    )
    group.add_argument(
        "--profile",
        action="store_true",
        help="print a hot-path span summary after the command",
    )


@contextlib.contextmanager
def _obs_session(args):
    """Install tracer/registry for one command, export on the way out.

    Yields ``(tracer, registry)`` when any observability flag is set,
    else ``(None, None)`` — commands use the registry presence to
    decide whether to attach a simulator probe.
    """
    from .obs import (
        MetricsRegistry,
        Tracer,
        install_metrics,
        install_tracer,
        uninstall_metrics,
        uninstall_tracer,
    )

    if not (args.trace_out or args.metrics_out or args.profile):
        yield None, None
        return
    tracer = install_tracer(
        Tracer(name=f"{getattr(args, 'command', 'cli')}-{os.getpid()}")
    )
    registry = install_metrics(MetricsRegistry())
    try:
        yield tracer, registry
    finally:
        uninstall_tracer()
        uninstall_metrics()
        if args.trace_out:
            if args.trace_out.endswith(".jsonl"):
                n = tracer.export_jsonl(args.trace_out)
            else:
                n = tracer.export_chrome(args.trace_out)
            # Status notices go to stderr: serve's stdout is a pure
            # JSONL response stream that clients parse line by line.
            print(f"wrote {args.trace_out} ({n} spans)", file=sys.stderr)
        if args.metrics_out:
            if args.metrics_out.endswith(".json"):
                registry.export_json(args.metrics_out)
            else:
                registry.export_prometheus(args.metrics_out)
            print(f"wrote {args.metrics_out}", file=sys.stderr)
        if args.profile:
            from .obs.report import format_summary, summarize_tracer

            print()
            print("hot paths (per span name):")
            print(format_summary(summarize_tracer(tracer)))


def cmd_list(_args) -> int:
    rows = [
        {
            "benchmark": spec.name,
            "dim": spec.dim,
            "window_points": spec.n_points,
            "grid": "x".join(str(g) for g in spec.grid),
            "min_banks": spec.n_points - 1,
        }
        for spec in PAPER_BENCHMARKS
    ]
    print(format_table(rows))
    return 0


def cmd_info(args) -> int:
    spec = get_benchmark(args.benchmark)
    analysis = spec.analysis()
    print(spec)
    print(f"window offsets (filter order): {analysis.offsets()}")
    print(f"reuse FIFO capacities: {analysis.fifo_capacities()}")
    print(
        f"minimum total buffer: {analysis.minimum_total_buffer()} "
        "elements"
    )
    print(f"minimum banks: {analysis.minimum_banks()}")
    return 0


def cmd_compile(args) -> int:
    spec = get_benchmark(args.benchmark)
    if args.grid:
        spec = spec.with_grid(args.grid)
    with _obs_session(args):
        design = compile_accelerator(
            spec, offchip_streams=args.streams
        )
    print(design.memory_system.describe())
    print()
    summary = design.summary()
    for key, value in summary.items():
        print(f"  {key}: {value}")
    if args.show == "kernel":
        print()
        print(design.transformed.kernel_source)
    elif args.show == "original":
        print()
        print(design.transformed.original_source)
    elif args.show == "rtl":
        print()
        print(design.rtl)
    elif args.show == "primitives":
        from .hls.primitives import generate_primitives_library

        print()
        print(generate_primitives_library())
    elif args.show == "table2":
        print()
        print(format_table(design.memory_system.table2_rows()))
    return 0


def cmd_report(args) -> int:
    kind = args.artifact
    if kind == "table2":
        print(format_table(table2_report(DENOISE)))
    elif kind == "table4":
        print(format_table(table4_report(PAPER_BENCHMARKS)))
    elif kind == "table5":
        print(format_table(table5_report(PAPER_BENCHMARKS)))
    elif kind == "fig5":
        print(
            format_table(fig5_report(DENOISE, range(1016, 1033)))
        )
    elif kind == "fig15":
        print(format_table(fig15_report(SEGMENTATION_3D)))
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(kind)
    return 0


def cmd_explore(args) -> int:
    from .flow.explore import explore

    spec = get_benchmark(args.benchmark)
    with _obs_session(args):
        result = explore(
            spec,
            bram_budget=args.bram,
            bandwidth_budget=args.bandwidth,
        )
    print(f"design-space exploration for {spec.name}:")
    print(
        format_table([p.as_row() for p in result.candidates])
    )
    print()
    print("Pareto frontier (BRAM vs off-chip traffic):")
    print(format_table([p.as_row() for p in result.pareto]))
    print()
    if result.best is None:
        print(
            f"no design fits {args.bram} BRAM18 at "
            f"{args.bandwidth} access(es)/cycle"
        )
        return 1
    print(
        f"best within {args.bram} BRAM18 and {args.bandwidth} "
        f"access(es)/cycle: {result.best.label}"
    )
    return 0


def cmd_datasheet(args) -> int:
    from .flow.docgen import generate_design_report

    spec = get_benchmark(args.benchmark)
    if args.grid:
        spec = spec.with_grid(args.grid)
    design = compile_accelerator(spec, offchip_streams=args.streams)
    report = generate_design_report(design)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(report)
        print(f"wrote {args.output}")
    else:
        print(report)
    return 0


def cmd_simulate(args) -> int:
    import numpy as np

    from .microarch.memory_system import build_memory_system
    from .microarch.tradeoff import with_offchip_streams
    from .sim.engine import ChainSimulator
    from .stencil.golden import golden_output_sequence, make_input

    spec = get_benchmark(args.benchmark)
    if args.grid:
        spec = spec.with_grid(args.grid)
    grid = make_input(spec, seed=args.seed)
    with _obs_session(args) as (_, registry):
        system = build_memory_system(spec.analysis())
        if args.streams > 1:
            system = with_offchip_streams(system, args.streams)
        probe = None
        if registry is not None:
            from .obs import MetricsProbe

            probe = MetricsProbe(registry=registry)
        result = ChainSimulator(spec, system, grid, probe=probe).run()
    golden = golden_output_sequence(spec, grid)
    matches = np.allclose(result.output_values(), golden)
    print(f"simulated {spec}")
    print(
        f"  cycles: {result.stats.total_cycles}, outputs: "
        f"{result.stats.outputs_produced}"
    )
    print(
        f"  first output at cycle {result.stats.first_output_cycle}, "
        f"worst output gap {result.stats.worst_output_gap}"
    )
    print(f"  golden match: {'yes' if matches else 'NO'}")
    return 0 if matches else 1


def _service_config(args):
    from .service import ChaosConfig, ServiceConfig

    chaos = None
    if (
        getattr(args, "chaos_rate", 0.0)
        or getattr(args, "chaos_hang_rate", 0.0)
        or getattr(args, "chaos_slow_rate", 0.0)
    ):
        chaos = ChaosConfig(
            seed=args.chaos_seed,
            kill_rate=args.chaos_rate,
            hang_rate=args.chaos_hang_rate,
            slow_rate=args.chaos_slow_rate,
        )
    return ServiceConfig(
        workers=args.workers,
        max_queue=args.queue,
        max_batch=args.max_batch,
        validate_every=args.validate_every,
        cache_dir=args.cache_dir,
        worker_mode=args.worker_mode,
        backend=getattr(args, "backend", "interpreted"),
        converter=getattr(args, "converter", "numpy"),
        hang_timeout_s=args.hang_timeout,
        chaos=chaos,
    )


def _add_service_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("service")
    group.add_argument(
        "--workers", type=int, default=4,
        help="executor workers (default 4)",
    )
    group.add_argument(
        "--worker-mode", choices=["thread", "process"],
        default="thread",
        help=(
            "thread workers in-process, or a crash-isolated "
            "fingerprint-sharded multiprocessing pool with supervised "
            "restarts and circuit breaking (default thread)"
        ),
    )
    group.add_argument(
        # Validated by ServiceConfig (not argparse choices) so an
        # unknown backend exits with the CLI's one-line error contract.
        "--backend", default="interpreted", metavar="NAME",
        help=(
            "execution backend: 'interpreted' runs the paper-exact "
            "golden reference per request; 'compiled' lowers each plan "
            "to a batched vectorized kernel (bufferize -> convert) and "
            "falls back to interpreted where lowering is unsupported "
            "(default interpreted)"
        ),
    )
    group.add_argument(
        # Validated by ServiceConfig, like --backend.
        "--converter", default="numpy", metavar="NAME",
        help=(
            "kernel converter under --backend compiled: 'numpy' "
            "(vectorized replay) or 'c' (cffi-built generated C, "
            "degrading to numpy when no C toolchain is available; "
            "default numpy)"
        ),
    )
    group.add_argument(
        "--queue", type=int, default=256,
        help="bounded admission queue size (default 256)",
    )
    group.add_argument(
        "--max-batch", type=int, default=16,
        help="max requests one worker drains per round (default 16)",
    )
    group.add_argument(
        "--validate-every", type=int, default=0, metavar="N",
        help=(
            "cycle-sim-validate ~1 in N executions against the cached "
            "plan, biased toward fresh plans (0 disables the canary)"
        ),
    )
    group.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persist compiled plans as JSON under DIR",
    )
    group.add_argument(
        "--hang-timeout", type=float, default=60.0, metavar="S",
        help=(
            "kill and respawn a process worker that stays silent this "
            "long past every in-flight deadline (default 60)"
        ),
    )
    chaos = parser.add_argument_group(
        "chaos (fault injection; requires --worker-mode process)"
    )
    chaos.add_argument(
        "--chaos-seed", type=int, default=2014,
        help="deterministic fault-injection seed (default 2014)",
    )
    chaos.add_argument(
        "--chaos-rate", type=float, default=0.0, metavar="P",
        help="kill the executing worker on fraction P of attempts",
    )
    chaos.add_argument(
        "--chaos-hang-rate", type=float, default=0.0, metavar="P",
        help="hang the executing worker on fraction P of attempts",
    )
    chaos.add_argument(
        "--chaos-slow-rate", type=float, default=0.0, metavar="P",
        help="slow the executing worker on fraction P of attempts",
    )


def _submit_requests(args) -> list:
    """Build the wire dicts for ``repro submit``, validating workload
    shapes client-side so a malformed workload (cyclic graph, steps < 1,
    dangling edge, bad JSON) exits rc 2 with a one-line error before
    any workers spin up.  WorkloadError subclasses ValueError, so it
    rides the CLI's standard error contract."""
    from .service.workload import Workload

    workload = None
    if getattr(args, "workload", None):
        if args.benchmark:
            raise ValueError(
                "--workload replaces the benchmark arguments; "
                "pass one or the other"
            )
        try:
            data = json.loads(args.workload)
        except ValueError as exc:
            raise ValueError(f"--workload is not valid JSON: {exc}")
        if not isinstance(data, dict):
            raise ValueError("--workload must be a JSON object")
        workload = Workload.from_json(data)
    elif not args.benchmark:
        raise ValueError("pass at least one benchmark name or --workload")
    else:
        for name in args.benchmark:
            get_benchmark(name)  # fail fast on typos, before any workers

    requests = []

    def finish(request: dict) -> None:
        if args.grid:
            request["grid"] = list(args.grid)
        if args.streams != 1:
            request["streams"] = args.streams
        requests.append(request)

    if workload is not None:
        for k in range(args.count):
            finish({
                "proto": 2,
                "workload": workload.to_json(),
                "seed": args.seed + k,
            })
        return requests
    steps = getattr(args, "steps", 1)
    for name in args.benchmark:
        for k in range(args.count):
            if steps != 1:
                # Validates steps >= 1 (WorkloadError -> rc 2).
                iterate = Workload.iterate(benchmark=name, steps=steps)
                finish({
                    "proto": 2,
                    "workload": iterate.to_json(),
                    "seed": args.seed + k,
                })
            else:
                finish({
                    "proto": 1,
                    "benchmark": name,
                    "seed": args.seed + k,
                })
    return requests


def cmd_submit(args) -> int:
    """One-shot client: spin a service, submit, print responses.

    ``circuit_open`` responses carry a ``retry_after_s`` hint (the
    breaker cooldown remaining); with ``--client-retries`` the client
    honors it — sleeps that long and resubmits — before giving up.
    """
    from .service import StencilService

    wire_requests = _submit_requests(args)
    with _obs_session(args):
        service = StencilService(_service_config(args)).start()
        slots = []
        for request in wire_requests:
            slots.append((request, service.submit(request)))
        failures = 0
        for request, slot in slots:
            response = slot.result()
            retries = args.client_retries
            while response.status == "circuit_open" and retries > 0:
                delay = response.retry_after_s or 0.05
                time.sleep(min(delay, args.client_retry_cap))
                retries -= 1
                response = service.handle(request)
            print(json.dumps(response.to_json(), sort_keys=True))
            if not response.ok:
                failures += 1
        service.shutdown(drain=True)
    return 0 if failures == 0 else 1


def _stream_jsonl(submit_line, lines) -> None:
    """Shared serve/route loop: submit each request line, stream the
    responses back in submission order as they resolve.

    A writer thread blocks on the oldest unanswered slot, so a
    long-running head request delays (but never drops) the responses
    behind it, and every response is flushed the moment it is ready —
    a client that keeps writing requests while it reads replies sees
    each one as soon as it resolves.
    """
    slots: "queue.Queue" = queue.Queue()
    done = object()

    def writer() -> None:
        while True:
            slot = slots.get()
            if slot is done:
                return
            print(
                json.dumps(slot.result().to_json(), sort_keys=True),
                flush=True,
            )

    thread = threading.Thread(target=writer, daemon=True)
    thread.start()
    for line in lines:
        line = line.strip()
        if not line:
            continue
        slots.put(submit_line(line))
    slots.put(done)
    thread.join()


def cmd_serve(args) -> int:
    """JSONL server: one request per stdin line, one response per
    stdout line (submission order, streamed as results resolve),
    graceful drain on EOF.  With ``--listen`` the data plane moves to
    a TCP socket (handshaken proto:1 JSONL); stdout carries a single
    ``{"listening": "host:port"}`` announcement and stdin keeps its
    lifecycle role — EOF still means drain-and-exit.  The router
    spawns every node this way."""
    from .service import StencilService

    with _obs_session(args):
        service = StencilService(_service_config(args)).start()
        if getattr(args, "listen", None):
            return _serve_listen(args, service)
        print(
            f"repro service: {args.workers} workers, queue "
            f"{args.queue}, reading JSONL requests from stdin",
            file=sys.stderr,
        )
        _stream_jsonl(service.submit_json, sys.stdin)
        drained = service.shutdown(drain=True)
        print(
            f"drained: {drained}, cache "
            f"{service.cache.stats.hits} hits / "
            f"{service.cache.stats.misses} misses",
            file=sys.stderr,
        )
    return 0


def _serve_listen(args, service) -> int:
    """The ``repro serve --listen`` body (service already started)."""
    from .service.transport import (
        SocketChaos,
        SocketServer,
        parse_address,
    )

    host, port = parse_address(args.listen)
    chaos = None
    if (
        args.sock_kill_rate
        or args.sock_half_open_rate
        or args.sock_trickle_rate
    ):
        chaos = SocketChaos(
            seed=args.chaos_seed,
            conn_kill_rate=args.sock_kill_rate,
            half_open_rate=args.sock_half_open_rate,
            trickle_rate=args.sock_trickle_rate,
        )
    server = SocketServer(
        service,
        host=host,
        port=port,
        backends=(getattr(args, "backend", "interpreted"),),
        registry=service.metrics,
        chaos=chaos,
    )
    bound_host, bound_port = server.start()
    # The one stdout line: where we actually bound (port 0 resolves
    # here).  Parsed by the router and by shell scripts alike.
    print(
        json.dumps({"listening": f"{bound_host}:{bound_port}"}),
        flush=True,
    )
    print(
        f"repro service: {args.workers} workers, queue {args.queue}, "
        f"serving proto:1 JSONL on {bound_host}:{bound_port}",
        file=sys.stderr,
    )
    # Lifecycle stays on stdin: block until the supervisor closes it.
    for _ in sys.stdin:
        pass
    # Graceful drain: no new connections, then every admitted request
    # resolves — writing its reply — before the connections close.
    # Requests still arriving meanwhile get a ``draining`` rejection.
    server.stop_accepting()
    drained = service.shutdown(drain=True)
    server.stop()
    print(
        f"drained: {drained}, cache "
        f"{service.cache.stats.hits} hits / "
        f"{service.cache.stats.misses} misses",
        file=sys.stderr,
    )
    return 0


def cmd_route(args) -> int:
    """Multi-node JSONL front end: rendezvous-hash each request's
    plan fingerprint onto one of N ``repro serve --listen`` nodes,
    reached over localhost TCP, with failover to the next node in
    rendezvous order when a node's connection is lost."""
    from .service.router import NodeConfig, Router, RouterConfig

    extra = []
    for flag, value in (
        ("--chaos-seed", args.chaos_seed),
        ("--chaos-rate", args.chaos_rate),
        ("--chaos-hang-rate", args.chaos_hang_rate),
        ("--chaos-slow-rate", args.chaos_slow_rate),
    ):
        if flag == "--chaos-seed" and not (
            args.chaos_rate or args.chaos_hang_rate
            or args.chaos_slow_rate
        ):
            continue  # only forward the seed with an active fault rate
        if value:
            extra += [flag, str(value)]
    remotes = tuple(getattr(args, "connect", None) or ())
    node = NodeConfig(
        workers=args.workers,
        queue=args.queue,
        max_batch=args.max_batch,
        worker_mode=args.worker_mode,
        backend=args.backend,
        converter=args.converter,
        validate_every=args.validate_every,
        cache_dir=args.cache_dir,
        hang_timeout_s=args.hang_timeout,
        extra_args=tuple(extra),
    )
    config = RouterConfig(
        nodes=len(remotes) or args.nodes,
        node=node,
        max_retries=args.router_retries,
        failover_grace_s=args.failover_grace,
        node_metrics_dir=args.node_metrics_dir,
        trace_dir=args.trace_dir,
        chaos_seed=args.chaos_seed,
        node_kill_rate=args.node_kill_rate,
        conn_kill_rate=getattr(args, "conn_kill_rate", 0.0),
        remotes=remotes,
    )
    with _obs_session(args) as (session_tracer, _):
        own_tracer = None
        if args.trace_dir and session_tracer is None:
            # Distributed tracing without the single-process obs flags:
            # the router needs its own tracer so its spans land next to
            # the per-node files the stitcher will merge.
            from .obs import Tracer, install_tracer

            own_tracer = install_tracer(Tracer(name="router"))
        router = Router(config).start()
        print(
            f"repro router: {args.nodes} nodes x {args.workers} "
            "workers, reading JSONL requests from stdin",
            file=sys.stderr,
        )
        _stream_jsonl(router.submit_json, sys.stdin)
        if args.fabric_snapshot:
            # Collected over the live node connections, so it must
            # happen before close() tears the fabric down.
            with open(args.fabric_snapshot, "w", encoding="utf-8") as fh:
                json.dump(router.fabric_snapshot(), fh, sort_keys=True)
            print(
                f"wrote {args.fabric_snapshot}", file=sys.stderr
            )
        clean = router.close()
        tracer = session_tracer or own_tracer
        if args.trace_dir and tracer is not None:
            path = os.path.join(args.trace_dir, "router.jsonl")
            n = tracer.export_jsonl(path)
            print(f"wrote {path} ({n} spans)", file=sys.stderr)
        if own_tracer is not None:
            from .obs import uninstall_tracer

            uninstall_tracer()
        counters = router.metrics.snapshot()["counters"]
        failovers = sum(
            v for k, v in counters.items()
            if k.startswith("router_failovers_total")
        )
        restarts = sum(
            v for k, v in counters.items()
            if k.startswith("router_node_restarts_total")
        )
        print(
            f"clean shutdown: {clean}, failovers: {int(failovers)}, "
            f"node restarts: {int(restarts)}",
            file=sys.stderr,
        )
    return 0 if clean else 1


def cmd_trace(args) -> int:
    """Stitch a fabric run's per-process traces and print one
    request's cross-process timeline, critical path and stage
    coverage."""
    from .obs.stitch import (
        critical_path,
        events_for_trace,
        format_timeline,
        stage_coverage,
        stitch_traces,
        trace_ids,
    )

    paths = sorted(glob.glob(os.path.join(args.trace_dir, "*.jsonl")))
    if not paths:
        print(
            f"error: no .jsonl trace files in {args.trace_dir}",
            file=sys.stderr,
        )
        return 2
    try:
        document = stitch_traces(paths)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(document, fh)
        print(
            f"wrote {args.out} "
            f"({len(document['traceEvents'])} events)",
            file=sys.stderr,
        )
    process_names = {
        e["pid"]: e["args"]["name"]
        for e in document["traceEvents"]
        if e.get("ph") == "M"
    }
    counts = trace_ids(document)
    if not counts:
        print("error: stitched trace contains no spans with a "
              "trace_id", file=sys.stderr)
        return 1

    def request_of(trace_id: str):
        for event in events_for_trace(document, trace_id):
            request = event["args"].get("request")
            if request is not None:
                return request
        return None

    if args.request_id:
        target = next(
            (
                tid
                for tid in counts
                if any(
                    e["args"].get("request") == args.request_id
                    for e in events_for_trace(document, tid)
                )
            ),
            None,
        )
        if target is None:
            known = sorted(
                str(request_of(tid)) for tid in counts
            )
            print(
                f"error: no trace for request {args.request_id!r} "
                f"(known requests: {', '.join(known)})",
                file=sys.stderr,
            )
            return 1
    elif len(counts) == 1:
        target = next(iter(counts))
    else:
        print(f"{len(counts)} traces in {args.trace_dir}; pick a "
              "request id:")
        for tid, n in sorted(counts.items()):
            print(f"  {request_of(tid)}  trace={tid}  spans={n}")
        return 0

    events = events_for_trace(document, target)
    pids = sorted({e["pid"] for e in events})
    print(
        f"trace {target}: {len(events)} spans across "
        f"{len(pids)} processes"
    )
    print()
    print(format_timeline(events, process_names))
    coverage = stage_coverage(document, target)
    if coverage is not None:
        print()
        print(f"stage coverage: {100.0 * coverage:.1f}% of the root "
              "span's wall-clock attributed to named stages")
    path_events = critical_path(document, target)
    if path_events:
        print()
        print("critical path:")
        for event in path_events:
            process = process_names.get(
                event["pid"], f"pid-{event['pid']}"
            )
            print(
                f"  {event['name']} ({process}) "
                f"{event['dur'] / 1e3:.3f} ms"
            )
    return 0


def cmd_top(args) -> int:
    """Aggregate fabric metrics snapshots into one summary table."""
    from .obs.report import format_fabric_summary

    parts = []
    node_status = {}
    for path in args.snapshot:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except ValueError as exc:
            print(f"error: {path}: not valid JSON ({exc})",
                  file=sys.stderr)
            return 2
        if not isinstance(data, dict):
            print(f"error: {path}: not a metrics snapshot",
                  file=sys.stderr)
            return 2
        if "router" in data and "nodes" in data:
            # A `repro route --fabric-snapshot` document.
            parts.append(("router", data["router"]))
            statuses = data.get("node_status") or {}
            for idx in sorted(data["nodes"], key=str):
                label = f"node-{idx}"
                parts.append((label, data["nodes"][idx]))
                if str(idx) in statuses:
                    node_status[label] = statuses[str(idx)]
        elif "counters" in data or "histograms" in data:
            label = os.path.splitext(os.path.basename(path))[0]
            parts.append((label, data))
        else:
            print(f"error: {path}: not a metrics snapshot",
                  file=sys.stderr)
            return 2
    try:
        print(format_fabric_summary(parts, node_status))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Non-uniform reuse-buffer partitioning for stencil "
            "accelerators (DAC'14 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the paper benchmarks").set_defaults(
        func=cmd_list
    )

    p_info = sub.add_parser("info", help="analysis summary of one benchmark")
    p_info.add_argument("benchmark")
    p_info.set_defaults(func=cmd_info)

    p_compile = sub.add_parser(
        "compile", help="run the full Fig 11 flow on one benchmark"
    )
    p_compile.add_argument("benchmark")
    p_compile.add_argument(
        "--streams", type=int, default=1,
        help="off-chip accesses per cycle (chain breaking)",
    )
    p_compile.add_argument(
        "--grid", type=_parse_grid, default=None,
        help="override the grid, e.g. 24x32",
    )
    p_compile.add_argument(
        "--show",
        choices=[
            "none", "kernel", "original", "rtl", "primitives", "table2"
        ],
        default="none",
        help="print a generated artifact",
    )
    _add_obs_flags(p_compile)
    p_compile.set_defaults(func=cmd_compile)

    p_report = sub.add_parser(
        "report", help="regenerate one paper table/figure"
    )
    p_report.add_argument(
        "artifact",
        choices=["table2", "table4", "table5", "fig5", "fig15"],
    )
    p_report.set_defaults(func=cmd_report)

    p_explore = sub.add_parser(
        "explore",
        help="capacity-driven design-space exploration",
    )
    p_explore.add_argument("benchmark")
    p_explore.add_argument(
        "--bram", type=int, default=8,
        help="BRAM18 budget for the memory system",
    )
    p_explore.add_argument(
        "--bandwidth", type=int, default=1,
        help="off-chip accesses per cycle available",
    )
    _add_obs_flags(p_explore)
    p_explore.set_defaults(func=cmd_explore)

    p_doc = sub.add_parser(
        "datasheet", help="generate a markdown design report"
    )
    p_doc.add_argument("benchmark")
    p_doc.add_argument("--grid", type=_parse_grid, default=None)
    p_doc.add_argument("--streams", type=int, default=1)
    p_doc.add_argument("--output", default=None)
    p_doc.set_defaults(func=cmd_datasheet)

    p_sim = sub.add_parser(
        "simulate", help="cycle-simulate a benchmark vs golden"
    )
    p_sim.add_argument("benchmark")
    p_sim.add_argument("--grid", type=_parse_grid, default=None)
    p_sim.add_argument("--streams", type=int, default=1)
    p_sim.add_argument("--seed", type=int, default=2014)
    _add_obs_flags(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_submit = sub.add_parser(
        "submit",
        help="submit benchmark requests to an in-process service",
    )
    p_submit.add_argument(
        "benchmark", nargs="*",
        help=(
            "one or more benchmark names (repeated --count times "
            "each); omit when submitting a raw --workload object"
        ),
    )
    p_submit.add_argument(
        "--count", type=int, default=1,
        help="submissions per benchmark (distinct seeds)",
    )
    p_submit.add_argument(
        "--steps", type=int, default=1, metavar="T",
        help=(
            "run each benchmark as a proto:2 iterate(T) workload — T "
            "chained applications of the kernel with intermediates "
            "kept server-side (default 1 = classic single request)"
        ),
    )
    p_submit.add_argument(
        "--workload", default=None, metavar="JSON",
        help=(
            "submit one proto:2 workload object (kind single/iterate/"
            "graph), validated client-side; replaces the benchmark "
            "arguments"
        ),
    )
    p_submit.add_argument("--grid", type=_parse_grid, default=None)
    p_submit.add_argument("--streams", type=int, default=1)
    p_submit.add_argument("--seed", type=int, default=2014)
    p_submit.add_argument(
        "--client-retries", type=int, default=0, metavar="N",
        help=(
            "resubmit a circuit_open response up to N times, sleeping "
            "its retry_after_s breaker hint between tries (default 0)"
        ),
    )
    p_submit.add_argument(
        "--client-retry-cap", type=float, default=5.0, metavar="S",
        help="longest the client will sleep on one breaker hint",
    )
    _add_service_flags(p_submit)
    _add_obs_flags(p_submit)
    p_submit.set_defaults(func=cmd_submit)

    p_serve = sub.add_parser(
        "serve",
        help="run the stencil service over JSONL stdin/stdout",
    )
    listen_group = p_serve.add_argument_group("socket transport")
    listen_group.add_argument(
        "--listen", default=None, metavar="HOST:PORT",
        help=(
            "serve proto:1 JSONL over TCP instead of stdout: bind "
            "HOST:PORT (port 0 = ephemeral), print one "
            '{"listening": "host:port"} line on stdout, then answer '
            "socket clients after a connect-time handshake; stdin "
            "EOF still triggers the graceful drain"
        ),
    )
    listen_group.add_argument(
        "--sock-kill-rate", type=float, default=0.0, metavar="P",
        help=(
            "socket chaos (needs --listen): abruptly close the "
            "client's connection instead of writing a response, on "
            "fraction P of responses (seeded by --chaos-seed)"
        ),
    )
    listen_group.add_argument(
        "--sock-half-open-rate", type=float, default=0.0, metavar="P",
        help=(
            "socket chaos (needs --listen): go half-open — swallow "
            "this and all later responses while keeping the socket "
            "up — on fraction P of responses"
        ),
    )
    listen_group.add_argument(
        "--sock-trickle-rate", type=float, default=0.0, metavar="P",
        help=(
            "socket chaos (needs --listen): trickle the response out "
            "a few bytes at a time on fraction P of responses"
        ),
    )
    _add_service_flags(p_serve)
    _add_obs_flags(p_serve)
    p_serve.set_defaults(func=cmd_serve)

    p_route = sub.add_parser(
        "route",
        help=(
            "run the multi-node fingerprint router over JSONL "
            "stdin/stdout (N repro-serve nodes reached over TCP)"
        ),
    )
    router_group = p_route.add_argument_group("router")
    router_group.add_argument(
        "--nodes", type=int, default=2,
        help="service-node subprocesses to spawn (default 2)",
    )
    router_group.add_argument(
        "--router-retries", type=int, default=2, metavar="N",
        help="failover budget per request (default 2)",
    )
    router_group.add_argument(
        "--failover-grace", type=float, default=2.0, metavar="S",
        help=(
            "break the link to a node that is silent this long past "
            "an in-flight deadline (wedge detection, default 2)"
        ),
    )
    router_group.add_argument(
        "--node-metrics-dir", default=None, metavar="DIR",
        help=(
            "each node exports node-N.json metrics here on graceful "
            "shutdown"
        ),
    )
    router_group.add_argument(
        "--node-kill-rate", type=float, default=0.0, metavar="P",
        help=(
            "whole-node chaos: kill the owning node right after "
            "dispatch on fraction P of attempts (seeded by "
            "--chaos-seed)"
        ),
    )
    router_group.add_argument(
        "--connect", action="append", default=None, metavar="ADDR",
        dest="connect",
        help=(
            "connect to an already-running `repro serve --listen` "
            "endpoint (host:port) instead of spawning nodes; repeat "
            "for more nodes — overrides --nodes"
        ),
    )
    router_group.add_argument(
        "--conn-kill-rate", type=float, default=0.0, metavar="P",
        help=(
            "connection chaos: sever the owning node's socket right "
            "after dispatch on fraction P of attempts (seeded by "
            "--chaos-seed)"
        ),
    )
    router_group.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help=(
            "distributed tracing: router and every node export JSONL "
            "span files here; stitch them with `repro trace`"
        ),
    )
    router_group.add_argument(
        "--fabric-snapshot", default=None, metavar="FILE",
        help=(
            "collect every node's metrics over the live node "
            "connections on shutdown and write the aggregated fabric "
            "snapshot as JSON (input for `repro top`)"
        ),
    )
    _add_service_flags(p_route)
    _add_obs_flags(p_route)
    p_route.set_defaults(func=cmd_route)

    p_trace = sub.add_parser(
        "trace",
        help=(
            "stitch a fabric run's per-process JSONL traces and print "
            "one request's cross-process timeline and critical path"
        ),
    )
    p_trace.add_argument(
        "request_id", nargs="?", default=None,
        help=(
            "client request id to inspect (omit to auto-pick when the "
            "run had one request, or to list the traces)"
        ),
    )
    p_trace.add_argument(
        "--trace-dir", required=True, metavar="DIR",
        help="directory of JSONL traces from `repro route --trace-dir`",
    )
    p_trace.add_argument(
        "--out", default=None, metavar="FILE",
        help=(
            "also write the stitched Chrome trace_event JSON "
            "(chrome://tracing / Perfetto)"
        ),
    )
    p_trace.set_defaults(func=cmd_trace)

    p_top = sub.add_parser(
        "top",
        help=(
            "aggregate fabric metrics snapshots: per-node health, "
            "cache hit rates, stage latency percentiles, slowest "
            "requests"
        ),
    )
    p_top.add_argument(
        "snapshot", nargs="+",
        help=(
            "JSON metrics files: `repro route --fabric-snapshot` "
            "documents and/or plain --metrics-out .json snapshots"
        ),
    )
    p_top.set_defaults(func=cmd_top)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KeyError as exc:
        # e.g. an unknown benchmark name: print the message, not a
        # traceback (KeyError's str() wraps its argument in repr quotes).
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
