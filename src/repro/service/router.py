"""Multi-node fingerprint router over service-node subprocesses.

:class:`Router` is the front end of a small cluster: it owns the
client-facing JSONL surface, spawns N *service nodes* (each one a
``repro serve --listen 127.0.0.1:0`` subprocess) and places every
request on one node by **rendezvous hashing** its plan fingerprint.
There is one data plane: the router reaches every node — spawned or
``remotes`` — over a handshaken TCP connection
(:mod:`repro.service.transport`: reconnect with backoff, heartbeats)
carrying the :mod:`repro.service.proto` JSONL protocol.  A spawned
node's stdin/stdout carry lifecycle only: one ``{"listening": ...}``
announcement, and stdin EOF for the graceful drain.

* the fingerprint is computed *at the router* from the parsed
  request, so placement needs no node round trip;
* :func:`rendezvous_order` ranks all nodes by a per-(fingerprint,
  node) hash — each fingerprint has one deterministic *home* node and
  a deterministic failover order, and adding/removing a node only
  moves the fingerprints that hashed to it (minimal ownership churn);
* an **in-flight owner table** pins a *cold* fingerprint to the node
  currently serving it, which makes single-flight *global*:
  concurrent identical requests all land on the owning node, whose
  plan-cache single-flight collapses them into one compile;
* once any node has answered a fingerprint ``ok`` it is **warm**
  (remembered in a bounded LRU set, :data:`WARM_FINGERPRINTS`) and
  its requests go to the ready node with the fewest router-side
  in-flight requests, ties broken by rendezvous order — an idle fabric
  still sends everything home, a busy home *spills* to its siblings.
  Each decision is counted on ``router_placement_total{reason=...}``
  (``pinned``, ``home``, ``spill`` or ``failover``).

Failure handling keeps the service invariant — *nothing is dropped
without a response*:

* a node whose connection is **lost** mid-request (process crash,
  chaos kill, severed socket) fails the requests written into that
  connection over to the next ready node in rendezvous order, within
  each request's retry/deadline budget;
* a node that **wedges** (silent past every in-flight deadline plus a
  grace period, or past its heartbeat timeout) has its link broken and
  is treated the same way;
* a supervisor thread reconnects lost links with backoff and respawns
  dead processes, and with a shared ``cache_dir`` the sibling promotes
  the already-compiled plan from the disk tier instead of recompiling.

Nodes start concurrently.  A start is two steps: launch the process,
then take its ``{"listening": ...}`` announcement, which a short-lived
reader thread per launch hands over.  :meth:`Router.start` launches
every node before it waits on any, under one deadline
(:data:`ANNOUNCE_TIMEOUT_S`), and connects each as its announcement
arrives; the supervisor launches respawns the same way and picks the
announcement up on a later tick, so a slow or silent child never
delays another node's heartbeat, wedge sweep or reconnect.  Each
launch-to-connected time is observed as
``router_stage_ms{stage="node_start"}``.

Health, queue depth and ownership churn are exported per node through
:mod:`repro.obs` (``router_node_up``, ``router_node_pending``,
``router_ownership_churn_total``, ...).  Whole-node chaos (seeded
kills of the owning node right after dispatch) reuses the
:mod:`repro.service.chaos` decision function so campaigns replay
exactly.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..obs.metrics import MetricsRegistry, get_metrics
from ..obs.tracing import (
    get_tracer,
    new_span_id,
    new_trace_id,
    record_span,
    span,
    trace_context,
)
from ..lower.engine import CONVERTERS
from .api import EXECUTION_BACKENDS, WORKER_MODES, check_choice
from .chaos import ChaosConfig, ChaosInjector
from .executor import STAGE_BUCKETS_MS, observe_stage
from .lease import cleanup_stale_artifacts
from .proto import (
    PROTO_VERSION,
    ProtoError,
    Request,
    Response,
    error_response,
)
from .scheduler import ResultSlot
from .workload import WorkloadError, request_fingerprint
from .transport import (
    BackoffPolicy,
    Heartbeat,
    Hello,
    SocketConnection,
    TransportError,
    connect_with_backoff,
    parse_address,
)

__all__ = [
    "WARM_FINGERPRINTS",
    "NodeConfig",
    "Router",
    "RouterConfig",
    "rendezvous_order",
]

#: Bound on the router's warm-fingerprint set (least recently answered
#: evicted).  An evicted fingerprint just falls back to the cold rule.
WARM_FINGERPRINTS = 4096

#: Seconds a launched node may take to announce its address.  A child
#: that stays silent this long is killed and relaunched with backoff.
ANNOUNCE_TIMEOUT_S = 30.0


@functools.lru_cache(maxsize=WARM_FINGERPRINTS)
def rendezvous_order(fp: str, nodes: int) -> Tuple[int, ...]:
    """All node indices by descending highest-random-weight score.

    ``order[0]`` is the fingerprint's home node; ``order[1:]`` is its
    failover sequence.  Pure function of ``(fp, nodes)``, so every
    router instance agrees on placement without coordination — and
    memoized in an LRU bounded like the warm set
    (:data:`WARM_FINGERPRINTS` entries), so a warm request hashes
    nothing here.
    """
    if nodes < 1:
        raise ValueError("nodes must be >= 1")
    scores = []
    for idx in range(nodes):
        digest = hashlib.sha256(f"{fp}:{idx}".encode("utf-8")).digest()
        scores.append((-int.from_bytes(digest[:8], "big"), idx))
    scores.sort()
    return tuple(idx for _, idx in scores)


@dataclass(frozen=True)
class NodeConfig:
    """How the router spawns (and reaches) each ``repro serve`` node."""

    workers: int = 2
    queue: int = 256
    max_batch: int = 16
    worker_mode: str = "thread"
    backend: str = "interpreted"  # execution backend on every node
    converter: str = "numpy"  # kernel converter under "compiled"
    validate_every: int = 0
    cache_dir: Optional[str] = None  # share across nodes for failover
    hang_timeout_s: float = 60.0
    #: Always ``"tcp"``: every node is reached over localhost TCP.
    #: The keyword survives only because ``benchmarks/e2e`` passes
    #: ``transport="tcp"``; drop it once that benchmark may change.
    transport: str = "tcp"
    extra_args: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        # Checked here, not by the node's CLI: a node that rejects its
        # argv exits at once and would crash-loop under supervision.
        check_choice("worker_mode", self.worker_mode, WORKER_MODES)
        check_choice("backend", self.backend, EXECUTION_BACKENDS)
        check_choice("converter", self.converter, CONVERTERS)
        if self.transport != "tcp":
            raise ValueError(
                f"transport must be 'tcp' (the pipe transport was "
                f"removed), got {self.transport!r}"
            )

    def argv(self) -> List[str]:
        out = [
            sys.executable,
            "-u",
            "-m",
            "repro",
            "serve",
            "--workers", str(self.workers),
            "--queue", str(self.queue),
            "--max-batch", str(self.max_batch),
            "--worker-mode", self.worker_mode,
            "--validate-every", str(self.validate_every),
            "--hang-timeout", str(self.hang_timeout_s),
        ]
        if self.backend != "interpreted":
            out += ["--backend", self.backend]
        if self.converter != "numpy":
            out += ["--converter", self.converter]
        if self.cache_dir:
            out += ["--cache-dir", self.cache_dir]
        # Port 0: the node binds an ephemeral port and announces it as
        # a ``{"listening": "host:port"}`` line on stdout.
        out += ["--listen", "127.0.0.1:0"]
        out += list(self.extra_args)
        return out


@dataclass(frozen=True)
class RouterConfig:
    """Tunables of one router instance."""

    nodes: int = 2
    node: NodeConfig = field(default_factory=NodeConfig)
    default_timeout_s: float = 30.0
    max_retries: int = 2  # failover budget per request
    failover_grace_s: float = 2.0  # wedge = deadline + this, no reply
    monitor_interval_s: float = 0.05
    node_metrics_dir: Optional[str] = None  # node-N.json on clean exit
    #: Directory for per-process JSONL trace files: each node exports
    #: ``node-<idx>-g<generation>.jsonl`` on clean exit (the generation
    #: suffix keeps a respawned node from overwriting its predecessor).
    #: The router's own tracer is installed by the caller (the CLI
    #: writes ``router.jsonl`` beside them); stitch with
    #: :func:`repro.obs.stitch.stitch_traces` / ``repro trace``.
    trace_dir: Optional[str] = None
    chaos_seed: int = 2014
    node_kill_rate: float = 0.0  # kill the owning node after dispatch
    #: Seeded *connection* chaos: sever the owning node's socket right
    #: after a successful dispatch write — the in-flight request must
    #: fail over, never drop.
    conn_kill_rate: float = 0.0
    #: Already-running ``repro serve --listen`` endpoints
    #: (``host:port``) the router connects to instead of spawning
    #: subprocesses.  Non-empty ``remotes`` overrides ``nodes``; the
    #: router supervises the *connections* (reconnect with backoff)
    #: but never the remote processes.
    remotes: Tuple[str, ...] = ()
    connect_attempts: int = 5  # per-connect backoff budget
    reconnect_base_s: float = 0.05  # backoff envelope (full jitter)
    reconnect_cap_s: float = 2.0
    heartbeat_interval_s: float = 2.0
    heartbeat_timeout_s: float = 5.0

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ValueError("nodes must be >= 1")
        if not 0.0 <= self.node_kill_rate <= 1.0:
            raise ValueError("node_kill_rate must be in [0, 1]")
        if not 0.0 <= self.conn_kill_rate <= 1.0:
            raise ValueError("conn_kill_rate must be in [0, 1]")

    def backoff(self) -> BackoffPolicy:
        return BackoffPolicy(
            base_s=self.reconnect_base_s,
            cap_s=self.reconnect_cap_s,
            seed=self.chaos_seed,
        )


@dataclass
class _Pending:
    """One client request currently dispatched to a node."""

    internal_id: str  # the id on the node wire ("rt-N")
    client_id: Optional[str]
    request: Request
    #: ``request`` encoded once, with its trace id: each dispatch
    #: attempt writes a copy with that attempt's ``id`` and
    #: ``parent_span_id``.
    wire: dict
    fingerprint: str
    slot: ResultSlot
    deadline: float  # monotonic
    retries_left: int
    attempts: int = 0
    node: int = -1
    generation: int = -1  # node process generation dispatched to
    #: Distributed-trace context: the trace this request belongs to
    #: and the id of its root ``router.request`` span, which every
    #: downstream span (node and pool worker) hangs off.
    trace_id: Optional[str] = None
    root_span_id: Optional[str] = None
    #: Allocated per dispatch attempt so the node's spans parent to
    #: the ``router.node_wait`` span covering *that* attempt, keeping
    #: the critical path connected across the process boundary.
    node_wait_span_id: Optional[str] = None
    start_ns: int = 0  # perf_counter_ns at submission
    sent_ns: int = 0  # perf_counter_ns of the successful node write


class _Node:
    """One supervised ``repro serve --listen`` subprocess.

    Lifecycle (drain-on-stdin-EOF, metrics export, respawn) stays on
    the subprocess's stdin/stdout; *data* rides the TCP connection.
    The node's ``generation`` advances on every successful **connect**
    — a lost connection orphans exactly the requests written into it,
    whether or not the process survived — and :meth:`send` refuses to
    write into any generation but the caller's.
    """

    def __init__(self, idx: int, config: RouterConfig) -> None:
        self.idx = idx
        self.config = config
        self.proc: Optional[subprocess.Popen] = None
        self.generation = -1
        self.write_lock = threading.Lock()
        self.closing = False  # stdin EOF sent (graceful drain)
        #: Unix time of the last line received from this node (0 =
        #: never) — what ``repro top`` renders for unreachable rows.
        self.last_seen = 0.0
        self.conn: Optional[SocketConnection] = None
        self.address: Optional[Tuple[str, int]] = None
        self.heartbeat = Heartbeat(
            interval_s=config.heartbeat_interval_s,
            timeout_s=config.heartbeat_timeout_s,
        )
        self.spawn_count = 0
        #: Launched, and the announcement not yet taken up: the node
        #: is neither ready nor worth a connect attempt.
        self.starting = False
        #: The reader of the current launch has finished: ``address``
        #: is what it heard (None: stdout closed before announcing).
        self.heard = False
        #: Monotonic time of the launch still waiting for its first
        #: connect (None otherwise); ``start_ms`` is the last
        #: launch-to-connected time.
        self.launched_at: Optional[float] = None
        self.start_ms: Optional[float] = None
        #: Reconnect pacing: the monitor skips this node until here.
        self.next_attempt_at = 0.0
        self.connect_attempt = 0

    def _argv(self) -> List[str]:
        # Generations advance per *connect*, so trace files are named
        # by spawn count: one file per process.
        out = self.config.node.argv()
        if self.config.node_metrics_dir:
            out += [
                "--metrics-out",
                os.path.join(
                    self.config.node_metrics_dir,
                    f"node-{self.idx}.json",
                ),
            ]
        if self.config.trace_dir:
            out += [
                "--trace-out",
                os.path.join(
                    self.config.trace_dir,
                    f"node-{self.idx}-g{self.spawn_count + 1}.jsonl",
                ),
            ]
        return out

    def launch(self) -> None:
        """Start the process without waiting for it: its address
        arrives later, through :meth:`read_announcement`."""
        env = os.environ.copy()
        # Make ``python -m repro`` resolvable even when the parent was
        # launched from outside the source tree.
        src = os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )
        path = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src + (os.pathsep + path if path else "")
        proc = subprocess.Popen(
            self._argv(),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            bufsize=1,
            env=env,
        )
        with self.write_lock:
            self.proc = proc
            self.address = None
            self.heard = False
        self.spawn_count += 1
        self.closing = False
        self.launched_at = time.monotonic()
        self.starting = True

    @staticmethod
    def read_announcement(proc) -> Optional[Tuple[str, int]]:
        """Block until ``proc`` prints its ``listening`` line; None
        when its stdout closes first (it died before announcing)."""
        for line in iter(proc.stdout.readline, ""):
            try:
                return parse_address(str(json.loads(line)["listening"]))
            except (KeyError, TypeError, ValueError):
                continue  # tolerate stray stdout noise
        return None

    def hand_over(self, proc, address: Optional[Tuple[str, int]]) -> None:
        """Record what ``proc``'s reader heard, unless the node has
        been relaunched since."""
        with self.write_lock:
            if proc is self.proc:
                self.address = address
                self.heard = True

    def connect(self, hello: Hello, backoff: BackoffPolicy) -> None:
        """One connect+handshake try; raises TransportError/OSError."""
        if self.address is None:
            raise BrokenPipeError("node never announced its address")
        old = self.conn
        if old is not None:
            old.close()
        conn = connect_with_backoff(
            self.address,
            hello,
            backoff,
            max_attempts=1,
        )
        with self.write_lock:
            self.conn = conn
            self.generation += 1
            self.closing = False
        self.heartbeat.reset()
        self.connect_attempt = 0
        self.next_attempt_at = 0.0

    def ready(self) -> bool:
        """Dispatchable right now: *connected*."""
        return self.conn is not None and not self.conn.closed

    def needs_respawn(self) -> bool:
        return self.proc is None or self.proc.poll() is not None

    def send(self, wire: dict, generation: int) -> None:
        """Write one line into connection ``generation``.

        Raises OSError on a lost connection *or* when the node has
        reconnected since the caller picked it — without the
        generation check a request registered against the old link
        could be written into the new one, double-serving it after
        the caller's failover re-dispatch.
        """
        with self.write_lock:
            if self.generation != generation:
                raise BrokenPipeError("node connection was replaced")
            conn = self.conn
        if conn is None or conn.closed:
            raise BrokenPipeError("node is not connected")
        conn.send(wire)

    def break_link(self) -> None:
        """Force the failover path for everything in flight here: sever
        the connection and keep the (possibly healthy) process for the
        reconnect."""
        if self.conn is not None:
            self.conn.close()

    def kill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
        self.break_link()

    def close_stdin(self) -> None:
        """EOF = graceful drain; the node answers stragglers, exports
        its metrics file and exits on its own."""
        self.closing = True
        with self.write_lock:
            if self.proc is not None and self.proc.stdin is not None:
                try:
                    self.proc.stdin.close()
                except OSError:
                    pass


class _RemoteNode(_Node):
    """An externally managed ``repro serve --listen`` endpoint.

    The router supervises only the connection: it reconnects with
    backoff but never spawns, kills or drains the remote process.
    """

    def __init__(
        self, idx: int, config: RouterConfig, address: Tuple[str, int]
    ) -> None:
        super().__init__(idx, config)
        self.address = address

    def launch(self) -> None:
        # No process: the endpoint just exists, already "announced".
        self.spawn_count += 1
        self.heard = True
        self.launched_at = time.monotonic()
        self.starting = True

    def needs_respawn(self) -> bool:
        return False

    def kill(self) -> None:
        self.break_link()  # the remote process is not ours to kill

    def close_stdin(self) -> None:
        self.closing = True
        self.break_link()


class Router:
    """Rendezvous-hashing front end over N service-node subprocesses.

    The client surface mirrors :class:`StencilService`:
    :meth:`submit` / :meth:`submit_json` return a
    :class:`~repro.service.scheduler.ResultSlot` that always resolves
    with a typed :class:`~repro.service.proto.Response`.
    """

    def __init__(
        self,
        config: Optional[RouterConfig] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config or RouterConfig()
        self.metrics = registry or get_metrics() or MetricsRegistry()
        if self.config.remotes:
            self._nodes: List[_Node] = [
                _RemoteNode(i, self.config, parse_address(addr))
                for i, addr in enumerate(self.config.remotes)
            ]
        else:
            self._nodes = [
                _Node(i, self.config) for i in range(self.config.nodes)
            ]
        self._hello = Hello(
            node_id=f"router-{os.getpid()}",
            role="client",
            backends=(self.config.node.backend,),
        )
        self._backoff = self.config.backoff()
        self._lock = threading.Lock()
        #: Notified by each launch's reader once it has handed over
        #: what it heard; :meth:`_await_starts` waits on it.
        self._announced = threading.Condition()
        self._drained = threading.Condition(self._lock)
        self._pending: Dict[str, _Pending] = {}
        #: Per-node count of ``_pending`` entries, kept in step with
        #: every insert/removal so placement reads load in O(1).
        self._load: List[int] = [0] * len(self._nodes)
        #: Fingerprints some node has answered ``ok`` (LRU order).
        self._warm: "OrderedDict[str, None]" = OrderedDict()
        #: Outstanding control requests (metrics collection) by wire
        #: id, with the node index and connection generation they were
        #: written into — kept apart from ``_pending`` so control
        #: replies never enter the request resolution/failover
        #: machinery, and resolved at once when that link is lost.
        self._controls: Dict[str, Tuple[int, int, ResultSlot]] = {}
        #: fingerprint -> (node index, in-flight count): the global
        #: single-flight owner table.
        self._owners: Dict[str, List[int]] = {}
        self._seq = 0
        self._started = False
        self._closed = False
        self._stop = threading.Event()
        self._monitor: Optional[threading.Thread] = None
        self._readers: List[threading.Thread] = []
        self._chaos: Optional[ChaosInjector] = None
        if self.config.node_kill_rate > 0.0:
            self._chaos = ChaosInjector(
                ChaosConfig(
                    seed=self.config.chaos_seed,
                    kill_rate=self.config.node_kill_rate,
                )
            )
        self._conn_chaos: Optional[ChaosInjector] = None
        if self.config.conn_kill_rate > 0.0:
            # A distinct seed offset keeps connection kills and whole-
            # node kills independent draws in mixed campaigns.
            self._conn_chaos = ChaosInjector(
                ChaosConfig(
                    seed=self.config.chaos_seed + 1,
                    kill_rate=self.config.conn_kill_rate,
                )
            )
        if self.config.node_metrics_dir:
            os.makedirs(self.config.node_metrics_dir, exist_ok=True)
        if self.config.trace_dir:
            os.makedirs(self.config.trace_dir, exist_ok=True)

    # -- telemetry -----------------------------------------------------
    def _count(self, name: str, labels=None) -> None:
        self.metrics.counter(name, labels).inc()

    def _node_labels(self, idx: int) -> dict:
        return {"node": str(idx)}

    def _sync_gauges(self) -> None:
        with self._lock:
            per_node = list(self._load)
            inflight = len(self._owners)
        for node in self._nodes:
            self.metrics.gauge(
                "router_node_up", self._node_labels(node.idx)
            ).set(1 if node.ready() else 0)
            self.metrics.gauge(
                "router_node_pending", self._node_labels(node.idx)
            ).set(per_node[node.idx])
        self.metrics.gauge("router_inflight_fingerprints").set(inflight)

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "Router":
        if self._started:
            return self
        self._started = True
        if self.config.node.cache_dir:
            # Sweep leases/tmp files orphaned by a crashed previous
            # run, so its cold compiles are not TTL-gated for ours.
            cleanup_stale_artifacts(
                self.config.node.cache_dir, registry=self.metrics
            )
        # Every process is launched before any announcement is read,
        # so the fabric pays for one node start, not one per node.
        for node in self._nodes:
            node.launch()
        for node in self._nodes:
            self._watch(node)
        self._await_starts()
        self._monitor = threading.Thread(
            target=self._monitor_loop,
            name="router-monitor",
            daemon=True,
        )
        self._monitor.start()
        return self

    def _watch(self, node: _Node) -> None:
        """Read ``node``'s announcement on a short-lived thread that
        hands it over; never blocks the caller."""
        proc = node.proc
        if proc is None:
            return  # a remote endpoint: nothing to read

        def read() -> None:
            node.hand_over(proc, node.read_announcement(proc))
            with self._announced:
                self._announced.notify_all()

        threading.Thread(
            target=read,
            name=f"router-node-{node.idx}-announce",
            daemon=True,
        ).start()

    def _advance_start(self, node: _Node, now: float) -> None:
        """Move one launch on without blocking: connect the node once
        its address is handed over; kill it if it exited first or
        stayed silent for :data:`ANNOUNCE_TIMEOUT_S`, and pace its
        relaunch with the ``spawn-{idx}`` backoff."""
        if node.heard and node.address is not None:
            node.starting = False
            # A failed first connect is not fatal: the monitor keeps
            # retrying with backoff until the endpoint answers.
            self._connect(node)
            return
        if not node.heard and now - node.launched_at < ANNOUNCE_TIMEOUT_S:
            return  # still starting
        node.starting = False
        node.launched_at = None
        node.kill()
        # Pace the relaunch so a crash-looping child cannot melt the
        # monitor.
        pause = self._backoff.delay(
            node.connect_attempt, f"spawn-{node.idx}"
        )
        node.connect_attempt += 1
        node.next_attempt_at = time.monotonic() + pause

    def _await_starts(self, until: float = math.inf) -> None:
        """Connect every launched node as its announcement arrives.

        One deadline, counted from the latest launch, covers them all:
        N silent children cost one :data:`ANNOUNCE_TIMEOUT_S`, not N.
        Returns early at ``until``, leaving the rest starting.
        """
        while True:
            now = time.monotonic()
            for node in self._nodes:
                if node.starting:
                    self._advance_start(node, now)
            starting = [node for node in self._nodes if node.starting]
            if not starting or now >= until:
                return
            deadline = min(
                until,
                max(node.launched_at for node in starting)
                + ANNOUNCE_TIMEOUT_S,
            )
            with self._announced:
                while not any(node.heard for node in starting):
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._announced.wait(remaining)

    def _connect(self, node: _Node) -> bool:
        """One connect+handshake attempt; schedules the next on loss."""
        try:
            node.connect(self._hello, self._backoff)
        except (TransportError, OSError) as exc:
            kind = getattr(exc, "kind", "")
            if kind == "handshake_failed":
                self._count(
                    "router_handshake_failures_total",
                    self._node_labels(node.idx),
                )
            self._count(
                "router_connect_failures_total",
                self._node_labels(node.idx),
            )
            pause = self._backoff.delay(
                node.connect_attempt, f"node-{node.idx}"
            )
            node.connect_attempt += 1
            node.next_attempt_at = time.monotonic() + pause
            return False
        if node.generation > 0:
            self._count(
                "router_reconnects_total", self._node_labels(node.idx)
            )
        if node.launched_at is not None:
            node.start_ms = (time.monotonic() - node.launched_at) * 1e3
            node.launched_at = None
            observe_stage(
                self.metrics,
                "node_start",
                node.start_ms,
                name="router_stage_ms",
            )
        conn, generation = node.conn, node.generation
        reader = threading.Thread(
            target=self._conn_read_loop,
            args=(node, conn, generation),
            name=f"router-node-{node.idx}-reader-g{generation}",
            daemon=True,
        )
        reader.start()
        self._readers.append(reader)
        self.metrics.gauge(
            "router_node_up", self._node_labels(node.idx)
        ).set(1)
        return True

    def __enter__(self) -> "Router":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- placement -----------------------------------------------------
    def _pick_node(
        self, fp: str, warm: bool
    ) -> Tuple[Optional[int], str]:
        """``(node, reason)`` for one request of ``fp`` (caller holds
        the lock); node is None when no node is ready right now.

        Cold: a ready in-flight owner wins (``pinned``, global
        single-flight), else the first ready node in rendezvous order
        (``home``).  Warm: the ready node with the fewest in-flight
        requests, ties by rendezvous order — ``home`` when that is the
        cold rule's node anyway, ``spill`` otherwise.
        """
        ready = [
            idx
            for idx in rendezvous_order(fp, len(self._nodes))
            if self._nodes[idx].ready()
        ]
        if not ready:
            return None, ""
        if warm:
            # min() keeps the first minimum: ties go by rendezvous order.
            idx = min(ready, key=self._load.__getitem__)
            return idx, "home" if idx == ready[0] else "spill"
        owner = self._owners.get(fp)
        if owner is not None and self._nodes[owner[0]].ready():
            return owner[0], "pinned"
        return ready[0], "home"

    def _pin(self, fp: str, idx: int, move: bool = True) -> None:
        """Record one more in-flight request for ``fp`` on ``idx``
        (caller holds the lock).  With ``move`` (cold placements) the
        owner becomes ``idx``, counting churn on a change; warm
        placements only add to the in-flight count."""
        owner = self._owners.get(fp)
        if owner is None:
            self._owners[fp] = [idx, 1]
            if move and idx != rendezvous_order(fp, len(self._nodes))[0]:
                self._count("router_ownership_churn_total")
        else:
            if move and owner[0] != idx:
                owner[0] = idx
                self._count("router_ownership_churn_total")
            owner[1] += 1

    def _mark_warm(self, fp: str) -> None:
        """Remember that some node answered ``fp`` ok (bounded LRU)."""
        with self._lock:
            self._mark_warm_locked(fp)

    def _mark_warm_locked(self, fp: str) -> None:
        self._warm[fp] = None
        self._warm.move_to_end(fp)
        if len(self._warm) > WARM_FINGERPRINTS:
            self._warm.popitem(last=False)

    def _unpin(self, fp: str) -> None:
        owner = self._owners.get(fp)
        if owner is None:
            return
        owner[1] -= 1
        if owner[1] <= 0:
            del self._owners[fp]

    # -- submission ----------------------------------------------------
    def _take(self, internal_id: str) -> Optional[_Pending]:
        """Claim exclusive ownership of a pending entry.

        Every resolution/failover path goes through this: whoever
        pops the entry from the table owns its fate, so a response
        racing a node-death sweep can never double-handle one
        request.  Returns None when someone else already took it.
        """
        with self._lock:
            return self._take_locked(internal_id)

    def _take_locked(self, internal_id: str) -> Optional[_Pending]:
        """:meth:`_take` for a caller that holds the lock."""
        entry = self._pending.pop(internal_id, None)
        if entry is not None:
            self._load[entry.node] -= 1
            self._unpin(entry.fingerprint)
        if not self._pending:
            self._drained.notify_all()
        return entry

    def _take_if(
        self, internal_id: str, attempts: int
    ) -> Optional[_Pending]:
        """Claim the entry only while it is still the incarnation
        dispatched with ``attempts``.

        A node-death sweep can take a just-written entry and
        re-dispatch it (bumping ``attempts``) before the writer's own
        post-write check runs; an unconditional take there would steal
        the *new* in-flight incarnation and fail it over a second
        time, burning retry budget on a request that was already
        placed cleanly.  Matching on the attempt count makes the
        reclaim race-free: whoever re-dispatched owns the entry.
        """
        with self._lock:
            entry = self._pending.get(internal_id)
            if entry is None or entry.attempts != attempts:
                return None
            del self._pending[internal_id]
            self._load[entry.node] -= 1
            self._unpin(entry.fingerprint)
            if not self._pending:
                self._drained.notify_all()
        return entry

    def _resolve_entry(
        self, entry: _Pending, response: Response
    ) -> None:
        """Resolve a *taken* entry's client slot."""
        response.id = entry.client_id
        if response.trace_id is None:
            response.trace_id = entry.trace_id
        end_ns = time.perf_counter_ns()
        traced = get_tracer() is not None
        if entry.start_ns:
            # The request's full router residency — the root span of
            # the distributed trace — plus the node round trip (which
            # is where almost all of the wall-clock goes, so stage
            # coverage stays honest).
            if traced:
                record_span(
                    "router.request",
                    entry.start_ns,
                    end_ns,
                    trace_id=entry.trace_id,
                    span_id=entry.root_span_id,
                    request=entry.client_id or entry.internal_id,
                    fingerprint=entry.fingerprint[:12],
                    status=response.status,
                )
            total_ms = (end_ns - entry.start_ns) / 1e6
            observe_stage(
                self.metrics, "total", total_ms, name="router_stage_ms"
            )
            self.metrics.record_exemplar(
                "router_request_latency_ms",
                total_ms,
                {
                    "request": entry.client_id or entry.internal_id,
                    "benchmark": entry.request.benchmark
                    or (
                        "workload"
                        if entry.request.workload is not None
                        else "spec"
                    ),
                    "status": response.status,
                    "node": str(entry.node),
                },
            )
        if entry.sent_ns:
            if traced:
                record_span(
                    "router.node_wait",
                    entry.sent_ns,
                    end_ns,
                    trace_id=entry.trace_id,
                    span_id=entry.node_wait_span_id,
                    parent_span_id=entry.root_span_id,
                    node=entry.node,
                )
            observe_stage(
                self.metrics,
                "node_wait",
                (end_ns - entry.sent_ns) / 1e6,
                name="router_stage_ms",
            )
        entry.slot.resolve(response)
        self._count(
            "router_requests_total", {"status": response.status}
        )

    def _resolve_direct(
        self, request_id, status: str, detail: str, kind=None
    ) -> ResultSlot:
        """A response that never reached a node (parse failures...)."""
        slot = ResultSlot()
        slot.resolve(error_response(request_id, status, detail, kind=kind))
        self._count("router_requests_total", {"status": status})
        return slot

    def submit_json(self, line: str) -> ResultSlot:
        """Submit one JSON-encoded request line."""
        try:
            data = json.loads(line)
            if not isinstance(data, dict):
                raise ValueError("request must be a JSON object")
        except ValueError as exc:
            return self._resolve_direct(
                None, "invalid", f"bad request JSON: {exc}"
            )
        return self.submit(data)

    def submit(self, request) -> ResultSlot:
        """Route one request (typed or wire dict) onto its node."""
        if not self._started:
            self.start()
        if isinstance(request, Request):
            req = request
        else:
            try:
                req = Request.from_json(request, registry=self.metrics)
            except ProtoError as exc:
                return self._resolve_direct(
                    request.get("id")
                    if isinstance(request, dict)
                    else None,
                    "invalid",
                    str(exc),
                    kind=exc.kind,
                )
        if self._closed:
            return self._resolve_direct(
                req.id, "rejected", "router is draining", kind="draining"
            )
        try:
            # Workload requests route on their *plan* fingerprint
            # (stage chain included), so the whole pipeline lands on
            # one node and its intermediates never cross the wire.
            fp = request_fingerprint(req)
        except WorkloadError as exc:
            return self._resolve_direct(
                req.id, "invalid", str(exc), kind="bad_workload"
            )
        except (KeyError, TypeError, ValueError) as exc:
            message = (
                exc.args[0]
                if isinstance(exc, KeyError) and exc.args
                else str(exc)
            )
            return self._resolve_direct(req.id, "invalid", message)
        timeout_s = (
            self.config.default_timeout_s
            if req.timeout_s is None
            else req.timeout_s
        )
        # The router is the trace origin: requests arriving without a
        # context get a fresh trace id here, and every request gets a
        # root span id that all downstream spans (node, pool worker)
        # parent to over the wire.
        start_ns = time.perf_counter_ns()
        trace_id = req.trace_id or new_trace_id()
        root_span_id = new_span_id()
        wire = req.to_json()
        wire["trace_id"] = trace_id
        with self._lock:
            self._seq += 1
            internal_id = f"rt-{self._seq}"
        entry = _Pending(
            internal_id=internal_id,
            client_id=req.id,
            request=req,
            wire=wire,
            fingerprint=fp,
            slot=ResultSlot(),
            deadline=time.monotonic() + timeout_s,
            retries_left=(
                self.config.max_retries
                if req.retries is None
                else req.retries
            ),
            trace_id=trace_id,
            root_span_id=root_span_id,
            start_ns=start_ns,
        )
        with trace_context(trace_id, root_span_id), span(
            "router.dispatch",
            request=internal_id,
            fingerprint=fp[:12],
        ):
            self._dispatch(entry)
        observe_stage(
            self.metrics,
            "dispatch",
            (time.perf_counter_ns() - start_ns) / 1e6,
            name="router_stage_ms",
        )
        return entry.slot

    def _dispatch(self, entry: _Pending) -> None:
        """Place ``entry`` on its owning node (initial or failover)."""
        while True:
            with self._lock:
                warm = entry.fingerprint in self._warm
                idx, reason = self._pick_node(entry.fingerprint, warm)
                if idx is not None:
                    # Warm placements share load; they never move the
                    # owner a cold burst pins to (a spill is not churn).
                    self._pin(entry.fingerprint, idx, move=not warm)
                    node = self._nodes[idx]
                    entry.node = idx
                    entry.generation = node.generation
                    self._pending[entry.internal_id] = entry
                    self._load[idx] += 1
            if idx is None:
                # Every node is down; the supervisor respawns them on
                # its next tick — wait it out within the deadline.
                if time.monotonic() > entry.deadline:
                    self._resolve_entry(
                        entry,
                        error_response(
                            None,
                            "timeout",
                            "no service node became available "
                            "before the deadline",
                            kind="worker_lost",
                            fingerprint=entry.fingerprint,
                            attempts=entry.attempts,
                        ),
                    )
                    return
                time.sleep(self.config.monitor_interval_s)
                continue
            entry.node_wait_span_id = new_span_id()
            wire = dict(entry.wire)
            wire["id"] = entry.internal_id
            wire["parent_span_id"] = entry.node_wait_span_id
            written_attempts = entry.attempts
            try:
                node.send(wire, entry.generation)
            except OSError:
                # Died (or was respawned) between the liveness check
                # and the write; undo the registration and retry.
                if self._take_if(
                    entry.internal_id, written_attempts
                ) is None:
                    return  # a sweep already owns this entry
                if not self._budget_left(entry):
                    self._resolve_exhausted(entry, idx)
                    return
                entry.attempts += 1
                entry.retries_left -= 1
                self._count("router_failovers_total")
                continue
            entry.sent_ns = time.perf_counter_ns()
            self._count(
                "router_dispatch_total", self._node_labels(idx)
            )
            self._count(
                "router_placement_total",
                {"reason": "failover" if entry.attempts else reason},
            )
            if self._chaos is not None and (
                self._chaos.decision(
                    entry.internal_id, entry.attempts
                )
                == "kill"
            ):
                # Whole-node chaos: the owning node dies right after
                # accepting the request (the worst time).
                self._count(
                    "router_chaos_node_kills_total",
                    self._node_labels(idx),
                )
                node.kill()
            if self._conn_chaos is not None and (
                self._conn_chaos.decision(
                    entry.internal_id, entry.attempts
                )
                == "kill"
            ):
                # Connection chaos: the socket dies right after the
                # request was written into it — the node may even
                # compute the answer, but this link never delivers it.
                self._count(
                    "router_chaos_conn_kills_total",
                    self._node_labels(idx),
                )
                node.break_link()
            # The node may have died after the write but before the
            # line was consumed — after the death sweep for this
            # generation already ran, in which case nobody else will
            # ever reclaim this entry.  Re-check and self-fail-over.
            if (
                node.generation != entry.generation
                or not node.ready()
            ):
                reclaimed = self._take_if(
                    entry.internal_id, written_attempts
                )
                if reclaimed is not None:
                    self._fail_over(reclaimed, idx)
            return

    def _budget_left(self, entry: _Pending) -> bool:
        return (
            entry.retries_left > 0
            and time.monotonic() <= entry.deadline
        )

    def _resolve_exhausted(self, entry: _Pending, idx: int) -> None:
        expired = time.monotonic() > entry.deadline
        self._resolve_entry(
            entry,
            error_response(
                None,
                "timeout" if expired else "error",
                f"service node {idx} was lost mid-request and the "
                + ("deadline expired" if expired else
                   "failover budget is exhausted"),
                kind="worker_lost",
                fingerprint=entry.fingerprint,
                attempts=entry.attempts + 1,
                node=idx,
            ),
        )

    # -- node I/O ------------------------------------------------------
    def _conn_read_loop(
        self,
        node: _Node,
        conn: SocketConnection,
        generation: int,
    ) -> None:
        """Reader for one connection generation.

        Exits on *connection* loss — process death, chaos kill, wedge
        teardown all surface here as EOF — and fails over exactly the
        requests written into this generation.  Pongs are consumed at
        this layer (RTT histogram); everything else is a response.
        """
        while True:
            line = conn.readline()
            if not line:
                break
            line = line.strip()
            if not line:
                continue
            node.last_seen = time.time()
            try:
                data = json.loads(line)
            except ValueError:
                self._count("router_bad_node_lines_total")
                continue
            if isinstance(data, dict) and isinstance(
                data.get("summary"), dict
            ) and data["summary"].get("pong"):
                rtt = node.heartbeat.observe_pong(
                    str(data.get("id"))
                )
                if rtt is not None:
                    self.metrics.histogram(
                        "router_heartbeat_rtt_ms",
                        buckets=STAGE_BUCKETS_MS,
                    ).observe(rtt * 1e3)
                continue
            try:
                response = Response.from_json(data)
            except (ProtoError, ValueError):
                self._count("router_bad_node_lines_total")
                continue
            self._on_response(node, response)
        conn.close()
        self._on_node_exit(node, generation)

    def _on_response(self, node: _Node, response: Response) -> None:
        wire_id = response.id or ""
        entry = None
        # One lock round: match a control, else take the entry and
        # (on ok) warm its fingerprint.
        with self._lock:
            control = self._controls.pop(wire_id, None)
            if control is None:
                entry = self._take_locked(wire_id)
                if entry is not None and response.ok:
                    self._mark_warm_locked(entry.fingerprint)
        if control is not None:
            response.node = node.idx
            control[2].resolve(response)
            return
        if entry is None:
            self._count("router_unmatched_responses_total")
            return
        response.node = node.idx
        self._resolve_entry(entry, response)

    def _on_node_exit(self, node: _Node, generation: int) -> None:
        """Fail over everything in flight on a lost connection; its
        outstanding control requests resolve at once as errors."""
        with self._lock:
            orphans = [
                e
                for e in self._pending.values()
                if e.node == node.idx and e.generation == generation
            ]
            lost_controls = [
                (control_id, self._controls.pop(control_id)[2])
                for control_id, (idx, gen, _) in list(
                    self._controls.items()
                )
                if idx == node.idx and gen == generation
            ]
        self.metrics.gauge(
            "router_node_up", self._node_labels(node.idx)
        ).set(0)
        for control_id, slot in lost_controls:
            slot.resolve(
                error_response(
                    control_id,
                    "error",
                    f"service node {node.idx} was lost before it "
                    "answered the control request",
                    kind="worker_lost",
                    node=node.idx,
                )
            )
        for entry in orphans:
            taken = self._take(entry.internal_id)
            if taken is None:
                continue  # resolved or reclaimed while we iterated
            self._fail_over(taken, node.idx)

    def _fail_over(self, entry: _Pending, idx: int) -> None:
        """Re-dispatch a *taken* entry whose node was lost, within
        the retry/deadline budget; resolve it otherwise — a lost node
        never drops a request without a response."""
        if self._closed or not self._budget_left(entry):
            self._resolve_orphan_final(entry, idx)
            return
        entry.attempts += 1
        entry.retries_left -= 1
        self._count("router_failovers_total")
        self._dispatch(entry)

    def _resolve_orphan_final(self, entry: _Pending, idx: int) -> None:
        if self._closed:
            response = error_response(
                None,
                "cancelled",
                f"service node {idx} exited during router shutdown",
                kind="cancelled",
                fingerprint=entry.fingerprint,
                attempts=entry.attempts + 1,
                node=idx,
            )
            entry.slot.resolve(response)
            self._count(
                "router_requests_total", {"status": response.status}
            )
        else:
            self._resolve_exhausted(entry, idx)

    # -- telemetry aggregation -----------------------------------------
    def collect_node_metrics(
        self, timeout_s: float = 5.0
    ) -> Dict[int, Optional[dict]]:
        """One metrics snapshot per node, over the live connections.

        Sends the ``{"control": "metrics"}`` document down each
        connected node's socket and matches the replies out-of-band
        (they never touch the request failover machinery).  A dead,
        draining or unresponsive node maps to ``None`` — aggregation
        degrades, it never blocks the fabric; a connection lost before
        its reply resolves that node's entry at once, without waiting
        out ``timeout_s``.
        """
        slots: Dict[int, Tuple[str, ResultSlot]] = {}
        out: Dict[int, Optional[dict]] = {}
        for node in self._nodes:
            out[node.idx] = None
            if not node.ready() or node.closing:
                continue
            with self._lock:
                self._seq += 1
                control_id = f"ctl-{self._seq}"
                slot = ResultSlot()
                generation = node.generation
                self._controls[control_id] = (node.idx, generation, slot)
            wire = {
                "proto": PROTO_VERSION,
                "id": control_id,
                "control": "metrics",
            }
            try:
                node.send(wire, generation)
            except OSError:
                with self._lock:
                    self._controls.pop(control_id, None)
                continue
            slots[node.idx] = (control_id, slot)
        deadline = time.monotonic() + timeout_s
        for idx, (control_id, slot) in slots.items():
            try:
                reply = slot.result(
                    max(0.01, deadline - time.monotonic())
                )
            except TimeoutError:
                with self._lock:
                    self._controls.pop(control_id, None)
                continue
            if reply.ok and isinstance(reply.summary, dict):
                out[idx] = reply.summary
        for node in self._nodes:
            # A node that could not be pulled (dead, draining, wedged
            # or mid-reconnect) degrades the snapshot, never fails it
            # — but the misses are themselves telemetry.
            if out[node.idx] is None and not node.closing:
                self._count(
                    "fabric_metrics_pull_failures_total",
                    self._node_labels(node.idx),
                )
        return out

    def node_status(self) -> Dict[int, dict]:
        """Reachability + liveness facts per node, for ``repro top``."""
        return {
            node.idx: {
                "reachable": node.ready(),
                "last_seen": node.last_seen or None,
                "generation": node.generation,
                "start_ms": node.start_ms,
            }
            for node in self._nodes
        }

    def fabric_snapshot(self, timeout_s: float = 5.0) -> dict:
        """The whole fabric's telemetry in one document.

        ``router`` is this process's registry, ``nodes`` maps node
        index to its snapshot (``None`` when unreachable) and
        ``merged`` folds router plus every reachable node into one
        registry via :meth:`MetricsRegistry.merge_snapshot` — the
        input of ``repro top``.
        """
        node_snapshots = self.collect_node_metrics(timeout_s)
        merged = MetricsRegistry()
        merged.merge(self.metrics)
        for snapshot in node_snapshots.values():
            if snapshot is not None:
                merged.merge_snapshot(snapshot)
        return {
            "router": self.metrics.snapshot(),
            "nodes": {
                str(idx): snap for idx, snap in node_snapshots.items()
            },
            "node_status": {
                str(idx): status
                for idx, status in self.node_status().items()
            },
            "merged": merged.snapshot(),
        }

    # -- supervision ---------------------------------------------------
    def _monitor_loop(self) -> None:
        while not self._stop.wait(self.config.monitor_interval_s):
            now = time.monotonic()
            for node in self._nodes:
                self._supervise(node, now)
            self._sync_gauges()

    def _request_wedged(self, node: _Node, now: float) -> bool:
        """A node holding a request past its deadline plus grace
        without answering is stuck — break the link so the failover
        path takes over."""
        with self._lock:
            return any(
                e.node == node.idx
                and e.generation == node.generation
                and now > e.deadline + self.config.failover_grace_s
                for e in self._pending.values()
            )

    def _supervise(self, node: _Node, now: float) -> None:
        """One supervision tick of a node.

        Ordering matters: a launch in flight is only checked for its
        announcement, never waited on; process death forces a
        relaunch; a live process with a lost connection reconnects,
        paced by the backoff schedule; a live connection gets
        heartbeat service — send a due ping, and tear down a link
        whose outstanding ping aged past the heartbeat timeout (the
        half-open signature).
        """
        if self._closed or node.closing:
            return
        if node.starting:
            self._advance_start(node, now)
            return
        if node.needs_respawn():
            if now < node.next_attempt_at:
                return
            node.break_link()
            self._count(
                "router_node_restarts_total",
                self._node_labels(node.idx),
            )
            node.launch()
            self._watch(node)
            return
        if not node.ready():
            if now >= node.next_attempt_at:
                self._connect(node)
            return
        if node.heartbeat.wedged():
            self._count(
                "router_node_wedges_total",
                self._node_labels(node.idx),
            )
            node.break_link()  # reader EOFs -> failover -> reconnect
            return
        if node.heartbeat.due():
            conn = node.conn
            ping = node.heartbeat.make_ping(
                scope=f"hb-{node.idx}-g{node.generation}"
            )
            try:
                # A write in progress (a client's request, say) is
                # never waited for: that would stall every node's
                # supervision behind one slow peer.  Skip this tick.
                if conn is not None and not conn.send(ping, wait=False):
                    node.heartbeat.cancel(ping["id"])
            except OSError:
                node.break_link()
                return
        if self._request_wedged(node, now):
            self._count(
                "router_node_wedges_total",
                self._node_labels(node.idx),
            )
            node.break_link()

    # -- shutdown ------------------------------------------------------
    def wait_drained(self, timeout: Optional[float] = None) -> bool:
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        with self._drained:
            while self._pending:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._drained.wait(remaining)
        return True

    def close(self, timeout: float = 60.0) -> bool:
        """Drain, stop the nodes gracefully and reap everything.

        Returns True when every in-flight request resolved and every
        node exited within ``timeout``.  Nodes get stdin EOF, answer
        their stragglers, export their metrics files (when
        ``node_metrics_dir`` is set) and exit on their own.
        """
        if not self._started:
            return True
        self._closed = True
        drained = self.wait_drained(timeout)
        self._stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
        budget = time.monotonic() + timeout
        # A respawn still starting finishes like its siblings: its
        # process must start before it can drain anyway.
        self._await_starts(until=budget)
        for node in self._nodes:
            node.close_stdin()
        clean = True
        for node in self._nodes:
            if node.proc is None:
                continue
            try:
                node.proc.wait(
                    timeout=max(0.1, budget - time.monotonic())
                )
            except subprocess.TimeoutExpired:
                node.kill()
                node.proc.wait()
                clean = False
        for node in self._nodes:
            node.break_link()  # unblock readers still in readline
        for reader in self._readers:
            reader.join(timeout=5.0)
        self._started = False
        return drained and clean

    # -- convenience ---------------------------------------------------
    def handle(self, request, wait_timeout=None) -> Response:
        """Synchronous submit-and-wait."""
        return self.submit(request).result(wait_timeout)
