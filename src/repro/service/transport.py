"""TCP socket transport for the proto:1 wire protocol.

The router fabric has always spoken newline-delimited ``proto: 1``
JSON documents; until now the only medium was a subprocess pipe.  This
module carries the *same framing* over real TCP sockets so the fabric
can span hosts, with robustness as the headline:

* **handshake** — the first line each peer sends is a
  :class:`Hello` advertising its ``proto`` version, handshake dialect,
  node id and supported execution backends.  A peer speaking an
  incompatible dialect is rejected *up front* with a typed
  ``handshake_failed`` error response — never half-parsed traffic;
* **reconnect with backoff** — :class:`BackoffPolicy` implements
  exponential backoff with seeded *full jitter*
  (``delay = U[0, 1) * min(cap, base * mult^attempt)``), so a thundering
  herd of reconnecting clients decorrelates deterministically per
  (seed, key, attempt) and campaigns replay exactly.  A connect budget
  that exhausts surfaces as a typed ``node_unavailable`` error;
* **liveness** — clients send ``{"control": "ping"}`` heartbeats that
  the server answers at the transport layer (never queued behind slow
  requests), giving an RTT signal and a *wedge detector*: a half-open
  socket — peer gone, no FIN/RST ever delivered — stops answering
  pings and is torn down instead of wedging its requests forever;
* **fault injection** — :class:`SocketChaos` reuses the seeded
  :class:`~repro.service.chaos.ChaosInjector` decision function to
  kill connections mid-response, go half-open (swallow responses while
  keeping the socket up) or trickle response bytes out one at a time,
  so the socket chaos campaigns replay exactly like the worker ones.

The server side (:class:`SocketServer`) wraps anything exposing the
``submit(document)`` / ``submit_json(line) -> ResultSlot`` surface (a
:class:`~repro.service.api.StencilService` behind ``repro serve
--listen``) and writes each reply on the thread that resolves its slot;
the client side (:func:`connect_with_backoff` +
:class:`SocketConnection`) is what the router's TCP node endpoints are
built from.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import select
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from .chaos import ChaosConfig, ChaosInjector
from .executor import observe_stage
from .proto import PROTO_VERSION, Response, error_response

__all__ = [
    "BackoffPolicy",
    "HANDSHAKE_VERSION",
    "HandshakeError",
    "Hello",
    "NodeUnavailableError",
    "SocketChaos",
    "SocketConnection",
    "SocketServer",
    "TransportError",
    "connect_with_backoff",
    "parse_address",
]

#: Bump on any incompatible change to the connect-time hello exchange.
HANDSHAKE_VERSION = 1

#: How long each side waits for the peer's hello line before giving up.
HANDSHAKE_TIMEOUT_S = 5.0

#: Longest one write may wait on a peer that stops reading, on either
#: end.  A node's replies are written by the thread that resolves the
#: request (an executor worker), and the router's requests by the
#: client thread that submits them, under the connection's write lock;
#: a stuck peer must hold neither: past this the connection is closed
#: and the write fails with ``OSError``.
SEND_TIMEOUT_S = 5.0

#: The one JSON encoding of every line on the wire (``sort_keys``
#: keeps equal documents byte-identical); built once, not per line.
_ENCODER = json.JSONEncoder(sort_keys=True)


def encode_line(document: dict) -> bytes:
    """One wire line: ``json.dumps(document, sort_keys=True)`` + LF."""
    return (_ENCODER.encode(document) + "\n").encode("utf-8")


def _send_bounded(sock: socket.socket, data: bytes) -> None:
    """``sendall`` bounded by :data:`SEND_TIMEOUT_S` in total.

    Raises ``OSError`` — ``TimeoutError`` once the peer has not
    drained its buffers in time.  Sends never block, so a reader's
    blocking reads on the same socket are unaffected.
    """
    view = memoryview(data)
    deadline = None
    while view:
        try:
            sent = sock.send(view, socket.MSG_DONTWAIT)
        except BlockingIOError:
            if deadline is None:
                deadline = time.monotonic() + SEND_TIMEOUT_S
            remaining = deadline - time.monotonic()
            poller = select.poll()
            poller.register(sock, select.POLLOUT)
            if remaining <= 0 or not poller.poll(remaining * 1e3):
                raise TimeoutError(
                    f"peer did not read for {SEND_TIMEOUT_S}s"
                ) from None
            continue
        view = view[sent:]


class TransportError(RuntimeError):
    """A socket-transport failure with a typed ``error.kind``."""

    kind = "internal"


class HandshakeError(TransportError):
    """The peer spoke an incompatible proto/handshake dialect."""

    kind = "handshake_failed"


class NodeUnavailableError(TransportError):
    """The reconnect/backoff budget exhausted without a connection."""

    kind = "node_unavailable"


def parse_address(text: str) -> Tuple[str, int]:
    """``"host:port"`` -> ``(host, port)`` (the only address syntax)."""
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"address must look like HOST:PORT, got {text!r}"
        )
    try:
        return host, int(port)
    except ValueError:
        raise ValueError(f"bad port in address {text!r}")


# ---------------------------------------------------------------------------
# handshake
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Hello:
    """The connect-time hello each peer sends as its first line.

    Both directions use the same document; ``role`` says which side is
    speaking.  Validation is strict on the two version fields and
    permissive on everything else (extra keys are future extensions,
    not errors).
    """

    node_id: str
    role: str  # "server" | "client"
    backends: Tuple[str, ...] = ()
    proto: int = PROTO_VERSION
    handshake: int = HANDSHAKE_VERSION

    def to_json(self) -> dict:
        return {
            "proto": self.proto,
            "handshake": self.handshake,
            "node_id": self.node_id,
            "role": self.role,
            "backends": list(self.backends),
        }

    @classmethod
    def from_json(cls, data: object) -> "Hello":
        if not isinstance(data, dict) or "handshake" not in data:
            raise HandshakeError(
                "peer's first line is not a handshake hello"
            )
        try:
            return cls(
                node_id=str(data.get("node_id", "?")),
                role=str(data.get("role", "?")),
                backends=tuple(
                    str(b) for b in data.get("backends", ())
                ),
                proto=int(data["proto"]),
                handshake=int(data["handshake"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise HandshakeError(f"malformed hello: {exc}") from exc

    def check_peer(self, peer: "Hello") -> None:
        """Reject a peer this transport cannot speak with."""
        if peer.proto != PROTO_VERSION:
            raise HandshakeError(
                f"peer {peer.node_id!r} speaks proto {peer.proto}, "
                f"this transport speaks proto {PROTO_VERSION}"
            )
        if peer.handshake != HANDSHAKE_VERSION:
            raise HandshakeError(
                f"peer {peer.node_id!r} speaks handshake dialect "
                f"{peer.handshake}, expected {HANDSHAKE_VERSION}"
            )


def default_node_id(role: str) -> str:
    return f"{role}-{socket.gethostname()}-{os.getpid()}"


# ---------------------------------------------------------------------------
# backoff
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class BackoffPolicy:
    """Exponential backoff with deterministic *full jitter*.

    ``delay(attempt, key)`` draws uniformly in ``[0, ceiling)`` where
    ``ceiling = min(cap_s, base_s * multiplier ** attempt)``.  The draw
    is a pure function of ``(seed, key, attempt)`` — the same trick the
    chaos injector uses — so reconnect storms decorrelate *and* replay
    exactly under a fixed seed.
    """

    base_s: float = 0.05
    cap_s: float = 2.0
    multiplier: float = 2.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.base_s <= 0 or self.cap_s <= 0:
            raise ValueError("backoff base/cap must be positive")
        if self.multiplier < 1.0:
            raise ValueError("backoff multiplier must be >= 1")

    def ceiling(self, attempt: int) -> float:
        """The un-jittered exponential envelope for ``attempt``."""
        return min(
            self.cap_s, self.base_s * self.multiplier ** max(0, attempt)
        )

    def delay(self, attempt: int, key: str = "") -> float:
        """Jittered delay before retry ``attempt`` (full jitter)."""
        payload = f"{self.seed}:{key}:{attempt}"
        digest = hashlib.sha256(payload.encode("utf-8")).digest()
        draw = int.from_bytes(digest[:8], "big") / 2.0 ** 64
        return draw * self.ceiling(attempt)


# ---------------------------------------------------------------------------
# client side
# ---------------------------------------------------------------------------
class SocketConnection:
    """One live, handshaken JSONL connection.

    ``send`` is locked (whole lines only, never interleaved) and
    bounded: a peer that stops reading for :data:`SEND_TIMEOUT_S` gets
    its connection closed and the write raises ``OSError``.
    ``readline`` returns ``""`` at EOF like a file.  ``closed`` flips
    exactly once, whichever side tears the connection down first.
    """

    def __init__(self, sock: socket.socket, peer: Hello) -> None:
        self.peer = peer
        self._sock = sock
        self._reader = sock.makefile("r", encoding="utf-8", newline="\n")
        self._write_lock = threading.Lock()
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    def send(self, document: dict, wait: bool = True) -> bool:
        """Write one line.  With ``wait=False`` a write lock held by
        another thread is not waited for: nothing is sent and the
        result is False."""
        data = encode_line(document)
        if not self._write_lock.acquire(wait):
            return False
        try:
            if self._closed:
                raise BrokenPipeError("connection is closed")
            try:
                _send_bounded(self._sock, data)
            except OSError:
                # A partial line may be out: nothing may follow it.
                self.close()
                raise
        finally:
            self._write_lock.release()
        return True

    def readline(self) -> str:
        try:
            return self._reader.readline()
        except (OSError, ValueError):
            return ""

    def close(self) -> None:
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass
        try:
            self._reader.close()
        except (OSError, ValueError):
            pass


def _exchange_client_hello(
    sock: socket.socket, hello: Hello, timeout_s: float
) -> Hello:
    """Client half of the handshake: send ours, validate theirs.

    The server may answer our hello with a typed error response
    (``handshake_failed``) instead of a hello — surface its detail.
    """
    sock.settimeout(timeout_s)
    sock.sendall(encode_line(hello.to_json()))
    reader = sock.makefile("r", encoding="utf-8", newline="\n")
    try:
        line = reader.readline()
    except (OSError, ValueError) as exc:
        raise HandshakeError(f"no hello from peer: {exc}") from exc
    finally:
        try:
            reader.detach()
        except (OSError, ValueError):
            pass
    if not line:
        raise HandshakeError("peer closed during handshake")
    try:
        data = json.loads(line)
    except ValueError as exc:
        raise HandshakeError(f"peer hello is not JSON: {exc}") from exc
    if isinstance(data, dict) and data.get("status") and (
        "handshake" not in data
    ):
        detail = (data.get("error") or {}).get("detail", "rejected")
        raise HandshakeError(f"server rejected handshake: {detail}")
    peer = Hello.from_json(data)
    hello.check_peer(peer)
    sock.settimeout(None)
    return peer


def connect_once(
    address: Tuple[str, int],
    hello: Hello,
    timeout_s: float = HANDSHAKE_TIMEOUT_S,
) -> SocketConnection:
    """One connect + handshake attempt; raises on any failure."""
    sock = socket.create_connection(address, timeout=timeout_s)
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        peer = _exchange_client_hello(sock, hello, timeout_s)
    except BaseException:
        try:
            sock.close()
        except OSError:
            pass
        raise
    return SocketConnection(sock, peer)


def connect_with_backoff(
    address: Tuple[str, int],
    hello: Hello,
    backoff: BackoffPolicy,
    max_attempts: int = 5,
    deadline: Optional[float] = None,
    sleep: Callable[[float], None] = time.sleep,
    connect: Callable[..., SocketConnection] = connect_once,
    on_attempt: Optional[Callable[[int, Exception], None]] = None,
) -> SocketConnection:
    """Connect + handshake within a reconnect budget.

    Retries transport-level failures (refused, reset, timed out) up to
    ``max_attempts`` times with full-jitter backoff, bounded by the
    optional monotonic ``deadline``.  A :class:`HandshakeError` is
    *not* retried — an incompatible peer will not become compatible by
    waiting — and propagates typed.  Budget exhaustion raises
    :class:`NodeUnavailableError` (``error.kind = node_unavailable``).

    ``sleep``/``connect`` are injectable so the backoff machinery is
    unit-testable against scripted fakes with no real network.
    """
    if max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    key = f"{address[0]}:{address[1]}"
    last: Optional[Exception] = None
    for attempt in range(max_attempts):
        if deadline is not None and time.monotonic() > deadline:
            break
        try:
            return connect(address, hello)
        except HandshakeError:
            raise
        except (OSError, ValueError) as exc:
            last = exc
            if on_attempt is not None:
                on_attempt(attempt, exc)
        if attempt + 1 < max_attempts:
            pause = backoff.delay(attempt, key)
            if deadline is not None:
                pause = min(
                    pause, max(0.0, deadline - time.monotonic())
                )
            if pause > 0:
                sleep(pause)
    raise NodeUnavailableError(
        f"could not connect to {key} after {max_attempts} attempts"
        + (f" (last error: {last})" if last else "")
    )


# ---------------------------------------------------------------------------
# heartbeats (client side)
# ---------------------------------------------------------------------------
class Heartbeat:
    """Wedge detection over ping/pong round trips.

    The owner calls :meth:`due` on its supervision tick; when a ping is
    due it sends ``make_ping()`` down the connection and the response
    path feeds pongs back through :meth:`observe_pong`.  A connection
    whose *outstanding* ping goes unanswered past ``timeout_s`` is
    declared **wedged** — exactly what a half-open socket looks like:
    writes still succeed into the kernel buffer, nothing ever answers.
    """

    def __init__(
        self,
        interval_s: float = 1.0,
        timeout_s: float = 5.0,
        now: Callable[[], float] = time.monotonic,
    ) -> None:
        if interval_s <= 0 or timeout_s <= 0:
            raise ValueError("heartbeat interval/timeout must be > 0")
        self.interval_s = interval_s
        self.timeout_s = timeout_s
        self._now = now
        self._seq = 0
        self._last_sent = -float("inf")
        #: ping id -> monotonic send time, for RTT + wedge detection.
        self._outstanding: Dict[str, float] = {}

    def due(self) -> bool:
        return self._now() - self._last_sent >= self.interval_s

    def make_ping(self, scope: str = "hb") -> dict:
        self._seq += 1
        ping_id = f"{scope}-{self._seq}"
        self._last_sent = self._now()
        self._outstanding[ping_id] = self._last_sent
        return {
            "proto": PROTO_VERSION,
            "id": ping_id,
            "control": "ping",
        }

    def cancel(self, ping_id: str) -> None:
        """Forget a ping that was never sent; the next is due at once."""
        self._outstanding.pop(ping_id, None)
        self._last_sent = -float("inf")

    def observe_pong(self, ping_id: str) -> Optional[float]:
        """RTT in seconds, or None for an unknown/duplicate pong."""
        sent = self._outstanding.pop(ping_id, None)
        if sent is None:
            return None
        return self._now() - sent

    def wedged(self) -> bool:
        """True when any outstanding ping is older than ``timeout_s``."""
        now = self._now()
        return any(
            now - sent > self.timeout_s
            for sent in self._outstanding.values()
        )

    def reset(self) -> None:
        """Forget outstanding pings (a fresh connection starts clean)."""
        self._outstanding.clear()
        self._last_sent = -float("inf")


# ---------------------------------------------------------------------------
# server side
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SocketChaos:
    """Seeded socket-level fault rates for one campaign.

    Reuses the :class:`ChaosInjector` decision function keyed on each
    response's request id, mapping its verbs onto transport faults:
    ``kill`` → close the connection abruptly before the response line
    is written; ``hang`` → go *half-open* (swallow this and all later
    responses on the connection while keeping the socket up — the
    classic silent peer); ``slow`` → trickle the response out a few
    bytes at a time.  All decisions replay exactly under one seed.
    """

    seed: int = 0
    conn_kill_rate: float = 0.0
    half_open_rate: float = 0.0
    trickle_rate: float = 0.0
    trickle_chunk: int = 7
    trickle_delay_s: float = 0.005

    def enabled(self) -> bool:
        return bool(
            self.conn_kill_rate
            or self.half_open_rate
            or self.trickle_rate
        )

    def injector(self) -> ChaosInjector:
        return ChaosInjector(
            ChaosConfig(
                seed=self.seed,
                kill_rate=self.conn_kill_rate,
                hang_rate=self.half_open_rate,
                slow_rate=self.trickle_rate,
            )
        )


class _Connection:
    """Server-side state of one accepted client connection."""

    def __init__(self, sock: socket.socket, address) -> None:
        self.sock = sock
        self.address = address
        self.write_lock = threading.Lock()
        self.half_open = False  # chaos: swallow all further responses
        self.closed = False
        self.reader: Optional[threading.Thread] = None

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


class SocketServer:
    """A JSONL-over-TCP front end for one service node.

    Accepts any number of client connections; each gets the handshake
    exchange, then a request/response stream where responses are
    written *as they resolve* (requests and responses match by ``id``,
    like everywhere else in the fabric — no head-of-line blocking).
    ``{"control": "ping"}`` documents are answered at this layer,
    immediately and out of band, so heartbeats stay honest while a
    slow compile occupies the service.

    One reader thread per connection parses each line once.  Request
    objects go to ``service.submit(document) -> ResultSlot``; every
    other line goes to ``service.submit_json(line) -> ResultSlot``
    (already newline-stripped), so malformed lines get the service's
    own error reply.  No thread is started per request: the reply is a
    done callback on the slot (:meth:`ResultSlot.add_done_callback`),
    encoded and written under the connection's write lock by whichever
    thread resolves it — a worker, or the reader itself for an
    immediate reply.  Only the trickle chaos fault, which sleeps
    between chunks, writes from a thread of its own.  The encode and
    write time lands on the ``reply`` stage of ``service_stage_ms``.
    A write never blocks for more than :data:`SEND_TIMEOUT_S`: a peer
    that stops reading has its connection closed, so it cannot stall
    the workers that serve every other connection.

    The server never drops a request without a response: a request
    accepted before a connection dies still runs, and its response
    write failure is counted, not raised.  For a graceful drain call
    :meth:`stop_accepting`, drain the service, then :meth:`stop`; the
    service resolves every admitted slot (writing its reply) before
    its drain returns.
    """

    def __init__(
        self,
        service,
        host: str = "127.0.0.1",
        port: int = 0,
        node_id: Optional[str] = None,
        backends: Tuple[str, ...] = ("interpreted", "compiled"),
        registry=None,
        chaos: Optional[SocketChaos] = None,
        handshake_timeout_s: float = HANDSHAKE_TIMEOUT_S,
    ) -> None:
        self._service = service
        self._host = host
        self._port = port
        self.hello = Hello(
            node_id=node_id or default_node_id("server"),
            role="server",
            backends=backends,
        )
        self._registry = registry
        self._chaos = (
            chaos.injector() if chaos and chaos.enabled() else None
        )
        self._chaos_config = chaos
        self._handshake_timeout_s = handshake_timeout_s
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._conns: List[_Connection] = []
        self._conn_lock = threading.Lock()
        self._stopping = threading.Event()
        self.address: Optional[Tuple[str, int]] = None

    # -- telemetry -----------------------------------------------------
    def _count(self, name: str, labels=None) -> None:
        if self._registry is not None:
            self._registry.counter(name, labels).inc()

    # -- lifecycle -----------------------------------------------------
    def start(self) -> Tuple[str, int]:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(
            socket.SOL_SOCKET, socket.SO_REUSEADDR, 1
        )
        listener.bind((self._host, self._port))
        listener.listen(64)
        self._listener = listener
        self.address = listener.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_loop,
            name="socket-server-accept",
            daemon=True,
        )
        self._accept_thread.start()
        return self.address

    def stop_accepting(self) -> None:
        """Close the listener; live connections keep serving."""
        self._stopping.set()
        if self._listener is not None:
            # close() alone does not wake a thread blocked in accept();
            # shutdown() does, so the join below returns at once.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)

    def stop(self) -> None:
        """Stop accepting, then close every connection.

        Each connection stops reading first and its reader is joined,
        so a reply the reader is writing itself is out before the
        socket closes.
        """
        self.stop_accepting()
        with self._conn_lock:
            conns = list(self._conns)
        for conn in conns:
            try:
                conn.sock.shutdown(socket.SHUT_RD)
            except OSError:
                pass
        deadline = time.monotonic() + 5.0
        for conn in conns:
            if conn.reader is not None:
                conn.reader.join(max(0.0, deadline - time.monotonic()))
            conn.close()

    def __enter__(self) -> "SocketServer":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- accept / handshake --------------------------------------------
    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._stopping.is_set():
            try:
                sock, address = self._listener.accept()
            except OSError:
                return  # listener closed
            sock.setsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
            )
            conn = _Connection(sock, address)
            conn.reader = threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name=f"socket-server-conn-{address}",
                daemon=True,
            )
            with self._conn_lock:
                self._conns.append(conn)
            conn.reader.start()

    def _write_line(self, conn: _Connection, document: dict) -> bool:
        data = encode_line(document)
        with conn.write_lock:
            if conn.closed or conn.half_open:
                return False
            try:
                _send_bounded(conn.sock, data)
            except OSError:
                # Broken or stuck peer; a partial line may be out, so
                # nothing else may follow it on this connection.
                conn.close()
                return False
        return True

    def _handshake(self, conn: _Connection) -> bool:
        """Exchange hellos; on mismatch answer with a typed error."""
        try:
            conn.sock.settimeout(self._handshake_timeout_s)
            reader = conn.sock.makefile(
                "r", encoding="utf-8", newline="\n"
            )
            try:
                line = reader.readline()
            finally:
                try:
                    reader.detach()
                except (OSError, ValueError):
                    pass
            if not line:
                raise HandshakeError("client closed during handshake")
            try:
                data = json.loads(line)
            except ValueError as exc:
                raise HandshakeError(
                    f"client hello is not JSON: {exc}"
                ) from exc
            peer = Hello.from_json(data)
            self.hello.check_peer(peer)
            conn.sock.settimeout(None)
        except HandshakeError as exc:
            self._count("service_handshake_failures_total")
            self._write_line(
                conn,
                error_response(
                    None, "invalid", str(exc), kind="handshake_failed"
                ).to_json(),
            )
            conn.close()
            return False
        except OSError:
            self._count("service_handshake_failures_total")
            conn.close()
            return False
        self._write_line(conn, self.hello.to_json())
        self._count("service_connections_total")
        return True

    # -- request plumbing ----------------------------------------------
    def _chaos_decision(self, request_id: str) -> str:
        if self._chaos is None:
            return "none"
        return self._chaos.decision(request_id or "?", 0)

    def _respond(
        self, conn: _Connection, request_id: str, response: Response
    ) -> None:
        """Write one resolved response, applying seeded socket chaos.

        A done callback: it runs on the thread that resolved the slot.
        """
        start_ns = time.perf_counter_ns()
        action = self._chaos_decision(request_id)
        if action == "kill":
            # The worst moment: the result exists, the client never
            # sees it on this connection.  It must fail over.
            self._count("service_conn_chaos_total", {"fault": "kill"})
            conn.close()
            return
        if action == "hang":
            # Half-open: this connection silently stops answering but
            # stays up — only heartbeats can tell.
            self._count(
                "service_conn_chaos_total", {"fault": "half_open"}
            )
            conn.half_open = True
            return
        if action == "slow":
            # The one reply written off the resolving thread: the
            # trickle sleeps between chunks and must not stall a worker.
            self._count(
                "service_conn_chaos_total", {"fault": "trickle"}
            )
            threading.Thread(
                target=self._trickle,
                args=(conn, response.to_json()),
                daemon=True,
            ).start()
            return
        if not self._write_line(conn, response.to_json()):
            self._count("service_conn_write_failures_total")
        if self._registry is not None:
            observe_stage(
                self._registry,
                "reply",
                (time.perf_counter_ns() - start_ns) / 1e6,
            )

    def _trickle(self, conn: _Connection, document: dict) -> None:
        """Write a response a few bytes at a time (slow-byte fault)."""
        assert self._chaos_config is not None
        chunk = max(1, self._chaos_config.trickle_chunk)
        delay = self._chaos_config.trickle_delay_s
        data = encode_line(document)
        try:
            with conn.write_lock:
                for k in range(0, len(data), chunk):
                    if conn.closed or conn.half_open:
                        return
                    _send_bounded(conn.sock, data[k:k + chunk])
                    time.sleep(delay)
        except OSError:
            conn.close()
            self._count("service_conn_write_failures_total")

    def _serve_connection(self, conn: _Connection) -> None:
        if not self._handshake(conn):
            return
        reader = conn.sock.makefile("r", encoding="utf-8", newline="\n")
        try:
            for line in reader:
                line = line.strip()
                if not line:
                    continue
                document = None
                try:
                    document = json.loads(line)
                except ValueError:
                    pass
                if (
                    isinstance(document, dict)
                    and document.get("control") == "ping"
                ):
                    # Transport-level pong: immediate, out of band, so
                    # a slow compile never masks connection liveness.
                    pong = {
                        "proto": PROTO_VERSION,
                        "id": document.get("id"),
                        "status": "ok",
                        "summary": {"pong": True},
                    }
                    if "t" in document:
                        pong["summary"]["t"] = document["t"]
                    self._write_line(conn, pong)
                    continue
                if isinstance(document, dict):
                    slot = self._service.submit(document)
                else:
                    slot = self._service.submit_json(line)
                request_id = (
                    str(document.get("id"))
                    if isinstance(document, dict)
                    and document.get("id") is not None
                    else ""
                )
                slot.add_done_callback(
                    functools.partial(self._respond, conn, request_id)
                )
        except (OSError, ValueError):
            pass
        finally:
            try:
                reader.close()
            except (OSError, ValueError):
                pass
            conn.close()
            with self._conn_lock:
                if conn in self._conns:
                    self._conns.remove(conn)
