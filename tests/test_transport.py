"""Unit tests for repro.service.transport: backoff, handshake,
heartbeat wedge detection and the socket codec.

The backoff/heartbeat/connect-budget tests run against scripted fakes —
no real network — so the policy machinery is tested in isolation.  A
small set of codec tests use a real localhost socket pair because the
framing itself is the unit under test there.
"""

import json
import os
import queue
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.service.proto import PROTO_VERSION
from repro.service.scheduler import ResultSlot
from repro.service.transport import (
    HANDSHAKE_VERSION,
    BackoffPolicy,
    HandshakeError,
    Heartbeat,
    Hello,
    NodeUnavailableError,
    SocketChaos,
    SocketServer,
    connect_once,
    connect_with_backoff,
    parse_address,
)


class TestParseAddress:
    def test_host_port(self):
        assert parse_address("127.0.0.1:8080") == ("127.0.0.1", 8080)

    def test_hostname(self):
        assert parse_address("example.test:1") == ("example.test", 1)

    @pytest.mark.parametrize("bad", ["", "host", ":80", "host:nan"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_address(bad)


class TestBackoffPolicy:
    def test_ceiling_is_exponential_then_capped(self):
        policy = BackoffPolicy(base_s=0.1, cap_s=1.0, multiplier=2.0)
        assert policy.ceiling(0) == pytest.approx(0.1)
        assert policy.ceiling(1) == pytest.approx(0.2)
        assert policy.ceiling(2) == pytest.approx(0.4)
        assert policy.ceiling(10) == pytest.approx(1.0)  # capped

    def test_jitter_bounds(self):
        """Every delay lands in [0, ceiling) — full jitter."""
        policy = BackoffPolicy(base_s=0.05, cap_s=2.0, seed=7)
        for attempt in range(12):
            for key in ("node-0", "node-1", "10.0.0.1:9"):
                d = policy.delay(attempt, key)
                assert 0.0 <= d < policy.ceiling(attempt)

    def test_deterministic_per_seed_key_attempt(self):
        a = BackoffPolicy(seed=3)
        b = BackoffPolicy(seed=3)
        assert a.delay(4, "k") == b.delay(4, "k")

    def test_decorrelated_across_keys_and_seeds(self):
        policy = BackoffPolicy(seed=0)
        assert policy.delay(2, "node-0") != policy.delay(2, "node-1")
        assert BackoffPolicy(seed=0).delay(2, "k") != BackoffPolicy(
            seed=1
        ).delay(2, "k")

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            BackoffPolicy(base_s=0.0)
        with pytest.raises(ValueError):
            BackoffPolicy(cap_s=-1.0)
        with pytest.raises(ValueError):
            BackoffPolicy(multiplier=0.5)


class TestConnectWithBackoff:
    """Budget/retry behavior against scripted connect/sleep fakes."""

    ADDRESS = ("198.51.100.1", 9)  # TEST-NET; never dialed (fakes)
    HELLO = Hello(node_id="t", role="client")

    def test_budget_exhaustion_is_node_unavailable(self):
        attempts, sleeps = [], []

        def connect(address, hello):
            attempts.append(address)
            raise ConnectionRefusedError("refused")

        with pytest.raises(NodeUnavailableError) as err:
            connect_with_backoff(
                self.ADDRESS,
                self.HELLO,
                BackoffPolicy(seed=1),
                max_attempts=4,
                sleep=sleeps.append,
                connect=connect,
            )
        assert len(attempts) == 4
        assert len(sleeps) == 3  # no sleep after the final attempt
        assert err.value.kind == "node_unavailable"
        assert "refused" in str(err.value)

    def test_sleeps_follow_the_policy(self):
        policy = BackoffPolicy(seed=5)
        sleeps = []

        def connect(address, hello):
            raise ConnectionRefusedError

        with pytest.raises(NodeUnavailableError):
            connect_with_backoff(
                self.ADDRESS,
                self.HELLO,
                policy,
                max_attempts=3,
                sleep=sleeps.append,
                connect=connect,
            )
        key = f"{self.ADDRESS[0]}:{self.ADDRESS[1]}"
        assert sleeps == [policy.delay(0, key), policy.delay(1, key)]

    def test_succeeds_after_transient_failures(self):
        calls = []

        def connect(address, hello):
            calls.append(address)
            if len(calls) < 3:
                raise ConnectionResetError
            return "the-connection"

        conn = connect_with_backoff(
            self.ADDRESS,
            self.HELLO,
            BackoffPolicy(seed=0),
            max_attempts=5,
            sleep=lambda s: None,
            connect=connect,
        )
        assert conn == "the-connection"
        assert len(calls) == 3

    def test_handshake_error_is_never_retried(self):
        calls = []

        def connect(address, hello):
            calls.append(address)
            raise HandshakeError("wrong dialect")

        with pytest.raises(HandshakeError):
            connect_with_backoff(
                self.ADDRESS,
                self.HELLO,
                BackoffPolicy(seed=0),
                max_attempts=5,
                sleep=lambda s: None,
                connect=connect,
            )
        assert len(calls) == 1

    def test_on_attempt_observes_each_failure(self):
        seen = []

        def connect(address, hello):
            raise ConnectionRefusedError

        with pytest.raises(NodeUnavailableError):
            connect_with_backoff(
                self.ADDRESS,
                self.HELLO,
                BackoffPolicy(seed=0),
                max_attempts=3,
                sleep=lambda s: None,
                connect=connect,
                on_attempt=lambda n, exc: seen.append(n),
            )
        assert seen == [0, 1, 2]


class TestHello:
    def test_round_trip(self):
        hello = Hello(
            node_id="n0", role="server", backends=("compiled",)
        )
        assert Hello.from_json(hello.to_json()) == hello

    def test_extra_keys_are_tolerated(self):
        data = Hello(node_id="n", role="client").to_json()
        data["future_extension"] = {"x": 1}
        assert Hello.from_json(data).node_id == "n"

    def test_rejects_non_hello_first_line(self):
        with pytest.raises(HandshakeError):
            Hello.from_json({"proto": PROTO_VERSION, "id": "r1"})

    def test_rejects_wrong_proto(self):
        ours = Hello(node_id="a", role="client")
        theirs = Hello(
            node_id="b", role="server", proto=PROTO_VERSION + 1
        )
        with pytest.raises(HandshakeError):
            ours.check_peer(theirs)

    def test_rejects_wrong_handshake_dialect(self):
        ours = Hello(node_id="a", role="client")
        theirs = Hello(
            node_id="b",
            role="server",
            handshake=HANDSHAKE_VERSION + 1,
        )
        with pytest.raises(HandshakeError):
            ours.check_peer(theirs)


class TestHeartbeat:
    """Scripted-clock heartbeat: due/pong/wedge with no real time."""

    def make(self, interval=1.0, timeout=5.0):
        clock = {"t": 0.0}
        hb = Heartbeat(
            interval_s=interval,
            timeout_s=timeout,
            now=lambda: clock["t"],
        )
        return hb, clock

    def test_due_immediately_then_paced(self):
        hb, clock = self.make(interval=2.0)
        assert hb.due()
        hb.make_ping()
        assert not hb.due()
        clock["t"] = 2.0
        assert hb.due()

    def test_pong_round_trip_reports_rtt(self):
        hb, clock = self.make()
        ping = hb.make_ping(scope="hb-0")
        assert ping["control"] == "ping"
        clock["t"] = 0.25
        assert hb.observe_pong(ping["id"]) == pytest.approx(0.25)

    def test_unknown_and_duplicate_pongs_return_none(self):
        hb, clock = self.make()
        ping = hb.make_ping()
        assert hb.observe_pong("no-such-ping") is None
        hb.observe_pong(ping["id"])
        assert hb.observe_pong(ping["id"]) is None

    def test_wedge_when_outstanding_ping_times_out(self):
        """The half-open signature: pings leave, pongs never return."""
        hb, clock = self.make(timeout=5.0)
        hb.make_ping()
        clock["t"] = 5.0
        assert not hb.wedged()  # exactly at the limit, not past it
        clock["t"] = 5.01
        assert hb.wedged()

    def test_answered_pings_never_wedge(self):
        hb, clock = self.make(interval=1.0, timeout=5.0)
        for k in range(10):
            ping = hb.make_ping()
            clock["t"] = float(k)
            hb.observe_pong(ping["id"])
        clock["t"] = 100.0
        assert not hb.wedged()

    def test_reset_clears_outstanding(self):
        hb, clock = self.make(timeout=1.0)
        hb.make_ping()
        clock["t"] = 10.0
        assert hb.wedged()
        hb.reset()
        assert not hb.wedged()
        assert hb.due()

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            Heartbeat(interval_s=0.0)
        with pytest.raises(ValueError):
            Heartbeat(timeout_s=-1.0)


class _EchoResponse:
    def __init__(self, document):
        self._document = document

    def to_json(self):
        return self._document


def _echo_response(request_id, pad=0):
    document = {
        "proto": PROTO_VERSION,
        "id": request_id,
        "status": "ok",
        "summary": {"echo": True},
    }
    if pad:
        document["pad"] = "x" * pad
    return _EchoResponse(document)


class _EchoService:
    """A fake service: echoes the request id back with status ok."""

    def submit(self, document):
        slot = ResultSlot()
        slot.resolve(_echo_response(document.get("id")))
        return slot

    def submit_json(self, line):
        return self.submit(json.loads(line))


#: The echo double every server test passes as its service.
_echo_submit = _EchoService()


class TestSocketServer:
    """Real-localhost codec tests: handshake, ping, request/response."""

    def test_handshake_and_echo(self):
        registry = MetricsRegistry()
        with SocketServer(
            _echo_submit, node_id="srv", registry=registry
        ) as server:
            conn = connect_once(
                server.address, Hello(node_id="cli", role="client")
            )
            try:
                assert conn.peer.node_id == "srv"
                assert conn.peer.role == "server"
                conn.send({"proto": PROTO_VERSION, "id": "r1"})
                reply = json.loads(conn.readline())
                assert reply["id"] == "r1"
                assert reply["status"] == "ok"
            finally:
                conn.close()
        assert (
            registry.counter("service_connections_total").value == 1
        )

    def test_transport_level_pong(self):
        with SocketServer(_echo_submit) as server:
            conn = connect_once(
                server.address, Hello(node_id="cli", role="client")
            )
            try:
                hb = Heartbeat()
                conn.send(hb.make_ping(scope="t"))
                pong = json.loads(conn.readline())
                assert pong["summary"]["pong"] is True
                assert hb.observe_pong(pong["id"]) is not None
            finally:
                conn.close()

    def test_incompatible_client_gets_typed_rejection(self):
        registry = MetricsRegistry()
        with SocketServer(_echo_submit, registry=registry) as server:
            bad = Hello(
                node_id="cli",
                role="client",
                handshake=HANDSHAKE_VERSION + 1,
            )
            with pytest.raises(HandshakeError) as err:
                connect_once(server.address, bad)
            assert "handshake dialect" in str(err.value)
        assert (
            registry.counter(
                "service_handshake_failures_total"
            ).value == 1
        )

    def test_half_open_chaos_swallows_response_but_not_connection(self):
        """hang → the reply vanishes while the socket stays up; a
        later heartbeat is the only way to notice (it is swallowed
        too, which is exactly the wedge signature)."""
        chaos = SocketChaos(seed=0, half_open_rate=1.0)
        with SocketServer(_echo_submit, chaos=chaos) as server:
            conn = connect_once(
                server.address, Hello(node_id="cli", role="client")
            )
            try:
                conn.send({"proto": PROTO_VERSION, "id": "r1"})
                # Give the response path time to go half-open, then
                # probe: sends still succeed, nothing ever answers.
                time.sleep(0.2)
                conn.send({"control": "ping", "id": "hb-1"})
                got = {}

                def read():
                    got["line"] = conn.readline()

                reader = threading.Thread(target=read, daemon=True)
                reader.start()
                reader.join(timeout=0.5)
                assert reader.is_alive()  # nothing ever arrives
            finally:
                conn.close()

    def test_trickle_chaos_delivers_intact_response(self):
        chaos = SocketChaos(
            seed=0,
            trickle_rate=1.0,
            trickle_chunk=3,
            trickle_delay_s=0.001,
        )
        with SocketServer(_echo_submit, chaos=chaos) as server:
            conn = connect_once(
                server.address, Hello(node_id="cli", role="client")
            )
            try:
                conn.send({"proto": PROTO_VERSION, "id": "r-slow"})
                reply = json.loads(conn.readline())
                assert reply["id"] == "r-slow"
                assert reply["status"] == "ok"
            finally:
                conn.close()

    def test_stop_wakes_the_blocked_accept_thread(self):
        """Closing a listener does not wake a thread parked in
        accept(); stop() must, or every graceful node shutdown pays
        the full join timeout."""
        server = SocketServer(_echo_submit)
        server.start()
        time.sleep(0.05)  # let the accept thread block
        started = time.monotonic()
        server.stop()
        assert time.monotonic() - started < 1.0
        assert not server._accept_thread.is_alive()

    def test_conn_kill_chaos_closes_connection(self):
        chaos = SocketChaos(seed=0, conn_kill_rate=1.0)
        with SocketServer(_echo_submit, chaos=chaos) as server:
            conn = connect_once(
                server.address, Hello(node_id="cli", role="client")
            )
            try:
                conn.send({"proto": PROTO_VERSION, "id": "r1"})
                assert conn.readline() == ""  # EOF, not a reply
            finally:
                conn.close()


class _WorkerEcho:
    """A fake service whose slots resolve on one worker thread, the
    way the real executor resolves them; ``pad`` bytes of filler make
    each reply that much larger."""

    def __init__(self, pad=0):
        self._pad = pad
        self._pending = queue.Queue()
        self.submitted = []
        self.lines = []
        self._worker = threading.Thread(target=self._run, daemon=True)
        self._worker.start()

    def _run(self):
        while True:
            item = self._pending.get()
            if item is None:
                return
            slot, request_id = item
            slot.resolve(_echo_response(request_id, self._pad))

    def submit(self, document):
        self.submitted.append(document)
        slot = ResultSlot()
        self._pending.put((slot, document.get("id")))
        return slot

    def submit_json(self, line):
        self.lines.append(line)
        return _echo_submit.submit_json(line)

    def close(self):
        self._pending.put(None)
        self._worker.join(timeout=5.0)


class TestReplyPath:
    """Replies are written by the thread that resolves the slot."""

    def test_no_thread_per_request(self, monkeypatch):
        service = _WorkerEcho()
        try:
            with SocketServer(service) as server:
                conn = connect_once(
                    server.address, Hello(node_id="cli", role="client")
                )
                constructed = []
                real_thread = threading.Thread

                class CountingThread(real_thread):
                    def __init__(self, *args, **kwargs):
                        constructed.append(kwargs.get("name"))
                        super().__init__(*args, **kwargs)

                monkeypatch.setattr(
                    "repro.service.transport.threading.Thread",
                    CountingThread,
                )
                try:
                    for k in range(200):
                        conn.send({"proto": PROTO_VERSION, "id": f"r{k}"})
                    ids = {
                        json.loads(conn.readline())["id"]
                        for _ in range(200)
                    }
                finally:
                    monkeypatch.undo()
                    conn.close()
        finally:
            service.close()
        assert ids == {f"r{k}" for k in range(200)}
        assert constructed == []

    def test_each_line_is_parsed_once(self):
        service = _WorkerEcho()
        try:
            with SocketServer(service) as server:
                conn = connect_once(
                    server.address, Hello(node_id="cli", role="client")
                )
                try:
                    conn.send({"proto": PROTO_VERSION, "id": "r1"})
                    assert json.loads(conn.readline())["id"] == "r1"
                finally:
                    conn.close()
        finally:
            service.close()
        assert service.submitted == [{"proto": PROTO_VERSION, "id": "r1"}]
        assert service.lines == []

    def test_reply_stage_is_timed(self):
        registry = MetricsRegistry()
        with SocketServer(_echo_submit, registry=registry) as server:
            conn = connect_once(
                server.address, Hello(node_id="cli", role="client")
            )
            try:
                conn.send({"proto": PROTO_VERSION, "id": "r1"})
                assert json.loads(conn.readline())["id"] == "r1"
            finally:
                conn.close()
        # stop() joined the reader that wrote (and timed) the reply.
        stage = registry.histogram("service_stage_ms", {"stage": "reply"})
        assert stage.count == 1

    def test_peer_that_stops_reading_cannot_stall_the_node(
        self, monkeypatch
    ):
        """A client that never reads fills its socket buffers.  The
        worker writing to it gives up after ``SEND_TIMEOUT_S`` and
        closes that connection, so another connection served by the
        same worker is still answered."""
        monkeypatch.setattr(
            "repro.service.transport.SEND_TIMEOUT_S", 0.3
        )
        registry = MetricsRegistry()
        # 64 replies of 256 KiB: far past any loopback buffer sizes.
        service = _WorkerEcho(pad=1 << 18)
        try:
            with SocketServer(service, registry=registry) as server:
                stuck = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                stuck.setsockopt(
                    socket.SOL_SOCKET, socket.SO_RCVBUF, 4096
                )
                stuck.connect(server.address)
                reader = stuck.makefile("r", encoding="utf-8")
                other = None
                try:
                    hello = Hello(node_id="stuck", role="client")
                    stuck.sendall(
                        (json.dumps(hello.to_json()) + "\n").encode()
                    )
                    assert "handshake" in json.loads(reader.readline())
                    stuck.sendall(
                        "".join(
                            json.dumps(
                                {"proto": PROTO_VERSION, "id": f"s{k}"}
                            )
                            + "\n"
                            for k in range(64)
                        ).encode()
                    )
                    other = connect_once(
                        server.address,
                        Hello(node_id="other", role="client"),
                    )
                    other.send({"proto": PROTO_VERSION, "id": "live"})
                    got = {}
                    waiter = threading.Thread(
                        target=lambda: got.update(
                            line=other.readline()
                        ),
                        daemon=True,
                    )
                    waiter.start()
                    waiter.join(timeout=10.0)
                    assert not waiter.is_alive(), "node stalled"
                finally:
                    if other is not None:
                        other.close()
                    reader.close()
                    stuck.close()
        finally:
            service.close()
        assert json.loads(got["line"])["id"] == "live"
        assert (
            registry.counter("service_conn_write_failures_total").value
            >= 1
        )

    def test_non_object_lines_get_the_services_own_reply(self):
        """Lines that are not JSON objects skip the server's parse and
        reach ``submit_json``: the wire reply is byte-identical to the
        service's direct answer."""
        from repro.service import ServiceConfig, StencilService

        bad_lines = ["not json at all", "[1, 2]"]
        with StencilService(ServiceConfig(workers=1)) as service:
            expected = [
                json.dumps(
                    service.submit_json(line).result(5.0).to_json(),
                    sort_keys=True,
                )
                for line in bad_lines
            ]
            with SocketServer(service) as server:
                sock = socket.create_connection(server.address)
                reader = sock.makefile("r", encoding="utf-8")
                try:
                    hello = Hello(node_id="cli", role="client")
                    sock.sendall(
                        (json.dumps(hello.to_json()) + "\n").encode()
                    )
                    assert "handshake" in json.loads(reader.readline())
                    sock.sendall(
                        "".join(f"{line}\n" for line in bad_lines).encode()
                    )
                    got = [reader.readline().rstrip("\n") for _ in bad_lines]
                finally:
                    reader.close()
                    sock.close()
        assert got == expected
        assert "bad request JSON" in got[0]


@pytest.mark.slow
class TestServeListenDrain:
    def test_stdin_eof_delivers_every_accepted_reply(self, tmp_path):
        """Closing a ``serve --listen`` node's stdin drains it: every
        request it accepted gets its reply before the socket closes."""
        root = Path(__file__).resolve().parents[1]
        proc = subprocess.Popen(
            [
                sys.executable, "-u", "-m", "repro", "serve",
                "--listen", "127.0.0.1:0", "--workers", "2",
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            cwd=str(tmp_path),
            env={**os.environ, "PYTHONPATH": str(root / "src")},
        )
        try:
            address = json.loads(proc.stdout.readline())["listening"]
            conn = connect_once(
                parse_address(address), Hello(node_id="cli", role="client")
            )
            ids = [f"d{k}" for k in range(32)]
            try:
                for k, request_id in enumerate(ids):
                    conn.send(
                        {
                            "proto": 1,
                            "id": request_id,
                            "benchmark": ("SOBEL", "DENOISE")[k % 2],
                            "grid": [10, 12],
                            "seed": k,
                        }
                    )
                # The pong comes back after the reader has admitted
                # every request before it; then start the drain.
                conn.send({"control": "ping", "id": "hb"})
                lines = []
                while True:
                    line = conn.readline()
                    assert line, "connection closed before the pong"
                    if json.loads(line)["id"] == "hb":
                        break
                    lines.append(line)
                proc.stdin.close()
                while True:
                    line = conn.readline()
                    if not line:
                        break
                    lines.append(line)
            finally:
                conn.close()
            assert proc.wait(timeout=120) == 0
            stderr = proc.stderr.read()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        replies = [json.loads(line) for line in lines]
        assert sorted(r["id"] for r in replies) == sorted(ids)
        assert {r["status"] for r in replies} == {"ok"}
        assert "drained: True" in stderr


class TestSocketConnection:
    def test_send_after_close_raises(self):
        a, b = socket.socketpair()
        from repro.service.transport import SocketConnection

        conn = SocketConnection(a, Hello(node_id="p", role="server"))
        conn.close()
        b.close()
        with pytest.raises(BrokenPipeError):
            conn.send({"x": 1})
