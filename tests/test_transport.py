"""Unit tests for repro.service.transport: backoff, handshake,
heartbeat wedge detection and the socket codec.

The backoff/heartbeat/connect-budget tests run against scripted fakes —
no real network — so the policy machinery is tested in isolation.  A
small set of codec tests use a real localhost socket pair because the
framing itself is the unit under test there.
"""

import json
import socket
import threading
import time

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.service.proto import PROTO_VERSION
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


class _Slot:
    """A pre-resolved ResultSlot stand-in."""

    def __init__(self, response):
        self._response = response

    def result(self, timeout=None):
        return self._response


class _EchoResponse:
    def __init__(self, document):
        self._document = document

    def to_json(self):
        return self._document


def _echo_submit(line):
    """A fake service: echoes the request id back with status ok."""
    document = json.loads(line)
    return _Slot(
        _EchoResponse(
            {
                "proto": PROTO_VERSION,
                "id": document.get("id"),
                "status": "ok",
                "summary": {"echo": True},
            }
        )
    )


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


class TestSocketConnection:
    def test_send_after_close_raises(self):
        a, b = socket.socketpair()
        from repro.service.transport import SocketConnection

        conn = SocketConnection(a, Hello(node_id="p", role="server"))
        conn.close()
        b.close()
        with pytest.raises(BrokenPipeError):
            conn.send({"x": 1})
