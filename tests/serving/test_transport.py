"""Transport write path: NODELAY, one write per batch, bytes-safe reads.

In-process :class:`SocketServer` and stdio tests for how replies leave
the process: every accepted connection has ``TCP_NODELAY`` set, one
batch's replies to one connection go out in a single ``sendall``, many
pipelining connections each get exactly their own whole reply lines,
and a line that is not UTF-8 (or an op line that raises) is answered
with a typed error without costing the connection or its neighbouring
lines.  No assertion here
depends on wall-clock time; timeouts only guard against hangs.
"""

import io
import json
import socket
import sys
import threading

import pytest

from repro.serving.server import (ServingStack, SocketServer,
                                  encode_responses, serve_stdio)

pytestmark = pytest.mark.serving

REQ = {"field_0": 1, "field_1": 2, "field_2": 3}


class CountingSocket(socket.socket):
    """A real socket that records every ``sendall`` payload."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.sends = []

    def sendall(self, data, *args):
        self.sends.append(bytes(data))
        return super().sendall(data, *args)


class RecordingServer(SocketServer):
    """Keeps each accepted connection, re-wrapped to count its sends."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.conns = []

    def _handle_connection(self, conn):
        counted = CountingSocket(conn.family, conn.type, conn.proto,
                                 fileno=conn.detach())
        self.conns.append(counted)
        super()._handle_connection(counted)


def make_server(make_service, server_cls=SocketServer, **kwargs):
    stack = ServingStack(service=make_service(),
                         model_name="lr", dataset="test")
    server = server_cls(stack, **kwargs)
    host, port = server.start()
    return server, host, port


def request_line(request_id):
    return (json.dumps({"features": REQ, "request_id": request_id})
            + "\n").encode()


def read_replies(conn, count):
    reader = conn.makefile("rb")
    try:
        return [json.loads(reader.readline()) for _ in range(count)]
    finally:
        reader.close()


class TestSocketWrites:
    def test_accepted_connection_has_nodelay(self, make_service):
        server, host, port = make_server(make_service, RecordingServer)
        try:
            with socket.create_connection((host, port), timeout=10.0) as conn:
                conn.sendall(request_line("r0"))
                reply, = read_replies(conn, 1)
                assert reply["status"] == "ok"
                accepted, = server.conns
                assert accepted.getsockopt(socket.IPPROTO_TCP,
                                           socket.TCP_NODELAY) != 0
        finally:
            server.shutdown(drain_s=5.0)

    def test_one_batch_leaves_in_one_send(self, make_service):
        # The batch fills (32 of 32) long before the wait budget runs
        # out, so exactly one batch forms and it is flushed when full.
        server, host, port = make_server(
            make_service, RecordingServer, workers=1, batch_size=32,
            batch_wait_ms=10_000.0, queue_depth=64)
        try:
            ids = [f"r{i}" for i in range(32)]
            with socket.create_connection((host, port), timeout=30.0) as conn:
                conn.sendall(b"".join(request_line(i) for i in ids))
                replies = read_replies(conn, len(ids))
            assert [r["request_id"] for r in replies] == ids
            assert all(r["status"] == "ok" for r in replies)
            accepted, = server.conns
            assert len(accepted.sends) == 1
            assert accepted.sends[0].count(b"\n") == len(ids)
        finally:
            server.shutdown(drain_s=5.0)

    def test_pipelining_connections_get_their_own_whole_lines(
            self, make_service):
        server, host, port = make_server(
            make_service, workers=4, batch_size=32, queue_depth=1024)
        clients, bursts, burst = 4, 5, 32
        received, failures = {}, []

        def client(tag):
            try:
                with socket.create_connection((host, port),
                                              timeout=30.0) as conn:
                    reader = conn.makefile("rb")
                    got = []
                    for b in range(bursts):
                        ids = [f"{tag}-{b}-{k}" for k in range(burst)]
                        conn.sendall(b"".join(request_line(i) for i in ids))
                        # Every reply line must parse on its own: a torn
                        # or interleaved line fails json.loads here.
                        got.extend(json.loads(reader.readline())
                                   for _ in ids)
                    reader.close()
                received[tag] = got
            except Exception as exc:  # noqa: BLE001 — surfaced below
                failures.append((tag, repr(exc)))

        threads = [threading.Thread(target=client, args=(f"c{c}",))
                   for c in range(clients)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # many more chances to interleave
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
            server.shutdown(drain_s=5.0)

        assert not failures, failures
        assert server.drain_dropped == 0
        for tag, replies in received.items():
            ids = [r["request_id"] for r in replies]
            # Exactly once each, and only on the connection that sent it.
            assert sorted(ids) == sorted(f"{tag}-{b}-{k}"
                                         for b in range(bursts)
                                         for k in range(burst))
            assert all(r["status"] == "ok" for r in replies)
        assert len(received) == clients


@pytest.mark.parametrize("batch_size", [1, 32])
class TestUndecodableLine:
    def test_bad_bytes_are_answered_and_the_connection_lives(
            self, make_service, batch_size):
        server, host, port = make_server(make_service,
                                         batch_size=batch_size)
        try:
            with socket.create_connection((host, port), timeout=10.0) as conn:
                conn.sendall(request_line("before")
                             + b"\xff\xfe garbage\n"
                             + request_line("after"))
                replies = read_replies(conn, 3)
                by_id = {r.get("request_id"): r for r in replies}
                assert by_id["before"]["status"] == "ok"
                assert by_id["after"]["status"] == "ok"
                invalid = by_id[None]
                assert invalid["status"] == "invalid"
                assert invalid["error"]["code"] == "invalid_request"

                conn.sendall(request_line("later"))  # still open
                reply, = read_replies(conn, 1)
                assert reply["request_id"] == "later"
                assert reply["status"] == "ok"
        finally:
            server.shutdown(drain_s=5.0)
        assert server.drain_dropped == 0


class TestFailingOp:
    def test_failing_op_is_answered_and_the_connection_lives(
            self, make_service):
        # A bare PredictionService has no probes, so ``health`` raises
        # inside the op handler: the line gets a typed ``internal``
        # error and the scoring line behind it is still answered.
        server, host, port = make_server(make_service)
        try:
            with socket.create_connection((host, port), timeout=10.0) as conn:
                conn.sendall(json.dumps({"op": "health"}).encode() + b"\n"
                             + request_line("after"))
                failed, reply = read_replies(conn, 2)
            assert failed["status"] == "error"
            assert failed["error"]["code"] == "internal"
            assert "health" in failed["error"]["message"]
            assert reply["request_id"] == "after"
            assert reply["status"] == "ok"
        finally:
            server.shutdown(drain_s=5.0)


class CountingText(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


class TestStdioWrites:
    def stack(self, make_service):
        return ServingStack(service=make_service(),
                            model_name="lr", dataset="test")

    def test_one_write_per_batch_in_input_order(self, make_service):
        ids = [f"r{i}" for i in range(32)]
        stdin = io.StringIO("".join(request_line(i).decode() for i in ids))
        stdout = CountingText()
        serve_stdio(self.stack(make_service), stdin, stdout,
                    batch_size=32, batch_wait_ms=10_000.0)
        ready, *replies = stdout.getvalue().splitlines()
        assert json.loads(ready)["status"] == "ready"
        assert [json.loads(r)["request_id"] for r in replies] == ids
        reply_writes = [w for w in stdout.writes if "request_id" in w]
        assert len(reply_writes) == 1

    @pytest.mark.parametrize("batch_size", [1, 8])
    def test_lines_after_shutdown_go_unanswered(self, make_service,
                                                batch_size):
        lines = [request_line("a").decode(),
                 json.dumps({"op": "shutdown"}) + "\n",
                 request_line("b").decode()]
        stdout = io.StringIO()
        serve_stdio(self.stack(make_service), io.StringIO("".join(lines)),
                    stdout, batch_size=batch_size, batch_wait_ms=10_000.0)
        _ready, *replies = [json.loads(line)
                            for line in stdout.getvalue().splitlines()]
        assert [r.get("request_id") for r in replies] == ["a", None]
        assert replies[1] == {"status": "shutting_down"}


def test_encoder_matches_one_dumps_per_line():
    responses = [{"status": "ok", "p": 0.1}, {}, {"status": "ü"}]
    assert encode_responses(responses) == (
        json.dumps(responses[0]) + "\n" + json.dumps(responses[2]) + "\n")
