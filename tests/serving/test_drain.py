"""Graceful drain: shutdown never silently drops an accepted request.

In-process :class:`SocketServer` regression tests for the drain
contract: once a request line is accepted, shutdown either answers it
(drain) or — if it arrives after the queue closed — answers with a
typed ``shutting_down`` response.  Either way the client reads exactly
one response per request; ``drain_dropped`` stays 0 on a clean drain.
"""

import json
import socket
import threading
import time

import pytest

from repro.serving import ReplicaPool
from repro.serving.faults import SlowModel
from repro.serving.server import ServingStack, SocketServer

REQ = {"field_0": 1, "field_1": 2, "field_2": 3}


def make_server(make_service, lr_model, *, delay_s=0.0, **server_kwargs):
    model = SlowModel(lr_model, delay_s) if delay_s else lr_model
    pool = ReplicaPool([make_service(model=model)])
    stack = ServingStack(service=pool,
                         model_name="lr", dataset="test", pool=pool)
    server = SocketServer(stack, **server_kwargs)
    host, port = server.start()
    return server, host, port


def connect(host, port):
    conn = socket.create_connection((host, port), timeout=10.0)
    return conn, conn.makefile("r", encoding="utf-8"), \
        conn.makefile("w", encoding="utf-8")


class TestGracefulDrain:
    def test_every_accepted_request_is_answered(self, make_service,
                                                lr_model):
        """Pipelined slow in-flight work + shutdown → zero silent drops."""
        server, host, port = make_server(make_service, lr_model,
                                         delay_s=0.01, workers=2,
                                         queue_depth=256)
        per_client, clients = 10, 4
        results = {}

        def client(tag):
            conn, rfile, wfile = connect(host, port)
            try:
                for i in range(per_client):
                    wfile.write(json.dumps(
                        {"features": REQ,
                         "request_id": f"{tag}-{i}"}) + "\n")
                wfile.flush()
                answers = [json.loads(rfile.readline())
                           for _ in range(per_client)]
                results[tag] = answers
            finally:
                conn.close()

        threads = [threading.Thread(target=client, args=(t,))
                   for t in range(clients)]
        for thread in threads:
            thread.start()
        time.sleep(0.03)              # shutdown lands mid-stream
        server.shutdown(drain_s=30.0)
        for thread in threads:
            thread.join(timeout=30.0)
            assert not thread.is_alive()

        assert server.drain_dropped == 0
        assert server.pending == 0
        assert len(results) == clients
        for tag, answers in results.items():
            assert len(answers) == per_client
            ids = {a["request_id"] for a in answers}
            assert ids == {f"{tag}-{i}" for i in range(per_client)}
            for answer in answers:
                # Every answer is typed: a prediction, or an explicit
                # shed/shutting_down — never a missing or torn line.
                assert answer["status"] in ("ok", "degraded", "shed")

    def test_request_after_queue_close_gets_typed_answer(self, make_service,
                                                         lr_model):
        server, host, port = make_server(make_service, lr_model, workers=1)
        try:
            conn, rfile, wfile = connect(host, port)
            server.queue.close()      # shutdown raced ahead of this client
            wfile.write(json.dumps({"features": REQ,
                                    "request_id": "late"}) + "\n")
            wfile.flush()
            answer = json.loads(rfile.readline())
            assert answer["status"] == "shed"
            assert answer["request_id"] == "late"
            assert answer["error"]["reason"] == "shutting_down"
            conn.close()
        finally:
            server.shutdown(drain_s=1.0)

    def test_idle_shutdown_is_clean_and_fast(self, make_service, lr_model):
        server, _host, _port = make_server(make_service, lr_model)
        started = time.monotonic()
        server.shutdown(drain_s=30.0)
        assert time.monotonic() - started < 5.0
        assert server.drain_dropped == 0
        assert server.pending == 0

    def test_probes_still_answer_during_drain_window(self, make_service,
                                                     lr_model):
        """Ops like health bypass the queue, so they answer even after
        the queue has closed (monitoring keeps working while draining)."""
        server, host, port = make_server(make_service, lr_model, workers=1)
        try:
            server.queue.close()
            conn, rfile, wfile = connect(host, port)
            wfile.write(json.dumps({"op": "health"}) + "\n")
            wfile.flush()
            answer = json.loads(rfile.readline())
            assert answer["status"] == "ok"
            conn.close()
        finally:
            server.shutdown(drain_s=1.0)
