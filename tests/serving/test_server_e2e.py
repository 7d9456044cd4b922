"""Process-level serving chaos: real sockets, SIGKILL, restart, recovery.

The scenario the subsystem exists for: a serving process is killed hard
mid-traffic; a replacement started against the same checkpoint directory
must come back ready with the same promoted weights, and a replica whose
circuit breaker is open must still answer every request (degraded, not
erroring).  These spawn real ``repro serve`` subprocesses, so they are
the slowest tests in the suite — CI runs them in the dedicated
``serving-chaos`` job.
"""

import json
import os
import signal
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from repro.resilience.checkpoint import CheckpointManager
from repro.serving.faults import CheckpointSwapper

pytestmark = pytest.mark.serving

SRC = str(Path(__file__).resolve().parents[2] / "src")
SAMPLES = "2000"  # keep dataset builds in the subprocesses fast


@pytest.fixture(scope="module")
def checkpoint_dir(tmp_path_factory):
    """A checkpoint directory holding one valid LR checkpoint.

    Built through the same stack constructor the CLI uses, so the
    checkpointed model matches what the spawned servers instantiate.
    """
    from repro.serving.server import build_serving_stack

    directory = tmp_path_factory.mktemp("serve-ckpts")
    stack = build_serving_stack("LR", "criteo", "quick",
                                samples=int(SAMPLES))
    CheckpointSwapper(CheckpointManager(directory)).write_valid(
        stack.service.replicas[0].service.model)
    return directory


def start_server(*extra_args):
    """Spawn ``repro serve --mode socket`` and wait for its ready line."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--model", "LR",
         "--samples", SAMPLES, "--mode", "socket", "--port", "0",
         *extra_args],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        env={**os.environ, "PYTHONPATH": SRC})
    line = proc.stdout.readline()
    if not line:
        proc.kill()
        raise AssertionError(
            f"server exited before ready (code {proc.wait()})")
    ready = json.loads(line)
    assert ready["status"] == "ready"
    return proc, ready["host"], ready["port"]


def rpc(host, port, payloads, timeout=30.0):
    """Send JSONL payloads on one connection; one response per payload."""
    responses = []
    with socket.create_connection((host, port), timeout=timeout) as conn:
        stream = conn.makefile("rw")
        for payload in payloads:
            stream.write(json.dumps(payload) + "\n")
            stream.flush()
            responses.append(json.loads(stream.readline()))
    return responses


def shutdown(proc, host, port):
    try:
        rpc(host, port, [{"op": "shutdown"}], timeout=5.0)
    except OSError:
        pass
    try:
        proc.wait(timeout=10.0)
    except subprocess.TimeoutExpired:
        proc.kill()


class TestKillRestart:
    def test_sigkill_loses_no_checkpoint_state(self, checkpoint_dir):
        proc, host, port = start_server("--checkpoint-dir",
                                        str(checkpoint_dir))
        try:
            ready, = rpc(host, port, [{"op": "ready"}])
            assert ready["ready"] is True
            assert ready["model_version"] == "epoch-00000001"

            ok, bad = rpc(host, port, [
                {"features": {"field_0": 1}, "request_id": "a"},
                {"features": {"no_such_field": 1}, "request_id": "b"},
            ])
            assert ok["status"] == "ok"
            assert 0.0 <= ok["probability"] <= 1.0
            assert bad["status"] == "invalid"
            assert bad["error"]["code"] == "invalid_request"
        finally:
            # Hard kill mid-session: no graceful shutdown, no flushing.
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=10.0)

        # The checkpoint directory is untouched by the crash...
        assert CheckpointManager(checkpoint_dir).latest_valid() is not None

        # ...so a replacement replica recovers the same promoted state.
        proc, host, port = start_server("--checkpoint-dir",
                                        str(checkpoint_dir))
        try:
            ready, = rpc(host, port, [{"op": "ready"}])
            assert ready["ready"] is True
            assert ready["model_version"] == "epoch-00000001"
            response, = rpc(host, port,
                            [{"features": {"field_0": 1}}])
            assert response["status"] == "ok"
        finally:
            shutdown(proc, host, port)


class TestBatchedSocket:
    def test_concurrent_pipelined_clients_coalesce(self):
        """Concurrent clients pipelining requests against a batching
        server: every request is answered for its own connection, and
        the ``serve.batch_size`` histogram proves coalescing happened."""
        import threading

        proc, host, port = start_server(
            "--batch-size", "8", "--batch-wait-ms", "25",
            "--workers", "2", "--queue-depth", "512",
            "--inject", "slow:0.01")
        n_clients, n_requests = 4, 16
        failures = []

        def client(tag):
            try:
                with socket.create_connection((host, port),
                                              timeout=30.0) as conn:
                    stream = conn.makefile("rw")
                    # Pipeline: write everything, then read everything.
                    for i in range(n_requests):
                        stream.write(json.dumps(
                            {"features": {"field_0": i % 5},
                             "request_id": f"{tag}-{i}"}) + "\n")
                    stream.flush()
                    got = [json.loads(stream.readline())
                           for _ in range(n_requests)]
                expected = {f"{tag}-{i}" for i in range(n_requests)}
                assert {r["request_id"] for r in got} == expected
                for response in got:
                    assert response["status"] in ("ok", "degraded", "shed")
            except Exception as exc:  # surfaced after join
                failures.append((tag, exc))

        try:
            threads = [threading.Thread(target=client, args=(f"c{c}",))
                       for c in range(n_clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not failures, failures

            metrics, = rpc(host, port, [{"op": "metrics"}])
            histogram = metrics["replica.0.serve.batch_size"]
            assert histogram["count"] >= 1
            # Pipelined concurrent load over slow scoring must have
            # coalesced at least one multi-request batch.
            assert histogram["max"] > 1
            assert (metrics["replica.0.serve.batches"]["value"]
                    == histogram["count"])
        finally:
            shutdown(proc, host, port)


class TestDegradedUnderOpenBreaker:
    def test_flaky_replica_answers_every_request(self):
        # Long cooldown so the breaker stays open for the whole test even
        # on a slow CI machine (no half-open flap between assertions).
        proc, host, port = start_server("--inject", "flaky:100",
                                        "--breaker-threshold", "2",
                                        "--breaker-cooldown", "300")
        try:
            responses = rpc(host, port, [
                {"features": {"field_0": i}, "request_id": f"r{i}"}
                for i in range(6)
            ])
            for response in responses:
                assert response["status"] == "degraded"
                assert 0.0 <= response["probability"] <= 1.0
            assert {r["degraded_reason"] for r in responses[2:]} == {
                "breaker_open"}
            health, = rpc(host, port, [{"op": "health"}])
            assert health["replicas"][0]["breaker"] == "open"
            assert health["ready"] is True  # degraded ≠ unready
        finally:
            shutdown(proc, host, port)
